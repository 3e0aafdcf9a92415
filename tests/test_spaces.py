import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meandyn.gallery import (LAMPLIGHTER, LAMPLIGHTER_Z, LITERATURE_DOCK,
                             MINF1, MINF2, PINF1, PINF2, THREE_GLUED,
                             TWO_POINT, down, up)
from meandyn.groups import IntShift, Lamp
from meandyn.spaces import (Ball, M_INF, ONE_POINT, O_INF, P_INF, Point,
                            PointSet, ProductOf, Tail, act, canonical,
                            contains, copy_gap, embed, metric,
                            nearest_distance, parse_point, render_point,
                            snap_threshold, truncate, two_point_space)

SPACES = [LITERATURE_DOCK, LAMPLIGHTER_Z, LAMPLIGHTER, TWO_POINT, THREE_GLUED]


def test_one_point_embedding_values():
    s = LITERATURE_DOCK
    assert embed(s, Point(0, 0)) == 1
    assert embed(s, Point(1, 0)) == Fraction(1, 3)
    assert embed(s, Point(-1, 0)) == Fraction(-1, 3)
    assert embed(s, Point(O_INF, 0)) == 0


def test_two_point_embedding_values():
    s = TWO_POINT
    assert embed(s, Point(M_INF, 1)) == 0
    assert embed(s, Point(P_INF, 1)) == 1
    assert embed(s, Point(0, 1)) == Fraction(1, 2)
    assert embed(s, Point(1, 1)) == Fraction(3, 4)
    assert embed(s, Point(-1, 1)) == Fraction(1, 4)


def test_three_glued_layout():
    s = THREE_GLUED
    # copy 1 rises over [0,1], copy 3 runs back over [1,2], copy 2 over [2,3]
    assert embed(s, MINF1) == 0
    assert embed(s, PINF1) == 1
    assert embed(s, Point(P_INF, 3)) == 1
    assert embed(s, Point(M_INF, 3)) == 2
    assert embed(s, MINF2) == 2
    assert embed(s, PINF2) == 3
    assert embed(s, Point(0, 3)) == Fraction(3, 2)
    assert canonical(s, Point(P_INF, 3)) == PINF1
    assert canonical(s, Point(M_INF, 3)) == MINF2


def test_copy_separation():
    assert metric(LAMPLIGHTER, up(0), down(0)) == 1
    assert metric(LAMPLIGHTER, up(O_INF), down(O_INF)) == 1
    assert metric(TWO_POINT, Point(P_INF, 1), Point(M_INF, 1)) == 1


def test_pair_metric_is_sum():
    p = (up(0), down(3))
    q = (up(2), down(3))
    assert metric(LAMPLIGHTER, p, q) == metric(LAMPLIGHTER, up(0), up(2))


@pytest.mark.parametrize("space", SPACES)
def test_metric_axioms_on_truncation(space):
    pts = truncate(space, 4)
    for p in pts:
        assert metric(space, p, p) == 0
    for p, q in itertools.combinations(pts, 2):
        assert metric(space, p, q) > 0
        assert metric(space, p, q) == metric(space, q, p)
    for p, q, r in itertools.islice(itertools.permutations(pts, 3), 4000):
        assert metric(space, p, r) <= metric(space, p, q) + metric(space, q, r)


def test_truncate_counts():
    assert len(truncate(LAMPLIGHTER_Z, 2)) == 2 * 5 + 2
    assert len(truncate(TWO_POINT, 3)) == 7 + 2
    assert len(truncate(THREE_GLUED, 0)) == 3 + 4


def test_translate_action():
    assert act(LITERATURE_DOCK, IntShift(4), Point(1, 0)) == Point(5, 0)
    assert act(LITERATURE_DOCK, IntShift(4), Point(O_INF, 0)) == Point(O_INF, 0)
    assert act(THREE_GLUED, IntShift(-2), Point(0, 3)) == Point(-2, 3)
    assert act(THREE_GLUED, IntShift(5), PINF1) == PINF1


def test_shift_and_toggle_action():
    assert act(LAMPLIGHTER_Z, IntShift(2), up(0)) == up(-2)
    assert act(LAMPLIGHTER, Lamp(2, (0,)), up(0)) == down(-2)
    assert act(LAMPLIGHTER, Lamp(2, (1,)), up(0)) == up(-2)
    assert act(LAMPLIGHTER, Lamp(0, (3,)), down(3)) == up(3)
    # integer shifts embed into the lamplighter action
    assert act(LAMPLIGHTER, IntShift(2), up(0)) == up(-2)


def test_action_fixes_limits_and_preserves_metric_near_them():
    for g in (IntShift(1), IntShift(-3)):
        for lim in THREE_GLUED.limit_points():
            assert act(THREE_GLUED, g, lim) == lim


def test_wrong_group_element_rejected():
    with pytest.raises(ValueError):
        act(LITERATURE_DOCK, Lamp(1, ()), Point(0, 0))
    with pytest.raises(ValueError):
        act(TWO_POINT, Lamp(1, ()), Point(0, 1))
    with pytest.raises(ValueError):
        embed(TWO_POINT, Point(0, 9))


def test_a_point_outside_the_space_is_rejected_even_against_itself():
    stray = Point(0, 9)
    with pytest.raises(ValueError, match="copy 9"):
        metric(TWO_POINT, stray, stray)
    with pytest.raises(ValueError, match="copy 9"):
        contains(TWO_POINT, Ball(stray, Fraction(1, 2)), stray)
    with pytest.raises(ValueError, match="copy 9"):
        metric(TWO_POINT, (Point(0, 1), stray), (Point(0, 1), stray))


def test_point_text_roundtrip():
    for text, expect in [("5^1", Point(5, 1)), ("+inf^2", Point(P_INF, 2)),
                         ("inf^0", Point(O_INF, 0)), ("up_3", up(3)),
                         ("down_inf", down(O_INF))]:
        assert parse_point(text) == expect
    pair = parse_point("-3^1;+inf^2")
    assert pair == (Point(-3, 1), Point(P_INF, 2))
    assert parse_point(render_point(pair)) == pair


def test_neighborhoods():
    s = THREE_GLUED
    ball = Ball(MINF1, Fraction(1, 8))
    assert contains(s, ball, Point(-8, 1))
    assert not contains(s, ball, Point(0, 1))
    u = PointSet(frozenset([MINF1]), (Tail(1, "le", -1),))
    assert contains(s, u, Point(-200, 1))
    assert contains(s, u, MINF1)
    assert not contains(s, u, Point(0, 1))
    assert not contains(s, u, Point(-5, 2))
    prod = ProductOf(u, PointSet(frozenset(), (Tail(2, "ge", 3),)))
    assert contains(s, prod, (Point(-1, 1), Point(7, 2)))
    assert not contains(s, prod, (Point(-1, 1), Point(2, 2)))


def test_point_set_rejects_a_copy_outside_the_space():
    u = PointSet(frozenset([Point(0, 9)]), (Tail(9, "le", 5),))
    with pytest.raises(ValueError, match="copy 9"):
        contains(TWO_POINT, u, Point(-3, 9))
    # glued aliases are still read in their canonical form
    assert contains(THREE_GLUED, PointSet(frozenset([PINF1])), Point(P_INF, 3))


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_two_point_embedding_is_order_preserving(a, b):
    if a < b:
        assert embed(TWO_POINT, Point(a, 1)) < embed(TWO_POINT, Point(b, 1))


def points_of(space):
    """Points of the space as callers write them: glued aliases such as
    Point(P_INF, 3) on three-glued, limits, and coordinates both small
    and so large that distinct line coordinates round to one float."""
    limits = [O_INF] if space is LAMPLIGHTER_Z else [M_INF, P_INF]
    coord = st.one_of(st.integers(-12, 12), st.sampled_from(limits),
                      st.integers(10 ** 17, 10 ** 18),
                      st.integers(-10 ** 18, -10 ** 17))
    return st.builds(Point, coord, st.sampled_from(space.copies))


@st.composite
def two_sides(draw):
    space = draw(st.sampled_from([THREE_GLUED, TWO_POINT, LAMPLIGHTER_Z]))
    left = draw(st.lists(points_of(space), min_size=1, max_size=10))
    right = draw(st.lists(points_of(space), max_size=10))
    # some points sit on both sides
    right += draw(st.lists(st.sampled_from(left), max_size=2))
    if not right:
        right = [draw(points_of(space))]
    return space, left, right


@settings(deadline=None, max_examples=200)
@given(two_sides())
def test_nearest_distance_equals_brute_force(case):
    space, left, right = case
    want = min(metric(space, p, q) for p in left for q in right)
    assert nearest_distance(space, left, right) == want
    assert nearest_distance(space, right, left) == want


def test_nearest_distance_single_points_and_empty_sides():
    s = THREE_GLUED
    assert nearest_distance(s, [Point(P_INF, 3)], [PINF1]) == 0
    assert nearest_distance(s, [MINF1], [PINF2]) == 3
    assert nearest_distance(LAMPLIGHTER_Z, [up(O_INF)], [down(O_INF)]) == 1
    with pytest.raises(ValueError, match="both sides"):
        nearest_distance(s, [MINF1], [])
    with pytest.raises(ValueError, match="not in space"):
        nearest_distance(s, [MINF1], [Point(0, 9)])


FAR_LAYOUT = two_point_space((1, 2, 3, 4),
                             layout=((0, 1), (3, -1), (6, 1), (9, -1)),
                             name="far-layout")
# copies 2 and 3 both hang off +inf^1 and share the unit segment [1, 2]
BRANCHED = two_point_space((1, 2, 3), layout=((0, 1), (1, 1), (1, 1)),
                           gluings=((Point(M_INF, 2), Point(P_INF, 1)),
                                    (Point(M_INF, 3), Point(P_INF, 1))),
                           name="branched")


@pytest.mark.parametrize("space", SPACES + [FAR_LAYOUT, BRANCHED],
                         ids=lambda s: s.name)
def test_copy_gap_bounds_every_distance_between_two_copies(space):
    points = truncate(space, 6)
    for a, b in itertools.product(space.copies, repeat=2):
        least = min(metric(space, p, q) for p in points if p.copy == a
                    for q in points if q.copy == b)
        assert least >= copy_gap(space, a, b)


def test_copy_gap_values():
    assert copy_gap(THREE_GLUED, 1, 2) == 1     # one piece: layout ranges
    assert copy_gap(THREE_GLUED, 1, 3) == 0
    assert copy_gap(LAMPLIGHTER_Z, 0, 1) == 1   # across pieces: separation
    # ranges [0, 1] and [6, 7] are 5 apart, but the copies sit in
    # different pieces, 2 apart
    assert copy_gap(FAR_LAYOUT, 1, 3) == 2


@pytest.mark.parametrize("space", SPACES + [FAR_LAYOUT],
                         ids=lambda s: s.name)
def test_snap_threshold_is_exact(space):
    radius = Fraction(1, 10)
    bound = snap_threshold(space, radius)
    assert bound == (5 if space.kind == ONE_POINT else 4)
    limits = space.limit_points()
    for tag, s in itertools.product(space.copies, range(-20, 21)):
        near = [q for q in limits if metric(space, q, Point(s, tag)) <= radius]
        if abs(s) < bound:
            assert near == []
        else:
            end = (O_INF if space.kind == ONE_POINT
                   else P_INF if s > 0 else M_INF)
            assert near == [canonical(space, Point(end, tag))]


def test_snap_threshold_needs_a_proof():
    # a copy's end shares its place with another copy's end
    assert snap_threshold(BRANCHED, Fraction(1, 10)) is None
    # a glued end sits away from the place its layout gives it
    moved = two_point_space((1, 2), layout=((0, 1), (2, 1)),
                            gluings=((Point(M_INF, 2), Point(P_INF, 1)),))
    assert snap_threshold(moved, Fraction(1, 10)) is None
    assert snap_threshold(TWO_POINT, Fraction(1, 2)) is None


def test_only_limit_points_may_be_glued():
    for gluing in [(Point(0, 2), Point(P_INF, 1)),
                   (Point(M_INF, 2), Point(3, 1)),
                   (Point(0, 2), Point(-1, 1))]:
        with pytest.raises(ValueError, match="only limit points may be glued"):
            two_point_space((1, 2), gluings=[gluing])
    # gluings may come from a generator, which is read once
    glued = two_point_space((1, 2), gluings=iter([(Point(M_INF, 2),
                                                  Point(P_INF, 1))]))
    assert glued.gluings == ((Point(M_INF, 2), Point(P_INF, 1)),)
