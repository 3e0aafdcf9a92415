"""Eventually constant hitting sets against the enumeration oracle.

`pushforward.hit_means` reads a ball's hitting density over F_n and
over F_n.t from the shifts in [-A, A] plus two constant tails.  Every
reading must equal acting on and testing every element of
`folner.elements` (multiplied by t for a translate), including radii
on and next to the limit distance D, where membership switches late or
never settles."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from meandyn import folner, pushforward, spaces
from meandyn.folner import ZCentered, ZInitial, ZShifted
from meandyn.gallery import (LAMPLIGHTER, LAMPLIGHTER_Z, LITERATURE_DOCK,
                             MINF1, MINF2, PINF1, THREE_GLUED, TP_MINF,
                             TP_PINF, TWO_POINT, down, up)
from meandyn.groups import INTEGERS, IntShift, multiply
from meandyn.spaces import (M_INF, O_INF, P_INF, SHIFT, TRANSLATE, Ball,
                            Point, act, contains, metric, one_point_space,
                            two_point_space)

LAMPLIGHTER_Z_TRANSLATE = one_point_space((0, 1), INTEGERS, TRANSLATE,
                                          name="lamplighter-z-translate")
TWO_POINT_SHIFT = two_point_space((1,), action=SHIFT, name="two-point-shift")
SPACES = (TWO_POINT, TWO_POINT_SHIFT, THREE_GLUED, LITERATURE_DOCK,
          LAMPLIGHTER_Z, LAMPLIGHTER_Z_TRANSLATE, LAMPLIGHTER)
Z_FAMILIES = (ZInitial(), ZCentered(), ZShifted())
PROPERTY = settings(deadline=None, max_examples=300)


def limit_pair(space, pair, sign):
    """Each finite leg replaced by the point it tends to as the shift
    goes to sign * infinity."""
    def leg(p):
        if p.is_limit():
            return p
        if space.kind == spaces.ONE_POINT:
            return Point(O_INF, p.copy)
        forward = (sign > 0) == (space.action == TRANSLATE)
        return Point(P_INF if forward else M_INF, p.copy)
    return tuple(leg(p) for p in pair)


def limit_distances(space, pair, center):
    return {metric(space, center, limit_pair(space, pair, sign))
            for sign in (-1, 1)}


def points(space, coords):
    finite = st.builds(Point, coords, st.sampled_from(space.copies))
    return st.one_of(finite, st.sampled_from(space.limit_points()))


# near 0, or far out so that the start's own offset dominates A
COORDS = st.one_of(st.integers(-8, 8), st.integers(-300, 300))


@st.composite
def cases(draw):
    space = draw(st.sampled_from(SPACES))
    pair = (draw(points(space, COORDS)), draw(points(space, COORDS)))
    center = (draw(points(space, st.integers(-8, 8))),
              draw(points(space, st.integers(-8, 8))))
    limit = draw(st.sampled_from(sorted(limit_distances(space, pair, center))))
    k = draw(st.integers(1, 200))
    radius = draw(st.sampled_from((limit, limit - Fraction(1, k),
                                   limit + Fraction(1, k), Fraction(1, 5),
                                   Fraction(1, 2), Fraction(3, 2))))
    family = draw(st.sampled_from(Z_FAMILIES))
    ns = draw(st.lists(st.integers(1, 250), min_size=1, max_size=3))
    # shifts near where a finite leg crosses 0, where late switches sit
    focus = [s * p.coord for p in pair if not p.is_limit()
             for s in (-1, 1)] or [0]
    near = st.sampled_from(focus).flatmap(
        lambda f: st.integers(f - 250, f + 250))
    translates = draw(st.lists(st.one_of(st.integers(-600, 600), near),
                               max_size=3))
    requests = [(n, None) for n in ns]
    requests += [(draw(st.integers(1, 60)), IntShift(t)) for t in translates]
    return space, pair, Ball(center, radius), family, requests


def oracle(space, pair, ball, family, n, t):
    """Act on and test every element of F_n, or of F_n.t."""
    els = folner.elements(family, n)
    if t is not None:
        els = [multiply(f, t) for f in els]
    return Fraction(sum(contains(space, ball, act(space, g, pair))
                        for g in els), len(els))


class CountingContains:
    """Counts `spaces.contains` calls made through the module."""

    def __enter__(self):
        self.calls = 0
        self.inner = spaces.contains

        def counted(*args):
            self.calls += 1
            return self.inner(*args)

        spaces.contains = counted
        return self

    def __exit__(self, *exc):
        spaces.contains = self.inner


def requested_shifts(family, requests):
    shifts = set()
    for n, t in requests:
        lo, hi = folner.shift_window(family, n)
        a = 0 if t is None else t.a
        shifts.update(range(lo + a, hi + a + 1))
    return shifts


@PROPERTY
@given(cases())
# two legs far from 0 that head the wrong way first: A needs |c|
@example((TWO_POINT, (Point(250, 1), Point(250, 1)),
          Ball((TP_MINF, TP_MINF), Fraction(1, 2)), ZCentered(),
          [(240, None), (30, IntShift(-270))]))
# both legs err the same way: A needs the gap shared between the legs
@example((TWO_POINT, (Point(0, 1), Point(0, 1)),
          Ball((TP_MINF, TP_MINF), 2 - Fraction(1, 100)), ZCentered(),
          [(90, None)]))
# the two tails differ, and only the centered window sees both
@example((THREE_GLUED, (Point(0, 1), Point(0, 3)),
          Ball((MINF1, MINF2), Fraction(1, 5)), ZCentered(), [(200, None)]))
@example((LAMPLIGHTER_Z, (up(40), down(-40)),
          Ball((up(O_INF), down(O_INF)), Fraction(1, 60)), ZCentered(),
          [(120, None), (20, IntShift(500))]))
# no finite leg: constant everywhere, even with the limit on the sphere
@example((THREE_GLUED, (PINF1, MINF2), Ball((PINF1, MINF2), Fraction(0)),
          ZInitial(), [(5, None), (5, IntShift(-9))]))
def test_hit_means_equal_enumeration(case):
    space, pair, ball, family, requests = case
    with CountingContains() as counter:
        got = pushforward.hit_means(space, pair, ball, family, requests)
    assert got == [oracle(space, pair, ball, family, n, t)
                   for n, t in requests]
    assert counter.calls <= len(requested_shifts(family, requests))


@st.composite
def late_switches(draw):
    """Finite legs and a radius 1/k off a limit distance, with one
    centered window that reaches past every shift where membership can
    still switch."""
    space = draw(st.sampled_from(SPACES))
    first = Point(draw(COORDS), draw(st.sampled_from(space.copies)))
    # legs at one coordinate err by the same amount at every shift
    second = draw(st.one_of(points(space, COORDS),
                            st.builds(Point, st.just(first.coord),
                                      st.sampled_from(space.copies))))
    pair = (first, second)
    center = (draw(points(space, st.integers(-8, 8))),
              draw(points(space, st.integers(-8, 8))))
    limit = draw(st.sampled_from(sorted(limit_distances(space, pair, center))))
    k = draw(st.integers(1, 200))
    radius = limit + draw(st.sampled_from((-1, 1))) * Fraction(1, k)
    reach = max(abs(p.coord) for p in pair if not p.is_limit()) + k + 2
    return space, pair, Ball(center, radius), ZCentered(), [(reach, None)]


@settings(deadline=None, max_examples=150)
@given(late_switches())
def test_late_switches_equal_enumeration(case):
    space, pair, ball, family, requests = case
    (n, _), = requests
    assert pushforward.hit_means(space, pair, ball, family, requests) == [
        oracle(space, pair, ball, family, n, None)]


def test_gap_zero_takes_the_sweep():
    # the first leg tends to +inf^1, at distance 1/6 from the centre's
    # first leg, which is the radius: the limit sits on the sphere
    pair = (Point(3, 1), TP_MINF)
    ball = Ball((Point(2, 1), TP_MINF), Fraction(1, 6))
    limits = limit_distances(TWO_POINT, pair, ball.center)
    assert ball.radius in limits
    assert pushforward._tails(TWO_POINT, pair, ball) is None
    requests = [(n, None) for n in range(1, 41)]
    with CountingContains() as counter:
        got = pushforward.hit_means(TWO_POINT, pair, ball, ZCentered(),
                                    requests)
    assert counter.calls == len(requested_shifts(ZCentered(), requests))
    assert got == [oracle(TWO_POINT, pair, ball, ZCentered(), n, None)
                   for n, _ in requests]


def test_closed_form_skips_the_far_shifts():
    pair = (Point(-3, 1), TP_MINF)
    ball = Ball((TP_PINF, TP_MINF), Fraction(1, 5))
    bound, below, above = pushforward._tails(TWO_POINT, pair, ball)
    assert (below, above) == (False, True)
    requests = [(500, None), (30, IntShift(-2000)), (30, IntShift(2000))]
    with CountingContains() as counter:
        got = pushforward.hit_means(TWO_POINT, pair, ball, ZCentered(),
                                    requests)
    assert counter.calls == 2 * bound + 1
    assert got == [oracle(TWO_POINT, pair, ball, ZCentered(), n, t)
                   for n, t in requests]
    assert got[1:] == [0, 1]
