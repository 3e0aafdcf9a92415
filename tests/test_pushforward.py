"""The pushforward kernel against the enumeration oracle: every sweep,
closed form and translate reading must equal what acting element by
element over `folner.elements` gives, exactly."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from meandyn import averaging, density, folner, pushforward
from meandyn.folner import BudgetError, LampBox, ZCentered, ZInitial, ZShifted
from meandyn.gallery import (LAMPLIGHTER, LAMPLIGHTER_Z, LITERATURE_DOCK,
                             THREE_GLUED, TP_MINF, TP_PINF, TWO_POINT, down,
                             up)
from meandyn.groups import GroupMismatchError, IntShift, Lamp, multiply
from meandyn.spaces import M_INF, O_INF, Ball, Point, act, contains, metric

INTEGER_SPACES = (LITERATURE_DOCK, LAMPLIGHTER_Z, TWO_POINT, THREE_GLUED)
Z_FAMILIES = (ZInitial(), ZCentered(), ZShifted())
RADII = (Fraction(1, 10), Fraction(1, 5), Fraction(1, 3), Fraction(1, 2),
         Fraction(1))
PROPERTY = settings(deadline=None, max_examples=100)


def points(space, coords=st.integers(-30, 30)):
    finite = st.builds(Point, coords, st.sampled_from(space.copies))
    return st.one_of(finite, st.sampled_from(space.limit_points()))


def pairs(space, coords=st.integers(-30, 30)):
    return st.tuples(points(space, coords), points(space, coords))


@st.composite
def integer_cases(draw):
    space = draw(st.sampled_from(INTEGER_SPACES))
    family = draw(st.sampled_from(Z_FAMILIES))
    lo = draw(st.integers(1, 20))
    hi = draw(st.integers(lo, lo + 25))
    ball = Ball(draw(pairs(space)), draw(st.sampled_from(RADII)))
    return space, family, (lo, hi), draw(pairs(space)), ball


def enumerated_mean(space, start, elements, weight):
    return Fraction(sum(weight(act(space, g, start)) for g in elements),
                    len(elements))


def distance(space):
    return lambda pair: metric(space, pair[0], pair[1])


def membership(space, nbhd):
    return lambda image: contains(space, nbhd, image)


# ------------------------------------------------------- integer sweeps

@PROPERTY
@given(integer_cases())
def test_sweep_ratios_equal_per_n_hitting_density(case):
    space, family, (lo, hi), pair, ball = case
    prof = density.ua_dens_estimate(space, pair, ball, family, (lo, hi))
    assert prof.ratios == [
        enumerated_mean(space, pair, folner.elements(family, n),
                        membership(space, ball))
        for n in range(lo, hi + 1)]


@PROPERTY
@given(integer_cases())
def test_cesaro_sweep_and_profile_equal_enumeration(case):
    space, family, (lo, hi), (x, y), _ = case
    want = [enumerated_mean(space, (x, y), folner.elements(family, n),
                            distance(space))
            for n in range(lo, hi + 1)]
    assert pushforward.distance_means(space, (x, y), family,
                                      range(lo, hi + 1)) == want
    prof = averaging.besicovitch_profile(space, x, y, family, (lo, hi))
    assert prof.values == want


@st.composite
def cesaro_cases(draw):
    space = draw(st.sampled_from(INTEGER_SPACES + (LAMPLIGHTER,)))
    coords = draw(st.sampled_from((st.integers(-30, 30),
                                   st.integers(-10 ** 6, 10 ** 6))))
    legs = draw(st.sampled_from((points, pairs)))
    x, y = draw(legs(space, coords)), draw(legs(space, coords))
    if space is LAMPLIGHTER and draw(st.booleans()):
        return space, LampBox(), draw(st.integers(1, 4)), x, y
    family = draw(st.sampled_from(Z_FAMILIES))
    return space, family, draw(st.integers(1, 60)), x, y


@settings(deadline=None, max_examples=300)
@given(cesaro_cases())
# three-glued: copy 1 rises over [0, 1], copy 3 runs back over [1, 2]
@example((THREE_GLUED, ZCentered(), 40, Point(3, 1), Point(-7, 3)))
@example((THREE_GLUED, ZShifted(), 30, (Point(-40, 1), Point(5, 2)),
          (Point(-35, 3), Point(M_INF, 2))))
# windows that carry a leg across 0: a one-point circle under each
# action, and a two-point interval
@example((LITERATURE_DOCK, ZCentered(), 25, Point(10, 0), Point(-4, 0)))
@example((LAMPLIGHTER_Z, ZCentered(), 25, up(10), down(-4)))
@example((LAMPLIGHTER, ZInitial(), 30, up(12), up(O_INF)))
@example((TWO_POINT, ZInitial(), 60, Point(-20, 1), TP_PINF))
@example((TWO_POINT, ZCentered(), 9, Point(10 ** 13, 1), Point(-3, 1)))
def test_cesaro_metric_equals_enumeration(case):
    space, family, n, x, y = case
    want = enumerated_mean(space, (x, y), folner.elements(family, n),
                           distance(space))
    assert averaging.cesaro_metric(space, x, y, family, n) == want


@pytest.mark.parametrize("space", [LITERATURE_DOCK, TWO_POINT])
def test_cesaro_metric_rejects_a_coordinate_that_is_not_an_int(space):
    x = Point(2.5, space.copies[0])
    with pytest.raises(TypeError, match="2.5 .* is not an int"):
        averaging.cesaro_metric(space, x, space.limit_points()[0],
                                ZCentered(), 5)


@PROPERTY
@given(integer_cases())
def test_integer_images_equal_enumeration(case):
    space, family, (_, n), pair, _ = case
    start = pair if n % 2 else pair[0]
    assert pushforward.images(space, start, family, n) == Counter(
        act(space, g, start) for g in folner.elements(family, n))


# ----------------------------------------------------- LampBox closed form

# coordinates straddle A_n = {n, ..., 2n} for every n <= 5
LAMP_COORDS = st.integers(-3, 13)


@st.composite
def lamp_translates(draw):
    kind = draw(st.sampled_from(("none", "shift", "lamps")))
    if kind == "none":
        return None
    lamps = ()
    if kind == "lamps":
        lamps = tuple(sorted(draw(st.sets(LAMP_COORDS, min_size=1,
                                          max_size=3))))
    return Lamp(draw(st.integers(-6, 6)), lamps)


@PROPERTY
@given(st.integers(1, 5), st.one_of(points(LAMPLIGHTER, LAMP_COORDS),
                                    pairs(LAMPLIGHTER, LAMP_COORDS)),
       lamp_translates())
@example(3, (up(4), up(4)), None)                  # equal coordinates
@example(2, (up(0), up(9)), None)                  # both outside A_n
@example(4, (LAMPLIGHTER.limit_points()[0], up(5)), Lamp(1, (5, 6)))
def test_lampbox_closed_form_equals_enumeration(n, start, translate):
    F = folner.elements(LampBox(), n)
    if translate is not None:
        F = [multiply(f, translate) for f in F]
    want = Counter(act(LAMPLIGHTER, g, start) for g in F)
    # F_n.t reads as F_n at the moved start: (f.t).x = f.(t.x)
    moved = start if translate is None else act(LAMPLIGHTER, translate, start)
    got = pushforward.images(LAMPLIGHTER, moved, LampBox(), n)
    assert got == want
    assert sum(got.values()) == folner.cardinality(LampBox(), n)
    assert len(got) <= 4 * (n + 1)


# ------------------------------------------------------ Banach translates

@st.composite
def banach_cases(draw):
    space = draw(st.sampled_from(INTEGER_SPACES + (LAMPLIGHTER,)))
    if space is LAMPLIGHTER:
        shape, n = LampBox(), draw(st.integers(1, 4))
        translates = draw(st.lists(lamp_translates().filter(bool),
                                   max_size=8))
        coords = LAMP_COORDS
    else:
        shape, n = draw(st.sampled_from(Z_FAMILIES)), draw(st.integers(1, 15))
        translates = [IntShift(t) for t in
                      draw(st.lists(st.integers(-60, 60), max_size=12))]
        coords = st.integers(-30, 30)
    ball = Ball(draw(pairs(space, coords)), draw(st.sampled_from(RADII)))
    return space, shape, n, translates, draw(pairs(space, coords)), ball


@PROPERTY
@given(banach_cases())
@example((TWO_POINT, ZInitial(), 5, [IntShift(3), IntShift(-40)],
          (up(0), up(0)), Ball((up(20), up(20)), Fraction(1, 10))))
@example((TWO_POINT, ZInitial(), 5, [IntShift(3), IntShift(-40)],
          (up(0), up(0)), Ball((TP_MINF, TP_PINF), Fraction(1, 10))))
def test_translate_sweep_equals_enumeration(case):
    space, shape, n, translates, pair, ball = case
    base = folner.elements(shape, n)
    ratios = [enumerated_mean(space, pair, [multiply(f, t) for f in base],
                              membership(space, ball))
              for t in translates]
    sup, argmax = Fraction(0), None
    for t, r in zip(translates, ratios):   # first strict maximum
        if r > sup:
            sup, argmax = r, t
    est = density.ub_dens_estimate(space, pair, ball, shape, n,
                                   (t for t in translates))
    assert (est["sup"], est["argmax"]) == (sup, argmax)
    assert est["translates"] == len(translates)
    if not any(ratios):
        assert est["argmax"] is None


def test_translate_argmax_is_none_when_nothing_hits():
    # the two legs sit at opposite ends, a distance 1 from the centre
    ball = Ball((TP_MINF, TP_PINF), Fraction(1, 10))
    est = density.ub_dens_estimate(TWO_POINT, (up(0), up(0)), ball,
                                   ZInitial(), 5, [IntShift(3), IntShift(-40)])
    assert (est["sup"], est["argmax"], est["translates"]) == (0, None, 2)


def test_translates_test_each_distinct_image_once(monkeypatch):
    # a toggle far from the legs moves no image, so these translates
    # share most of their images
    pair, n = (up(5), down(6)), 3
    ball = Ball((up(O_INF), down(O_INF)), Fraction(1, 5))
    translates = [Lamp(0, ()), Lamp(0, (40,)), Lamp(1, ()), Lamp(1, (-40,))]
    base = folner.elements(LampBox(), n)
    distinct = {act(LAMPLIGHTER, multiply(f, t), pair)
                for f in base for t in translates}
    tested = []

    def counted(space, nbhd, image):
        tested.append(image)
        return contains(space, nbhd, image)

    monkeypatch.setattr(pushforward.spaces, "contains", counted)
    totals = pushforward.hit_totals(LAMPLIGHTER, pair, ball, LampBox(),
                                    [(n, t) for t in translates])
    assert sorted(tested, key=repr) == sorted(distinct, key=repr)
    assert totals == [
        enumerated_mean(LAMPLIGHTER, pair, [multiply(f, t) for f in base],
                        membership(LAMPLIGHTER, ball)) * len(base)
        for t in translates]


# ------------------------------------------------------------ edge cases

def test_budget_error_fires_at_the_same_index():
    pair = (up(5), up(6))
    ball = Ball(pair, Fraction(1, 2))
    budget = folner.cardinality(LampBox(), 4)
    assert len(density.ua_dens_estimate(LAMPLIGHTER, pair, ball, LampBox(),
                                        (1, 4), budget).ratios) == 4
    with pytest.raises(BudgetError):
        density.ua_dens_estimate(LAMPLIGHTER, pair, ball, LampBox(), (1, 5),
                                 budget)
    with pytest.raises(BudgetError):
        density.ub_dens_estimate(LAMPLIGHTER, pair, ball, LampBox(), 5, [],
                                 budget)


def test_translate_from_the_wrong_group_is_rejected():
    pair = (up(5), up(6))
    ball = Ball(pair, Fraction(1, 2))
    with pytest.raises(GroupMismatchError):
        density.ub_dens_estimate(LAMPLIGHTER, pair, ball, LampBox(), 3,
                                 [IntShift(1)])
    with pytest.raises(GroupMismatchError):
        density.ub_dens_estimate(LAMPLIGHTER_Z, pair, ball, ZInitial(), 3,
                                 [Lamp(1, ())])
