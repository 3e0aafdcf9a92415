import random
from fractions import Fraction

import pytest

from meandyn import density, folner, measures
from meandyn.density import (hitting_density, ua_dens_estimate,
                             ub_dens_estimate)
from meandyn.folner import ZCentered, ZInitial
from meandyn.gallery import (LITERATURE_DOCK, MINF1, MINF2, THREE_GLUED,
                             TP_MINF, TP_PINF, TWO_POINT)
from meandyn.groups import IntShift
from meandyn.spaces import Ball, Point, act, contains, truncate


def test_hits_members():
    u = Ball((TP_PINF, TP_MINF), Fraction(1, 5))
    pair = (Point(-3, 1), TP_MINF)
    els = folner.elements(ZInitial(), 30)
    got = [g for g in els if contains(TWO_POINT, u, act(TWO_POINT, g, pair))]
    # the first leg needs to climb past the radius before entering
    assert got and all(g.a >= 5 for g in got)
    rec = hitting_density(TWO_POINT, pair, u, els)
    assert rec.count == len(got) and rec.total == 30
    assert rec.ratio == Fraction(len(got), 30)


def test_hitting_ratio_equals_empirical_mass_exact():
    # the density of hits equals the mass the empirical pair measure
    # gives the neighborhood, exactly
    rng = random.Random(7)
    pts = truncate(THREE_GLUED, 12)
    for _ in range(60):
        pair = (rng.choice(pts), rng.choice(pts))
        center = (rng.choice(pts), rng.choice(pts))
        u = Ball(center, Fraction(rng.randrange(1, 8), 8))
        n = rng.randrange(3, 40)
        fam = rng.choice([ZInitial(), ZCentered()])
        rec = hitting_density(THREE_GLUED, pair, u, folner.elements(fam, n))
        emp = measures.empirical(THREE_GLUED, pair, fam, n)
        assert rec.ratio == emp.mass(u)


def test_ua_profile():
    pair = (Point(-3, 1), TP_MINF)
    u = Ball((TP_PINF, TP_MINF), Fraction(1, 5))
    prof = ua_dens_estimate(TWO_POINT, pair, u, ZInitial(), (1, 80))
    assert prof.tail_max > Fraction(4, 5)
    assert prof.ratios[0] == 0
    assert prof.rows()[-1][0] == 80


def test_ua_fixed_pair_density_one():
    inf = Point("inf", 0)
    u = Ball((inf, inf), Fraction(1, 3))
    prof = ua_dens_estimate(LITERATURE_DOCK, (inf, inf), u, ZInitial(), (1, 10))
    assert all(r == 1 for r in prof.ratios)


def test_ub_translates_beat_initial_window():
    # along the initial window the centered pair only hits late; a far
    # translate of the same shape hits throughout
    pair = (Point(3, 1), Point(3, 3))
    u = Ball((MINF1, MINF2), Fraction(2, 5))
    prof = ua_dens_estimate(THREE_GLUED, pair, u, ZInitial(), (1, 40))
    est = ub_dens_estimate(THREE_GLUED, pair, u, ZInitial(), 20,
                           translates=[IntShift(t) for t in range(-200, 201, 10)])
    assert est["sup"] == 1
    assert est["sup"] > prof.tail_max
    assert est["argmax"].a < -20


def test_ub_default_translate_range():
    pair = (Point(-3, 1), TP_MINF)
    u = Ball((TP_PINF, TP_MINF), Fraction(1, 5))
    est = ub_dens_estimate(TWO_POINT, pair, u, ZInitial(), 10,
                           [IntShift(t) for t in range(-50, 51)])
    assert est["sup"] == 1
    assert est["translates"] == 101


def test_ub_accepts_a_generator():
    pair = (Point(-3, 1), TP_MINF)
    u = Ball((TP_PINF, TP_MINF), Fraction(1, 5))
    translates = [IntShift(t) for t in range(-50, 51)]
    est = ub_dens_estimate(TWO_POINT, pair, u, ZInitial(), 10,
                           (t for t in translates))
    assert est["translates"] == 101
    assert est == ub_dens_estimate(TWO_POINT, pair, u, ZInitial(), 10,
                                   translates)


def test_ua_rejects_an_inverted_window():
    u = Ball((TP_PINF, TP_MINF), Fraction(1, 5))
    with pytest.raises(ValueError, match=r"window \(5, 3\) is empty"):
        ua_dens_estimate(TWO_POINT, (Point(-3, 1), TP_MINF), u, ZInitial(),
                         (5, 3))


def test_hitting_density_rejects_empty_elements():
    u = Ball((TP_PINF, TP_MINF), Fraction(1, 5))
    with pytest.raises(ValueError, match="elements is empty"):
        hitting_density(TWO_POINT, (Point(-3, 1), TP_MINF), u, [])
