"""Acceptance gate: one numbered check per advertised guarantee, each
printing a PASS/FAIL line (run with -s to see them)."""

import random
import time
from fractions import Fraction

from meandyn import averaging, density, folner, gallery, measures, relations
from meandyn.folner import LampBox, ZCentered, ZInitial, ZShifted
from meandyn.gallery import (LAMPLIGHTER, LAMPLIGHTER_CASES, LAMPLIGHTER_Z,
                             LITERATURE_DOCK, MINF1, MINF2, PINF1, PINF2,
                             QUICK, THREE_GLUED, THREE_GLUED_CASES,
                             THREE_GLUED_MODEL, TP_MINF, TP_PINF, TWO_POINT,
                             TWO_POINT_CASES, TWO_POINT_MODEL, UP_INF,
                             down, lamp_schedule, negative_tails_product,
                             three_glued_expected_hull,
                             two_point_expected_hull, up, z_schedule)
from meandyn.groups import Lamp, multiply
from meandyn.spaces import (Ball, Point, PointSet, ProductOf, act, embed,
                            metric, truncate)


def _verdict(num, ok):
    print("ACCEPTANCE %d: %s" % (num, "PASS" if ok else "FAIL"))
    assert ok


def test_criterion_1_box_cardinality():
    t0 = time.monotonic()
    ok = all(folner.cardinality(LampBox(), n) == (n + 1) * 2 ** (n + 1)
             == len(folner.elements(LampBox(), n)) for n in range(1, 13))
    ok = ok and time.monotonic() - t0 < 5.0
    _verdict(1, ok)


def test_criterion_2_defect_exact_and_bounded():
    sigma = Lamp(1, ())
    ok = all(folner.defect(LampBox(), n, [sigma]) == Fraction(1, n + 1)
             for n in range(1, 13))
    ok = ok and all(folner.defect(LampBox(), 3, [g])
                    <= folner.lamp_defect_bound(g, 3)
                    for g in folner.elements(LampBox(), 3))
    rng = random.Random(2024)
    for _ in range(100):
        a = rng.randrange(-6, 7)
        sites = tuple(sorted(rng.sample(range(-8, 9), rng.randrange(0, 5))))
        g = Lamp(a, sites)
        ok = ok and (folner.defect(LampBox(), 5, [g])
                     <= folner.lamp_defect_bound(g, 5))
    _verdict(2, ok)


def test_criterion_3_decomposition_identity():
    ok = True
    for n in range(1, 11):
        pair = (up(n), up(n + 1))
        lhs = measures.empirical(LAMPLIGHTER, pair, LampBox(), n)
        parts = []
        for mask in range(4):
            b = tuple(s for i, s in enumerate((n, n + 1)) if mask >> i & 1)
            moved = act(LAMPLIGHTER, Lamp(0, b), pair)
            parts.append((Fraction(1, 4),
                          measures.empirical(LAMPLIGHTER, moved, ZShifted(), n)))
        ok = ok and lhs == measures.combine(parts)
    _verdict(3, ok)


def test_criterion_4_corner_limit():
    corners = gallery.lamplighter_corner_measure()
    vals = [measures.w1(measures.empirical(LAMPLIGHTER, (up(n), up(n + 1)),
                                           LampBox(), n), corners)
            for n in range(4, 13)]
    # independent oracle: each quarter-mass group walks its two legs to
    # its own corner, so the cost is the average of the embedding gaps
    n = 12
    oracle = sum(abs(embed(LAMPLIGHTER, up(n - a)) - embed(LAMPLIGHTER, UP_INF))
                 + abs(embed(LAMPLIGHTER, up(n + 1 - a))
                       - embed(LAMPLIGHTER, UP_INF))
                 for a in range(n, 2 * n + 1)) / Fraction(n + 1)
    ok = all(a > b for a, b in zip(vals, vals[1:]))
    ok = ok and vals[-1] <= oracle + Fraction(1, 10 ** 12)
    _verdict(4, ok)


def test_criterion_5_corner_dirac_convergence():
    target = measures.dirac(TWO_POINT, (TP_PINF, TP_MINF))
    start = (Point(-3, 1), TP_MINF)
    oracle = sum(metric(TWO_POINT, act(TWO_POINT, g, start), (TP_PINF, TP_MINF))
                 for g in folner.elements(ZInitial(), 500)) / Fraction(500)
    d500 = measures.w1(measures.empirical(TWO_POINT, start, ZInitial(), 500),
                       target)
    d100 = measures.w1(measures.empirical(TWO_POINT, start, ZInitial(), 100),
                       target)
    _verdict(5, d500 < d100 and d500 <= oracle + Fraction(1, 10 ** 12))


def test_criterion_6_half_half_limit():
    seq = [measures.empirical(THREE_GLUED, (Point(3, 1), Point(3, 3)),
                              ZCentered(), m) for m in range(496, 501)]
    rep = measures.cluster_detect(seq)
    ok = rep.verdict == "CANDIDATE"
    if ok:
        heavy = dict(measures.heavy_limits(rep.candidate))
        ok = (set(heavy) == {(PINF1, PINF1), (MINF1, MINF2)}
              and all(abs(w - Fraction(1, 2)) < Fraction(1, 100)
                      for w in heavy.values()))
    _verdict(6, ok)


def test_criterion_7_box_average_equals_window_average():
    ok = all(averaging.cesaro_metric(LAMPLIGHTER, up(3), down(5), LampBox(), n)
             == averaging.cesaro_metric(LAMPLIGHTER, up(3), down(5),
                                        ZShifted(), n)
             for n in range(6, 13))
    _verdict(7, ok)


def test_criterion_8_mean_equicontinuity_probe():
    rep = averaging.mec_probe(LAMPLIGHTER_Z, ZShifted(), UP_INF,
                              [up(5), up(10), up(20), up(40)],
                              epsilon=Fraction(1, 100), window=(1, 500))
    tail = rep.estimates[len(rep.estimates) // 2:]
    ok = rep.verdict == "CONSISTENT-WITH-MEC"
    ok = ok and all(est < Fraction(1, 100) for _, _, est in tail)
    _verdict(8, ok)


def test_criterion_9_isolated_diagonal_densities():
    x = Point(5, 0)
    u = ProductOf(PointSet(frozenset([x])), PointSet(frozenset([x])))
    ok = all(density.hitting_density(LITERATURE_DOCK, (x, x), u,
                                     folner.elements(ZInitial(), n)).ratio
             <= Fraction(1, n) for n in range(1, 201))
    inf = Point("inf", 0)
    ball = Ball((inf, inf), Fraction(1, 3))
    ok = ok and density.hitting_density(
        LITERATURE_DOCK, (inf, inf), ball,
        folner.elements(ZInitial(), 200)).ratio == 1
    _verdict(9, ok)


def test_criterion_10_forward_closure_negative():
    cert = relations.forward_closure_negative(
        THREE_GLUED, negative_tails_product(), ZInitial(), range(1, 51), 200)
    _verdict(10, cert.verdict == relations.NEGATIVE)


def test_criterion_11_hull_goldens():
    h2 = relations.icer_hull(TWO_POINT_MODEL, [("pinf", "minf")])
    h3 = relations.icer_hull(THREE_GLUED_MODEL,
                             [("minf1", "pinf1"), ("pinf1", "minf2"),
                              ("minf2", "pinf2")])
    _verdict(11, h2 == two_point_expected_hull()
             and h3 == three_glued_expected_hull())


def test_criterion_12_property_suites():
    t0 = time.monotonic()
    ok = True
    rng = random.Random(12)

    # hitting ratio equals empirical mass, exactly
    for _ in range(200):
        space = rng.choice([TWO_POINT, THREE_GLUED])
        pts = truncate(space, 10)
        pair = (rng.choice(pts), rng.choice(pts))
        u = Ball((rng.choice(pts), rng.choice(pts)),
                 Fraction(rng.randrange(1, 9), 8))
        n = rng.randrange(2, 40)
        fam = rng.choice([ZInitial(), ZCentered()])
        rec = density.hitting_density(space, pair, u,
                                      folner.elements(fam, n))
        ok = ok and rec.ratio == measures.empirical(space, pair, fam,
                                                    n).mass(u)

    # transport distance is a metric
    pts3 = truncate(THREE_GLUED, 8)

    def rand_measure():
        support = rng.sample(pts3, rng.randrange(1, 5))
        weights = [rng.randrange(1, 7) for _ in support]
        tot = sum(weights)
        return measures.measure(THREE_GLUED, [(p, Fraction(c, tot))
                                              for p, c in zip(support, weights)])

    for _ in range(200):
        a, b, c = rand_measure(), rand_measure(), rand_measure()
        ab = measures.w1(a, b)
        ok = ok and ab == measures.w1(b, a)
        ok = ok and (ab == 0) == (a.atoms == b.atoms)
        ok = ok and measures.w1(a, c) <= ab + measures.w1(b, c)

    # exhaustive associativity over the n=3 box
    els = folner.elements(LampBox(), 3)
    e = Lamp(0, ())
    for g in els:
        ok = ok and multiply(g, e) == g == multiply(e, g)
        for h in els:
            gh = multiply(g, h)
            for k in els:
                ok = ok and multiply(gh, k) == multiply(g, multiply(h, k))
            if not ok:
                break
        if not ok:
            break

    # detector verdicts for the registered off-diagonal pairs agree
    # across formulations, and each rigid positive implies the rest
    cert_sets = [case.run(space, schedule(QUICK))
                 for space, schedule, cases in (
                     (TWO_POINT, z_schedule, TWO_POINT_CASES),
                     (THREE_GLUED, z_schedule, THREE_GLUED_CASES),
                     (LAMPLIGHTER, lamp_schedule, LAMPLIGHTER_CASES[:1]))
                 for case in cases]
    for certs in cert_sets:
        if "swsm_f" in certs:
            ok = ok and certs["swsm_f"].verdict == certs["srjms_f"].verdict
        if certs["qrms_f"].verdict == relations.POSITIVE:
            ok = ok and certs["srjms_f"].verdict == relations.POSITIVE
            ok = ok and certs["qrms_banach"].verdict == relations.POSITIVE

    # limit diagonals carry the invariant mass and test rigid-positive;
    # isolated orbit diagonals do not
    radii = (Fraction(1, 20), Fraction(1, 100))
    expected = {
        "literature-dock": (LITERATURE_DOCK, [Point(0, 0), Point("inf", 0)],
                            [ZInitial()], {Point("inf", 0)}, Point(5, 0)),
        "lamplighter-z": (LAMPLIGHTER_Z, [up(0), down(0), UP_INF, down("inf")],
                          [ZShifted()], {UP_INF, down("inf")}, up(0)),
        "lamplighter": (LAMPLIGHTER, [up(0), down(0), UP_INF, down("inf")],
                        [LampBox(), ZShifted()], {UP_INF, down("inf")}, up(0)),
        "two-point": (TWO_POINT, [Point(0, 1), TP_PINF, TP_MINF],
                      [ZInitial(), ZCentered()], {TP_PINF, TP_MINF},
                      Point(0, 1)),
        "three-glued": (THREE_GLUED,
                        [Point(0, 1), Point(0, 2), Point(0, 3),
                         MINF1, PINF1, MINF2, PINF2],
                        [ZInitial(), ZCentered()],
                        {MINF1, PINF1, MINF2, PINF2}, Point(0, 1)),
    }
    for space, starts, fams, limits, isolated in expected.values():
        n = 8 if space is LAMPLIGHTER else 120
        points = measures.support_union_estimate(space, starts, fams, n)
        ok = ok and set(points) == limits
        fam = fams[-1]
        for p in limits:
            cert = relations.detect_qrms_f(space, (p, p), fam,
                                           lambda k, p=p: (p, p), radii,
                                           (4, 8, 16), (1, 60))
            ok = ok and cert.verdict == relations.POSITIVE
        lone = relations.detect_qrms_f(space, (isolated, isolated), fam,
                                       lambda k: (isolated, isolated), radii,
                                       (4, 8, 16), (1, 120))
        ok = ok and lone.verdict == relations.INCONCLUSIVE

    ok = ok and time.monotonic() - t0 < 120.0
    _verdict(12, ok)
