import json
from fractions import Fraction

import pytest

from meandyn import relations
from meandyn.folner import ZCentered, ZInitial
from meandyn.gallery import (LAMPLIGHTER_Z, LITERATURE_DOCK, MINF1, MINF2,
                             PINF1, PINF2, THREE_GLUED, THREE_GLUED_MODEL,
                             TP_MINF, TP_PINF, TWO_POINT, TWO_POINT_MODEL,
                             down, negative_tails_product,
                             three_glued_expected_hull,
                             two_point_expected_hull, up)
from meandyn.groups import IntShift
from meandyn.relations import (INCONCLUSIVE, NEGATIVE, POSITIVE, FiniteModel,
                               detect_proximal, detect_qrms_banach,
                               detect_qrms_f, detect_qrp, detect_srjms_f,
                               detect_swsm_f, forward_closure_negative,
                               icer_hull)
from meandyn.spaces import Point, PointSet, ProductOf, Tail

RADII = (Fraction(1, 2), Fraction(1, 5))
KS = (4, 8, 16)


def test_qrms_positive_with_schedule():
    cert = detect_qrms_f(TWO_POINT, (TP_PINF, TP_MINF), ZInitial(),
                         lambda k: (Point(-k, 1), TP_MINF), RADII, KS, (1, 120))
    assert cert.verdict == POSITIVE
    assert cert.threshold >= relations.DENSITY_FLOOR
    dists = [w["distance"] for w in cert.witnesses]
    assert dists == sorted(dists, reverse=True)
    assert dists[-1] < min(RADII)


def test_certificate_json_serializable():
    cert = detect_srjms_f(TWO_POINT, (TP_PINF, TP_MINF), ZInitial(),
                          lambda k: (Point(-k, 1), TP_MINF), RADII, KS,
                          ns=(60, 90, 120))
    assert cert.verdict == POSITIVE
    blob = json.dumps(cert.to_json(), sort_keys=True)
    assert "POSITIVE" in blob


def test_bad_witness_schedule_is_inconclusive():
    # distances grow with k, so the schedule is not asymptotically
    # diagonal and no score can rescue it
    cert = detect_qrms_f(TWO_POINT, (TP_PINF, TP_MINF), ZInitial(),
                         lambda k: (Point(k, 1), TP_MINF), RADII, KS, (1, 60))
    assert cert.verdict == INCONCLUSIVE
    assert cert.threshold is None


def test_density_floor_filters_noise():
    # only the identity keeps the orbit pair this close to the query,
    # so the hitting ratio is 1/n and drowns below the floor
    x = Point(0, 1)
    cert = detect_qrms_f(TWO_POINT, (x, x), ZInitial(), lambda k: (x, x),
                         (Fraction(1, 10), Fraction(1, 50)), KS, (1, 120))
    assert cert.verdict == INCONCLUSIVE
    assert cert.params["common_density"] < relations.DENSITY_FLOOR


def test_swsm_rejects_diagonal_query():
    with pytest.raises(ValueError):
        detect_swsm_f(TWO_POINT, (TP_MINF, TP_MINF), ZInitial(),
                      lambda k: (TP_MINF, TP_MINF), RADII, KS, (10, 20))


def test_banach_beats_initial_window():
    witness = lambda k: (Point(k, 1), Point(k, 3))
    along = detect_qrms_f(THREE_GLUED, (MINF1, MINF2), ZInitial(), witness,
                          RADII, KS, (1, 120))
    assert along.verdict == INCONCLUSIVE
    banach = detect_qrms_banach(
        THREE_GLUED, (MINF1, MINF2), ZInitial(), witness, RADII, KS, n=30,
        translates=[IntShift(t) for t in range(-240, 241, 2)])
    assert banach.verdict == POSITIVE
    assert banach.threshold == 1


def test_forward_closure_negative():
    cert = forward_closure_negative(THREE_GLUED, negative_tails_product(),
                                    ZInitial(), range(1, 21), 80)
    assert cert.verdict == NEGATIVE
    assert cert.witnesses[0]["margin"] > 0
    assert cert.witnesses[0]["counterexample"] is None


def test_forward_closure_detects_open_target():
    # upper tails are pushed into by the initial family, so membership
    # does not propagate backwards and no obstruction follows
    u1 = PointSet(frozenset([PINF1]), (Tail(1, "ge", 1),))
    u2 = PointSet(frozenset([PINF2]), (Tail(2, "ge", 1),))
    cert = forward_closure_negative(THREE_GLUED, ProductOf(u1, u2),
                                    ZInitial(), range(1, 11), 40)
    assert cert.verdict == INCONCLUSIVE
    assert cert.witnesses[0]["counterexample"] is not None
    with pytest.raises(ValueError):
        forward_closure_negative(THREE_GLUED, u1, ZInitial(), range(1, 5), 20)


def test_proximal_detector():
    els = [IntShift(t) for t in range(-150, 151)]
    cert = detect_proximal(THREE_GLUED, (Point(0, 1), Point(0, 3)), els)
    assert cert.verdict == POSITIVE
    far = detect_proximal(TWO_POINT, (TP_PINF, TP_MINF), els)
    assert far.verdict == INCONCLUSIVE
    assert far.witnesses[0]["min_distance"] == 1


def test_proximal_accepts_a_generator():
    els = [IntShift(t) for t in range(-150, 151)]
    pair = (Point(0, 1), Point(0, 3))
    cert = detect_proximal(THREE_GLUED, pair, iter(els))
    assert cert.params["elements"] == 301
    assert cert.to_json() == detect_proximal(THREE_GLUED, pair, els).to_json()


def test_proximal_rejects_empty_elements():
    with pytest.raises(ValueError, match="element list"):
        detect_proximal(TWO_POINT, (TP_PINF, TP_MINF), [])


def test_qrp_scans_a_whole_generator():
    els = [IntShift(t) for t in range(-480, 481, 5)]
    eps = (Fraction(1, 4), Fraction(1, 10))
    cert = detect_qrp(TWO_POINT, (TP_PINF, TP_MINF), eps, iter(els))
    assert cert.params["elements"] == 193
    want = detect_qrp(TWO_POINT, (TP_PINF, TP_MINF), eps, els)
    assert cert.verdict == POSITIVE
    assert cert.to_json() == want.to_json()


def test_qrp_three_verdicts():
    els = [IntShift(t) for t in range(-200, 201, 5)]
    pos = detect_qrp(TWO_POINT, (TP_PINF, TP_MINF),
                     (Fraction(1, 4), Fraction(1, 10)), els, truncation=40)
    assert pos.verdict == POSITIVE
    neg = detect_qrp(THREE_GLUED, (MINF1, PINF2),
                     (Fraction(1, 4), Fraction(1, 8)), els, truncation=40)
    assert neg.verdict == NEGATIVE
    # shifts preserve copies but the copy-gap argument only applies to
    # translations, so the separated pair stays undecided here
    und = detect_qrp(LAMPLIGHTER_Z, (up("inf"), down("inf")),
                     (Fraction(1, 4), Fraction(1, 10)), els, truncation=20)
    assert und.verdict == INCONCLUSIVE


def test_finite_model_validates_closure():
    with pytest.raises(ValueError):
        FiniteModel(("a",), ({"a": "a"},), {"a": ("a", "b")})


def test_icer_hull_goldens():
    hull = icer_hull(TWO_POINT_MODEL, [("pinf", "minf")])
    assert hull == two_point_expected_hull()
    hull3 = icer_hull(THREE_GLUED_MODEL,
                      [("minf1", "pinf1"), ("pinf1", "minf2"),
                       ("minf2", "pinf2")])
    assert hull3 == three_glued_expected_hull()
    assert icer_hull(TWO_POINT_MODEL, []) == frozenset(
        (c, c) for c in TWO_POINT_MODEL.classes)


def test_hull_law_two_point():
    # the hull of proximal plus mean-sensitive evidence agrees with the
    # hull of regional-proximality evidence
    prox = [("orbit", "pinf"), ("orbit", "minf")]
    qrms = [("pinf", "minf")]
    qrp = [("orbit", "pinf"), ("pinf", "minf")]
    assert icer_hull(TWO_POINT_MODEL, prox + qrms) \
        == icer_hull(TWO_POINT_MODEL, qrp)


def test_hull_law_three_glued():
    prox = [("o1", "o3"), ("o3", "o2")]
    qrms = [("minf1", "pinf1"), ("pinf1", "minf2"), ("minf2", "pinf2")]
    qrp = [("o1", "o2"), ("o2", "o3"), ("minf1", "pinf1")]
    assert icer_hull(THREE_GLUED_MODEL, prox + qrms) \
        == icer_hull(THREE_GLUED_MODEL, qrp)
