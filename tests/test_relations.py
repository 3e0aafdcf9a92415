import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meandyn import folner, gallery, relations, spaces
from meandyn.folner import BudgetError, LampBox, ZCentered, ZInitial, ZShifted
from meandyn.gallery import (LAMPLIGHTER_Z, LITERATURE_DOCK, MINF1, MINF2,
                             PINF1, PINF2, THREE_GLUED, THREE_GLUED_MODEL,
                             TP_MINF, TP_PINF, TWO_POINT, TWO_POINT_MODEL,
                             down, negative_tails_product,
                             three_glued_expected_hull,
                             two_point_expected_hull, up)
from meandyn.groups import IntShift
from meandyn.relations import (INCONCLUSIVE, NEGATIVE, POSITIVE, Certificate,
                               FiniteModel, detect_proximal,
                               detect_qrms_banach, detect_qrms_f, detect_qrp,
                               detect_srjms_f, detect_swsm_f,
                               forward_closure_negative, icer_hull)
from meandyn.spaces import (M_INF, O_INF, P_INF, Point, PointSet, ProductOf,
                            Tail, act, contains, metric, truncate)

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


def reference_qrp(space, pair, epsilons, elements, truncation=40):
    """detect_qrp as a plain ordered scan over every (y, y2, g) until the
    first hit, with no sorted check to cut a scale short."""
    epsilons = sorted(map(Fraction, epsilons), reverse=True)
    points = truncate(space, truncation)
    witnesses = []
    for eps in epsilons:
        near_x = [y for y in points if metric(space, pair[0], y) < eps]
        near_y = [y for y in points if metric(space, pair[1], y) < eps]
        hits = ({"epsilon": float(eps), "pair": (y, y2), "element": g,
                 "distance": d}
                for y in near_x for y2 in near_y for g in elements
                for d in [metric(space, act(space, g, y), act(space, g, y2))]
                if d < eps)
        witnesses.append(next(hits, None) or {
            "epsilon": float(eps), "pair": None,
            "copies": (sorted({p.copy for p in near_x}),
                       sorted({p.copy for p in near_y}))})
    if all(w["pair"] is not None for w in witnesses):
        verdict = POSITIVE
    elif (space.action == spaces.TRANSLATE
          and relations._copy_gap_blocks(space, witnesses, epsilons)):
        verdict = NEGATIVE
    else:
        verdict = INCONCLUSIVE
    return Certificate("qrp", pair, verdict, None, witnesses,
                       {"epsilons": [float(e) for e in epsilons],
                        "truncation": truncation,
                        "elements": len(elements)})


def shifts(lo, hi, step=1):
    return [IntShift(t) for t in range(lo, hi + 1, step)]


@pytest.mark.parametrize("verdict, space, pair, epsilons, elements, trunc", [
    (POSITIVE, TWO_POINT, (TP_PINF, TP_MINF), ("1/4", "1/10"),
     shifts(-200, 200, 5), 40),
    (NEGATIVE, THREE_GLUED, (MINF1, PINF2), ("1/4", "1/8"),
     shifts(-120, 120, 5), 40),
    # a shift action: copies are kept, but the copy-gap argument is not
    # made for it
    (INCONCLUSIVE, LAMPLIGHTER_Z, (up(O_INF), down(O_INF)), ("1/4", "1/10"),
     shifts(-60, 60, 5), 12),
    # at scale 3/2 the perturbations reach across copies
    (INCONCLUSIVE, LAMPLIGHTER_Z, (up(O_INF), down(O_INF)), ("3/2", "1/4"),
     shifts(-30, 30, 3), 8),
    (INCONCLUSIVE, THREE_GLUED, (MINF1, PINF2), ("3/2", "1/8"),
     shifts(-60, 60, 4), 20),
], ids=["two-point", "three-glued", "lamplighter-z", "lamplighter-z-above-1",
        "three-glued-above-1"])
def test_qrp_matches_ordered_scan(verdict, space, pair, epsilons, elements,
                                  trunc):
    cert = detect_qrp(space, pair, epsilons, elements, truncation=trunc)
    assert cert.verdict == verdict
    assert cert.to_json() == reference_qrp(space, pair, epsilons, elements,
                                           trunc).to_json()


def test_qrp_finds_a_late_hit_after_the_sorted_check(monkeypatch):
    # the first copy-1 perturbations are too far down for any shift to
    # carry them near the glued upper limit, so the scan goes on past
    # them to the hit
    checks = []
    real = spaces.nearest_distance

    def counted(*args):
        checks.append(1)
        return real(*args)

    monkeypatch.setattr(spaces, "nearest_distance", counted)
    args = (THREE_GLUED, (MINF1, MINF2), (Fraction(1, 4),), shifts(0, 40, 5))
    cert = detect_qrp(*args, truncation=40)
    assert cert.verdict == POSITIVE
    assert cert.witnesses[0]["pair"][0] != Point(-40, 1)
    assert cert.to_json() == reference_qrp(*args, truncation=40).to_json()


QRP_SPACES = [TWO_POINT, THREE_GLUED, LAMPLIGHTER_Z]
# four unglued copies, each its own piece, with layout ranges further
# apart than their copy separations
FAR_LAYOUT = spaces.two_point_space(
    (1, 2, 3, 4), layout=((0, 1), (3, -1), (6, 1), (9, -1)),
    name="far-layout")
LAMPLIGHTER_Z_TRANSLATE = spaces.one_point_space(
    (0, 1), action=spaces.TRANSLATE, name="lamplighter-z-translate")
# the spaces the closed forms are compared on against their scans
CLOSED_FORM_SPACES = [TWO_POINT, THREE_GLUED, LITERATURE_DOCK, LAMPLIGHTER_Z,
                      LAMPLIGHTER_Z_TRANSLATE, FAR_LAYOUT]


def space_points(space, lo=-6, hi=6):
    limits = [O_INF] if space.kind == spaces.ONE_POINT else [M_INF, P_INF]
    return st.builds(Point, st.one_of(st.integers(lo, hi),
                                      st.sampled_from(limits)),
                     st.sampled_from(space.copies))


@st.composite
def qrp_cases(draw):
    space = draw(st.sampled_from(CLOSED_FORM_SPACES))
    pair = (draw(space_points(space)), draw(space_points(space)))
    epsilons = draw(st.lists(st.sampled_from(
        [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 2)]),
        min_size=1, max_size=3, unique=True))
    elements = [IntShift(t) for t in draw(st.lists(st.integers(-30, 30),
                                                   max_size=12))]
    return space, pair, epsilons, elements, draw(st.integers(2, 8))


@settings(deadline=None, max_examples=150)
@given(qrp_cases())
def test_qrp_equals_ordered_scan_on_random_inputs(case):
    space, pair, epsilons, elements, trunc = case
    assert detect_qrp(space, pair, epsilons, elements, trunc).to_json() \
        == reference_qrp(space, pair, epsilons, elements, trunc).to_json()


def test_qrp_negative_row_work_count(monkeypatch):
    # the copy bound fails both scales before any scan, so the only
    # distances taken pick the perturbations; the full triple scan made
    # 150,144 metric calls here
    calls = []
    real = relations.metric

    def counted(*args):
        calls.append(1)
        return real(*args)

    def refuse(*args):
        raise AssertionError("the NEGATIVE row pushed a point along")

    monkeypatch.setattr(relations, "metric", counted)
    monkeypatch.setattr(relations, "act", refuse)
    cert = detect_qrp(THREE_GLUED, (MINF1, PINF2),
                      (Fraction(1, 4), Fraction(1, 8)), shifts(-120, 120, 5),
                      truncation=40)
    assert cert.verdict == NEGATIVE
    assert len(calls) == 2 * 2 * len(truncate(THREE_GLUED, 40))


@st.composite
def point_set_products(draw):
    space = draw(st.sampled_from(QRP_SPACES))

    def point_set():
        points = draw(st.frozensets(space_points(space, -8, 8), max_size=4))
        tails = draw(st.lists(st.builds(
            Tail, st.sampled_from(space.copies), st.sampled_from(["le", "ge"]),
            st.integers(-8, 8)), max_size=2))
        return PointSet(points, tuple(tails))

    return space, ProductOf(point_set(), point_set()), draw(st.integers(1, 8))


@settings(deadline=None, max_examples=100)
@given(point_set_products())
def test_closure_margin_equals_pairwise_minimum(case):
    space, nbhd, trunc = case
    points = truncate(space, trunc)
    left = [p for p in points if contains(space, nbhd.left, p)]
    right = [p for p in points if contains(space, nbhd.right, p)]
    want = min((metric(space, p, q) for p in left for q in right),
               default=Fraction(0))
    cert = forward_closure_negative(space, nbhd, ZInitial(), range(1, 3), trunc)
    assert cert.witnesses[0]["margin"] == want


def test_qrp_copy_bound_across_pieces_is_the_copy_separation():
    # perturbations of the outer copies reach their neighbours at 3/2,
    # and neighbouring pieces are 1 apart, though their layout ranges
    # are 2 apart: the scale must be scanned, and it has a hit
    args = (FAR_LAYOUT, (Point(0, 1), Point(0, 4)), (Fraction(3, 2),),
            shifts(-10, 10, 5))
    cert = detect_qrp(*args, truncation=8)
    assert cert.verdict == POSITIVE
    assert cert.witnesses[0]["distance"] == 1
    assert cert.to_json() == reference_qrp(*args, truncation=8).to_json()


def test_qrp_empty_perturbation_set_is_inconclusive():
    args = (THREE_GLUED, (Point(100, 1), Point(100, 2)),
            [Fraction(1, 10 ** 6)], [IntShift(0)])
    cert = detect_qrp(*args, truncation=40)
    assert cert.verdict == INCONCLUSIVE
    assert cert.witnesses[0]["copies"] == ([], [])
    assert cert.to_json() == reference_qrp(*args, truncation=40).to_json()


def test_qrp_rejects_empty_epsilons():
    with pytest.raises(ValueError, match="epsilons"):
        detect_qrp(THREE_GLUED, (MINF1, PINF2), (), [IntShift(0)])


def _limits_witness(k):
    return (Point(-k, 1), TP_MINF)


LIMITS = (TP_PINF, TP_MINF)
SCHEDULED = {
    "srjms_f": lambda radii, ks: detect_srjms_f(
        TWO_POINT, LIMITS, ZInitial(), _limits_witness, radii, ks,
        ns=(10, 15, 20)),
    "swsm_f": lambda radii, ks: detect_swsm_f(
        TWO_POINT, LIMITS, ZInitial(), _limits_witness, radii, ks, (10, 20)),
    "qrms_f": lambda radii, ks: detect_qrms_f(
        TWO_POINT, LIMITS, ZInitial(), _limits_witness, radii, ks, (1, 20)),
    "qrms_banach": lambda radii, ks: detect_qrms_banach(
        TWO_POINT, LIMITS, ZInitial(), _limits_witness, radii, ks, n=10,
        translates=[IntShift(0)]),
}


@pytest.mark.parametrize("kind", SCHEDULED)
def test_schedule_rejects_empty_radii(kind):
    with pytest.raises(ValueError, match="radii is empty"):
        SCHEDULED[kind]((), KS)


@pytest.mark.parametrize("kind", SCHEDULED)
def test_schedule_rejects_empty_witness_indices(kind):
    with pytest.raises(ValueError, match="ks is empty"):
        SCHEDULED[kind](RADII, ())


@pytest.mark.parametrize("kind", SCHEDULED)
def test_schedule_accepts_generator_witness_indices(kind):
    detect = SCHEDULED[kind]
    assert detect(RADII, iter(KS)).to_json() == detect(RADII, KS).to_json()


def test_srjms_rejects_ns_not_matching_ks():
    with pytest.raises(ValueError, match="ns has 2 entries for 3"):
        detect_srjms_f(TWO_POINT, LIMITS, ZInitial(), _limits_witness, RADII,
                       KS, ns=(10, 20))


def test_banach_accepts_generator_translates():
    translates = [IntShift(t) for t in range(-40, 41, 4)]

    def detect(ts):
        return detect_qrms_banach(TWO_POINT, LIMITS, ZInitial(),
                                  _limits_witness, RADII, KS, n=10,
                                  translates=ts)

    want = detect(translates)
    assert want.verdict == POSITIVE
    assert detect(iter(translates)).to_json() == want.to_json()


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


@pytest.mark.parametrize("detect", [detect_swsm_f, detect_qrms_f])
def test_window_detectors_reject_an_inverted_window(detect):
    with pytest.raises(ValueError, match=r"window \(5, 3\) is empty"):
        detect(TWO_POINT, LIMITS, ZInitial(), _limits_witness, RADII, KS,
               (5, 3))


def test_forward_closure_accepts_a_generator_n_list():
    nbhd = negative_tails_product()
    cert = forward_closure_negative(THREE_GLUED, nbhd, ZInitial(),
                                    iter(range(1, 4)), 20)
    assert cert.params["n_list"] == [1, 2, 3]
    assert cert.params["checked_elements"] == 3
    assert cert.to_json() == forward_closure_negative(
        THREE_GLUED, nbhd, ZInitial(), range(1, 4), 20).to_json()


def test_forward_closure_rejects_an_empty_n_list():
    with pytest.raises(ValueError, match="n_list"):
        forward_closure_negative(THREE_GLUED, negative_tails_product(),
                                 ZInitial(), [], 80)


def test_forward_closure_needs_an_integer_window_family():
    with pytest.raises(ValueError, match="integer window family"):
        forward_closure_negative(THREE_GLUED, negative_tails_product(),
                                 LampBox(), [1, 2], 20)


def test_forward_closure_keeps_the_budget_check_in_order():
    with pytest.raises(BudgetError):
        forward_closure_negative(THREE_GLUED, negative_tails_product(),
                                 ZCentered(), [1, 10], 20, budget=20)
    with pytest.raises(ValueError, match="Folner index"):
        forward_closure_negative(THREE_GLUED, negative_tails_product(),
                                 ZCentered(), [0, 10], 20, budget=20)


def reference_closure(space, nbhd, family, n_list, truncation):
    """forward_closure_negative as the scan over every element of every
    requested set, in the order `folner.elements` lists them."""
    n_list = list(n_list)
    els = list(dict.fromkeys(g for n in n_list
                             for g in folner.elements(family, n)))
    points = truncate(space, truncation)
    counterexample = next(((p, g) for factor in (nbhd.left, nbhd.right)
                           for p in points if not contains(space, factor, p)
                           for g in els
                           if contains(space, factor, act(space, g, p))), None)
    margin = relations._product_gap(space, nbhd, points)
    verdict = (NEGATIVE if counterexample is None and margin > 0
               else INCONCLUSIVE)
    return Certificate("forward_closure", None, verdict, None,
                       [{"margin": margin, "counterexample": counterexample}],
                       {"family": repr(family), "n_list": n_list,
                        "truncation": truncation, "checked_elements": len(els),
                        "checked_points": len(points)})


@st.composite
def closure_cases(draw):
    space = draw(st.sampled_from(CLOSED_FORM_SPACES))

    def point_set():
        points = draw(st.frozensets(space_points(space, -12, 12), max_size=3))
        tails = draw(st.lists(st.builds(
            Tail, st.sampled_from(space.copies), st.sampled_from(["le", "ge"]),
            st.integers(-12, 12)), max_size=3))
        return PointSet(points, tuple(tails))

    family = draw(st.sampled_from([ZInitial(), ZCentered(), ZShifted()]))
    n_list = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    return (space, ProductOf(point_set(), point_set()), family, n_list,
            draw(st.integers(1, 10)))


@settings(deadline=None, max_examples=300)
@given(closure_cases())
def test_closure_equals_the_element_scan(case):
    assert forward_closure_negative(*case).to_json() \
        == reference_closure(*case).to_json()


@pytest.mark.parametrize("family", [ZInitial(), ZCentered(), ZShifted()],
                         ids=repr)
def test_closure_equals_the_element_scan_on_the_gallery_target(family):
    case = (THREE_GLUED, negative_tails_product(), family,
            [3, 1, 12, 7], 30)
    assert forward_closure_negative(*case).to_json() \
        == reference_closure(*case).to_json()


def test_three_glued_rows_enumerate_no_folner_set(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a three-glued row enumerated F_n")

    monkeypatch.setattr(folner, "elements", refuse)
    assert gallery.verify("three-glued", "quick").ok
