"""The worked systems and their expected behavior tables.

Five registered systems:

* literature-dock   one one-point circle, integers translating
* lamplighter-z     two one-point circles, integers shifting both
* lamplighter       two one-point circles, full lamplighter action
* two-point         one two-point interval, integers translating
* three-glued       three two-point intervals glued into a chain,
                    integers translating

Each is one `System` record in `SYSTEMS`: the space, the expected
rows, the registered `PairCase`s with the detector `Schedule` they run
at, and, where there is one, the finite model with the map from limit
points to model classes.  `System.hull()` seeds `icer_hull` with the
off-diagonal registered pairs, the pairs the detectors certify.

`verify(name, profile)` replays every expected row at the profile's
budgets and reports MATCH / MISMATCH per row.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import averaging, folner, measures, relations, spaces
from .folner import LampBox, ZCentered, ZInitial, ZShifted
from .groups import INTEGERS, LAMPLIGHTER, IntShift, Lamp
from .relations import FiniteModel, icer_hull
from .spaces import (M_INF, O_INF, P_INF, SHIFT, TRANSLATE, Point, PointSet,
                     ProductOf, Tail, one_point_space, two_point_space)


@dataclass(frozen=True)
class Profile:
    name: str
    lamp_n_max: int     # largest LampBox index enumerated
    z_hi: int           # top of integer-family windows
    measure_n: int      # index for limit-measure rows
    closure_n: int      # element range for closure / proximality scans
    truncation: int     # finite stand-in size for exhaustive scans


QUICK = Profile("quick", 8, 120, 200, 20, 80)
FULL = Profile("full", 12, 500, 500, 50, 200)
PROFILES = {"quick": QUICK, "full": FULL}


def up(s):
    return Point(s, 1)


def down(s):
    return Point(s, 0)


UP_INF = up(O_INF)
DOWN_INF = down(O_INF)

LITERATURE_DOCK = one_point_space((0,), INTEGERS, TRANSLATE, name="literature-dock")
LAMPLIGHTER_Z = one_point_space((0, 1), INTEGERS, SHIFT, name="lamplighter-z")
LAMPLIGHTER = one_point_space((0, 1), LAMPLIGHTER, SHIFT, name="lamplighter")
TWO_POINT = two_point_space((1,), name="two-point")
THREE_GLUED = two_point_space(
    copies=(1, 3, 2),
    layout=((0, 1), (1, -1), (2, 1)),
    gluings=((Point(P_INF, 3), Point(P_INF, 1)),
             (Point(M_INF, 3), Point(M_INF, 2))),
    name="three-glued")

PINF1, MINF1 = Point(P_INF, 1), Point(M_INF, 1)
PINF2, MINF2 = Point(P_INF, 2), Point(M_INF, 2)
TP_PINF, TP_MINF = Point(P_INF, 1), Point(M_INF, 1)


def lamplighter_corner_measure():
    """Equal mass on the four pairs of copy limits."""
    w = Fraction(1, 4)
    return measures.measure(LAMPLIGHTER, [
        ((UP_INF, UP_INF), w), ((UP_INF, DOWN_INF), w),
        ((DOWN_INF, UP_INF), w), ((DOWN_INF, DOWN_INF), w)])


def negative_tails_product():
    """Product neighborhood used by the forward-closure obstruction:
    strictly negative coordinates of copy 1 (with its lower limit)
    times strictly negative coordinates of copies 2 and 3 (with their
    shared lower limit)."""
    u1 = PointSet(frozenset([MINF1]), (Tail(1, "le", -1),))
    u2 = PointSet(frozenset([MINF2]), (Tail(2, "le", -1), Tail(3, "le", -1)))
    return ProductOf(u1, u2)


# ------------------------------------------------------------ finite models

TWO_POINT_MODEL = FiniteModel(
    classes=("minf", "pinf", "orbit"),
    generators=({"minf": "minf", "pinf": "pinf", "orbit": "orbit"},),
    closure={"minf": ("minf", "minf"), "pinf": ("pinf", "pinf"),
             "orbit": ("minf", "pinf")})

THREE_GLUED_MODEL = FiniteModel(
    classes=("minf1", "pinf1", "minf2", "pinf2", "o1", "o2", "o3"),
    generators=({c: c for c in ("minf1", "pinf1", "minf2", "pinf2",
                                "o1", "o2", "o3")},),
    closure={"minf1": ("minf1", "minf1"), "pinf1": ("pinf1", "pinf1"),
             "minf2": ("minf2", "minf2"), "pinf2": ("pinf2", "pinf2"),
             "o1": ("minf1", "pinf1"), "o2": ("minf2", "pinf2"),
             "o3": ("minf2", "pinf1")})


def _square(classes):
    return frozenset((a, b) for a in classes for b in classes)


def two_point_expected_hull():
    return _square(("minf", "pinf")) | frozenset({("orbit", "orbit")})


def three_glued_expected_hull():
    limits = ("minf1", "pinf1", "minf2", "pinf2")
    return _square(limits) | frozenset((c, c) for c in ("o1", "o2", "o3"))


# --------------------------------------------------------------- pair cases

@dataclass(frozen=True)
class Schedule:
    """Detector parameters shared by the registered pairs of a system."""
    radii: tuple
    ks: tuple                 # witness indices
    qrms_window: tuple
    srjms_ns: tuple           # matched indices, one per witness index
    banach_shape: object
    banach_n: int
    translates: tuple         # right translates of the Banach shape
    swsm_window: tuple


def z_schedule(profile):
    z = profile.z_hi
    return Schedule(
        radii=(Fraction(1, 2), Fraction(1, 5)), ks=(4, 8, 16),
        qrms_window=(1, z), srjms_ns=(z // 2, 3 * z // 4, z),
        banach_shape=ZInitial(), banach_n=z // 4,
        translates=tuple(IntShift(t) for t in
                         range(-2 * z, 2 * z + 1, max(1, z // 50))),
        swsm_window=(z // 2, z))


def lamp_schedule(profile):
    m = profile.lamp_n_max
    ks = (6, 9, 12) if m >= 12 else (4, 6, 8)
    # the translated window must be able to toggle lamps at the witness
    # sites, so the shape is a small box and the translates are shifts
    return Schedule(
        radii=(Fraction(1, 2), Fraction(1, 3)), ks=ks,
        qrms_window=(1, m), srjms_ns=ks,
        banach_shape=LampBox(), banach_n=4,
        translates=tuple(Lamp(t, ()) for t in range(-3 * m, 3 * m + 1)),
        swsm_window=(2, m))


# detector kinds in certificate order; swsm_f only off the diagonal
DETECTORS = ("qrms_f", "srjms_f", "qrms_banach", "swsm_f")


@dataclass
class PairCase:
    """One claimed member of the rigidity relation, with its registered
    witness family."""
    pair: tuple
    witness: object                 # callable k -> pair
    family: object                  # family for the density profiles
    srjms_ns: object = None         # matched indices; None = the schedule's

    def certificate(self, kind, space, schedule, budget=folner.ATOM_BUDGET):
        """Run the detector `kind` for this pair at the schedule."""
        s = schedule
        family, last = {
            "qrms_f": (self.family, (s.qrms_window,)),
            "srjms_f": (self.family, (self.srjms_ns or s.srjms_ns,)),
            "qrms_banach": (s.banach_shape, (s.banach_n, s.translates)),
            "swsm_f": (self.family, (s.swsm_window,)),
        }[kind]
        detect = getattr(relations, "detect_" + kind)
        return detect(space, self.pair, family, self.witness, s.radii, s.ks,
                      *last, budget=budget)

    def run(self, space, schedule, budget=folner.ATOM_BUDGET):
        kinds = DETECTORS if self.pair[0] != self.pair[1] else DETECTORS[:-1]
        return {k: self.certificate(k, space, schedule, budget) for k in kinds}


def _const(pair):
    return lambda k: pair


TWO_POINT_CASES = [
    PairCase((TP_PINF, TP_MINF),
             lambda k: (Point(-k, 1), TP_MINF), ZInitial()),
    PairCase((TP_MINF, TP_PINF),
             lambda k: (TP_MINF, Point(-k, 1)), ZInitial()),
    PairCase((TP_PINF, TP_PINF),
             lambda k: (Point(k, 1), TP_PINF), ZInitial()),
    PairCase((TP_MINF, TP_MINF), _const((TP_MINF, TP_MINF)), ZInitial()),
]

THREE_GLUED_CASES = [
    PairCase((MINF1, PINF1), lambda k: (MINF1, Point(-k, 1)), ZInitial()),
    PairCase((PINF1, MINF2), lambda k: (Point(-k, 3), MINF2), ZInitial()),
    PairCase((MINF2, PINF2), lambda k: (MINF2, Point(-k, 2)), ZInitial()),
    PairCase((PINF1, PINF2), lambda k: (Point(-k, 3), Point(-k, 2)),
             ZInitial()),
    PairCase((MINF1, MINF1), _const((MINF1, MINF1)), ZInitial()),
    PairCase((PINF2, PINF2), _const((PINF2, PINF2)), ZInitial()),
    # last, for its own rows: the shared lower limits join only under
    # the centered family
    PairCase((MINF1, MINF2), lambda k: (Point(k, 1), Point(k, 3)),
             ZCentered()),
]

LAMPLIGHTER_CASES = [
    # toggling one lamp ahead of the viewing window separates the
    # two copy limits with positive frequency
    PairCase((UP_INF, DOWN_INF), lambda k: (up(k), up(k + 1)), LampBox()),
    PairCase((UP_INF, UP_INF), _const((UP_INF, UP_INF)), LampBox(),
             srjms_ns=(2, 3, 4)),
]


# -------------------------------------------------------------------- rows

@dataclass
class Row:
    name: str
    status: str       # MATCH | MISMATCH
    detail: str


def _row(name, ok, detail=""):
    return Row(name, "MATCH" if ok else "MISMATCH", detail)


def _case_rows(space, cases, schedule):
    rows = []
    for case in cases:
        certs = case.run(space, schedule)
        ok = all(c.verdict == relations.POSITIVE for c in certs.values())
        rows.append(_row("positive-%s-%s" % tuple(map(spaces.render_point,
                                                      case.pair)),
                         ok, str({k: c.verdict for k, c in certs.items()})))
    return rows


def _support_row(name, space, starts, families, n, limits):
    points = measures.support_union_estimate(space, starts, families, n)
    return _row(name, set(points) == set(limits), repr(points))


def _mec_row(space, approach, profile):
    rep = averaging.mec_probe(space, ZShifted(), UP_INF, approach,
                              window=(1, profile.z_hi))
    return _row("mean-equicontinuity-probe",
                rep.verdict == "CONSISTENT-WITH-MEC", rep.verdict)


def _rows_literature_dock(system, profile):
    space = system.space
    rows = []
    x = Point(5, 0)
    u = ProductOf(PointSet(frozenset([x])), PointSet(frozenset([x])))
    from . import density as dens
    ok = True
    for n in (10, profile.z_hi // 2, profile.z_hi):
        r = dens.hitting_density(space, (x, x), u,
                                 folner.elements(ZInitial(), n)).ratio
        ok = ok and r <= Fraction(1, n)
    rows.append(_row("isolated-diagonal-density-vanishes", ok))

    inf = Point(O_INF, 0)
    case = PairCase((inf, inf), lambda k: (Point(k, 0), inf), ZInitial())
    cert = case.certificate("srjms_f", space, system.schedule(profile))
    rows.append(_row("fixed-point-diagonal-positive",
                     cert.verdict == relations.POSITIVE,
                     "c=%s" % cert.threshold))
    rows.append(_support_row("support-is-infinity", space, [Point(0, 0), inf],
                             [ZInitial()], profile.measure_n, [inf]))
    return rows


def _rows_lamplighter_z(system, profile):
    space = system.space
    rows = []
    win = (1, profile.z_hi)
    prof = averaging.besicovitch_profile(space, up(0), up(7), ZShifted(), win)
    rows.append(_row("same-copy-mean-distance-vanishes",
                     prof.tail_sup < Fraction(1, 50),
                     "tail=%s" % float(prof.tail_sup)))
    prof2 = averaging.besicovitch_profile(space, up(0), down(0), ZShifted(), win)
    rows.append(_row("cross-copy-mean-distance-is-one",
                     prof2.tail_sup == 1))
    rows.append(_mec_row(space, [up(2), up(5), up(10), up(20)], profile))
    rows.append(_support_row("support-is-both-limits", space,
                             [up(0), down(0), UP_INF, DOWN_INF], [ZShifted()],
                             profile.measure_n, [UP_INF, DOWN_INF]))
    return rows


def corner_average_oracle(n):
    """Direct summation for the distance between the window empirical
    measure of (up n, up n+1) and the four-corner measure: each of the
    four copy-flag groups carries quarter mass and travels to its own
    corner."""
    total = Fraction(0)
    for a in range(n, 2 * n + 1):
        total += abs(spaces._phi(n - a)) + abs(spaces._phi(n + 1 - a))
    return total / (n + 1)


def _rows_lamplighter(system, profile):
    space = system.space
    rows = []
    nmax = profile.lamp_n_max
    ok = all(len(folner.elements(LampBox(), n)) == (n + 1) * 2 ** (n + 1)
             for n in range(1, nmax + 1))
    rows.append(_row("box-cardinality-formula", ok))

    sigma = Lamp(1, ())
    ok = all(folner.defect(LampBox(), n, [sigma]) == Fraction(1, n + 1)
             for n in range(1, nmax + 1))
    rows.append(_row("shift-defect-exact", ok))

    ok = all(folner.defect(LampBox(), 3, [g]) <=
             folner.lamp_defect_bound(g, 3)
             for g in folner.elements(LampBox(), 2))
    rows.append(_row("defect-dominated-by-bound", ok))

    ok = all(averaging.cesaro_metric(space, up(3), down(5), LampBox(), n) ==
             averaging.cesaro_metric(space, up(3), down(5), ZShifted(), n)
             for n in range(6, nmax + 1))
    rows.append(_row("box-average-equals-window-average", ok))

    n_id = 6 if profile.name == "quick" else 10
    lhs = measures.empirical(space, (up(n_id), up(n_id + 1)), LampBox(), n_id)
    parts = []
    for mask in range(4):
        b = tuple(s for i, s in enumerate((n_id, n_id + 1)) if mask >> i & 1)
        moved = spaces.act(space, Lamp(0, b), (up(n_id), up(n_id + 1)))
        parts.append((Fraction(1, 4),
                      measures.empirical(space, moved, ZShifted(), n_id)))
    rows.append(_row("corner-decomposition-identity",
                     lhs == measures.combine(parts)))

    corners = lamplighter_corner_measure()
    vals = []
    for n in range(4, nmax + 1):
        emp = measures.empirical(space, (up(n), up(n + 1)), LampBox(), n)
        vals.append(measures.w1(emp, corners))
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    exact = abs(vals[-1] - corner_average_oracle(nmax)) == 0
    rows.append(_row("corner-limit-w1", decreasing and exact,
                     "last=%s" % float(vals[-1])))

    sched = system.schedule(profile)
    sep = system.cases[0].run(space, sched)
    rows.append(_row("copy-separation-positive",
                     all(c.verdict == relations.POSITIVE
                         for c in sep.values()),
                     str({k: c.verdict for k, c in sep.items()})))
    diag = system.cases[1].certificate("qrms_f", space, sched)
    rows.append(_row("fixed-diagonal-positive",
                     diag.verdict == relations.POSITIVE))

    rows.append(_mec_row(space, [up(5), up(10), up(20)], profile))
    rows.append(_support_row("support-is-both-limits", space,
                             [up(0), down(0), UP_INF, DOWN_INF],
                             [LampBox(), ZShifted()], nmax,
                             [UP_INF, DOWN_INF]))
    return rows


def _rows_two_point(system, profile):
    space = system.space
    rows = _case_rows(space, system.cases, system.schedule(profile))

    elements = [IntShift(t) for t in range(-profile.z_hi, profile.z_hi + 1)]
    prox = relations.detect_proximal(space, (TP_PINF, TP_MINF), elements)
    rows.append(_row("limits-never-proximal",
                     prox.witnesses[0]["min_distance"] == 1))

    qrp = relations.detect_qrp(space, (TP_PINF, TP_MINF),
                               (Fraction(1, 4), Fraction(1, 10)),
                               [IntShift(t) for t in
                                range(-4 * profile.z_hi, 4 * profile.z_hi + 1,
                                      5)],
                               truncation=40)
    rows.append(_row("limits-regionally-proximal",
                     qrp.verdict == relations.POSITIVE, qrp.verdict))

    rows.append(_row("hull-glues-the-two-limits",
                     system.hull() == two_point_expected_hull()))

    emp = measures.empirical(space, (Point(-3, 1), TP_MINF), ZInitial(),
                             profile.measure_n)
    target = measures.dirac(space, (TP_PINF, TP_MINF))
    d = measures.w1(emp, target)
    half = measures.w1(measures.empirical(space, (Point(-3, 1), TP_MINF),
                                          ZInitial(), profile.measure_n // 2),
                       target)
    rows.append(_row("limit-measure-is-corner-dirac",
                     d < half and d < Fraction(6, 100), "w1=%s" % float(d)))

    rows.append(_support_row("support-is-both-limits", space,
                             [Point(0, 1), TP_PINF, TP_MINF],
                             [ZInitial(), ZCentered()], profile.measure_n,
                             [TP_PINF, TP_MINF]))
    return rows


def _rows_three_glued(system, profile):
    space = system.space
    sched = system.schedule(profile)
    *cases, centered = system.cases
    rows = _case_rows(space, cases, sched)

    cert = centered.certificate("qrms_f", space, sched)
    rows.append(_row("lower-limits-join-under-centered-family",
                     cert.verdict == relations.POSITIVE,
                     "c=%s" % cert.threshold))

    neg = relations.forward_closure_negative(
        space, negative_tails_product(), ZInitial(),
        range(1, profile.closure_n + 1), profile.truncation)
    rows.append(_row("lower-limits-blocked-under-initial-family",
                     neg.verdict == relations.NEGATIVE,
                     "margin=%s" % float(neg.witnesses[0]["margin"])))

    banach = centered.certificate("qrms_banach", space, sched)
    rows.append(_row("lower-limits-join-in-banach-sense",
                     banach.verdict == relations.POSITIVE))

    qrp = relations.detect_qrp(space, (MINF1, PINF2),
                               (Fraction(1, 4), Fraction(1, 8)),
                               [IntShift(t) for t in
                                range(-profile.z_hi, profile.z_hi + 1, 5)],
                               truncation=40)
    rows.append(_row("opposite-outer-limits-not-regionally-proximal",
                     qrp.verdict == relations.NEGATIVE, qrp.verdict))

    elements = [IntShift(t) for t in range(-profile.z_hi, profile.z_hi + 1)]
    prox = relations.detect_proximal(space, (Point(0, 1), Point(0, 3)),
                                     elements)
    rows.append(_row("parallel-orbits-proximal",
                     prox.verdict == relations.POSITIVE))

    rows.append(_row("hull-glues-all-four-limits",
                     system.hull() == three_glued_expected_hull()))

    mn = profile.measure_n
    seq = [measures.empirical(space, (Point(3, 1), Point(3, 3)), ZCentered(), m)
           for m in range(mn - 4, mn + 1)]
    rep = measures.cluster_detect(seq)
    ok = rep.verdict == "CANDIDATE"
    detail = rep.verdict
    if ok:
        heavy = dict(measures.heavy_limits(rep.candidate))
        tol = Fraction(2, 100) if profile.name == "quick" else Fraction(1, 100)
        ok = (set(heavy) == {(PINF1, PINF1), (MINF1, MINF2)}
              and all(abs(w - Fraction(1, 2)) < tol for w in heavy.values()))
        detail = str({spaces.render_point(p): float(w)
                      for p, w in heavy.items()})
    rows.append(_row("centered-limit-splits-half-half", ok, detail))

    limits = [MINF1, PINF1, MINF2, PINF2]
    rows.append(_support_row("support-is-all-four-limits", space,
                             [Point(0, 1), Point(0, 2), Point(0, 3), *limits],
                             [ZInitial(), ZCentered()], profile.measure_n,
                             limits))
    return rows


@dataclass
class System:
    """One registered system: its space, its expected table, the pairs
    it certifies with their detector schedule, and the finite model
    whose hull those pairs seed."""
    space: object
    rows: object                    # (system, profile) -> [Row]
    cases: tuple = ()               # registered PairCases
    schedule: object = z_schedule   # profile -> Schedule
    model: FiniteModel = None
    classes: dict = None            # limit point -> model class

    def case(self, pair):
        """The registered case of `pair`, or None."""
        return next((c for c in self.cases if c.pair == pair), None)

    def hull(self):
        """Smallest closed invariant equivalence relation on the model
        containing every off-diagonal registered pair."""
        return icer_hull(self.model, [
            (self.classes[a], self.classes[b])
            for a, b in (c.pair for c in self.cases) if a != b])


SYSTEMS = {
    "literature-dock": System(LITERATURE_DOCK, _rows_literature_dock),
    "lamplighter-z": System(LAMPLIGHTER_Z, _rows_lamplighter_z),
    "lamplighter": System(LAMPLIGHTER, _rows_lamplighter, LAMPLIGHTER_CASES,
                          lamp_schedule),
    "two-point": System(TWO_POINT, _rows_two_point, TWO_POINT_CASES,
                        model=TWO_POINT_MODEL,
                        classes={TP_MINF: "minf", TP_PINF: "pinf"}),
    "three-glued": System(THREE_GLUED, _rows_three_glued, THREE_GLUED_CASES,
                          model=THREE_GLUED_MODEL,
                          classes={MINF1: "minf1", PINF1: "pinf1",
                                   MINF2: "minf2", PINF2: "pinf2"}),
}


def _system(name):
    if name not in SYSTEMS:
        raise ValueError("unknown system %r; have %s"
                         % (name, sorted(SYSTEMS)))
    return SYSTEMS[name]


def build(name):
    return _system(name).space


@dataclass
class Report:
    system: str
    profile: str
    rows: list

    @property
    def ok(self):
        return all(r.status == "MATCH" for r in self.rows)


def verify(name, profile="quick"):
    if isinstance(profile, str):
        if profile not in PROFILES:
            raise ValueError("unknown profile %r; have %s"
                             % (profile, sorted(PROFILES)))
        profile = PROFILES[profile]
    system = _system(name)
    return Report(name, profile.name, system.rows(system, profile))
