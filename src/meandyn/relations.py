"""Detectors for the sensitivity and rigidity relations of a system,
reporting certificates at stated finite parameters, plus the smallest
closed invariant equivalence relation on a finite combinatorial model.

A POSITIVE certificate carries a witness schedule: asymptotically
diagonal pairs with strictly decreasing distances ending below the
finest tested radius, each clearing a common positive density c.  A
NEGATIVE certificate carries a finitely checked structural obstruction
(a forward-closed off-diagonal target set, or a copy-separation bound).
Everything else is INCONCLUSIVE.

The regional-proximality probe scans perturbed pairs in a fixed order,
so its witness is the first hit.  Before the scan, a scale whose
perturbations lie in copies at least eps apart (`spaces.copy_gap`)
fails outright: integer shifts keep every point in its own copy.

The forward-closure certificate decides point by point, from the two
extreme shifts of each range of its element union, whether any shift
carries a point into the target; it scans elements only to name the
first counterexample.  Its margin is an exact sorted nearest-distance
check (`spaces.nearest_distance`).
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import density, folner, spaces
from .groups import IntShift
from .spaces import (Ball, PointSet, ProductOf, act, contains, metric,
                     render_point, truncate)

POSITIVE = "POSITIVE"
NEGATIVE = "NEGATIVE"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class Certificate:
    kind: str
    pair: tuple
    verdict: str
    threshold: object = None       # the common density c, for positives
    witnesses: list = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def to_json(self):
        return {"kind": self.kind, "pair": encode(self.pair),
                "verdict": self.verdict, "threshold": encode(self.threshold),
                "witnesses": encode(self.witnesses),
                "params": encode(self.params)}


def exact_text(v):
    """str(v) of a Fraction, also past the limit on int-to-str
    conversion that Python sets (4,300 digits by default since 3.11)."""
    if v.denominator == 1:
        return _int_text(v.numerator)
    return "%s/%s" % (_int_text(v.numerator), _int_text(v.denominator))


def _int_text(n):
    """str(n), converting an int past the limit in halves that fit."""
    if n < 0:
        return "-" + _int_text(-n)
    try:
        return str(n)
    except ValueError:
        half = int(n.bit_length() * 0.30103) // 2   # about half its digits
        high, low = divmod(n, 10 ** half)
        return _int_text(high) + _int_text(low).zfill(half)


def encode(v):
    """JSON form of a value: a Fraction as its exact text and a float
    (a key: its float text), a point by its text, containers by entry."""
    if isinstance(v, Fraction):
        return {"fraction": exact_text(v), "float": float(v)}
    if isinstance(v, spaces.Point):
        return render_point(v)
    if isinstance(v, (tuple, list)):
        return [encode(x) for x in v]
    if isinstance(v, dict):
        return {str(float(k) if isinstance(k, Fraction) else k): encode(x)
                for k, x in v.items()}
    if isinstance(v, (int, float, str, bool)) or v is None:
        return v
    return repr(v)


# densities below this are treated as finite-size noise, not evidence
DENSITY_FLOOR = Fraction(1, 50)


def _scheduled(kind, space, pair, witnesses, radii, ks, score, params):
    """Score every (witness, radius) of the schedule, witness-major, by
    `score(i, witness_pair, ball)`, and certify the common density c.

    The diagonality contract: witness distances strictly decrease (ties
    allowed only at zero, for witnesses sitting exactly on the diagonal)
    and end below the finest radius."""
    radii = sorted(radii, reverse=True)
    if not radii:
        raise ValueError("radii is empty: the schedule must end below a radius")
    ks = list(ks)
    pairs = [witnesses(k) for k in ks]
    if not pairs:
        raise ValueError("ks is empty: the schedule needs a witness index")
    dists = [metric(space, p[0], p[1]) for p in pairs]
    ok = (all(a > b or a == b == 0 for a, b in zip(dists, dists[1:]))
          and dists[-1] < radii[-1])
    scores = {(i, r): score(i, wp, Ball(pair, r))
              for i, wp in enumerate(pairs) for r in radii}
    c = min(scores.values())
    verdict = POSITIVE if ok and c >= DENSITY_FLOOR else INCONCLUSIVE
    wit = [{"pair": p, "distance": d,
            "scores": {r: v for (j, r), v in scores.items() if j == i}}
           for i, (p, d) in enumerate(zip(pairs, dists))]
    params = dict(params, ks=ks, radii=[float(r) for r in radii],
                  floor=float(DENSITY_FLOOR), common_density=c)
    return Certificate(kind, pair, verdict, c if verdict == POSITIVE else None,
                       wit, params)


def detect_srjms_f(space, pair, family, witnesses, radii, ks, ns=None,
                   budget=folner.ATOM_BUDGET):
    """Sensitivity along the family: witness k is scored by the density
    of its hitting set inside a single matched set F_{n_k} (by default
    n_k = k)."""
    ks = list(ks)
    ns = ks if ns is None else list(ns)

    def score(i, wp, ball):
        # checked here, after the schedule's own emptiness checks
        if len(ns) != len(ks):
            raise ValueError("ns has %d entries for %d witness indices"
                             % (len(ns), len(ks)))
        return density.hitting_ratios(space, wp, ball, family, [ns[i]],
                                      budget)[0]

    return _scheduled("srjms_f", space, pair, witnesses, radii, ks, score,
                      {"family": repr(family), "ns": ns})


def detect_swsm_f(space, pair, family, witnesses, radii, ks, window,
                  budget=folner.ATOM_BUDGET):
    """Sensitivity in the sense of separated witness pairs: the query
    pair must be off the diagonal; each witness is scored by its best
    density over the window."""
    if pair[0] == pair[1]:
        raise ValueError("witness-separation sensitivity is off-diagonal only")
    ns = folner.window_indices(window)

    def score(i, wp, ball):
        return max(density.hitting_ratios(space, wp, ball, family, ns, budget))

    return _scheduled("swsm_f", space, pair, witnesses, radii, ks, score,
                      {"family": repr(family), "window": list(window)})


def detect_qrms_f(space, pair, family, witnesses, radii, ks, window,
                  budget=folner.ATOM_BUDGET):
    """Rigid-mean sensitivity along the family: witness k is scored by
    the tail of its upper-density profile over the window."""
    folner.window_indices(window)

    def score(i, wp, ball):
        return density.ua_dens_estimate(space, wp, ball, family, window,
                                        budget).tail_max

    return _scheduled("qrms_f", space, pair, witnesses, radii, ks, score,
                      {"family": repr(family), "window": list(window)})


def detect_qrms_banach(space, pair, shape, witnesses, radii, ks, n,
                       translates, budget=folner.ATOM_BUDGET):
    """Banach version: witness k is scored by the best density over
    right translates of the window shape."""
    # every (witness, radius) reads the same translates
    translates = list(translates)

    def score(i, wp, ball):
        return density.ub_dens_estimate(space, wp, ball, shape, n,
                                        translates, budget)["sup"]

    return _scheduled("qrms_banach", space, pair, witnesses, radii, ks, score,
                      {"shape": repr(shape), "n": n})


def forward_closure_negative(space, nbhd, family, n_list, truncation,
                             budget=folner.ATOM_BUDGET):
    """NEGATIVE certificate for sensitivity towards a product target:
    if membership in each factor propagates backwards along the whole
    element range (g.p in U implies p in U), any hit would pull the
    witness pair itself into U; but U keeps a positive gap from the
    diagonal, so asymptotically diagonal witnesses eventually miss U
    entirely and all densities vanish.

    The element range is the union of the shift windows of an integer
    window family over `n_list`, and whether a point enters a factor
    under it is read from the extreme shifts of each range (`_enters`).
    Only when some point does enter are the shifts scanned, in the order
    the windows list them, so the counterexample reported is the first
    in that order."""
    if not (isinstance(nbhd, ProductOf)
            and isinstance(nbhd.left, PointSet)
            and isinstance(nbhd.right, PointSet)):
        raise ValueError("closure argument needs a product of point sets")
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list is empty: the closure needs a Folner index")
    windows = []
    for n in n_list:
        folner.cardinality(family, n, budget)
        windows.append(folner.shift_window(family, n))
    if None in windows:
        raise ValueError("forward closure needs an integer window family, "
                         "got %r" % (family,))
    ranges = folner.union(windows)
    points = truncate(space, truncation)
    outside = [(factor, p) for factor in (nbhd.left, nbhd.right)
               for p in points if not contains(space, factor, p)]
    counterexample = None
    if any(_enters(space, factor, p, ranges) for factor, p in outside):
        shifts = dict.fromkeys(IntShift(a) for lo, hi in windows
                               for a in range(lo, hi + 1))
        counterexample = next(((p, g) for factor, p in outside for g in shifts
                               if contains(space, factor, act(space, g, p))),
                              None)
    margin = _product_gap(space, nbhd, points)
    verdict = (NEGATIVE if counterexample is None and margin > 0
               else INCONCLUSIVE)
    return Certificate("forward_closure", None, verdict, None,
                       [{"margin": margin, "counterexample": counterexample}],
                       {"family": repr(family), "n_list": n_list,
                        "truncation": truncation,
                        "checked_elements": sum(hi - lo + 1
                                                for lo, hi in ranges),
                        "checked_points": len(points)})


def _enters(space, factor, p, ranges):
    """Whether a shift in one of `ranges` moves p into the point set
    `factor`.  A limit stays put.  A finite point runs through consecutive
    coordinates of its own copy, so over a range it reaches a Tail
    exactly when the image under an extreme shift lies in it, and a
    listed point exactly when that point sits between the two images."""
    if p.is_limit():
        return False
    for lo, hi in ranges:
        ends = [act(space, IntShift(a), p) for a in (lo, hi)]
        if any(contains(space, factor, q) for q in ends):
            return True
        low, high = sorted(q.coord for q in ends)
        if any(q.copy == p.copy and not q.is_limit() and low < q.coord < high
               for q in factor.points):
            return True
    return False


def _product_gap(space, nbhd, points):
    left = [p for p in points if contains(space, nbhd.left, p)]
    right = [p for p in points if contains(space, nbhd.right, p)]
    if not left or not right:
        return Fraction(0)
    return spaces.nearest_distance(space, left, right)


def detect_proximal(space, pair, elements, delta=Fraction(1, 100)):
    elements = list(elements)
    if not elements:
        raise ValueError("detect_proximal needs a non-empty element list")
    best = None
    for g in elements:
        moved = act(space, g, pair)
        d = metric(space, moved[0], moved[1])
        if best is None or d < best[0]:
            best = (d, g)
    verdict = POSITIVE if best[0] < delta else INCONCLUSIVE
    return Certificate("proximal", pair, verdict, None,
                       [{"min_distance": best[0], "argmin": best[1]}],
                       {"delta": float(delta), "elements": len(elements)})


def detect_qrp(space, pair, epsilons, elements, truncation=40):
    """Regional proximality probe.  POSITIVE when every scale admits a
    perturbed pair brought close together by some element; NEGATIVE
    when, for a translation action, the perturbed pairs are trapped in
    copies whose closed layout intervals keep a gap above every scale."""
    epsilons = sorted((Fraction(e) if not isinstance(e, Fraction) else e
                       for e in epsilons), reverse=True)
    if not epsilons:
        raise ValueError("epsilons is empty: detect_qrp needs at least one scale")
    elements = list(elements)
    points = truncate(space, truncation)
    orbits = {}

    def orbit(y):
        # each perturbed point is pushed along the elements once
        if y not in orbits:
            orbits[y] = [act(space, g, y) for g in elements]
        return orbits[y]

    # integer shifts keep every point in its own copy
    keeps_copies = all(isinstance(g, IntShift) for g in elements)
    witnesses = []
    found_all = True
    for eps in epsilons:
        near_x = [y for y in points if metric(space, pair[0], y) < eps]
        near_y = [y for y in points if metric(space, pair[1], y) < eps]
        copies = (sorted({p.copy for p in near_x}),
                  sorted({p.copy for p in near_y}))
        hit = None
        if not (keeps_copies and _copy_bound(space, copies) >= eps):
            hit = _first_hit(space, eps, near_x, near_y, elements, orbit)
        if hit:
            witnesses.append(hit)
        else:
            found_all = False
            witnesses.append({"epsilon": float(eps), "pair": None,
                              "copies": copies})
    if found_all:
        verdict = POSITIVE
    elif space.action == spaces.TRANSLATE and _copy_gap_blocks(space, witnesses,
                                                               epsilons):
        verdict = NEGATIVE
    else:
        verdict = INCONCLUSIVE
    return Certificate("qrp", pair, verdict, None, witnesses,
                       {"epsilons": [float(e) for e in epsilons],
                        "truncation": truncation,
                        "elements": len(elements)})


def _first_hit(space, eps, near_x, near_y, elements, orbit):
    """Witness of the first (y, y2, g) in scan order with
    d(g.y, g.y2) < eps, or None."""
    for y in near_x:
        for y2 in near_y:
            for g, gy, gy2 in zip(elements, orbit(y), orbit(y2)):
                d = metric(space, gy, gy2)
                if d < eps:
                    return {"epsilon": float(eps), "pair": (y, y2),
                            "element": g, "distance": d}
    return None


def _copy_bound(space, copies):
    """The least distance between a point of a copy in copies[0] and
    one of a copy in copies[1] (`spaces.copy_gap`), which no move that
    keeps copies can undercut; 0 when either side has no copy, where no
    pair is there to scan."""
    return min((spaces.copy_gap(space, a, b)
                for a in copies[0] for b in copies[1]), default=Fraction(0))


def _copy_gap_blocks(space, witnesses, epsilons):
    """Translations preserve copies, so if every perturbation at the
    finest failed scale stays in copies at least max(eps) apart, no
    element can ever bring the legs close.  A failed scale with no
    perturbation on one side proves nothing."""
    failed = [w for w in witnesses if w.get("pair") is None]
    if not failed:
        return False
    copies = failed[-1]["copies"]
    return all(copies) and _copy_bound(space, copies) >= max(epsilons)


# --------------------------------------------------------- finite model hull

@dataclass(frozen=True)
class FiniteModel:
    """Combinatorial skeleton of a system: limit classes and free-orbit
    classes, generator permutations, and a directional closure map
    sending each class to its (backward, forward) limit classes."""
    classes: tuple
    generators: tuple        # each a dict class -> class
    closure: dict            # class -> (backward class, forward class)

    def __post_init__(self):
        for c in self.classes:
            b, f = self.closure[c]
            if b not in self.classes or f not in self.classes:
                raise ValueError("closure map leaves the model")


def icer_hull(model, pairs):
    """Smallest equivalence relation containing `pairs` that is closed
    under the generator permutations and the directional closure map."""
    rel = set()
    for c in model.classes:
        rel.add((c, c))
    for a, b in pairs:
        rel.add((a, b))
    while True:
        new = set(rel)
        for a, b in rel:
            new.add((b, a))
            for g in model.generators:
                new.add((g[a], g[b]))
            ba, fa = model.closure[a]
            bb, fb = model.closure[b]
            new.add((ba, bb))
            new.add((fa, fb))
        for a, b in rel:
            for c, d in rel:
                if b == c:
                    new.add((a, d))
        if new == rel:
            return frozenset(rel)
        rel = new
