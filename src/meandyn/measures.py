"""Atomic probability measures on a space or on its square, with exact
rational weights, empirical averages along Folner sets, and an exact
Wasserstein-1 distance.

The transport solver runs two routes: a closed-form sweep when the
joint support is isometric to a subset of the line (always the case
inside one connected component, and for pair measures whose two legs
move monotonically together), and a min-cost flow otherwise.  The flow
route scales the weights and the cost matrix to integers by the lcm of
their denominators and runs successive shortest paths, Dijkstra on
reduced costs with node potentials, in integer arithmetic; the answer
is the integer total over the product of the two scales, so it stays
exact.  The two routes agree on their overlap, which the test suite
checks.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import folner, spaces
from .pushforward import images
from .spaces import canonical, component, embed, metric, sort_key


@dataclass(frozen=True)
class AtomicMeasure:
    space: spaces.Space
    atoms: tuple  # ((point-or-pair, Fraction weight), ...) sorted, merged

    def total(self):
        return sum(w for _, w in self.atoms)

    def mass(self, nbhd):
        return sum(w for p, w in self.atoms if spaces.contains(self.space, nbhd, p))


def _canonical_atom(space, p):
    if isinstance(p, tuple):
        return tuple(canonical(space, q) for q in p)
    return canonical(space, p)


def measure(space, weighted_points):
    """Build a measure from (point, weight) pairs; merges and sorts."""
    acc = {}
    for p, w in weighted_points:
        p = _canonical_atom(space, p)
        acc[p] = acc.get(p, Fraction(0)) + Fraction(w)
    atoms = tuple((p, w) for p, w in sorted(acc.items(),
                                            key=lambda it: sort_key(space, it[0]))
                  if w != 0)
    m = AtomicMeasure(space, atoms)
    if m.total() != 1:
        raise ValueError("weights sum to %s, not 1" % (m.total(),))
    return m


def dirac(space, p):
    return measure(space, [(p, Fraction(1))])


def empirical(space, start, family, n, budget=folner.ATOM_BUDGET):
    """Push the point mass at `start` along the n-th Folner set."""
    counts = images(space, start, family, n, budget=budget)
    total = sum(counts.values())
    return measure(space, [(p, Fraction(c, total)) for p, c in counts.items()])


def combine(parts):
    """Convex combination of (coefficient, measure) pairs."""
    parts = list(parts)
    if not parts:
        raise ValueError("combine needs at least one (coefficient, measure) part")
    space = parts[0][1].space
    pts = []
    for c, m in parts:
        if m.space != space:
            raise ValueError("mixing measures on different spaces")
        pts.extend((p, Fraction(c) * w) for p, w in m.atoms)
    return measure(space, pts)


# ------------------------------------------------------------ Wasserstein-1

MAX_ATOMS = 4000  # w1 raises BudgetError above this; atoms are never merged


def _line_positions(space, points):
    """Chain coordinates if the points lie in one connected piece, or
    are pairs whose legs each stay in one piece and move monotonically
    together; else None.  `points` must be sorted by sort_key."""
    if not isinstance(points[0], tuple):
        if len({component(space, p) for p in points}) == 1:
            return [embed(space, p) for p in points]
        return None
    comps = {(component(space, p[0]), component(space, p[1])) for p in points}
    if len(comps) == 1:
        e1 = [embed(space, p[0]) for p in points]
        e2 = [embed(space, p[1]) for p in points]
        if _monotone(e1) and _monotone(e2):
            pos = [Fraction(0)]
            for i in range(1, len(points)):
                pos.append(pos[-1] + abs(e1[i] - e1[i - 1]) + abs(e2[i] - e2[i - 1]))
            return pos
    return None


def _monotone(vals):
    return (all(a <= b for a, b in zip(vals, vals[1:]))
            or all(a >= b for a, b in zip(vals, vals[1:])))


def w1(mu, nu):
    """Exact optimal-transport distance for the ground metric."""
    if mu.space != nu.space:
        raise ValueError("measures live on different spaces")
    space = mu.space
    atoms = max(len(mu.atoms), len(nu.atoms))
    if atoms > MAX_ATOMS:
        raise folner.BudgetError("w1 of a measure with %d atoms exceeds %d"
                                 % (atoms, MAX_ATOMS))
    if mu.atoms == nu.atoms:
        return Fraction(0)
    support = sorted({p for p, _ in mu.atoms} | {p for p, _ in nu.atoms},
                     key=lambda p: sort_key(space, p))
    pos = _line_positions(space, support)
    if pos is not None:
        return _w1_line(dict(zip(support, pos)), mu, nu)
    return _w1_flow(space, mu, nu)


def _w1_line(pos, mu, nu):
    # CDF sweep: integrate |F_mu - F_nu| along the chain coordinate
    delta = Counter()
    for p, w in mu.atoms:
        delta[pos[p]] += w
    for p, w in nu.atoms:
        delta[pos[p]] -= w
    cost = Fraction(0)
    cdf = Fraction(0)
    prev = None
    for t in sorted(delta):
        if prev is not None:
            cost += abs(cdf) * (t - prev)
        cdf += delta[t]
        prev = t
    return cost


def _w1_flow(space, mu, nu):
    """Min-cost flow on the bipartite transport network, exact.

    Weights and costs are scaled to integers by the lcm of their
    denominators, so the answer is total / (weight_scale * cost_scale).
    Successive shortest paths: each round runs Dijkstra on reduced
    costs from the sources with supply left, stops at the first sink
    with demand left, raises every potential by min(distance, that
    sink's distance) and pushes the bottleneck amount along the path.
    Reduced costs stay non-negative and every flow-carrying arc stays
    tight, so each intermediate flow is optimal for its value."""
    weight_scale = math.lcm(*(w.denominator for _, w in mu.atoms + nu.atoms))
    costs = [[metric(space, p, q) for q, _ in nu.atoms] for p, _ in mu.atoms]
    cost_scale = math.lcm(*(c.denominator for row in costs for c in row))
    cost = [[c.numerator * (cost_scale // c.denominator) for c in row]
            for row in costs]
    supply = [w.numerator * (weight_scale // w.denominator) for _, w in mu.atoms]
    demand = [w.numerator * (weight_scale // w.denominator) for _, w in nu.atoms]
    m, n = len(supply), len(demand)
    flow = [[0] * n for _ in range(m)]
    pot = [0] * (m + n)  # node i < m is source i, node m + j is sink j
    remaining = sum(supply)
    guard = 4 * (m + n) * (m + n)
    while remaining:
        guard -= 1
        if guard < 0:
            raise AssertionError("transport solver failed to terminate")
        # Dijkstra over the reached, unfinished nodes; a finished node's
        # distance is at most the current one, so it is never reopened
        dist = [0 if s else math.inf for s in supply] + [math.inf] * n
        prev = [None] * (m + n)
        frontier = {i: 0 for i in range(m) if supply[i]}
        while True:
            if not frontier:
                raise AssertionError("no augmenting path in transport network")
            u = min(frontier, key=frontier.get)
            base = frontier.pop(u) + pot[u]
            if u < m:
                for j, c in enumerate(cost[u]):
                    d = base + c - pot[m + j]
                    if d < dist[m + j]:
                        dist[m + j] = frontier[m + j] = d
                        prev[m + j] = u
            elif demand[u - m]:
                break
            else:  # backward arcs cancel flow into this sink
                for i in range(m):
                    if flow[i][u - m]:
                        d = base - cost[i][u - m] - pot[i]
                        if d < dist[i]:
                            dist[i] = frontier[i] = d
                            prev[i] = u
        top = dist[u]
        pot = [p + min(d, top) for p, d in zip(pot, dist)]
        # walk back: sink <- source (forward arc) <- sink (backward arc) ...
        sink = u - m
        path = []
        while True:
            i = prev[u]
            path.append((i, u - m))
            if prev[i] is None:
                break
            u = prev[i]
            path.append((i, u - m))
        amount = min(supply[i], demand[sink],
                     *(flow[a][b] for a, b in path[1::2]))
        for k, (a, b) in enumerate(path):
            flow[a][b] += -amount if k % 2 else amount
        supply[i] -= amount
        demand[sink] -= amount
        remaining -= amount
    total = sum(f * c for frow, crow in zip(flow, cost) for f, c in zip(frow, crow))
    return Fraction(total, weight_scale * cost_scale)


# ----------------------------------------------------- limits and clustering

def snap_to_limits(space, m, radius):
    """Merge each atom into the limit point(s) within `radius` of it
    (coordinatewise for pairs)."""
    limits = space.limit_points()

    def snap(p):
        if isinstance(p, tuple):
            return tuple(snap(q) for q in p)
        best = min(limits, key=lambda l: metric(space, l, p))
        return best if metric(space, best, p) <= radius else p

    return measure(space, [(snap(p), w) for p, w in m.atoms])


def heavy_atoms(m, weight_tol):
    return [(p, w) for p, w in m.atoms if w >= weight_tol]


@dataclass
class ClusterReport:
    verdict: str            # "CANDIDATE" or "NONE"
    candidate: object       # AtomicMeasure or None
    gaps: list              # trailing pairwise w1 values (floats)
    tol: float
    tail: int


def cluster_detect(measures, tol=1e-3, tail=5):
    """Trailing-stability test: the last measure is the candidate limit
    when all pairwise distances among the last `tail` entries fall
    below `tol`, decided on the exact distances.  Measures alternating
    between several limit points keep the tail oscillating, so that case
    reports NONE."""
    ms = list(measures)
    if len(ms) < tail:
        raise ValueError("need at least %d measures" % tail)
    window = ms[-tail:]
    exact_tol = Fraction(tol)
    gaps = []
    ok = True
    for i in range(len(window)):
        for j in range(i + 1, len(window)):
            g = w1(window[i], window[j])
            gaps.append(float(g))
            if g >= exact_tol:
                ok = False
    if ok:
        return ClusterReport("CANDIDATE", ms[-1], gaps, tol, tail)
    return ClusterReport("NONE", None, gaps, tol, tail)


def support_union_estimate(space, starts, families, n, snap_radius=Fraction(1, 10),
                           weight_tol=Fraction(1, 20), budget=folner.ATOM_BUDGET):
    """Finite estimate of the union of supports of invariant limit
    measures: snap each empirical measure's atoms to nearby limit
    points, keep the heavy ones, and union over starts and families."""
    out = set()
    detail = []
    for fam in families:
        for start in starts:
            m = snap_to_limits(space, empirical(space, start, fam, n, budget),
                               snap_radius)
            heavy = [p for p, w in heavy_atoms(m, weight_tol)]
            detail.append((start, fam, heavy))
            out.update(heavy)
    points = sorted(out, key=lambda p: sort_key(space, p))
    return {"points": points, "n": n, "snap_radius": snap_radius,
            "weight_tol": weight_tol, "detail": detail}


def measure_to_json(m):
    return {
        "atoms": [{"point": spaces.point_to_json(p), "weight": str(w),
                   "weight_float": float(w)} for p, w in m.atoms],
    }
