"""Atomic probability measures on a space or on its square, with exact
rational weights, empirical averages along Folner sets, and an exact
Wasserstein-1 distance.

Every distance goes through one pairwise path: `w1` is its case of two
measures, and `cluster_detect` runs it once over its whole tail.  The
path sorts the union support once.  When that support is isometric to
a subset of the line (always the case inside one connected component,
and for pair measures whose two legs move monotonically together), it
reads every distance from one sweep over that chart; otherwise it runs
a min-cost flow per pair.  Both routes run on integers.  The line route
sums |CDF| times gap along the chart with positions and weights scaled
by the lcm of their denominators; the flow route scales the weights and
the cost matrix the same way and runs successive shortest paths,
Dijkstra on reduced costs with node potentials.  Each answer is the
integer total over the product of the two scales, so it stays exact.
The two routes agree on their overlap, which the test suite checks.

The limit probes read four module constants: `cluster_detect` compares
the last CLUSTER_TAIL measures against CLUSTER_TOL, and `heavy_limits`
merges atoms within SNAP_RADIUS of a limit point and keeps the limits
of weight at least HEAVY_WEIGHT.  One snap rule does the merging: with
the threshold T of `spaces.snap_threshold`, a finite leg merges exactly
when |coord| >= T, into its own copy's end.  Every space that can be
built has a checked layout, so T holds on all of them.
`support_union_estimate` applies the same rule to the image counts of
the pushforward kernel, so it builds no measure.
"""

import itertools
import math
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


def _check_pair(mu, nu):
    if mu.space != nu.space:
        raise ValueError("measures live on different spaces")
    on_pairs = {isinstance(p, tuple) for m in (mu, nu) for p, _ in m.atoms[:1]}
    if len(on_pairs) > 1:
        raise ValueError("one measure lives on points and the other on "
                         "pairs of points")
    atoms = max(len(mu.atoms), len(nu.atoms))
    if atoms > MAX_ATOMS:
        raise folner.BudgetError("w1 of a measure with %d atoms exceeds %d"
                                 % (atoms, MAX_ATOMS))


def w1(mu, nu):
    """Exact optimal-transport distance for the ground metric."""
    return _distances([mu, nu])[0]


def _distances(ms):
    """W1 between every two of `ms`, in the order (0, 1), (0, 2), ...,
    all read from one sweep when their union support lies on a line,
    else one flow per pair."""
    pairs = list(itertools.combinations(range(len(ms)), 2))
    for i, j in pairs:
        _check_pair(ms[i], ms[j])
    space = ms[0].space
    support = sorted({p for m in ms for p, _ in m.atoms},
                     key=lambda p: sort_key(space, p))
    pos = _line_positions(space, support)
    if pos is None:
        return [Fraction(0) if ms[i].atoms == ms[j].atoms
                else _w1_flow(space, ms[i], ms[j]) for i, j in pairs]
    at = {p: k for k, p in enumerate(support)}
    signed = [[(at[p], w) for p, w in m.atoms] for m in ms]
    return _w1_line(pos, [signed[i] + [(k, -w) for k, w in signed[j]]
                          for i, j in pairs])


def _w1_line(pos, vectors):
    """Integrate |CDF| along a line chart, once per signed mass vector.

    `pos` holds the strictly increasing chart coordinates of a sorted
    support, and each vector lists (index into `pos`, signed weight)
    entries.  On the line W1 is the L1 distance between the two CDFs
    (Vallender, 1973).  Positions are scaled to integers by the lcm of
    their denominators and weights by the lcm of theirs, so the sum runs
    on Python ints; each answer is total / (weight_scale * pos_scale)."""
    pos_scale = math.lcm(*{x.denominator for x in pos})
    ipos = [x.numerator * (pos_scale // x.denominator) for x in pos]
    gaps = [b - a for a, b in zip(ipos, ipos[1:])]
    denominators = {w.denominator for vec in vectors for _, w in vec}
    weight_scale = math.lcm(*denominators)
    factor = {d: weight_scale // d for d in denominators}
    out = []
    for vec in vectors:
        delta = [0] * len(pos)
        for k, w in vec:
            delta[k] += w.numerator * factor[w.denominator]
        cdf = total = 0
        for mass, gap in zip(delta, gaps):
            cdf += mass
            total += abs(cdf) * gap
        out.append(Fraction(total, weight_scale * pos_scale))
    return out


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

CLUSTER_TAIL = 5  # cluster_detect compares this many trailing measures
CLUSTER_TOL = 1e-3  # and needs every W1 among them below Fraction(1e-3)
SNAP_RADIUS = Fraction(1, 10)  # an atom this close to a limit merges into it
HEAVY_WEIGHT = Fraction(1, 20)  # a limit needs this much merged mass to count


def heavy_limits(m):
    """The (point, weight) atoms of `m` once each atom has merged into
    the limit point within SNAP_RADIUS of it (coordinatewise for pairs),
    keeping those of weight at least HEAVY_WEIGHT, in sort_key order."""
    return _heavy(m.space, m.atoms, 1)


def _heavy(space, weighted, total):
    """heavy_limits of the (point, weight) entries, each weight read as
    weight / total.

    With T = `spaces.snap_threshold` for SNAP_RADIUS, a finite leg
    merges into a limit exactly when |coord| >= T, and that limit is its
    own copy's end on the side of coord's sign (the point at infinity,
    on a one-point circle), so no metric is evaluated.  A limit leg
    stays put."""
    bound = spaces.snap_threshold(space, SNAP_RADIUS)

    def snap(p):
        if isinstance(p, tuple):
            return tuple(snap(q) for q in p)
        if p.is_limit() or abs(p.coord) < bound:
            return p
        end = (spaces.O_INF if space.kind == spaces.ONE_POINT
               else spaces.P_INF if p.coord > 0 else spaces.M_INF)
        return canonical(space, spaces.Point(end, p.copy))

    acc = {}
    for p, w in weighted:
        q = snap(p)
        acc[q] = acc.get(q, 0) + w
    heavy = ((p, Fraction(w, total)) for p, w in acc.items())
    return sorted(((p, w) for p, w in heavy if w >= HEAVY_WEIGHT),
                  key=lambda it: sort_key(space, it[0]))


@dataclass
class ClusterReport:
    verdict: str            # "CANDIDATE" or "NONE"
    candidate: object       # AtomicMeasure or None
    gaps: list              # trailing pairwise w1 values (floats)


def cluster_detect(measures):
    """Trailing-stability test: the last measure is the candidate limit
    when all pairwise distances among the last CLUSTER_TAIL entries fall
    below CLUSTER_TOL, decided on the exact distances.  Measures
    alternating between several limit points keep the tail oscillating,
    so that case reports NONE."""
    ms = list(measures)
    if len(ms) < CLUSTER_TAIL:
        raise ValueError("need at least %d measures" % CLUSTER_TAIL)
    distances = _distances(ms[-CLUSTER_TAIL:])
    gaps = [float(g) for g in distances]
    if all(g < Fraction(CLUSTER_TOL) for g in distances):
        return ClusterReport("CANDIDATE", ms[-1], gaps)
    return ClusterReport("NONE", None, gaps)


def support_union_estimate(space, starts, families, n, budget=folner.ATOM_BUDGET):
    """Finite estimate of the union of supports of invariant limit
    measures: the heavy limits of each empirical measure, unioned over
    starts and families, in sort_key order.  They are read from the
    image counts of each start, each of weight count / |F_n|, with no
    measure built."""
    starts, points = list(starts), set()
    for fam in families:
        for start in starts:
            counts = images(space, start, fam, n, budget=budget)
            points.update(p for p, _ in _heavy(space, counts.items(),
                                                sum(counts.values())))
    return sorted(points, key=lambda p: sort_key(space, p))


def measure_to_json(m):
    return {
        "atoms": [{"point": spaces.point_to_json(p), "weight": str(w),
                   "weight_float": float(w)} for p, w in m.atoms],
    }
