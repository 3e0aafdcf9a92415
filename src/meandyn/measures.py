"""Atomic probability measures on a space or on its square, with exact
rational weights, empirical averages along Folner sets, and an exact
Wasserstein-1 distance.

Every distance goes through one pairwise path: `w1` is its case of two
measures, and `cluster_detect` runs it once over its whole tail.  The
path sorts the union support once.  When that support is isometric to
a subset of the line (always the case inside one connected component,
and for pair measures whose two legs move monotonically together), it
reads every distance from one sweep over that chart; otherwise it
solves one transportation problem per pair.  Both routes run on
integers.  The line route sums |CDF| times gap along the chart with
positions and weights scaled by the lcm of their denominators.  The
flow route reads its whole cost table from one integer chart of the
legs (`spaces.integer_chart`), scales the weights the same way, and
runs a transportation simplex: a least-cost start, integer duals on a
spanning-tree basis, and Orden's perturbation of the weights, so no
pivot is degenerate and the simplex cannot cycle.  When either side is
a single atom, W1 is the sum of weight times distance.  Each answer is
the integer total over the product of the two scales, so it stays
exact.  The two routes agree on their overlap, which the test suite
checks.

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
from .spaces import canonical, component, embed, sort_key


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
    """Transportation simplex on Python ints, exact.

    Rows are the atoms of the measure with more of them, columns those
    of the other.  The cost table is read from one integer chart
    (`_cost_columns`) and the weights are scaled by the lcm of their
    denominators, so the answer is the integer optimum over the product
    of the two scales.  When either measure is a single atom there is one
    column, and W1 is the sum over the rows of weight times distance.

    Otherwise Orden's perturbation makes every basis non-degenerate:
    with S = m + 1 for m rows, each supply becomes S * a + 1 and the
    last demand S * b + m, the rest S * b.  No proper set of rows and
    set of columns then balance, so every basic solution has m + n - 1
    positive cells, and each pivot strictly lowers the cost: the
    simplex cannot cycle.  A basis optimal for the perturbed weights is
    optimal for the true ones too: its true basic flows differ from the
    perturbed ones over S by less than 1 and are integers, so they are
    feasible, and its duals u, v price every cell at c - u - v >= 0.
    So the optimum is sum a * u + sum b * v.

    The least-cost start fills cells in order of cost.  The basis is a
    spanning tree on rows and columns, rooted at the last column, with
    integer duals.  Each round prices one column at a time, cyclically,
    and enters its most negative reduced cost; the cell leaving is the
    minus cell of least flow on the entering cell's cycle, and only the
    subtree cut off by it is re-hung and has its duals read again."""
    if len(mu.atoms) < len(nu.atoms):
        mu, nu = nu, mu
    scale, cols = _cost_columns(space, [p for p, _ in mu.atoms],
                                [q for q, _ in nu.atoms])
    weight_scale = math.lcm(*(w.denominator for _, w in mu.atoms + nu.atoms))
    a = [w.numerator * (weight_scale // w.denominator) for _, w in mu.atoms]
    b = [w.numerator * (weight_scale // w.denominator) for _, w in nu.atoms]
    if len(b) == 1:
        return Fraction(sum(map(int.__mul__, a, cols[0])),
                        weight_scale * scale)
    u, v = _transport_simplex(cols, a, b)
    total = sum(map(int.__mul__, a, u)) + sum(map(int.__mul__, b, v))
    return Fraction(total, weight_scale * scale)


def _cost_columns(space, rows, cols):
    """(scale, table): table[j][i] is the int
    metric(space, rows[i], cols[j]) * scale, for points or for pairs of
    points.  Every leg is placed once on `spaces.integer_chart`, so no
    `metric` call is made; a pair's cost adds its two legs' distances,
    and each distinct leg of `cols` gets its column once."""
    sides = [(rows, cols)]
    if isinstance(rows[0], tuple):
        sides = [([p[k] for p in rows], [q[k] for q in cols]) for k in (0, 1)]
    scale, chart = spaces.integer_chart(
        space, {p for side in sides for legs in side for p in legs})
    table = None
    for legs, targets in sides:
        placed = [chart[p] for p in legs]
        column = {}
        for q in targets:
            if q not in column:
                piece, i, y = chart[q]
                column[q] = [abs(x - y) if c == piece else scale * abs(k - i)
                             for c, k, x in placed]
        part = [column[q] for q in targets]
        table = part if table is None else [
            list(map(int.__add__, s, t)) for s, t in zip(table, part)]
    return scale, table


def _transport_simplex(cols, a, b):
    """(u, v) of an optimal basis for supplies `a` and demands `b` under
    the integer costs cols[j][i], with Orden's perturbation; see
    `_w1_flow`."""
    m, n = len(a), len(b)
    big = m + 1
    supply = [big * x + 1 for x in a]
    demand = [big * y for y in b]
    demand[-1] += m
    # least-cost start: each filled cell but the last exhausts exactly
    # one of its row and its column, so the m + n - 1 cells form a tree
    flat = [c for col in cols for c in col]
    flow = {}   # cell j * m + i of the basis -> its perturbed flow
    for k in sorted(range(m * n), key=flat.__getitem__):
        j, i = divmod(k, m)
        if supply[i] and demand[j]:
            x = min(supply[i], demand[j])
            supply[i] -= x
            demand[j] -= x
            flow[k] = x
            if len(flow) == m + n - 1:
                break
    if len(flow) != m + n - 1 or any(supply) or any(demand):
        raise AssertionError("least-cost start is not a spanning tree")
    # node i < m is row i, node m + j is column j; the tree is rooted at
    # the last column, and u[i] + v[j] is the cost of each tree cell
    adj = [[] for _ in range(m + n)]
    for k in flow:
        j, i = divmod(k, m)
        adj[i].append(m + j)
        adj[m + j].append(i)
    parent, depth = [None] * (m + n), [0] * (m + n)
    u, v = [0] * m, [0] * n

    def hang(top, hook):
        """Hang the subtree of `top` below `hook` (None at the root), and
        read each of its nodes' dual off the cell joining it to its
        parent."""
        parent[top] = hook
        stack = [top]
        while stack:
            x = stack.pop()
            y = parent[x]
            if y is not None:
                depth[x] = depth[y] + 1
                if x < m:
                    u[x] = cols[y - m][x] - v[y - m]
                else:
                    v[x - m] = cols[x - m][y] - u[y]
            for z in adj[x]:
                if z != y:
                    parent[z] = x
                    stack.append(z)

    def cell(x):    # the tree cell joining node x to its parent
        y = parent[x]
        return (y - m) * m + x if x < m else (x - m) * m + y

    hang(m + n - 1, None)

    guard = 50 * (m + n) ** 2
    j = 0
    while True:
        # price one column at a time, cyclically, from the last pivot's
        for _ in range(n):
            j = (j + 1) % n
            reduced = list(map(int.__sub__, cols[j], u))
            low = min(reduced)
            if low < v[j]:
                break
        else:
            return u, v
        guard -= 1
        if guard < 0:
            raise AssertionError("transport simplex failed to terminate")
        i = reduced.index(low)
        # the cycle of cell (i, j): the tree paths from both ends up to
        # where they meet; the cells nearest either end lose flow, and
        # then every other one along each path
        left, right, x, y = [], [], i, m + j
        while x != y:
            if depth[x] >= depth[y]:
                left.append(x)
                x = parent[x]
            else:
                right.append(y)
                y = parent[y]
        out = min(left[::2] + right[::2], key=lambda z: flow[cell(z)])
        theta = flow[cell(out)]
        for path in (left, right):
            for z in path[::2]:
                flow[cell(z)] -= theta
            for z in path[1::2]:
                flow[cell(z)] += theta
        del flow[cell(out)]
        flow[j * m + i] = theta
        # cut the leaving cell, and hang the subtree it cut off from the
        # entering cell's other end
        above = parent[out]
        adj[out].remove(above)
        adj[above].remove(out)
        adj[i].append(m + j)
        adj[m + j].append(i)
        hang(*((i, m + j) if out in left else (m + j, i)))


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
