"""The three workloads: their inputs, their requests and the checks on
their outputs.

Every call into meandyn goes through a module attribute
(`averaging.cesaro_metric`, not a name imported from it), so that the
tracer's patches see it.  The checks run after the timed pass, with the
tracer removed.

* replay-z, replay-lamp: one request is
  `meandyn reproduce --profile quick --format json --system S`, run by
  `cli.main` in-process with stdout captured; the seed only orders the
  systems.  The output must equal the reference in `reference/`,
  byte for byte.
* queries: one request is a single-n query against one system.  The
  seed draws points, ball centres and radii, defect sets and the order
  of the requests; the kinds, systems, families and sizes are a fixed
  grid, so every seed asks for the same amount of work.  Each answer is
  checked against enumeration over `folner.elements` with `act` and
  `metric`.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from meandyn import (averaging, cli, density, folner, gallery, groups,
                     measures, spaces)

REFERENCE = Path(__file__).resolve().parent / "reference"

REPLAYS = {
    "replay-z": ("literature-dock", "two-point", "three-glued"),
    "replay-lamp": ("lamplighter-z", "lamplighter"),
}
# the cheapest system of each replay, for the fast test
TINY_REPLAYS = {"replay-z": ("literature-dock",),
                "replay-lamp": ("lamplighter-z",)}


# ------------------------------------------------------------------ queries

Z_FAMILIES = (folner.ZInitial(), folner.ZCentered(), folner.ZShifted())

# (family, sizes) per kind, for the integer systems and for the
# lamplighter.  W1 sizes keep every empirical measure small (at most
# |F_24| = 25 atoms on the integer families, 18 seen on LampBox n=8):
# the flow route grows fast with atoms (three-glued pairs against the
# 16-atom corner target took 0.16 s, 0.51 s and 1.7 s at 21, 41 and 81
# atoms on a 2-core Xeon).
SWEEP_N = (60, 120, 180, 240)
LAMP_N = (3, 4, 5, 6, 7, 8)
MIX = {
    "cesaro": {
        "z": [(f, SWEEP_N) for f in Z_FAMILIES],
        "lamp": [(folner.LampBox(), LAMP_N), (folner.ZShifted(), SWEEP_N)],
    },
    "hitting": {
        "z": [(f, SWEEP_N) for f in Z_FAMILIES],
        "lamp": [(folner.LampBox(), LAMP_N), (folner.ZShifted(), SWEEP_N)],
    },
    "defect": {
        "z": [(f, (100, 200, 300, 400)) for f in Z_FAMILIES],
        "lamp": [(folner.LampBox(), LAMP_N)],
    },
    "w1": {
        "z": [(folner.ZInitial(), (12, 24)),
              (folner.ZCentered(), (6, 12)),
              (folner.ZShifted(), (12, 24))],
        "lamp": [(folner.LampBox(), (4, 6, 8)),
                 (folner.ZShifted(), (12, 24))],
    },
}
RADII = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 5), Fraction(1, 10))
COORD = 40          # integer coordinates are drawn from [-COORD, COORD]
QUERY_REPS = 2      # copies of the grid per pass, each with fresh draws


class Query:
    def __init__(self, kind, system, family, n, args):
        self.kind, self.system, self.family, self.n = kind, system, family, n
        self.args = args        # kind-specific inputs
        self.space = gallery.build(system)

    def label(self):
        return "%s %s %s n=%d" % (self.kind, self.system,
                                  type(self.family).__name__, self.n)


def corner_target(space):
    """Equal mass on every pair of limit points: the limit-corner
    target of a pair measure."""
    lims = space.limit_points()
    w = Fraction(1, len(lims) ** 2)
    return measures.measure(space, [((a, b), w) for a in lims for b in lims])


def _point(rng, space, limits=True):
    if limits and rng.random() < 0.125:
        return rng.choice(space.limit_points())
    return spaces.Point(rng.randint(-COORD, COORD), rng.choice(space.copies))


def _pair(rng, space, limits=True):
    return (_point(rng, space, limits), _point(rng, space, limits))


def _defect_set(rng, space, n):
    if space.group == groups.LAMPLIGHTER:
        sites = range(n - 1, 2 * n + 2)
        return [groups.Lamp(rng.randint(-2, 2),
                            tuple(sorted(rng.sample(sites,
                                                    rng.randint(0, 2)))))
                for _ in range(rng.randint(1, 2))]
    return [groups.IntShift(rng.randint(-8, 8))
            for _ in range(rng.randint(1, 3))]


def make_queries(seed, tiny=False):
    """The seeded request stream of one pass."""
    rng = random.Random(seed)
    targets = {}
    out = []
    for _ in range(1 if tiny else QUERY_REPS):
        for kind, table in MIX.items():
            for system in sorted(gallery.SYSTEMS):
                space = gallery.build(system)
                rows = table["lamp" if space.group == groups.LAMPLIGHTER
                             else "z"]
                for family, sizes in rows:
                    for n in sizes[:1] if tiny else sizes:
                        if kind == "cesaro":
                            args = (_point(rng, space), _point(rng, space))
                        elif kind == "hitting":
                            center = (_pair(rng, space) if rng.random() < 0.5
                                      else (rng.choice(space.limit_points()),
                                            rng.choice(space.limit_points())))
                            args = (_pair(rng, space),
                                    spaces.Ball(center, rng.choice(RADII)))
                        elif kind == "defect":
                            args = (_defect_set(rng, space, n),)
                        else:
                            if system not in targets:
                                targets[system] = corner_target(space)
                            args = (_pair(rng, space, limits=False),
                                    targets[system])
                        out.append(Query(kind, system, family, n, args))
    rng.shuffle(out)
    return out


def run_query(q):
    if q.kind == "cesaro":
        x, y = q.args
        return averaging.cesaro_metric(q.space, x, y, q.family, q.n)
    if q.kind == "hitting":
        pair, ball = q.args
        return density.hitting_density(q.space, pair, ball,
                                       folner.elements(q.family, q.n))
    if q.kind == "defect":
        return folner.defect(q.family, q.n, q.args[0])
    start, target = q.args
    emp = measures.empirical(q.space, start, q.family, q.n)
    return emp, measures.w1(emp, target)


def render_query_result(q, result):
    if q.kind == "hitting":
        return "%s %d %d" % (result.ratio, result.count, result.total)
    if q.kind == "w1":
        emp, d = result
        return "%s | %s" % (" ".join("%s:%s" % (spaces.render_point(p), w)
                                     for p, w in emp.atoms), d)
    return str(result)


# ------------------------------------------------------------------ oracles

def _lamp_product(g, h):
    """g.h in the lamplighter normal form, written out independently of
    meandyn.groups."""
    moved = {d + h.a for d in g.lamps} ^ set(h.lamps)
    return (g.a + h.a, tuple(sorted(moved)))


def _key(g):
    return (g.a, g.lamps) if isinstance(g, groups.Lamp) else g.a


def _defect_oracle(family, n, K):
    F = folner.elements(family, n)
    Fkeys = {_key(f) for f in F}
    if isinstance(family, folner.LampBox):
        moved = {_lamp_product(k, f) for k in K for f in F}
    else:
        moved = {k.a + f.a for k in K for f in F}
    return Fraction(len(moved - Fkeys), len(F))


def _negative_cycle(c, x):
    """Bellman-Ford over the residual graph of the plan `x` (sources
    0..m-1, sinks m..m+k-1).  Returns (distances, None) when there is no
    negative cycle, else (None, the cycle's nodes in arc order)."""
    m, k = len(c), len(c[0])
    arcs = [(i, m + j, c[i][j]) for i in range(m) for j in range(k)]
    arcs += [(m + j, i, -c[i][j]) for i in range(m) for j in range(k)
             if x[i][j]]
    dist, pred = [0] * (m + k), [None] * (m + k)
    for _ in range(m + k):
        last = None
        for u, v, w in arcs:
            if dist[u] + w < dist[v]:
                dist[v], pred[v], last = dist[u] + w, u, v
        if last is None:
            return dist, None
    for _ in range(m + k):      # step back onto the cycle
        last = pred[last]
    cycle, v = [last], pred[last]
    while v != last:
        cycle.append(v)
        v = pred[v]
    return None, cycle[::-1]


def transport_cost(space, mu, nu):
    """Exact W1 by cycle cancelling on integers, written independently
    of meandyn's solver: start from the least-cost plan, cancel negative
    residual cycles until none is left, then check the optimality
    certificate (dual potentials from the final distances).  Returns a
    Fraction, or None if the certificate fails."""
    a = [w for _, w in mu.atoms]
    b = [w for _, w in nu.atoms]
    cost = [[spaces.metric(space, p, q) for q, _ in nu.atoms]
            for p, _ in mu.atoms]
    scale_w = math.lcm(*(w.denominator for w in a + b))
    scale_c = math.lcm(*(t.denominator for row in cost for t in row))
    a = [int(w * scale_w) for w in a]
    b = [int(w * scale_w) for w in b]
    c = [[int(t * scale_c) for t in row] for row in cost]
    m, k = len(a), len(b)
    x = [[0] * k for _ in range(m)]
    ra, rb = a[:], b[:]
    for _, i, j in sorted((c[i][j], i, j) for i in range(m) for j in range(k)):
        t = min(ra[i], rb[j])
        x[i][j] += t
        ra[i] -= t
        rb[j] -= t
    while True:
        dist, cycle = _negative_cycle(c, x)
        if cycle is None:
            break
        arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
        t = min(x[v][u - m] for u, v in arcs if u >= m)
        for u, v in arcs:
            if u < m:
                x[u][v - m] += t
            else:
                x[v][u - m] -= t
    u = [-dist[i] for i in range(m)]
    v = [dist[m + j] for j in range(k)]
    feasible = ([sum(row) for row in x] == a
                and [sum(col) for col in zip(*x)] == b)
    if not feasible or any(u[i] + v[j] > c[i][j]
                           or (x[i][j] and u[i] + v[j] != c[i][j])
                           for i in range(m) for j in range(k)):
        return None
    total = sum(x[i][j] * c[i][j] for i in range(m) for j in range(k))
    return Fraction(total, scale_w * scale_c)


def check_query(q, result):
    """True when the answer agrees with enumeration."""
    space = q.space
    F = folner.elements(q.family, q.n)
    if q.kind == "cesaro":
        x, y = q.args
        want = sum(spaces.metric(space, spaces.act(space, g, x),
                                 spaces.act(space, g, y)) for g in F) / len(F)
        return result == want
    if q.kind == "hitting":
        pair, ball = q.args
        count = sum(1 for g in F if spaces.metric(
            space, ball.center, spaces.act(space, g, pair)) < ball.radius)
        return (result.count, result.total, result.ratio) == (
            count, len(F), Fraction(count, len(F)))
    if q.kind == "defect":
        return result == _defect_oracle(q.family, q.n, q.args[0])
    start, target = q.args
    emp, d = result
    counts = Counter(tuple(spaces.canonical(space, p)
                           for p in spaces.act(space, g, start)) for g in F)
    if dict(emp.atoms) != {p: Fraction(c, len(F)) for p, c in counts.items()}:
        return False
    support = sorted({p for p, _ in emp.atoms} | {p for p, _ in target.atoms},
                     key=lambda p: spaces.sort_key(space, p))
    if d != transport_cost(space, emp, target):
        return False
    line = getattr(measures, "_line_positions", None)
    flow = getattr(measures, "_w1_flow", None)
    if line and flow and line(space, support) is not None:
        # both routes apply: they must agree exactly
        return d == flow(space, emp, target)
    return True


# ------------------------------------------------------------------ replays

def run_replay(system):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["reproduce", "--profile", "quick", "--format",
                         "json", "--system", system])
    return code, buf.getvalue()


def check_replay(system, result):
    """(rows attempted, rows failed) against the reference output.  A
    row fails when it is not MATCH or differs from its reference row; a
    byte difference outside the rows fails one row, and a request that
    raised fails every row."""
    code, text = (None, "") if isinstance(result, Exception) else result
    want = (REFERENCE / ("%s.json" % system)).read_text()
    rows = json.loads(want)["systems"][0]["rows"]
    try:
        got = json.loads(text)["systems"][0]["rows"]
    except (ValueError, KeyError, IndexError):
        return len(rows), len(rows)
    failed = sum(1 for i, row in enumerate(rows) if i >= len(got)
                 or got[i] != row or got[i]["status"] != "MATCH")
    if failed == 0 and (text != want or code != 0):
        failed = 1
    return len(rows), failed


# ---------------------------------------------------------------- interface

def make_requests(workload, seed, tiny=False):
    if workload == "queries":
        return make_queries(seed, tiny)
    systems = list((TINY_REPLAYS if tiny else REPLAYS)[workload])
    random.Random(seed).shuffle(systems)
    return systems


def run_request(workload, request):
    if workload == "queries":
        return run_query(request)
    return run_replay(request)


def check(workload, request, result):
    """(attempted, failed) for one request; `result` is an exception
    when the request raised."""
    if workload == "queries":
        ok = not isinstance(result, Exception) and check_query(request, result)
        return 1, 0 if ok else 1
    return check_replay(request, result)


def digest(workload, requests, results):
    """sha256 over every exact result, in a seed-independent order for
    the replays and in request order for the queries."""
    h = hashlib.sha256()
    if workload == "queries":
        lines = ["%s = %s" % (q.label(), "ERROR" if isinstance(r, Exception)
                              else render_query_result(q, r))
                 for q, r in zip(requests, results)]
    else:
        lines = sorted("%s\n%s" % (s, "ERROR" if isinstance(r, Exception)
                                   else r[1])
                       for s, r in zip(requests, results))
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
