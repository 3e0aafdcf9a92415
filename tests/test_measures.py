import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meandyn import folner, measures, spaces
from meandyn.folner import LampBox, ZCentered, ZInitial, ZShifted
from meandyn.gallery import (LAMPLIGHTER, LAMPLIGHTER_Z, LITERATURE_DOCK,
                             MINF1, MINF2, PINF1, PINF2, THREE_GLUED, TP_MINF,
                             TP_PINF, TWO_POINT, down,
                             lamplighter_corner_measure, up)
from meandyn.groups import Lamp
from meandyn.measures import (cluster_detect, combine, dirac, empirical,
                              heavy_limits, measure, support_union_estimate,
                              w1)
from meandyn.spaces import Ball, Point, metric, truncate


def test_measure_merges_and_normalizes():
    m = measure(THREE_GLUED, [(Point("+inf", 3), Fraction(1, 2)),
                              (PINF1, Fraction(1, 4)),
                              (Point(0, 1), Fraction(1, 4))])
    assert dict(m.atoms)[PINF1] == Fraction(3, 4)
    assert m.total() == 1
    with pytest.raises(ValueError):
        measure(THREE_GLUED, [(PINF1, Fraction(1, 2))])


def test_empirical_weights_exact():
    m = empirical(TWO_POINT, Point(0, 1), ZCentered(), 3)
    assert dict(m.atoms) == {Point(s, 1): Fraction(1, 7) for s in range(-3, 4)}


def test_w1_single_atom_closed_form():
    m = empirical(TWO_POINT, Point(0, 1), ZInitial(), 25)
    target = dirac(TWO_POINT, TP_PINF)
    expected = sum(Fraction(1, 25) * metric(TWO_POINT, Point(s, 1), TP_PINF)
                   for s in range(25))
    assert w1(m, target) == expected


def test_w1_metric_axioms_random():
    rng = random.Random(20240817)
    pts = truncate(THREE_GLUED, 8)

    def rand_measure():
        support = rng.sample(pts, rng.randrange(1, 6))
        weights = [rng.randrange(1, 9) for _ in support]
        tot = sum(weights)
        return measure(THREE_GLUED, [(p, Fraction(c, tot))
                                     for p, c in zip(support, weights)])

    for _ in range(70):
        a, b, c = rand_measure(), rand_measure(), rand_measure()
        ab, ba = w1(a, b), w1(b, a)
        assert ab == ba
        assert (ab == 0) == (a.atoms == b.atoms)
        assert w1(a, c) <= ab + w1(b, c)


def test_w1_routes_agree():
    # single-component supports take the line route; force the flow
    # route on the same data and compare
    m1 = empirical(TWO_POINT, Point(-4, 1), ZInitial(), 30)
    m2 = empirical(TWO_POINT, Point(2, 1), ZCentered(), 12)
    assert measures._w1_flow(TWO_POINT, m1, m2) == w1(m1, m2)

    pair1 = empirical(THREE_GLUED, (Point(2, 1), Point(2, 3)), ZCentered(), 15)
    pair2 = empirical(THREE_GLUED, (Point(0, 1), Point(0, 3)), ZCentered(), 18)
    assert measures._w1_flow(THREE_GLUED, pair1, pair2) == w1(pair1, pair2)


def test_w1_non_isometric_support_takes_the_flow_route(monkeypatch):
    # copy separation makes d(down 0, up 0) = 1, shorter than the path
    # through up 1, so the support does not sit on a line
    mu = measure(LAMPLIGHTER, [(down(0), Fraction(1, 2)),
                               (up(0), Fraction(1, 2))])
    nu = measure(LAMPLIGHTER, [(up(1), Fraction(2, 3)),
                               (down(3), Fraction(1, 3))])
    support = sorted({p for p, _ in mu.atoms + nu.atoms},
                     key=lambda p: spaces.sort_key(LAMPLIGHTER, p))
    assert measures._line_positions(LAMPLIGHTER, support) is None
    routes = []
    flow = measures._w1_flow
    monkeypatch.setattr(measures, "_w1_flow",
                        lambda *a: routes.append("flow") or flow(*a))
    assert w1(mu, nu) == flow(LAMPLIGHTER, mu, nu)
    assert routes == ["flow"]


def test_w1_over_the_atom_budget_raises():
    n = measures.MAX_ATOMS + 1
    big = measure(TWO_POINT, [(Point(s, 1), Fraction(1, n)) for s in range(n)])
    with pytest.raises(folner.BudgetError):
        w1(big, dirac(TWO_POINT, TP_PINF))
    with pytest.raises(folner.BudgetError):
        w1(dirac(TWO_POINT, TP_PINF), big)


def _reference_flow(space, mu, nu):
    """Test-only reference: successive shortest augmenting paths found
    by Bellman-Ford over the residual network, all arithmetic in
    Fractions.  This was the flow route before it moved to scaled
    integers and Dijkstra with potentials."""
    sources, sinks = list(mu.atoms), list(nu.atoms)
    m, n = len(sources), len(sinks)
    cost = [[metric(space, p, q) for q, _ in sinks] for p, _ in sources]
    supply = [w for _, w in sources]
    demand = [w for _, w in sinks]
    flow = [[Fraction(0)] * n for _ in range(m)]
    remaining = sum(supply)
    while remaining > 0:
        path = _reference_cheapest_path(cost, flow, supply, demand)
        amount = min(remaining, supply[path[0][1]], demand[path[-1][1]])
        # path alternates source, sink, source, ...; even hops push
        # flow, odd hops cancel it
        hops = [(path[k][1], path[k + 1][1]) for k in range(len(path) - 1)]
        for k, (a, b) in enumerate(hops):
            if k % 2 == 1:
                amount = min(amount, flow[b][a])
        for k, (a, b) in enumerate(hops):
            if k % 2 == 0:
                flow[a][b] += amount
            else:
                flow[b][a] -= amount
        supply[path[0][1]] -= amount
        demand[path[-1][1]] -= amount
        remaining -= amount
    return sum(flow[i][j] * cost[i][j] for i in range(m) for j in range(n))


def _reference_cheapest_path(cost, flow, supply, demand):
    m, n = len(cost), len(cost[0])
    dist, parent = {}, {}
    for i in range(m):
        if supply[i] > 0:
            dist[("src", i)] = Fraction(0)
            parent[("src", i)] = None
    changed = True
    while changed:
        changed = False
        for i in range(m):
            if ("src", i) not in dist:
                continue
            for j in range(n):
                d = dist[("src", i)] + cost[i][j]
                if ("snk", j) not in dist or d < dist[("snk", j)]:
                    dist[("snk", j)], parent[("snk", j)] = d, ("src", i)
                    changed = True
        for j in range(n):
            if ("snk", j) not in dist:
                continue
            for i in range(m):
                if flow[i][j] <= 0:
                    continue
                d = dist[("snk", j)] - cost[i][j]
                if ("src", i) not in dist or d < dist[("src", i)]:
                    dist[("src", i)], parent[("src", i)] = d, ("snk", j)
                    changed = True
    best = min((j for j in range(n) if demand[j] > 0 and ("snk", j) in dist),
               key=lambda j: dist[("snk", j)])
    node, path = ("snk", best), []
    while node is not None:
        path.append(node)
        node = parent[node]
    return path[::-1]


def _points(space):
    finite = st.builds(Point, st.integers(-30, 30), st.sampled_from(space.copies))
    return st.one_of(finite, st.sampled_from(space.limit_points()))


def _weighted(draw, support):
    weights = draw(st.lists(st.integers(1, 20), min_size=len(support),
                            max_size=len(support)))
    return [(p, Fraction(w, sum(weights))) for p, w in zip(support, weights)]


@st.composite
def measure_pairs(draw):
    """Two measures of at most 10 atoms each: pair measures on
    three-glued or the lamplighter, or point measures on lamplighter-z."""
    space = draw(st.sampled_from((THREE_GLUED, LAMPLIGHTER, LAMPLIGHTER_Z)))
    atom = (_points(space) if space is LAMPLIGHTER_Z
            else st.tuples(_points(space), _points(space)))

    def one():
        support = draw(st.lists(atom, min_size=1, max_size=10))
        return measure(space, _weighted(draw, support))

    return space, one(), one()


@settings(deadline=None, max_examples=300)
@given(measure_pairs())
def test_w1_flow_matches_the_reference_and_the_line_route(case):
    space, mu, nu = case
    d = measures._w1_flow(space, mu, nu)
    assert d == _reference_flow(space, mu, nu)
    assert d == measures._w1_flow(space, nu, mu)
    support = sorted({p for p, _ in mu.atoms + nu.atoms},
                     key=lambda p: spaces.sort_key(space, p))
    if measures._line_positions(space, support) is not None:
        assert d == w1(mu, nu)


def test_w1_flow_is_exact_beyond_machine_words():
    # coordinates near +-300 give the pair costs denominators whose lcm
    # exceeds 2**64
    mu = measure(THREE_GLUED, [((Point(290 + k, 1 + k % 3),
                                 Point(-300 + 2 * k, 3 - k % 3)),
                                Fraction(k + 1, 55)) for k in range(10)])
    nu = measure(THREE_GLUED, [((Point(-295 + 3 * k, 2), Point(301 - k, 1)),
                                Fraction(1, 10)) for k in range(10)])
    cost_scale = math.lcm(*(metric(THREE_GLUED, p, q).denominator
                            for p, _ in mu.atoms for q, _ in nu.atoms))
    assert cost_scale > 2 ** 64
    d = measures._w1_flow(THREE_GLUED, mu, nu)
    assert d == _reference_flow(THREE_GLUED, mu, nu)
    assert d == measures._w1_flow(THREE_GLUED, nu, mu)


def _cdf_reference(space, mu, nu):
    """Test-only reference for the line route: the chart coordinate of
    a support point is its distance from the first point in sort_key
    order, and W1 is the integral of |F_mu - F_nu| along it, summed in
    plain Fractions."""
    support = sorted({p for p, _ in mu.atoms + nu.atoms},
                     key=lambda p: spaces.sort_key(space, p))
    x = {p: metric(space, support[0], p) for p in support}
    mass = dict.fromkeys(support, Fraction(0))
    for p, w in mu.atoms:
        mass[p] += w
    for p, w in nu.atoms:
        mass[p] -= w
    order = sorted(support, key=x.get)
    cdf = cost = Fraction(0)
    for p, q in zip(order, order[1:]):
        cdf += mass[p]
        cost += abs(cdf) * (x[q] - x[p])
    return cost


def _monotone_chain(draw):
    """Pairs on three-glued whose first legs strictly increase along the
    line and whose second legs move monotonically with them."""
    def legs():
        pts = draw(st.lists(_points(THREE_GLUED), min_size=1, max_size=12))
        return sorted({spaces.canonical(THREE_GLUED, p) for p in pts},
                      key=lambda p: spaces.embed(THREE_GLUED, p))
    first = legs()
    second = sorted(draw(st.lists(st.sampled_from(legs()), min_size=len(first),
                                  max_size=len(first))),
                    key=lambda p: spaces.embed(THREE_GLUED, p),
                    reverse=draw(st.booleans()))
    return list(zip(first, second))


@st.composite
def line_measures(draw, count=2):
    """`count` measures whose joint support sits on a line: points of
    two-point (one piece), or pairs from one monotone chain on
    three-glued."""
    if draw(st.booleans()):
        space, atoms = TWO_POINT, draw(st.lists(_points(TWO_POINT), min_size=1,
                                                max_size=12, unique=True))
    else:
        space, atoms = THREE_GLUED, _monotone_chain(draw)
    ms = []
    for _ in range(count):
        support = draw(st.lists(st.sampled_from(atoms), min_size=1,
                                max_size=len(atoms), unique=True))
        ms.append(measure(space, _weighted(draw, support)))
    return space, ms


@settings(deadline=None, max_examples=200)
@given(line_measures())
def test_w1_line_route_matches_the_flow_and_a_fraction_sweep(case):
    space, (mu, nu) = case
    support = sorted({p for p, _ in mu.atoms + nu.atoms},
                     key=lambda p: spaces.sort_key(space, p))
    assert measures._line_positions(space, support) is not None
    d = w1(mu, nu)
    assert d == measures._w1_flow(space, mu, nu)
    assert d == _cdf_reference(space, mu, nu)
    assert d == w1(nu, mu)


def test_w1_line_route_is_exact_beyond_machine_words():
    # the chart coordinates of -60..60 on two-point have denominators
    # whose lcm exceeds 2**64
    mu = measure(TWO_POINT, [(Point(s, 1), Fraction(s + 61, 7381))
                             for s in range(-60, 61)])
    nu = measure(TWO_POINT, [(Point(3 * s, 1), Fraction(1, 41))
                             for s in range(-20, 21)])
    support = sorted({p for p, _ in mu.atoms + nu.atoms},
                     key=lambda p: spaces.sort_key(TWO_POINT, p))
    pos = measures._line_positions(TWO_POINT, support)
    assert math.lcm(*(x.denominator for x in pos)) > 2 ** 64
    assert w1(mu, nu) == _cdf_reference(TWO_POINT, mu, nu)


@st.composite
def tails(draw):
    """Five to seven measures on one space: a line case, or points of
    lamplighter-z spread over both copies, or unconstrained pairs on
    three-glued; the last two usually leave the line."""
    kind = draw(st.sampled_from(("line", "lamplighter-z", "three-glued")))
    count = draw(st.integers(measures.CLUSTER_TAIL, measures.CLUSTER_TAIL + 2))
    if kind == "line":
        return draw(line_measures(count))[1]
    space = LAMPLIGHTER_Z if kind == "lamplighter-z" else THREE_GLUED
    atom = (_points(space) if space is LAMPLIGHTER_Z
            else st.tuples(_points(space), _points(space)))
    return [measure(space, _weighted(draw, draw(st.lists(
        atom, min_size=1, max_size=6, unique=True)))) for _ in range(count)]


@settings(deadline=None, max_examples=150)
@given(tails(), st.sampled_from((1e-3, 0.05, 0.3, 2.0)))
def test_cluster_gaps_equal_pairwise_w1(ms, tol):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "CLUSTER_TOL", tol)
        rep = cluster_detect(ms)
    window = ms[-measures.CLUSTER_TAIL:]
    exact = [w1(a, b) for k, a in enumerate(window) for b in window[k + 1:]]
    assert rep.gaps == [float(g) for g in exact]
    stable = all(g < Fraction(tol) for g in exact)
    assert rep.verdict == ("CANDIDATE" if stable else "NONE")
    assert rep.candidate is (ms[-1] if stable else None)


def _record_routes(monkeypatch):
    """Log "line" or "flow" for every call of a W1 route."""
    routes = []
    for name, label in (("_w1_line", "line"), ("_w1_flow", "flow")):
        route = getattr(measures, name)
        monkeypatch.setattr(measures, name, lambda *a, route=route, label=label:
                            routes.append(label) or route(*a))
    return routes


def test_cluster_reads_a_line_tail_from_one_chart(monkeypatch):
    ms = [empirical(THREE_GLUED, (Point(3, 1), Point(3, 3)), ZCentered(), m)
          for m in range(20, 25)]
    routes = _record_routes(monkeypatch)
    rep = cluster_detect(ms)
    assert routes == ["line"] and len(rep.gaps) == 10


def test_cluster_falls_back_to_w1_off_the_line(monkeypatch):
    # two copies of lamplighter-z are two pieces: no line chart, so
    # every pair takes the flow route
    ms = [measure(LAMPLIGHTER_Z, [(up(k), Fraction(1, 2)),
                                  (down(k + 1), Fraction(1, 2))])
          for k in range(5)]
    routes = _record_routes(monkeypatch)
    rep = cluster_detect(ms)
    assert routes == ["flow"] * 10
    assert rep.gaps == [float(w1(a, b)) for k, a in enumerate(ms)
                        for b in ms[k + 1:]]


def test_cluster_rejects_mixed_spaces_and_over_budget_measures():
    a = dirac(TWO_POINT, TP_PINF)
    with pytest.raises(ValueError, match="different spaces"):
        cluster_detect([a, a, a, a, dirac(THREE_GLUED, PINF1)])
    n = measures.MAX_ATOMS + 1
    big = measure(TWO_POINT, [(Point(s, 1), Fraction(1, n)) for s in range(n)])
    with pytest.raises(folner.BudgetError):
        cluster_detect([a, a, big, a, a])


def test_w1_between_copies_uses_separation():
    a = dirac(LAMPLIGHTER, up(0))
    b = dirac(LAMPLIGHTER, down(0))
    assert w1(a, b) == 1


def test_combine_decomposition_identity():
    n = 5
    lhs = empirical(LAMPLIGHTER, (up(n), up(n + 1)), LampBox(), n)
    parts = []
    for mask in range(4):
        b = tuple(s for i, s in enumerate((n, n + 1)) if mask >> i & 1)
        moved = spaces.act(LAMPLIGHTER, Lamp(0, b), (up(n), up(n + 1)))
        parts.append((Fraction(1, 4), empirical(LAMPLIGHTER, moved,
                                                ZShifted(), n)))
    assert lhs == combine(parts)


def test_corner_w1_decreases():
    corners = lamplighter_corner_measure()
    vals = [w1(empirical(LAMPLIGHTER, (up(n), up(n + 1)), LampBox(), n),
               corners) for n in range(4, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_mass_and_support():
    m = empirical(TWO_POINT, Point(0, 1), ZInitial(), 4)
    assert m.mass(Ball(TP_PINF, Fraction(1, 2))) == Fraction(3, 4)


def test_snap_and_heavy_atoms():
    m = empirical(TWO_POINT, Point(0, 1), ZCentered(), 100)
    heavy = dict(heavy_limits(m))
    assert set(heavy) == {TP_MINF, TP_PINF}
    assert abs(heavy[TP_PINF] - Fraction(1, 2)) < Fraction(3, 100)


def test_cluster_candidate_and_none():
    ms = [empirical(TWO_POINT, (Point(-3, 1), TP_MINF), ZInitial(), m)
          for m in range(196, 201)]
    rep = cluster_detect(ms)
    assert rep.verdict == "CANDIDATE" and rep.candidate is ms[-1]

    # oscillating subsequence: no stable candidate, report NONE
    osc = [empirical(TWO_POINT, (Point(-3, 1), TP_MINF), ZInitial(), m)
           for m in (5, 200, 5, 200, 5)]
    rep2 = cluster_detect(osc)
    assert rep2.verdict == "NONE" and rep2.candidate is None
    with pytest.raises(ValueError):
        cluster_detect(ms[:3])
    with pytest.raises(ValueError, match="need at least 5 measures"):
        cluster_detect([])


def test_cluster_decides_on_the_exact_gap():
    # W1 is exactly 1/1000, below the float 1e-3 (a little above 1/1000)
    # although float(1/1000) == 1e-3
    a = dirac(TWO_POINT, TP_PINF)
    b = measure(TWO_POINT, [(TP_PINF, Fraction(999, 1000)),
                            (TP_MINF, Fraction(1, 1000))])
    assert w1(a, b) == Fraction(1, 1000) < Fraction(1e-3)
    rep = cluster_detect([a, a, a, a, b])
    assert rep.verdict == "CANDIDATE" and rep.candidate is b
    assert max(rep.gaps) == 1e-3 == measures.CLUSTER_TOL


def test_support_union_estimate():
    points = support_union_estimate(
        THREE_GLUED,
        [Point(0, 1), Point(0, 2), Point(0, 3), MINF1, PINF1, MINF2, PINF2],
        [ZInitial(), ZCentered()], 300)
    assert points == sorted({MINF1, PINF1, MINF2, PINF2},
                            key=lambda p: spaces.sort_key(THREE_GLUED, p))


def test_mixed_space_rejected():
    a = dirac(TWO_POINT, TP_PINF)
    b = dirac(THREE_GLUED, PINF1)
    with pytest.raises(ValueError):
        w1(a, b)
    with pytest.raises(ValueError):
        combine([(Fraction(1, 2), a), (Fraction(1, 2), b)])


def test_empty_inputs_are_named():
    with pytest.raises(ValueError, match="combine"):
        combine([])


# spaces where spaces.snap_threshold proves T: every integer-window
# system, lamplighter-z under both actions, unglued copies laid out apart
TAIL_SPACES = [
    TWO_POINT, THREE_GLUED, LITERATURE_DOCK, LAMPLIGHTER_Z,
    spaces.one_point_space((0, 1), action=spaces.TRANSLATE,
                           name="lamplighter-z-translate"),
    spaces.two_point_space((1, 2, 3), layout=((0, 1), (4, -1), (8, 1)),
                           name="far-layout"),
]
# layouts where T is not proved: two copies hang off +inf^1 on one unit
# segment, and a glued end sits away from the place its layout gives it
BRANCHED = spaces.two_point_space(
    (1, 2, 3), layout=((0, 1), (1, 1), (1, 1)),
    gluings=((Point("-inf", 2), Point("+inf", 1)),
             (Point("-inf", 3), Point("+inf", 1))), name="branched")
MOVED_END = spaces.two_point_space(
    (1, 2), layout=((0, 1), (2, 1)),
    gluings=((Point("-inf", 2), Point("+inf", 1)),), name="moved-end")


def nearest_limit_heavy(m):
    """heavy_limits by the nearest-limit rule: each leg merges into the
    nearest limit point when that lies within SNAP_RADIUS of it."""
    space = m.space
    limits = space.limit_points()

    def snap(p):
        if isinstance(p, tuple):
            return tuple(snap(q) for q in p)
        best = min(limits, key=lambda l: metric(space, l, p))
        return best if metric(space, best, p) <= measures.SNAP_RADIUS else p

    acc = {}
    for p, w in m.atoms:
        q = snap(p)
        acc[q] = acc.get(q, 0) + w
    return sorted(((p, w) for p, w in acc.items()
                   if w >= measures.HEAVY_WEIGHT),
                  key=lambda it: spaces.sort_key(space, it[0]))


@st.composite
def snap_cases(draw):
    space = draw(st.sampled_from(TAIL_SPACES + [BRANCHED, MOVED_END,
                                                LAMPLIGHTER]))
    if space is LAMPLIGHTER:
        family, n, coords = LampBox(), draw(st.integers(1, 6)), (-3, 15)
    else:
        family = draw(st.sampled_from([ZInitial(), ZCentered(), ZShifted()]))
        n, coords = draw(st.integers(1, 60)), (-30, 30)
    limits = ([spaces.O_INF] if space.kind == spaces.ONE_POINT
              else [spaces.M_INF, spaces.P_INF])

    def points(lo, hi):
        return st.builds(Point, st.one_of(st.integers(lo, hi),
                                          st.sampled_from(limits)),
                         st.sampled_from(space.copies))

    def atoms(lo, hi, pairs):
        return (st.tuples(points(lo, hi), points(lo, hi)) if pairs
                else points(lo, hi))

    start = draw(atoms(*coords, draw(st.booleans())))
    # a few heavy atoms near the threshold, where snapping decides
    near = draw(st.lists(atoms(-8, 8, draw(st.booleans())),
                         min_size=1, max_size=6))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(near),
                            max_size=len(near)))
    m = measure(space, [(p, Fraction(w, sum(weights)))
                        for p, w in zip(near, weights)])
    return space, start, family, n, m


@settings(deadline=None, max_examples=400)
@given(snap_cases())
def test_snap_rule_equals_the_nearest_limit_rule(case):
    space, start, family, n, m = case
    assert heavy_limits(m) == nearest_limit_heavy(m)
    want = nearest_limit_heavy(empirical(space, start, family, n))
    assert support_union_estimate(space, [start], [family], n) \
        == [p for p, _ in want]


@pytest.mark.parametrize("start, heavy", [
    (Point(-8, 1), [TP_MINF, TP_PINF]),   # 5 of 100 shifts snap down
    (Point(-7, 1), [TP_PINF]),            # 4 of 100 do not count
])
def test_support_estimate_at_the_heavy_weight(start, heavy):
    # coordinates s..s+99: s..-4 snap to -inf, exactly at 1/20 for s = -8
    assert support_union_estimate(TWO_POINT, [start], [ZInitial()], 100) \
        == heavy == [p for p, _ in heavy_limits(
            empirical(TWO_POINT, start, ZInitial(), 100))]


def test_support_estimate_on_the_three_glued_row_builds_no_measure(
        monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("support estimate built a measure")

    monkeypatch.setattr(measures, "empirical", refuse)
    monkeypatch.setattr(measures, "heavy_limits", refuse)
    limits = [MINF1, PINF1, MINF2, PINF2]
    points = support_union_estimate(
        THREE_GLUED, [Point(0, 1), Point(0, 2), Point(0, 3), *limits],
        [ZInitial(), ZCentered()], 200)
    assert points == sorted(limits,
                            key=lambda p: spaces.sort_key(THREE_GLUED, p))


def test_support_estimate_keeps_the_measure_path_for_small_sets():
    # |F_n| <= 20: a lone atom can be heavy
    got = support_union_estimate(TWO_POINT, [Point(0, 1)], [ZCentered()], 3)
    assert got == [Point(s, 1) for s in range(-3, 4)]
