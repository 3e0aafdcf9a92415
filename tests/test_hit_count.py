"""`density.hitting_density` over arbitrary element lists against the
element-by-element count.

`pushforward.hit_count` keys each element by what decides its image:
an integer shift by its shift, a lamplighter element by its shift and
its toggles at the start's finite coordinates.  It tests membership
once per key and gives a shift beyond the bound A of `_tails` the tail
verdict.  Every list must give the record that acting on and testing
every element gives, repeats counted, and every faulty list must raise
what that loop raises first, with the same type and message."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from meandyn import density, folner, spaces
from meandyn.density import HittingRecord
from meandyn.folner import LampBox, ZCentered, ZInitial, ZShifted
from meandyn.gallery import (LAMPLIGHTER, LAMPLIGHTER_Z, LITERATURE_DOCK,
                             THREE_GLUED, TP_MINF, TP_PINF, TWO_POINT, down,
                             up)
from meandyn.groups import IntShift, Lamp, multiply
from meandyn.spaces import (O_INF, Ball, Point, PointSet, ProductOf, act,
                            contains)

SPACES = (TWO_POINT, THREE_GLUED, LITERATURE_DOCK, LAMPLIGHTER_Z,
          LAMPLIGHTER)


def enumerated_hits(space, pair, nbhd, elements):
    """The reference: act on and test every element, one at a time."""
    els = list(elements)
    count = sum(1 for g in els if contains(space, nbhd, act(space, g, pair)))
    return HittingRecord(Fraction(count, len(els)), count, len(els))


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:   # the type and the message are compared
        return type(exc), str(exc)


def image_keys(pair, elements):
    """The distinct images' keys, computed here independently."""
    sites = {p.coord for p in pair if not p.is_limit()}
    return {("shift", g.a) if isinstance(g, IntShift)
            else ("lamp", g.a, frozenset(sites & set(g.lamps)))
            for g in elements}


class CountingContains:
    """Counts the outermost `spaces.contains` calls: a product's test of
    its factors is part of one call."""

    def __enter__(self):
        self.calls = self.depth = 0
        self.inner = spaces.contains

        def counted(*args):
            self.calls += not self.depth
            self.depth += 1
            try:
                return self.inner(*args)
            finally:
                self.depth -= 1

        spaces.contains = counted
        return self

    def __exit__(self, *exc):
        spaces.contains = self.inner


def points(space, coords):
    finite = st.builds(Point, coords, st.sampled_from(space.copies))
    return st.one_of(finite, st.sampled_from(space.limit_points()))


def lamps(space, sites):
    """Lamplighter elements toggling near the start's own coordinates."""
    toggles = st.lists(st.sampled_from(sorted(set(sites) | {0, 1, 2})),
                       max_size=3, unique=True).map(sorted)
    return st.builds(Lamp, st.integers(-6, 6), toggles)


FAR = st.integers(10**6, 10**12).flatmap(
    lambda a: st.sampled_from((a, -a)))

FAULTS = st.sampled_from(("x", None, 3, [1], Lamp(0, (1,))))


@st.composite
def element_lists(draw, space, pair):
    """Shuffled lists with repeats: shifts near 0, near the start's own
    offsets and far beyond any bound; on the lamplighter space also
    lamplighter elements and translated `LampBox` sets."""
    sites = [p.coord for p in pair if not p.is_limit()]
    near = st.sampled_from([0] + [s * c for c in sites for s in (-1, 1)]
                           ).flatmap(lambda c: st.integers(c - 400, c + 400))
    shifts = st.builds(IntShift, st.one_of(st.integers(-40, 40), near, FAR))
    pieces = [shifts]
    if space is LAMPLIGHTER:
        pieces.append(lamps(space, sites))
    els = draw(st.lists(st.one_of(pieces), min_size=1, max_size=40))
    if space is LAMPLIGHTER and draw(st.booleans()):
        n = draw(st.integers(1, 3))
        t = draw(lamps(space, sites))
        box = folner.elements(LampBox(), n)
        els += [multiply(f, t) if draw(st.booleans()) else multiply(t, f)
                for f in box[:draw(st.integers(1, len(box)))]]
    if draw(st.booleans()):
        family = draw(st.sampled_from((ZInitial(), ZCentered(), ZShifted())))
        els += folner.elements(family, draw(st.integers(1, 30)))
    els += draw(st.lists(st.sampled_from(els), max_size=20))
    return draw(st.permutations(els))


@st.composite
def cases(draw):
    space = draw(st.sampled_from(SPACES))
    coords = (st.integers(-3, 8) if space is LAMPLIGHTER
              else st.one_of(st.integers(-8, 8), st.integers(-300, 300)))
    pair = (draw(points(space, coords)), draw(points(space, coords)))
    # a centre at one image of the pair makes hits and near misses common
    sites = [p.coord for p in pair if not p.is_limit()]
    moves = (lamps(space, sites) if space is LAMPLIGHTER
             else st.builds(IntShift, st.integers(-10, 10)))
    center = draw(st.one_of(
        st.tuples(points(space, st.integers(-8, 8)),
                  points(space, st.integers(-8, 8))),
        moves.map(lambda g: act(space, g, pair))))
    k = draw(st.integers(1, 200))
    # radii on and next to a limit distance switch membership late
    limits = sorted({sum(spaces.limit_distance(space, c, p, sign)
                         for c, p in zip(center, pair)) for sign in (-1, 1)})
    limit = draw(st.sampled_from(limits))
    radius = draw(st.sampled_from((limit, limit - Fraction(1, k),
                                   limit + Fraction(1, k), Fraction(1, 5),
                                   Fraction(1, 2), Fraction(3, 2))))
    nbhd = draw(st.one_of(
        st.just(Ball(center, radius)),
        st.builds(lambda a, b: ProductOf(PointSet(frozenset([a])),
                                         PointSet(frozenset([b]))),
                  points(space, coords), points(space, coords))))
    return space, pair, nbhd, draw(element_lists(space, pair))


@st.composite
def faulty_cases(draw):
    """A case with faults mixed in: foreign objects, elements of the
    wrong group or with a foreign shift, a start or a neighbourhood that
    cannot be tested."""
    space, pair, nbhd, els = draw(cases())
    for _ in range(draw(st.integers(1, 3))):
        els.insert(draw(st.integers(0, len(els))), draw(FAULTS))
    fault = draw(st.sampled_from((None, "start", "nbhd", "shape")))
    if fault == "start":
        pair = (pair[0], Point(0, 99))
    elif fault == "nbhd":
        nbhd = Ball((Point(0, 99), pair[1]), Fraction(1, 2))
    elif fault == "shape":
        nbhd = Ball(draw(st.sampled_from((pair[0], pair + pair[:1]))),
                    Fraction(1, 2))
    return space, pair, nbhd, els


@settings(deadline=None, max_examples=300)
@given(cases())
# far shifts on both sides with different tail verdicts
@example((TWO_POINT, (Point(-3, 1), TP_MINF),
          Ball((TP_PINF, TP_MINF), Fraction(1, 5)),
          [IntShift(10**9), IntShift(-10**9), IntShift(4), IntShift(10**9)]))
# one key per (shift, toggles at the legs' sites), with repeats: only
# the toggle at 3 of shift 3 sends the pair onto the centre
@example((LAMPLIGHTER, (up(2), down(3)),
          Ball(act(LAMPLIGHTER, Lamp(3, (3,)), (up(2), down(3))),
               Fraction(1, 5)),
          folner.elements(LampBox(), 2) * 2 + [IntShift(-1), Lamp(3, (3,))]))
def test_hitting_density_equals_enumeration(case):
    space, pair, nbhd, els = case
    want = enumerated_hits(space, pair, nbhd, els)
    with CountingContains() as counter:
        assert density.hitting_density(space, pair, nbhd, els) == want
    assert counter.calls <= len(image_keys(pair, els))
    assert density.hitting_density(space, pair, nbhd, iter(els)) == want


@settings(deadline=None, max_examples=300)
@given(faulty_cases())
@example((TWO_POINT, (Point(-3, 1), Point(0, 99)),
          Ball((TP_PINF, TP_MINF), Fraction(1, 5)), [IntShift(1), "x"]))
@example((TWO_POINT, (Point(-3, 1), TP_MINF),
          Ball((TP_PINF, TP_MINF), Fraction(1, 5)),
          [IntShift(10**9), Lamp(0, ()), "x"]))
def test_faults_match_enumeration(case):
    space, pair, nbhd, els = case
    assert (outcome(density.hitting_density, space, pair, nbhd, els)
            == outcome(enumerated_hits, space, pair, nbhd, els))


def test_contains_runs_once_per_distinct_image():
    # a full LampBox: both legs' sites lie in A_8, so 9 shifts times 4
    # toggle patterns decide every image; repeats and far shifts add none
    pair = (up(9), down(12))
    ball = Ball((up(O_INF), down(O_INF)), Fraction(1, 10))
    els = folner.elements(LampBox(), 8)
    els = els + els[:100] + [IntShift(a) for a in (10**6, -10**6, 10**7)]
    with CountingContains() as counter:
        got = density.hitting_density(LAMPLIGHTER, pair, ball, els)
    assert counter.calls == 9 * 4
    assert got == enumerated_hits(LAMPLIGHTER, pair, ball, els)
