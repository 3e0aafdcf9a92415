"""Compactified integer orbits and the metrics the averages run over.

Two building blocks, each available in several tagged copies:

* one-point circles: the integers plus a single point at infinity,
  embedded by 1/(2s+1) (s >= 0), 1/(2s-1) (s < 0) and 0 at infinity;
* two-point intervals: the integers plus distinct limits at either
  end, embedded order-preservingly into a unit segment.

Copies of two-point intervals are either all unglued, each its own
piece, or glued into one chain: laid out as consecutive unit segments,
with exactly the two ends that meet at each junction glued.  Then the
metric on the chain is plain distance along the line, and points in
different pieces sit at distance equal to their copy separation.
`two_point_space` rejects every other layout, and a gluing with a
finite point, with a `ValueError`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .groups import INTEGERS, LAMPLIGHTER, IntShift, Lamp

P_INF = "+inf"
M_INF = "-inf"
O_INF = "inf"
_LIMITS = (P_INF, M_INF, O_INF)

ONE_POINT = "one_point_z"
TWO_POINT = "two_point_z"

TRANSLATE = "translate"  # g.x = x + g
SHIFT = "shift"          # generator moves x to x - 1


@dataclass(frozen=True)
class Point:
    coord: object  # int, or one of "+inf" / "-inf" / "inf"
    copy: int = 0

    def is_limit(self):
        return self.coord in _LIMITS

    def __repr__(self):
        return "Point(%r, %d)" % (self.coord, self.copy)


@dataclass(frozen=True)
class Space:
    kind: str
    copies: tuple            # copy tags in layout order
    group: str
    action: str
    layout: tuple = ()       # two-point only: (offset, direction) per tag
    gluings: tuple = ()      # pairs (alias_point, canonical_point)
    name: str = ""

    def limit_points(self):
        seen = []
        coords = (O_INF,) if self.kind == ONE_POINT else (M_INF, P_INF)
        for tag in self.copies:
            for c in coords:
                p = canonical(self, Point(c, tag))
                if p not in seen:
                    seen.append(p)
        return seen


def _check_action(action):
    if action not in (TRANSLATE, SHIFT):
        raise ValueError("unknown action %r: it must be %r or %r"
                         % (action, TRANSLATE, SHIFT))


def one_point_space(copies=(0,), group=INTEGERS, action=TRANSLATE, name=""):
    copies = tuple(copies)
    _check_action(action)
    if group == LAMPLIGHTER and (len(copies) != 2 or action != SHIFT):
        raise ValueError("a lamplighter space needs exactly two copies and "
                         "the shift action, got %d copies and %r"
                         % (len(copies), action))
    return Space(ONE_POINT, copies, group, action, name=name)


def two_point_space(copies=(1,), layout=None, gluings=(), action=TRANSLATE,
                    name=""):
    if layout is None:
        layout = tuple((i, 1) for i in range(len(copies)))
    _check_action(action)
    gluings = tuple(gluings)
    for alias, rep in gluings:
        if not (alias.is_limit() and rep.is_limit()):
            raise ValueError("gluing (%r, %r) has a finite point: only limit "
                             "points may be glued" % (alias, rep))
    space = Space(TWO_POINT, tuple(copies), INTEGERS, action,
                  layout=tuple(layout), gluings=gluings, name=name)
    _check_chain(space)
    return space


def _check_chain(space):
    """Raise ValueError unless the layout gives each copy one unit
    segment and, with gluings, the copies form one chain: sorted by
    offset each starts where the previous one ends, and the gluings are
    the ends shared at those junctions, one gluing per junction."""
    copies, layout = space.copies, space.layout
    if (len(set(copies)) != len(copies) or len(layout) != len(copies)
            or not all(isinstance(entry, tuple) and len(entry) == 2
                       and isinstance(entry[0], (int, Fraction))
                       and entry[1] in (1, -1) for entry in layout)):
        raise ValueError("copies %r must be distinct and layout %r must hold "
                         "one (offset, direction) per copy, with an int or "
                         "Fraction offset and direction +1 or -1"
                         % (copies, layout))
    if not space.gluings:
        return
    chain = sorted(zip(layout, copies))
    steps = list(zip(chain, chain[1:]))
    junctions = {frozenset((Point(P_INF if d > 0 else M_INF, a),
                            Point(M_INF if e > 0 else P_INF, b)))
                 for ((_, d), a), ((_, e), b) in steps}
    if (any(o2 != o + 1 for ((o, _), _), ((o2, _), _) in steps)
            or len(space.gluings) != len(junctions)
            or set(map(frozenset, space.gluings)) != junctions):
        raise ValueError("glued copies must form one chain: sorted by "
                         "offset, each copy starts where the previous one "
                         "ends, and the gluings are the ends shared at those "
                         "junctions, one per junction; got layout %r and "
                         "gluings %r" % (layout, space.gluings))


def canonical(space, p):
    for alias, rep in space.gluings:
        if p == alias:
            return rep
    return p


def _checked(space, p):
    """The canonical form of `p`, whose copy must belong to the space and
    whose coordinate must be an int or a limit: the action moves a
    finite coordinate through the integers, and the caches below are
    keyed by points, so an equal float must not reach them."""
    if p.coord in _LIMITS:   # only limit points are glued
        p = canonical(space, p)
    elif not isinstance(p.coord, int):
        raise TypeError("finite coordinate %r of %r is not an int"
                        % (p.coord, p))
    if p.copy not in space.copies:
        raise ValueError("copy %r not in space %r" % (p.copy, space.name or space.kind))
    return p


def _layout_of(space, tag):
    return space.layout[space.copies.index(tag)]


@lru_cache(maxsize=None)
def _phi(s):
    # one-point circle coordinate; integers accumulate at 0 = infinity
    if s >= 0:
        return Fraction(1, 2 * s + 1)
    return Fraction(1, 2 * s - 1)


@lru_cache(maxsize=None)
def _psi(s):
    # order embedding of Z into (0,1); -inf -> 0, +inf -> 1
    return (1 + Fraction(s, 1 + abs(s))) / 2


def embed(space, p):
    """Line coordinate of a point; exact rational."""
    return _line_coordinate(space, _checked(space, p))


def _line_coordinate(space, p):
    # p is canonical and its copy is in the space
    if space.kind == ONE_POINT:
        local = Fraction(0) if p.coord == O_INF else _phi(p.coord)
        return local + space.copies.index(p.copy)
    offset, direction = _layout_of(space, p.copy)
    if p.coord == M_INF:
        local = Fraction(0)
    elif p.coord == P_INF:
        local = Fraction(1)
    else:
        local = _psi(p.coord)
    return offset + local if direction > 0 else offset + 1 - local


def component(space, p):
    """Identifier of the connected piece a point lies in."""
    return _piece(space, _checked(space, p))


def _piece(space, p):
    # p is canonical and its copy is in the space
    return _copy_piece(space, p.copy)


def _copy_piece(space, tag):
    # a glued space is one chain; otherwise each copy is its own piece
    return 0 if space.gluings else space.copies.index(tag)


def _copy_range(space, tag):
    """The closed interval of line coordinates that the points of a copy
    take: [i - 1, i + 1] for the i-th one-point circle, the unit segment
    at its offset for a two-point interval."""
    i = space.copies.index(tag)
    if space.kind == ONE_POINT:
        return i - 1, i + 1
    offset, _ = space.layout[i]
    return offset, offset + 1


def metric(space, p, q):
    """Distance; accepts two points or two point pairs (sum metric).
    Anything else, a point against a pair included, raises a TypeError
    naming both arguments."""
    if isinstance(p, Point) and isinstance(q, Point):
        return _metric1(space, _checked(space, p), _checked(space, q))
    if is_pair(p) and is_pair(q):
        return (_metric1(space, _checked(space, p[0]), _checked(space, q[0]))
                + _metric1(space, _checked(space, p[1]), _checked(space, q[1])))
    raise TypeError("metric needs two points or two pairs of points, got "
                    "%r and %r" % (p, q))


def is_pair(p):
    """Whether p is a pair of points."""
    return (isinstance(p, tuple) and len(p) == 2
            and isinstance(p[0], Point) and isinstance(p[1], Point))


@lru_cache(maxsize=1_000_000)
def _metric1(space, p, q):
    # p and q have passed _checked
    if p == q:
        return Fraction(0)
    if _piece(space, p) == _piece(space, q):
        return abs(_line_coordinate(space, p) - _line_coordinate(space, q))
    return Fraction(abs(space.copies.index(p.copy) - space.copies.index(q.copy)))


def integer_chart(space, points):
    """(scale, chart): chart maps each of `points` to (piece, copy index,
    x), with x its line coordinate times `scale`, the lcm of the
    coordinates' denominators.  Then metric(space, p, q) * scale is
    |x - y| for p and q in one piece, and their copy separation times
    scale across pieces, both ints: `_metric1` read on one integer
    scale, with each point checked once."""
    chart = {}
    for p in points:
        c = _checked(space, p)
        chart[p] = (_piece(space, c), space.copies.index(c.copy),
                    _line_coordinate(space, c))
    scale = math.lcm(*{x.denominator for _, _, x in chart.values()})
    return scale, {p: (piece, i, x.numerator * (scale // x.denominator))
                   for p, (piece, i, x) in chart.items()}


def nearest_distance(space, left, right):
    """Exact min of metric(space, p, q) over points p in left, q in right.

    Inside one connected piece the metric is distance along the line,
    so the smallest gap there is between neighbours from opposite sides
    in the piece's sorted line coordinates; across pieces it is the copy
    separation, which depends only on the (piece, copy index) pairs
    present.  O(k log k) for k points instead of |left|·|right| metric
    calls."""
    lines = {}             # component -> [(float, line coordinate, side)]
    tags = (set(), set())  # per side: (component, copy index)
    for side, points in enumerate((left, right)):
        for p in points:
            p = _checked(space, p)
            i = space.copies.index(p.copy)
            c = _piece(space, p)
            x = _line_coordinate(space, p)
            # the float leads the sort key only to spare Fraction
            # comparisons; rounding is monotone, so the order is exact
            lines.setdefault(c, []).append((float(x), x, side))
            tags[side].add((c, i))
    if not tags[0] or not tags[1]:
        raise ValueError("nearest_distance needs points on both sides")
    gaps = [Fraction(abs(i - j))
            for c, i in tags[0] for d, j in tags[1] if c != d]
    for line in lines.values():
        line.sort()
        gaps += [b - a for (_, a, s), (_, b, t) in zip(line, line[1:])
                 if s != t]
    return min(gaps)


def copy_gap(space, copy_a, copy_b):
    """The least distance between a point of copy_a and a point of
    copy_b: their copy separation when they lie in different pieces,
    else the gap between their closed layout ranges.  A move that keeps
    every point in its own copy cannot bring them any closer."""
    if _copy_piece(space, copy_a) != _copy_piece(space, copy_b):
        return Fraction(abs(space.copies.index(copy_a)
                            - space.copies.index(copy_b)))
    (a0, a1), (b0, b1) = _copy_range(space, copy_a), _copy_range(space, copy_b)
    return Fraction(max(0, b0 - a1, a0 - b1))


def snap_threshold(space, radius):
    """The least T >= 1 such that a finite point of any copy lies within
    `radius` of a limit point exactly when |coord| >= T, and that limit
    is then its own copy's end on the side of coord's sign (the point at
    infinity, on a one-point circle); None unless 0 < radius < 1/2.

    A finite coordinate s is 1/(2(1+|s|)) from the nearer end of its
    two-point interval and 1/(2|s|+1) from the point at infinity of its
    one-point circle, so T is the least |s| at which that is <= radius.
    The copy's far end is at least 1/2 away, and on a checked layout
    every other limit at least 1: other pieces sit a copy separation
    away, and along a chain the other ends lie beyond the copy's
    neighbours' unit segments."""
    if not 0 < radius < Fraction(1, 2):
        return None
    if space.kind == ONE_POINT:
        return math.ceil((1 / Fraction(radius) - 1) / 2)
    return math.ceil(1 / (2 * Fraction(radius))) - 1


def limit_distance(space, c, p, sign):
    """The limit of metric(space, c, a.p) as the integer shift a tends
    to sign * infinity; exact.

    A limit point p stays where it is.  A finite p runs along its own
    copy into the end the action sends it to (+inf or -inf of that copy
    on a two-point interval, inf on a one-point circle), and the
    distance converges to the distance from c to that end."""
    p = _checked(space, p)
    if not p.is_limit():
        if space.kind == ONE_POINT:
            end = O_INF
        else:
            forward = sign > 0 if space.action == TRANSLATE else sign < 0
            end = P_INF if forward else M_INF
        p = canonical(space, Point(end, p.copy))
    return _metric1(space, _checked(space, c), p)


def shift_distance_total(space, p, q, lo, hi):
    """Sum of metric(space, a.p, a.q) over the integer shifts a = lo..hi,
    exact and in closed form: no shifted point is built.

    Legs in different pieces stay their copy separation apart.  In one
    piece the sum is cut at the at most two shifts where a finite leg's
    u (see `_line_total`) changes sign.  On each part the sign of the
    line coordinate difference is constant: the coordinates are strictly
    monotone in u on each branch, and the copies of a chain have unit
    segments with disjoint interiors.  So one evaluation at the part's
    first shift fixes it, and the part adds that sign times the
    difference of the two coordinate sums."""
    p, q = _checked(space, p), _checked(space, q)
    if _piece(space, p) != _piece(space, q):
        return (hi - lo + 1) * _metric1(space, p, q)
    sigma = 1 if space.action == TRANSLATE else -1
    # u = coord + sigma*a is >= 0 up to (shift) or from (translate) the cut
    cuts = sorted(c for c in {-sigma * r.coord + (sigma < 0) for r in (p, q)
                              if not r.is_limit()} if lo < c <= hi)
    total = Fraction(0)
    for first, last in zip([lo] + cuts, [c - 1 for c in cuts] + [hi]):
        part = _total_difference(_line_total(space, p, sigma, first, last),
                                 _line_total(space, q, sigma, first, last))
        if (_line_coordinate(space, act(space, IntShift(first), p))
                < _line_coordinate(space, act(space, IntShift(first), q))):
            part = -part
        total += part
    return total


def _line_total(space, p, sigma, lo, hi):
    """Sum of the line coordinate of a.p over a = lo..hi, where a moves a
    finite p to u = coord + sigma*a and u keeps one sign, as a term
    (c, k, e, v0, v1) = c + k * (sum of 1/(2v+e) over v = v0..v1).

    On a branch of u's sign the one-point coordinate idx + phi(u) and
    the two-point local coordinate psi(u) are reciprocal terms:
    phi(u) = 1/(2u+1) and psi(u) = 1 - 1/(2u+2) for u >= 0,
    phi(u) = -1/(2|u|+1) and psi(u) = 1/(2|u|+2) for u < 0."""
    count = hi - lo + 1
    if p.is_limit():
        return count * _line_coordinate(space, p), 0, 1, 0, -1
    u0, u1 = sorted((p.coord + sigma * lo, p.coord + sigma * hi))
    k, v0, v1 = (1, u0, u1) if u0 >= 0 else (-1, -u1, -u0)
    if space.kind == ONE_POINT:
        return count * space.copies.index(p.copy), k, 1, v0, v1
    # psi sums to count - R for u >= 0 and to R for u < 0
    offset, direction = _layout_of(space, p.copy)
    rest = count if k > 0 else 0
    if direction > 0:
        return count * offset + rest, -k, 2, v0, v1
    return count * (offset + 1) - rest, k, 2, v0, v1


def _total_difference(s, t):
    """s - t for two `_line_total` terms over one range of shifts.  Two
    finite legs on one branch run over equally long runs of v, so when
    their reciprocal sums share k and e only the ends that the runs do
    not share are added: a difference that telescopes costs its offset,
    not the window."""
    (c, k, e, a0, a1), (d, l, f, b0, b1) = s, t
    if (k, e) != (l, f):
        return (c - d + k * _reciprocal_sum(e, a0, a1)
                - l * _reciprocal_sum(f, b0, b1))
    if a0 > b0:
        (a0, a1), (b0, b1), k = (b0, b1), (a0, a1), -k
    return c - d + k * (_reciprocal_sum(e, a0, min(a1, b0 - 1))
                        - _reciprocal_sum(e, max(b0, a1 + 1), b1))


def _reciprocal_sum(e, lo, hi):
    """Sum of 1/(2v+e) over v = lo..hi, 0 for an empty run, exact, by
    binary splitting (Haible & Papanikolaou, ANTS-III, 1998): the halves
    are added as integer numerators over integer products, and one
    Fraction is reduced at the end."""
    def split(i, j):   # numerator and denominator of the sum over i <= v < j
        if j - i <= 16:   # short runs of small ints add faster in a loop
            p, q = 0, 1
            for d in range(2 * i + e, 2 * j + e, 2):
                p, q = p * d + q, q * d
            return p, q
        k = (i + j) // 2
        p1, q1 = split(i, k)
        p2, q2 = split(k, j)
        return p1 * q2 + p2 * q1, q1 * q2

    return Fraction(*split(lo, hi + 1))


def act(space, g, p):
    """Apply a group element to a point or a point pair (diagonally)."""
    if isinstance(p, tuple):
        return tuple(act(space, g, q) for q in p)
    p = _checked(space, p)
    if isinstance(g, IntShift):
        # either group: on a lamplighter space (shift action) it is shift^a
        if p.is_limit():
            return p
        step = g.a if space.action == TRANSLATE else -g.a
        return Point(p.coord + step, p.copy)
    if not isinstance(g, Lamp):
        raise TypeError("not a group element: %r" % (g,))
    if space.group != LAMPLIGHTER:
        raise ValueError("lamplighter element on a %s-space" % space.group)
    if p.is_limit():
        return p
    copy = p.copy
    if p.coord in g.lamps:
        # toggle swaps the two one-point copies at its site
        copy = space.copies[1 - space.copies.index(copy)]
    return Point(p.coord - g.a, copy)


def truncate(space, n):
    """Finite stand-in: coordinates |s| <= n in every copy plus all limits."""
    if n < 0:
        raise ValueError("negative truncation level")
    pts = {Point(s, tag) for tag in space.copies for s in range(-n, n + 1)}
    pts.update(space.limit_points())
    return sorted(pts, key=lambda p: sort_key(space, p))


def sort_key(space, p):
    if isinstance(p, tuple):
        return tuple(sort_key(space, q) for q in p)
    p = _checked(space, p)
    return _piece(space, p), _line_coordinate(space, p)


# ---------------------------------------------------------------- text forms

def render_point(p):
    if isinstance(p, tuple):
        return ";".join(render_point(q) for q in p)
    return "%s^%d" % (p.coord, p.copy)


def parse_point(text, space=None):
    """Read "5^1", "+inf^2", "inf^0"; "up_3"/"down_inf" name the two
    one-point copies 1/0.  A ";" separates the legs of a pair."""
    text = text.strip()
    if ";" in text:
        a, b = text.split(";", 1)
        return (parse_point(a, space), parse_point(b, space))
    if text.startswith(("up_", "down_")):
        word, _, c = text.partition("_")
        coord = O_INF if c == "inf" else int(c)
        p = Point(coord, 1 if word == "up" else 0)
    else:
        c, _, tag = text.rpartition("^")
        if not c:
            c, tag = text, "0"
        coord = c if c in _LIMITS else int(c)
        p = Point(coord, int(tag))
    if space is not None:
        p = _checked(space, p)
    return p


def point_to_json(p):
    if isinstance(p, tuple):
        return [point_to_json(q) for q in p]
    return {"coord": str(p.coord), "copy": p.copy}


# ------------------------------------------------------------- neighborhoods

@dataclass(frozen=True)
class Ball:
    center: object  # point or pair
    radius: Fraction


@dataclass(frozen=True)
class Tail:
    """All integer coordinates s with s <= bound (side "le") or
    s >= bound (side "ge") in one copy.  Limit points are listed
    separately in the enclosing PointSet."""
    copy: int
    side: str
    bound: int


@dataclass(frozen=True)
class PointSet:
    points: frozenset
    tails: tuple = ()


@dataclass(frozen=True)
class ProductOf:
    left: object
    right: object


def contains(space, nbhd, p):
    if isinstance(nbhd, Ball):
        return metric(space, nbhd.center, p) < nbhd.radius
    if isinstance(nbhd, ProductOf):
        return (contains(space, nbhd.left, p[0])
                and contains(space, nbhd.right, p[1]))
    if isinstance(nbhd, PointSet):
        if isinstance(p, tuple):
            raise TypeError("point set queried with a pair")
        p = _checked(space, p)
        if p in nbhd.points:
            return True
        if p.is_limit():
            return False
        for t in nbhd.tails:
            if p.copy != t.copy:
                continue
            if t.side == "le" and p.coord <= t.bound:
                return True
            if t.side == "ge" and p.coord >= t.bound:
                return True
        return False
    raise TypeError("not a neighborhood: %r" % (nbhd,))
