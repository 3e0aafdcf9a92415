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


def one_point_space(copies=(0,), group=INTEGERS, action=TRANSLATE, name=""):
    copies = tuple(copies)
    if group == LAMPLIGHTER and (len(copies) != 2 or action != SHIFT):
        raise ValueError("a lamplighter space needs exactly two copies and "
                         "the shift action, got %d copies and %r"
                         % (len(copies), action))
    return Space(ONE_POINT, copies, group, action, name=name)


def two_point_space(copies=(1,), layout=None, gluings=(), action=TRANSLATE,
                    name=""):
    if layout is None:
        layout = tuple((i, 1) for i in range(len(copies)))
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
    """The canonical form of `p`, whose copy must belong to the space."""
    p = canonical(space, p)
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
    """Distance; accepts two points or two point pairs (sum metric)."""
    if isinstance(p, tuple):
        return _metric1(space, p[0], q[0]) + _metric1(space, p[1], q[1])
    return _metric1(space, p, q)


@lru_cache(maxsize=1_000_000)
def _metric1(space, p, q):
    p, q = _checked(space, p), _checked(space, q)
    if p == q:
        return Fraction(0)
    if _piece(space, p) == _piece(space, q):
        return abs(_line_coordinate(space, p) - _line_coordinate(space, q))
    return Fraction(abs(space.copies.index(p.copy) - space.copies.index(q.copy)))


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
    return _metric1(space, c, p)


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
