"""Pushforwards of a point or a pair along Folner sets.

Every finite reading in meandyn is the image of one start (a point, or
a pair acted on diagonally) under the n-th Folner set F_n, counted with
multiplicity: Cesaro averages, hitting densities along the family and
over right translates, empirical measures.  This module computes those
images without enumerating F_n element by element:

* an integer window family acts by a contiguous range of shifts.  Each
  shift in the union of the requested ranges is applied once, and every
  F_n, or right translate F_n.t, is answered from prefix sums over that
  union: a window of indices (lo, hi) costs O(hi), not O(hi^2);
* a LampBox element shift^a toggles(b) moves a start only through a
  and through the bits of b at the start's own coordinates.  With k of
  those coordinates inside A_n = {n, ..., 2n}, F_n falls into
  (n+1) * 2^k classes of 2^(n+1-k) elements each, and k <= 2 for a
  pair.  A right translate t moves the start instead, since
  (f.t).x = f.(t.x).

A Cesaro average needs no image at all on an integer window:
`distance_means` adds each leg's distances in closed form
(`spaces.shift_distance_total`), as reciprocal sums split at the shifts
where a leg crosses 0, and reads a lamplighter box off `_box_images`.

`_means` is the one loop over the resolved sets for densities, and
totals each set as an int.  `hit_means` (the shares) and `hit_totals`
(the counts) hand it the neighbourhood's membership, tested once per
distinct image, and, for a Ball around a pair, the eventually constant
hitting set: with an exact integer A and the two limit verdicts
(`_tails`), every window is swept clipped to [-A, A], so `contains`
runs only on the requested shifts inside it, and the window's overlaps
with (A, inf) and (-inf, -A) are counted.  Its cost then grows with A,
not with the window or the translate range.  Without tails (a limit
on the sphere, another neighbourhood) nothing is clipped, and a
lamplighter box takes its closed form whatever the tails.  `images`
resolves its one set through the same `_sets`.

`hit_count` counts the hits of a given element list, with repeats, as
`density.hitting_density` reports them.  Each element is keyed by what
decides its image, its shift, and for a lamplighter element also its
toggles at the start's own coordinates (the classes above); `contains`
runs once per key, and a shift beyond A takes the tail verdict.

Every index answered is checked against the atom budget by
`folner.cardinality`, so BudgetError fires where enumeration raises it.
Results are exact: integer multiplicities and Fractions.
"""

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

from . import folner, spaces
from .groups import GroupMismatchError, IntShift, Lamp
from .spaces import Ball


def images(space, start, family, n, budget=folner.ATOM_BUDGET):
    """Image multiplicities of `start` under F_n: a Counter whose values
    sum to |F_n|."""
    [(_, _, _, window)] = _sets(family, [(n, None)], budget)
    if window is None:
        return _box_images(space, start, n)
    return Counter(spaces.act(space, IntShift(a), start)
                   for a in range(window[0], window[1] + 1))


def distance_means(space, pair, family, ns, budget=folner.ATOM_BUDGET):
    """(1/|F_n|) * sum over g in F_n of metric(g.x, g.y) for pair = (x, y),
    points or point pairs, one Fraction per n in `ns`.

    An integer window adds `spaces.shift_distance_total` over each leg;
    a lamplighter box weighs its closed-form images."""
    x, y = pair
    legs = list(zip(x, y)) if isinstance(x, tuple) else [(x, y)]
    out = []
    for size, n, _, window in _sets(family, [(n, None) for n in ns], budget):
        if window is None:
            total = sum(spaces.metric(space, *image) * c
                        for image, c in _box_images(space, pair, n).items())
        else:
            total = sum(spaces.shift_distance_total(space, p, q, *window)
                        for p, q in legs)
        out.append(Fraction(total, size))
    return out


def hit_means(space, pair, nbhd, family, requests, budget=folner.ATOM_BUDGET):
    """Share of F_n, or of F_n.t, sending `pair` into `nbhd`: one
    Fraction per (n, t) in `requests`, t None for F_n itself.

    For a Ball around a pair and an integer window family, membership is
    constant beyond an exact bound A in each direction (`_tails`), so
    `contains` runs only on the requested shifts inside [-A, A]."""
    sets = _sets(family, requests, budget)
    return [Fraction(total, size) for total, (size, _, _, _)
            in zip(_hits(space, pair, nbhd, sets), sets)]


def hit_totals(space, pair, nbhd, family, requests, budget=folner.ATOM_BUDGET):
    """How many elements of F_n, or of F_n.t, send `pair` into `nbhd`:
    one int per (n, t) in `requests`, the numerators of `hit_means`
    over |F_n|."""
    return _hits(space, pair, nbhd, _sets(family, requests, budget))


def _hits(space, pair, nbhd, sets):
    # translates of a lamplighter box share images, so each distinct
    # image is tested once
    verdicts = {}

    def hit(image):
        if image not in verdicts:
            verdicts[image] = spaces.contains(space, nbhd, image)
        return verdicts[image]

    return _means(space, pair, sets, hit, _tails(space, pair, nbhd))


def hit_count(space, start, nbhd, elements):
    """How many of `elements`, a non-empty list counted with repeats,
    send `start` into `nbhd`.

    Each element is keyed by what decides its image (`_image_key`), and
    `contains` runs once per key, in the order the keys first appear;
    the verdict counts the key's multiplicity.  An integer shift beyond
    the bound A of `_tails` takes the tail verdict instead.

    A faulty input raises what testing element by element raises first.
    The first element acts before anything else, so a faulty start
    raises there.  A tail verdict skips no fault (see `_tails`), and
    elements of one key share one image, so every other fault is raised
    by the first element of its key."""

    def hit(g):
        return spaces.contains(space, nbhd, spaces.act(space, g, start))

    spaces.act(space, elements[0], start)
    sites = [p.coord for p in _legs(start) if not p.is_limit()]
    bound, below, above = _tails(space, start, nbhd) or (math.inf, 0, 0)
    keys = [_image_key(g, sites, i) for i, g in enumerate(elements)]
    verdicts = {}
    for key, g in zip(keys, elements):
        if key not in verdicts:
            far = isinstance(key, int) and abs(key) > bound
            verdicts[key] = (above if key > 0 else below) if far else hit(g)
    return sum(verdicts[key] * weight for key, weight in Counter(keys).items())


def _image_key(g, sites, i):
    """What decides the image of a start whose finite legs sit at
    `sites`: the shift of an IntShift; the shift and the toggles at
    `sites` of a Lamp, which move a leg only there (the classes of
    `_box_images`); the position i of anything else, which is then
    acted on by itself."""
    if isinstance(g, IntShift):
        return g.a
    if isinstance(g, Lamp):
        return g.a, tuple(s in g.lamps for s in sites)
    return None, i


def _tails(space, pair, nbhd):
    """(A, below, above): for every shift a > A, a.pair lies in `nbhd`
    exactly when `above` holds, and for every a < -A exactly when
    `below` holds.  None when no such A is proved here, and the window
    must be swept.

    Each finite leg s tends to the end of its copy that the action
    drives it to, and D = `spaces.limit_distance` summed over the legs
    is the limit of the ball distance.  A leg at coordinate s is within
    1/(2(1+|s|)) (two-point) or 1/(2|s|+1) (one-point) of its end, both
    at most 1/(2t+1) once t = |a| - |c| >= 0 for the start's own
    coordinate c.  With m finite legs and the gap d = |r - D| > 0, every
    |a| > A = max |c| + ceil(m / 2d) keeps each leg within d/m of its
    limit, so the ball distance stays on D's side of the radius r.  At
    d = 0 the limit sits on the sphere and nothing is proved.

    Nothing is proved either unless the pair and the ball's centre are
    pairs of points, each a limit or at an int.  Then testing a shifted
    pair can fail only on a centre leg outside the space, which the
    limit distances raise here in the same order."""
    if not (isinstance(nbhd, Ball) and isinstance(nbhd.radius, (int, Fraction))
            and spaces.is_pair(pair) and spaces.is_pair(nbhd.center)
            and all(p.is_limit() or isinstance(p.coord, int)
                    for p in pair + nbhd.center)):
        return None
    # a glued alias is a limit point, so canonical forms change no offset
    offsets = [abs(p.coord) for p in pair if not p.is_limit()]
    bound, verdicts = 0, []
    for sign in (-1, 1):
        limit = sum(spaces.limit_distance(space, c, p, sign)
                    for c, p in zip(nbhd.center, pair))
        gap = abs(nbhd.radius - limit)
        if offsets:
            if gap == 0:
                return None
            bound = max(bound, max(offsets)
                        + math.ceil(Fraction(len(offsets), 2 * gap)))
        verdicts.append(limit < nbhd.radius)
    return bound, verdicts[0], verdicts[1]


def _sets(family, requests, budget):
    """(|F_n|, n, translate, shift window or None) per request
    (n, translate): the index checked against the budget, then the shift
    range of F_n.translate for an integer window family, None for a
    lamplighter box, and the translate checked against its group.  Each
    distinct n is resolved once."""
    out, resolved = [], {}
    for n, t in requests:
        if n not in resolved:
            resolved[n] = (folner.cardinality(family, n, budget),
                           folner.shift_window(family, n))
        size, window = resolved[n]
        if t is not None and not isinstance(t, Lamp if window is None
                                            else IntShift):
            raise GroupMismatchError("cannot translate %r by %r" % (family, t))
        if window is not None and t is not None:
            window = window[0] + t.a, window[1] + t.a
        out.append((size, n, t, window))
    return out


def _means(space, start, sets, weight, tails):
    """Total of weight over the images of `start`, one int per set.

    The windows are swept once, each clipped to [-A, A] for `tails` =
    (A, below, above); a window then adds `below` times its overlap with
    (-inf, -A) and `above` times its overlap with (A, inf).  With no
    tails nothing is clipped."""
    bound, below, above = tails or (math.inf, 0, 0)
    clipped = [w and (max(w[0], -bound), min(w[1], bound))
               for _, _, _, w in sets]
    swept = iter(_window_totals(space, start,
                                [w for w in clipped if w and w[0] <= w[1]],
                                weight))
    out = []
    for (_, n, t, window), inner in zip(sets, clipped):
        if window is None:
            total = sum(weight(img) * c for img, c in
                        _box_images(space, start if t is None else
                                    spaces.act(space, t, start), n).items())
        else:
            lo, hi = window
            total = next(swept) if inner[0] <= inner[1] else 0
            total += below * max(0, min(hi, -bound - 1) - lo + 1)
            total += above * max(0, hi - max(lo, bound + 1) + 1)
        out.append(total)
    return out


def _window_totals(space, start, windows, weight):
    """Sum of weight(a.start) over the shifts a of each window, applying
    every shift in the union of the windows once."""
    shifts = [a for lo, hi in folner.union(windows) for a in range(lo, hi + 1)]
    prefix = [0]
    for a in shifts:
        prefix.append(prefix[-1] + weight(spaces.act(space, IntShift(a), start)))
    return [prefix[bisect_right(shifts, hi)] - prefix[bisect_left(shifts, lo)]
            for lo, hi in windows]


def _box_images(space, start, n):
    sites = sorted({p.coord for p in _legs(start)
                    if not p.is_limit() and n <= p.coord <= 2 * n})
    multiplicity = 2 ** (n + 1 - len(sites))
    out = Counter()
    for a in range(n, 2 * n + 1):
        for mask in range(2 ** len(sites)):
            lamps = tuple(s for i, s in enumerate(sites) if mask >> i & 1)
            out[spaces.act(space, Lamp(a, lamps), start)] += multiplicity
    return out


def _legs(start):
    if isinstance(start, tuple):
        return [p for leg in start for p in _legs(leg)]
    return [start]
