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

`means` takes an opaque weight and sweeps.  `hit_means` takes the
neighbourhood itself, so for a Ball around a pair on an integer space it
can use that the hitting set is eventually constant: with an exact
integer A and the two limit verdicts (`_tails`), it runs `contains` only
on the requested shifts inside [-A, A] and counts each window's overlap
with (A, inf) and (-inf, -A).  Its cost then grows with A, not with the
window or the translate range.  Every other neighbourhood, a limit on
the sphere, a LampBox and a lamplighter space take the sweep.

Every index answered is checked against the atom budget by
`folner.cardinality`, so BudgetError fires where enumeration raises it.
Results are exact: integer multiplicities and Fractions.
"""

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

from . import folner, spaces
from .groups import INTEGERS, GroupMismatchError, IntShift, Lamp
from .spaces import Ball


def images(space, start, family, n, translate=None, budget=folner.ATOM_BUDGET):
    """Image multiplicities of `start` under F_n, or under F_n.translate:
    a Counter whose values sum to |F_n|."""
    folner.cardinality(family, n, budget)
    window = _window(family, n, translate)
    if window is None:
        return _box_images(space, _moved(space, translate, start), n)
    return Counter(spaces.act(space, IntShift(a), start)
                   for a in range(window[0], window[1] + 1))


def means(space, start, family, ns, weight, budget=folner.ATOM_BUDGET):
    """(1/|F_n|) * sum over g in F_n of weight(g.start), one Fraction
    per n in `ns`."""
    return _means(space, start, _sets(family, [(n, None) for n in ns], budget),
                  weight)


def hit_means(space, pair, nbhd, family, requests, budget=folner.ATOM_BUDGET):
    """Share of F_n, or of F_n.t, sending `pair` into `nbhd`: one
    Fraction per (n, t) in `requests`, t None for F_n itself.

    For a Ball around a pair on an integer space, membership is
    constant beyond an exact bound A in each direction (`_tails`), so
    `contains` runs only on the requested shifts inside [-A, A] and each
    window adds its overlap with the two constant tails."""
    sets = _sets(family, requests, budget)

    def hit(image):
        return spaces.contains(space, nbhd, image)

    tails = None
    if all(window is not None for _, _, _, window in sets):
        tails = _tails(space, pair, nbhd)
    if tails is None:
        return _means(space, pair, sets, hit)
    bound, below, above = tails
    clipped = [(max(lo, -bound), min(hi, bound))
               for _, _, _, (lo, hi) in sets]
    inner = iter(_window_totals(space, pair,
                                [w for w in clipped if w[0] <= w[1]], hit))
    out = []
    for (size, _, _, (lo, hi)), (inner_lo, inner_hi) in zip(sets, clipped):
        total = next(inner) if inner_lo <= inner_hi else 0
        total += below * max(0, min(hi, -bound - 1) - lo + 1)
        total += above * max(0, hi - max(lo, bound + 1) + 1)
        out.append(Fraction(total, size))
    return out


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
    d = 0 the limit sits on the sphere and nothing is proved."""
    if not (space.group == INTEGERS and isinstance(nbhd, Ball)
            and isinstance(pair, tuple) and isinstance(nbhd.center, tuple)
            and isinstance(nbhd.radius, (int, Fraction))):
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
    (n, translate), each index checked against the budget."""
    return [(folner.cardinality(family, n, budget), n, t, _window(family, n, t))
            for n, t in requests]


def _means(space, start, sets, weight):
    swept = iter(_window_totals(space, start,
                                [w for _, _, _, w in sets if w is not None],
                                weight))
    out = []
    for size, n, t, window in sets:
        if window is None:
            total = sum(weight(img) * c for img, c in
                        _box_images(space, _moved(space, t, start), n).items())
        else:
            total = next(swept)
        out.append(Fraction(total, size))
    return out


def _window(family, n, translate):
    """Shift range (lo, hi) of F_n.translate for an integer window
    family; None for a lamplighter box."""
    window = folner.shift_window(family, n)
    group_element = Lamp if window is None else IntShift
    if translate is not None and not isinstance(translate, group_element):
        raise GroupMismatchError("cannot translate %r by %r"
                                 % (family, translate))
    if window is None or translate is None:
        return window
    return window[0] + translate.a, window[1] + translate.a


def _window_totals(space, start, windows, weight):
    """Sum of weight(a.start) over the shifts a of each window, applying
    every shift in the union of the windows once."""
    shifts = [a for lo, hi in folner.union(windows) for a in range(lo, hi + 1)]
    prefix = [0]
    for a in shifts:
        prefix.append(prefix[-1] + weight(spaces.act(space, IntShift(a), start)))
    return [prefix[bisect_right(shifts, hi)] - prefix[bisect_left(shifts, lo)]
            for lo, hi in windows]


def _moved(space, translate, start):
    return start if translate is None else spaces.act(space, translate, start)


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
