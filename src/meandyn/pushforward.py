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

Interleaved and subsequence families unwrap index by index to one of
these.  Every index answered is checked against the atom budget by
`folner.cardinality`, so BudgetError fires where enumeration raises it.
Results are exact: integer multiplicities and Fractions.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

from . import folner, spaces
from .groups import GroupMismatchError, IntShift, Lamp


def images(space, start, family, n, translate=None, budget=folner.ATOM_BUDGET):
    """Image multiplicities of `start` under F_n, or under F_n.translate:
    a Counter whose values sum to |F_n|."""
    folner.cardinality(family, n, budget)
    family, n = folner.resolve(family, n)
    window = _window(family, n, translate)
    if window is None:
        return _box_images(space, _moved(space, translate, start), n)
    return Counter(spaces.act(space, IntShift(a), start)
                   for a in range(window[0], window[1] + 1))


def means(space, start, family, ns, weight, budget=folner.ATOM_BUDGET):
    """(1/|F_n|) * sum over g in F_n of weight(g.start), one Fraction
    per n in `ns`."""
    return _means(space, start, family, [(n, None) for n in ns], weight,
                  budget)


def translate_means(space, start, family, n, translates, weight,
                    budget=folner.ATOM_BUDGET):
    """The same mean over F_n.t, one Fraction per right translate t."""
    folner.cardinality(family, n, budget)  # checked even with no translates
    return _means(space, start, family, [(n, t) for t in translates],
                  weight, budget)


def _means(space, start, family, requests, weight, budget):
    sets = []
    for n, t in requests:
        size = folner.cardinality(family, n, budget)
        base, k = folner.resolve(family, n)
        sets.append((size, k, t, _window(base, k, t)))
    swept = iter(_window_totals(space, start,
                                [w for _, _, _, w in sets if w is not None],
                                weight))
    out = []
    for size, k, t, window in sets:
        if window is None:
            total = sum(weight(img) * c for img, c in
                        _box_images(space, _moved(space, t, start), k).items())
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
    shifts = []
    for lo, hi in sorted(windows):
        if shifts:
            lo = max(lo, shifts[-1] + 1)
        shifts.extend(range(lo, hi + 1))
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
