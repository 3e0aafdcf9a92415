"""Folner families for the integers and the lamplighter group.

Integer families are windows; the lamplighter family is the box of all
elements whose shift and toggle sites live in A_n = {n, ..., 2n}, of
cardinality (n+1) * 2^(n+1).  All set statistics are exact rationals.

The defect |K.F_n \\ F_n| / |F_n| is computed in closed form, with no
element built:

* an integer window F_n = [lo, hi] moves to the union of the windows
  [lo+k, hi+k], k in K; the defect counts that union's shifts outside
  [lo, hi];
* for k in K and f = shift^b toggles(L) in the box, b in A_n and L a
  subset of A_n, the product is k.f = shift^(k.a+b) toggles((k.lamps+b)
  xor L).  Its toggles outside A_n are E = (k.lamps+b) \\ A_n, which b
  alone fixes, and inside A_n they run over every subset as L does.  So
  k.F_n is a disjoint union of classes C(c, E) = {shift^c toggles(E | S)
  : S subset of A_n} of 2^(n+1) elements each, F_n is the union of the
  classes C(c, {}) for c in A_n, and the defect is the number of classes
  (k.a+b, E) outside F_n, divided by n+1.  That costs O(|K| n) where
  enumeration costs O(|K| n 2^n).

`elements` still enumerates: it is the reference the closed form is
tested against, and what `folner --list` prints.
"""

from dataclasses import dataclass
from fractions import Fraction

from .groups import INTEGERS, LAMPLIGHTER, GroupMismatchError, IntShift, Lamp

ATOM_BUDGET = 4_000_000


class BudgetError(RuntimeError):
    pass


@dataclass(frozen=True)
class ZInitial:
    """{0, ..., n-1}"""


@dataclass(frozen=True)
class ZCentered:
    """{-n, ..., n}"""


@dataclass(frozen=True)
class ZShifted:
    """A_n = {n, ..., 2n}"""


@dataclass(frozen=True)
class LampBox:
    """{ shift^a toggles(b) : {a} | b  subset of  A_n }"""


def group_of_family(family):
    if isinstance(family, LampBox):
        return LAMPLIGHTER
    if shift_window(family, 1) is not None:
        return INTEGERS
    raise TypeError("not a Folner family: %r" % (family,))


def cardinality(family, n, budget=ATOM_BUDGET):
    if n < 1:
        raise ValueError("Folner index must be >= 1")
    window = shift_window(family, n)
    if window is not None:
        size = window[1] - window[0] + 1
    elif isinstance(family, LampBox):
        size = (n + 1) * 2 ** (n + 1)
    else:
        raise TypeError("not a Folner family: %r" % (family,))
    if budget is not None and size > budget:
        raise BudgetError("|F_%d| = %d exceeds budget %d" % (n, size, budget))
    return size


def window_indices(window):
    """The Folner indices lo..hi of a window (lo, hi), as a range; an
    inverted window, with nothing in it, raises a ValueError naming it."""
    lo, hi = window
    if lo > hi:
        raise ValueError("window %r is empty: it needs lo <= hi" % ((lo, hi),))
    return range(lo, hi + 1)


def union(windows):
    """The union of integer ranges (lo, hi), as sorted disjoint ranges."""
    out = []
    for lo, hi in sorted(windows):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def shift_window(family, n):
    """The shifts (lo, hi) that make up the n-th set of an integer
    window family, or None for a family that is not one."""
    if isinstance(family, ZInitial):
        return 0, n - 1
    if isinstance(family, ZCentered):
        return -n, n
    if isinstance(family, ZShifted):
        return n, 2 * n
    return None


def elements(family, n, budget=ATOM_BUDGET):
    """The n-th set, in a fixed deterministic order."""
    cardinality(family, n, budget)
    window = shift_window(family, n)
    if window is not None:
        return [IntShift(a) for a in range(window[0], window[1] + 1)]
    sites = range(n, 2 * n + 1)
    toggles = [tuple(s for i, s in enumerate(sites) if mask >> i & 1)
               for mask in range(2 ** len(sites))]
    return [Lamp(a, lamps) for a in sites for lamps in toggles]


def defect(family, n, K, budget=ATOM_BUDGET):
    """|K.F_n \\ F_n| / |F_n|, exact, in closed form (see the module
    docstring).

    The one-sided boundary is the quantity the lamplighter bound below
    controls, and it vanishes iff the family is Folner for K.
    """
    cardinality(family, n, budget)
    window = shift_window(family, n)
    if window is None:
        return _box_defect(n, K)
    return _window_defect(*window, K)


def _window_defect(lo, hi, K):
    moved = union([(lo + k, hi + k)
                   for k in {_checked(k, IntShift(lo)).a for k in K}])
    outside = sum(b - a + 1 - max(0, min(b, hi) - max(a, lo) + 1)
                  for a, b in moved)
    return Fraction(outside, hi - lo + 1)


def _box_defect(n, K):
    classes = set()
    for k in K:
        _checked(k, Lamp(n, ()))
        for b in range(n, 2 * n + 1):
            escaped = tuple(d + b for d in k.lamps if not n <= d + b <= 2 * n)
            if escaped or not n <= k.a + b <= 2 * n:
                classes.add((k.a + b, escaped))
    return Fraction(len(classes), n + 1)


def _checked(k, first):
    """k itself, if it is an element of the group of `first`, the first
    element of F_n; otherwise the error multiply(k, first) raises."""
    if not isinstance(k, type(first)):
        raise GroupMismatchError("cannot multiply %r and %r" % (k, first))
    return k


def lamp_defect_bound(g, n):
    """Site-by-site overflow bound on the LampBox defect of {g}."""
    if not isinstance(g, Lamp):
        raise TypeError("bound is for lamplighter elements, got %r" % (g,))
    window = set(range(n, 2 * n + 1))
    total = Fraction(0)
    for d in set(g.lamps) | {g.a}:
        escaped = sum(1 for s in window if s + d not in window)
        total += Fraction(escaped, len(window))
    return total
