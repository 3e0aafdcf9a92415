"""Folner families for the integers and the lamplighter group.

Integer families are windows; the lamplighter family is the box of all
elements whose shift and toggle sites live in A_n = {n, ..., 2n}, of
cardinality (n+1) * 2^(n+1).  All set statistics are exact rationals.
"""

from dataclasses import dataclass
from fractions import Fraction

from .groups import INTEGERS, LAMPLIGHTER, IntShift, Lamp, multiply

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


@dataclass(frozen=True)
class Interleaved:
    families: tuple


@dataclass(frozen=True)
class Subsequence:
    base: object
    indices: tuple


def interleave(families):
    families = tuple(families)
    groups = {group_of_family(f) for f in families}
    if len(groups) != 1:
        raise ValueError("interleaving families of different groups")
    return Interleaved(families)


def group_of_family(family):
    if isinstance(family, LampBox):
        return LAMPLIGHTER
    if isinstance(family, (ZInitial, ZCentered, ZShifted)):
        return INTEGERS
    if isinstance(family, Interleaved):
        return group_of_family(family.families[0])
    if isinstance(family, Subsequence):
        return group_of_family(family.base)
    raise TypeError("not a Folner family: %r" % (family,))


def _split_interleaved(family, n):
    # round-robin blocks: index k*c + i picks component i at stage k
    c = len(family.families)
    i = (n - 1) % c + 1
    k = (n - i) // c
    return family.families[i - 1], max(k, 1)


def cardinality(family, n, budget=ATOM_BUDGET):
    if n < 1:
        raise ValueError("Folner index must be >= 1")
    if isinstance(family, ZInitial):
        size = n
    elif isinstance(family, ZCentered):
        size = 2 * n + 1
    elif isinstance(family, ZShifted):
        size = n + 1
    elif isinstance(family, LampBox):
        size = (n + 1) * 2 ** (n + 1)
    elif isinstance(family, Interleaved):
        base, k = _split_interleaved(family, n)
        return cardinality(base, k, budget)
    elif isinstance(family, Subsequence):
        return cardinality(family.base, family.indices[n - 1], budget)
    else:
        raise TypeError("not a Folner family: %r" % (family,))
    if budget is not None and size > budget:
        raise BudgetError("|F_%d| = %d exceeds budget %d" % (n, size, budget))
    return size


def resolve(family, n):
    """The plain family and index whose set is the n-th set of `family`:
    interleaved and subsequence families unwrap to one of the four
    window families.  Call `cardinality` first to check the index."""
    while True:
        if isinstance(family, Interleaved):
            family, n = _split_interleaved(family, n)
        elif isinstance(family, Subsequence):
            family, n = family.base, family.indices[n - 1]
        else:
            return family, n


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
    family, n = resolve(family, n)
    window = shift_window(family, n)
    if window is not None:
        return [IntShift(a) for a in range(window[0], window[1] + 1)]
    sites = list(range(n, 2 * n + 1))
    out = []
    for a in sites:
        for mask in range(2 ** len(sites)):
            lamps = tuple(s for i, s in enumerate(sites) if mask >> i & 1)
            out.append(Lamp(a, lamps))
    return out


def defect(family, n, K, budget=ATOM_BUDGET):
    """|K.F_n \\ F_n| / |F_n|, exact.

    The one-sided boundary is the quantity the lamplighter bound below
    controls, and it vanishes iff the family is Folner for K.
    """
    F = elements(family, n, budget)
    Fset = set(F)
    moved = {multiply(k, f) for k in K for f in F}
    return Fraction(len(moved - Fset), len(F))


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
