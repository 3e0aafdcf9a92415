"""Hitting sets of a pair into a neighborhood of the square: the share
of a given list of group elements, and the two finite density readings,
along the family itself and over right translates of a fixed window
shape.  All three read the pushforward kernel.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import folner, pushforward


@dataclass
class HittingRecord:
    ratio: Fraction
    count: int
    total: int


def hitting_density(space, pair, nbhd, elements):
    """Share of `elements`, counted with repeats, sending the pair into
    the neighborhood, read from the pushforward kernel
    (`pushforward.hit_count`): one membership test per distinct image."""
    els = list(elements)
    if not els:
        raise ValueError("elements is empty: hitting_density needs a "
                         "non-empty element list")
    count = pushforward.hit_count(space, pair, nbhd, els)
    return HittingRecord(Fraction(count, len(els)), count, len(els))


@dataclass
class DensityProfile:
    window: tuple
    ratios: list          # Fractions, one per n in the window
    tail_max: Fraction    # max over the upper half; finite limsup proxy


def hitting_ratios(space, pair, nbhd, family, ns, budget=folner.ATOM_BUDGET):
    """|hits in F_n| / |F_n| for each n in `ns`, read from the
    pushforward kernel with no element built."""
    return pushforward.hit_means(space, pair, nbhd, family,
                                 [(n, None) for n in ns], budget)


def ua_dens_estimate(space, pair, nbhd, family, window, budget=folner.ATOM_BUDGET):
    """Upper density along the family: |hits in F_n| / |F_n| per n."""
    lo, hi = window
    ratios = hitting_ratios(space, pair, nbhd, family,
                            folner.window_indices(window), budget)
    return DensityProfile((lo, hi), ratios, max(ratios[len(ratios) // 2:]))


def ub_dens_estimate(space, pair, nbhd, shape, n, translates,
                     budget=folner.ATOM_BUDGET):
    """Upper Banach reading: best density over right translates F_n.g
    of one window shape.  Searching finitely many translates gives an
    estimate from below of the Banach density.  `argmax` is the first
    translate reaching the best density, None when every density is 0."""
    translates = list(translates)
    size = folner.cardinality(shape, n, budget)  # checked with no translates
    # every translate has |F_n| elements, so their hit counts compare
    totals = pushforward.hit_totals(space, pair, nbhd, shape,
                                    [(n, t) for t in translates], budget)
    best, argmax = 0, None
    for t, total in zip(translates, totals):
        if total > best:
            best, argmax = total, t
    return {"sup": Fraction(best, size), "argmax": argmax, "shape_n": n,
            "translates": len(translates)}
