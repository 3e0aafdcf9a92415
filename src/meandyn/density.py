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
    folner.cardinality(shape, n, budget)  # checked even with no translates
    ratios = pushforward.hit_means(space, pair, nbhd, shape,
                                   [(n, t) for t in translates], budget)
    best = (Fraction(0), None)
    for t, r in zip(translates, ratios):
        if r > best[0]:
            best = (r, t)
    return {"sup": best[0], "argmax": best[1], "shape_n": n,
            "translates": len(translates)}
