"""Cesaro averages of the orbit distance along Folner sets, finite
profiles for the induced mean pseudometrics, and a probe for mean
equicontinuity at a point.
"""

import csv
from dataclasses import dataclass, field
from fractions import Fraction

from . import folner, pushforward
from .relations import exact_text
from .spaces import metric

def cesaro_metric(space, x, y, family, n, budget=folner.ATOM_BUDGET):
    """(1/|F_n|) * sum over g in F_n of d(g.x, g.y), exact; in closed
    form on an integer window (`pushforward.distance_means`)."""
    return pushforward.distance_means(space, (x, y), family, [n], budget)[0]


@dataclass
class AverageProfile:
    family: object
    pair: tuple
    window: tuple
    values: list = field(default_factory=list)   # Fractions, one per n
    tail_sup: Fraction = Fraction(0)
    stabilized: bool = False

    def rows(self):
        lo, _ = self.window
        return [(lo + i, v) for i, v in enumerate(self.values)]


def besicovitch_profile(space, x, y, family, window, budget=folner.ATOM_BUDGET):
    """Averages for n across the window; the upper-half maximum stands
    in for the limsup."""
    lo, hi = window
    values = [cesaro_metric(space, x, y, family, n, budget)
              for n in folner.window_indices(window)]
    upper = values[len(values) // 2:]
    tail_sup = max(upper)
    quarter = values[3 * len(values) // 4:]
    stabilized = (max(quarter) - min(quarter)) < Fraction(1, 1000)
    return AverageProfile(family, (x, y), (lo, hi), values, tail_sup, stabilized)


@dataclass
class MecReport:
    verdict: str          # CONSISTENT-WITH-MEC | VIOLATION
    epsilon: float
    estimates: list       # (index, distance to limit, tail estimate)
    witness: object       # first violating approach index, if any


def mec_probe(space, family, limit, approach, window, epsilon=Fraction(1, 100),
              budget=folner.ATOM_BUDGET):
    """Mean-equicontinuity probe at `limit`.

    `approach` is a list of points, or of point pairs, converging to
    the limit; each contributes the tail estimate of its Besicovitch
    profile.  Consistency means the estimates die out along the
    approach; a late index whose estimate stays above epsilon is a
    violation witness.
    """
    folner.window_indices(window)
    ests = []
    d_lim = []  # exact distances to the limit; ests carries them as floats
    witness = None
    for k, item in enumerate(approach):
        x, y = item if isinstance(item, tuple) else (item, limit)
        d_lim.append(max(metric(space, x, limit), metric(space, y, limit)))
        prof = besicovitch_profile(space, x, y, family, window, budget)
        ests.append((k, float(d_lim[-1]), prof.tail_sup))
    if not ests:
        raise ValueError("empty approach: mec_probe needs points converging "
                         "to the limit point")
    if d_lim[-1] > Fraction(1, 2) or d_lim[-1] > d_lim[0]:
        raise ValueError("approach does not converge to the limit point")
    tail = ests[len(ests) // 2:]
    for k, _, est in tail:
        if est >= epsilon:
            witness = k
    verdict = "CONSISTENT-WITH-MEC" if witness is None else "VIOLATION"
    return MecReport(verdict, float(epsilon), ests, witness)


def profile_to_csv(profile, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "average", "average_float"])
        for n, v in profile.rows():
            writer.writerow([n, exact_text(v), float(v)])
