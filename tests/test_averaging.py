from fractions import Fraction

import pytest

from meandyn.averaging import (besicovitch_profile, cesaro_metric, mec_probe,
                               profile_to_csv)
from meandyn.folner import LampBox, ZCentered, ZInitial, ZShifted
from meandyn.gallery import (LAMPLIGHTER, LAMPLIGHTER_Z, MINF2, THREE_GLUED,
                             TWO_POINT, UP_INF, down, up)
from meandyn.spaces import Point, act, metric
from meandyn import folner


def test_cesaro_matches_direct_sum():
    # oracle: sum the metric by hand over the enumerated set
    for fam, n in [(ZInitial(), 17), (ZCentered(), 9), (ZShifted(), 13)]:
        els = folner.elements(fam, n)
        x, y = Point(-3, 1), Point(2, 1)
        direct = sum(metric(TWO_POINT, act(TWO_POINT, g, x),
                            act(TWO_POINT, g, y)) for g in els)
        assert cesaro_metric(TWO_POINT, x, y, fam, n) \
            == direct / Fraction(len(els))


def test_cesaro_lamplighter_direct_sum():
    els = folner.elements(LampBox(), 4)
    x, y = up(3), down(5)
    direct = sum(metric(LAMPLIGHTER, act(LAMPLIGHTER, g, x),
                        act(LAMPLIGHTER, g, y)) for g in els)
    assert cesaro_metric(LAMPLIGHTER, x, y, LampBox(), 4) \
        == direct / Fraction(len(els))


@pytest.mark.parametrize("n", range(6, 11))
def test_box_average_equals_pure_shift_average(n):
    # lamps left of the window are never toggled, so only the shift acts
    assert cesaro_metric(LAMPLIGHTER, up(3), down(5), LampBox(), n) \
        == cesaro_metric(LAMPLIGHTER, up(3), down(5), ZShifted(), n)


def test_profile_tail_and_stabilization():
    prof = besicovitch_profile(LAMPLIGHTER_Z, up(0), down(0), ZShifted(),
                               (1, 40))
    assert prof.tail_sup == 1 and prof.stabilized
    prof2 = besicovitch_profile(LAMPLIGHTER_Z, up(0), up(7), ZShifted(),
                                (1, 120))
    assert prof2.tail_sup < Fraction(1, 50)
    assert len(prof2.values) == 120
    assert prof2.rows()[0][0] == 1


def test_mec_probe_consistent():
    rep = mec_probe(LAMPLIGHTER_Z, ZShifted(), UP_INF,
                    [up(2), up(5), up(10), up(20)],
                    epsilon=Fraction(1, 100), window=(1, 120))
    assert rep.verdict == "CONSISTENT-WITH-MEC"
    assert rep.witness is None


def test_mec_probe_violation():
    # both legs converge to the shared lower limit, but their orbits
    # spend most of the time a fixed distance apart
    approach = [(Point(-2, 3), Point(-2, 2)), (Point(-4, 3), Point(-4, 2)),
                (Point(-8, 3), Point(-8, 2))]
    rep = mec_probe(THREE_GLUED, ZInitial(), MINF2, approach,
                    epsilon=Fraction(1, 10), window=(1, 60))
    assert rep.verdict == "VIOLATION"
    assert rep.witness is not None


def test_mec_probe_rejects_divergent_approach():
    with pytest.raises(ValueError):
        mec_probe(LAMPLIGHTER_Z, ZShifted(), UP_INF, [up(2), down(5)],
                  window=(1, 20))


def test_mec_probe_compares_distances_exactly():
    # the last point is farther from the limit than the first, by less
    # than 1e-12
    far, near = up(10 ** 12), up(10 ** 13)
    gap = metric(LAMPLIGHTER_Z, far, UP_INF) - metric(LAMPLIGHTER_Z, near, UP_INF)
    assert 0 < gap < Fraction(1, 10 ** 12)
    with pytest.raises(ValueError, match="converge"):
        mec_probe(LAMPLIGHTER_Z, ZShifted(), UP_INF, [near, far],
                  window=(1, 4))


def test_mec_probe_rejects_an_empty_approach():
    with pytest.raises(ValueError, match="empty approach"):
        mec_probe(LAMPLIGHTER_Z, ZShifted(), UP_INF, [], window=(1, 4))


def test_csv_export(tmp_path):
    prof = besicovitch_profile(TWO_POINT, Point(0, 1), Point(3, 1),
                               ZInitial(), (1, 5))
    out = tmp_path / "profile.csv"
    profile_to_csv(prof, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,average,average_float"
    assert len(lines) == 6


def test_profile_rejects_an_inverted_window():
    with pytest.raises(ValueError, match=r"window \(5, 3\) is empty"):
        besicovitch_profile(TWO_POINT, Point(0, 1), Point(3, 1), ZInitial(),
                            (5, 3))


def test_mec_probe_rejects_an_inverted_window():
    with pytest.raises(ValueError, match=r"window \(5, 3\) is empty"):
        mec_probe(LAMPLIGHTER_Z, ZShifted(), UP_INF, [up(2), up(5)],
                  window=(5, 3))
