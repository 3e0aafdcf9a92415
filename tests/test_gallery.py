from pathlib import Path

import pytest

from meandyn import cli, gallery
from meandyn.relations import POSITIVE

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

GOLDEN_HULLS = {"two-point": gallery.two_point_expected_hull,
                "three-glued": gallery.three_glued_expected_hull}


@pytest.mark.parametrize("name", sorted(gallery.SYSTEMS))
def test_quick_reproduce_json_matches_reference(name, capsys):
    code = cli.main(["reproduce", "--profile", "quick", "--format", "json",
                     "--system", name])
    assert code == 0
    want = (REFERENCE / ("%s.json" % name)).read_text()
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name", sorted(n for n, s in gallery.SYSTEMS.items()
                                         if s.model is not None))
def test_hull_is_seeded_by_certified_pairs(name):
    system = gallery.SYSTEMS[name]
    assert system.hull() == GOLDEN_HULLS[name]()
    schedule = system.schedule(gallery.QUICK)
    seeds = [c for c in system.cases if c.pair[0] != c.pair[1]]
    assert seeds
    for case in seeds:
        certs = case.run(system.space, schedule)
        assert list(certs) == list(gallery.DETECTORS)
        assert all(c.verdict == POSITIVE for c in certs.values()), case.pair


def test_build_and_unknown_system():
    assert gallery.build("two-point") is gallery.TWO_POINT
    with pytest.raises(ValueError):
        gallery.build("nonsense")
    with pytest.raises(ValueError):
        gallery.verify("nonsense")
    with pytest.raises(ValueError, match=r"'bogus'; have \['full', 'quick'\]"):
        gallery.verify("two-point", "bogus")
