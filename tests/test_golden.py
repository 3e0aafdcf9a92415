"""Output goldens.  `meandyn detect` for every registered pair at the
quick profile must print exactly the committed output, every exact
score included; regenerate it from `detect_all("quick")` only for a
change that is meant to move a score.  `meandyn reproduce --profile
quick --format json --system S` must print exactly the benchmark's
reference for S, which this suite only reads."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from meandyn import cli, gallery, spaces

GOLDEN = Path(__file__).parent / "golden" / "detect_quick.json"
REFERENCE = Path(__file__).parent.parent / "perfbench" / "reference"


def _printed(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def detect_all(profile):
    out = {}
    for name, system in sorted(gallery.SYSTEMS.items()):
        for case in system.cases:
            pair = spaces.render_point(case.pair)
            code, text = _printed(["detect", "--system", name, "--pair", pair,
                                   "--profile", profile])
            assert code == 0, (name, pair)
            out["%s %s" % (name, pair)] = json.loads(text)
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def test_detect_quick_matches_golden():
    want = GOLDEN.read_text()
    assert len(json.loads(want)) == 13
    assert detect_all("quick") == want


@pytest.mark.parametrize("system", sorted(gallery.SYSTEMS))
def test_reproduce_quick_matches_reference(system):
    code, text = _printed(["reproduce", "--profile", "quick", "--format",
                           "json", "--system", system])
    assert code == 0
    assert text == (REFERENCE / ("%s.json" % system)).read_text()
