"""Certificate goldens: `meandyn detect` for every registered pair at
the quick profile must print exactly the committed output, every exact
score included.  Regenerate it from `detect_all("quick")` only for a
change that is meant to move a score."""

import contextlib
import io
import json
from pathlib import Path

from meandyn import cli, gallery, spaces

GOLDEN = Path(__file__).parent / "golden" / "detect_quick.json"


def detect_all(profile):
    out = {}
    for name, system in sorted(gallery.SYSTEMS.items()):
        for case in system.cases:
            pair = spaces.render_point(case.pair)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["detect", "--system", name, "--pair", pair,
                                 "--profile", profile])
            assert code == 0, (name, pair)
            out["%s %s" % (name, pair)] = json.loads(buf.getvalue())
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def test_detect_quick_matches_golden():
    want = GOLDEN.read_text()
    assert len(json.loads(want)) == 13
    assert detect_all("quick") == want
