import json
import subprocess
import sys

import pytest


def run(*args):
    return subprocess.run([sys.executable, "-m", "meandyn.cli", *args],
                          capture_output=True, text=True)


def test_folner_json():
    r = run("folner", "--family", "lamp-box", "--n", "2",
            "--list", "--defect", "s^1 t{}", "--bound", "s^1 t{}")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["cardinality"] == 3 * 2 ** 3
    assert len(out["elements"]) == 24
    assert out["defect"]["fraction"] == out["lamp_defect_bound"]["fraction"]


def test_avg_and_csv(tmp_path):
    csv = tmp_path / "out.csv"
    r = run("avg", "--system", "lamplighter-z", "--x", "up_0", "--y", "up_7",
            "--family", "z-shifted", "--window", "1", "30", "--csv", str(csv))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out["values"]) == 30
    assert csv.read_text().startswith("n,average,average_float")


def test_density_command():
    r = run("density", "--system", "two-point", "--pair=-3^1;-inf^1",
            "--center", "+inf^1;-inf^1", "--radius", "0.2",
            "--family", "z-initial", "--window", "1", "60")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["tail_max"]["float"] > 0.8


# the start itself, at distance 0, is the only hit in F_1, F_2 and F_3
DENSITY_AT_START = ["density", "--system", "two-point", "--pair", "0^1;0^1",
                    "--center", "0^1;0^1", "--family", "z-initial",
                    "--window", "1", "3"]


def test_density_small_radius_is_read_exactly(capsys):
    from meandyn import cli
    assert cli.main(DENSITY_AT_START + ["--radius", "1e-7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["fraction"] for r in out["ratios"]] == ["1", "1/2", "1/3"]


def test_density_radius_may_be_a_fraction(capsys):
    from meandyn import cli
    outputs = []
    for radius in ("1/5", "0.2"):
        assert cli.main(DENSITY_AT_START + ["--radius", radius]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("radius", ["nan", "inf", "junk", "1/0", "-1", "0"])
def test_density_radius_must_be_a_number(radius, capsys):
    from meandyn import cli
    with pytest.raises(SystemExit) as exc:      # rejected by argparse
        cli.main(DENSITY_AT_START + ["--radius", radius])
    assert exc.value.code == 2
    assert "--radius" in capsys.readouterr().err


def test_measure_command():
    r = run("measure", "--system", "two-point", "--start", "0^1",
            "--family", "z-centered", "--n", "3")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert len(out["measure"]["atoms"]) == 7


def test_detect_registered_pair():
    r = run("detect", "--system", "two-point", "--pair", "+inf^1;-inf^1",
            "--relation", "qrms_f")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["certificates"]["qrms_f"]["verdict"] == "POSITIVE"


def test_detect_unregistered_pair_is_usage_error():
    r = run("detect", "--system", "two-point", "--pair", "0^1;1^1")
    assert r.returncode == 2
    assert "error" in r.stderr


def test_icer_command():
    r = run("icer", "--system", "three-glued")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert ["minf1", "pinf2"] in out["hull"]
    assert ["o1", "o2"] not in out["hull"]


def test_budget_exit_code():
    r = run("folner", "--family", "lamp-box", "--n", "40")
    assert r.returncode == 3
    assert "budget" in r.stderr


def test_detect_honours_budget():
    r = run("detect", "--system", "two-point", "--pair", "+inf^1;-inf^1",
            "--budget", "1")
    assert r.returncode == 3
    assert "budget" in r.stderr


@pytest.mark.parametrize("cmd", [["reproduce"],
                                 ["icer", "--system", "two-point"]])
def test_budget_is_rejected_where_unused(cmd):
    r = run(*cmd, "--budget", "1")
    assert r.returncode == 2
    assert "unrecognized arguments: --budget" in r.stderr


def test_reproduce_quick_and_determinism():
    r1 = run("reproduce", "--profile", "quick", "--format", "json")
    r2 = run("reproduce", "--profile", "quick", "--format", "json")
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    out = json.loads(r1.stdout)
    assert out["overall"] == "MATCH"
    assert len(out["systems"]) == 5


def test_reproduce_single_system_table():
    r = run("reproduce", "--system", "literature-dock")
    assert r.returncode == 0
    assert r.stdout.strip().endswith("overall: MATCH")


AVG = ["avg", "--system", "lamplighter-z", "--x", "up_0", "--y", "up_7",
       "--family", "z-shifted", "--window", "1", "5"]


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    from meandyn import averaging, cli

    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(averaging, "besicovitch_profile", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(AVG)


def test_unwritable_csv_is_a_usage_error(tmp_path, capsys):
    from meandyn import cli
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        assert cli.main(AVG + ["--csv", str(path)]) == 2
        err = capsys.readouterr().err
        assert "--csv" in err and str(path) in err


@pytest.mark.parametrize("argv", [
    AVG,
    DENSITY_AT_START,
    ["measure", "--system", "two-point", "--start", "0^1",
     "--family", "z-centered", "--n", "3"],
], ids=["avg", "density", "measure"])
def test_family_must_act_on_the_system(argv, capsys):
    from meandyn import cli
    argv = list(argv)
    argv[argv.index("--family") + 1] = "lamp-box"
    system = argv[argv.index("--system") + 1]
    assert cli.main(argv) == 2
    assert ("family 'lamp-box' does not act on %s" % system
            in capsys.readouterr().err)


def test_bad_user_input_is_a_usage_error(capsys):
    from meandyn import cli
    bad_point = list(AVG)
    bad_point[AVG.index("up_0")] = "up_x"
    assert cli.main(bad_point) == 2
    assert "cannot read 'up_x'" in capsys.readouterr().err
    unknown = list(AVG)
    unknown[AVG.index("lamplighter-z")] = "no-such-system"
    assert cli.main(unknown) == 2
    box_on_z = list(AVG)
    box_on_z[AVG.index("z-shifted")] = "lamp-box"
    assert cli.main(box_on_z) == 2
    assert cli.main(["folner", "--family", "lamp-box", "--n", "2",
                     "--defect", "s^1 t{3,2}"]) == 2
    assert cli.main(AVG[:-2] + ["5", "1"]) == 2
    with pytest.raises(SystemExit) as exc:      # rejected by argparse
        cli.main(AVG[:-2] + ["0", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["detect", "--system", "two-point", "--relation", "qrms_f",
     "--pair", "-inf^1;+inf^1"],
    ["density", "--system", "two-point", "--pair", "-3^1;-inf^1",
     "--center", "-inf^1;-inf^1", "--radius", "0.2",
     "--family", "z-initial", "--window", "1", "30"],
])
def test_point_value_may_start_with_a_dash(args):
    joined = list(args)
    for option in ("--pair", "--center"):
        if option in joined:
            i = joined.index(option)
            joined[i:i + 2] = [option + "=" + joined[i + 1]]
    separate, equals = run(*args), run(*joined)
    assert separate.returncode == equals.returncode == 0
    assert separate.stdout == equals.stdout


def test_unknown_option_is_still_a_usage_error():
    r = run("detect", "--system", "two-point", "--pair", "-inf^1;+inf^1",
            "--no-such-option", "-1")
    assert r.returncode == 2
    assert "unrecognized arguments" in r.stderr
    r = run("detect", "--system", "two-point", "--pair", "--profile", "quick")
    assert r.returncode == 2
    assert "expected one argument" in r.stderr
