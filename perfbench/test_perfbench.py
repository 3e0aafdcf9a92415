"""Fast test of the benchmark itself:

    python3 -m pytest perfbench -q

Runs every workload at its tiny size through the command line, traced
and untraced, and checks that each metric of BENCHMARK.json is printed
with its unit; then shows, by patching meandyn in-process, that a wrong
exact result is counted as a failure.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("record ")
    return json.loads(lines[-2][len("record "):]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    record, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert record["failed_frac"] == 0
    assert {"python", "cores", "git_sha", "seed"} <= set(record["env"])


@pytest.mark.parametrize("workload", ["queries", "replay-lamp"])
def test_wrong_exact_result_raises_failed_frac(workload, monkeypatch):
    worker.import_meandyn()
    from meandyn import averaging
    true_cesaro = averaging.cesaro_metric

    def off_by_a_little(*args, **kwargs):
        return true_cesaro(*args, **kwargs) + Fraction(1, 10 ** 6)

    monkeypatch.setattr(averaging, "cesaro_metric", off_by_a_little)
    p = worker.one_pass(workload, 3, time.perf_counter(), tiny=True)
    _, attempted, failed, record = run.summarize([p], [p["setup_s"]])
    assert failed > 0 and record["failed_frac"] == failed / attempted > 0


def test_wrong_flow_route_w1_is_caught(monkeypatch):
    """A wrong answer from W1's flow route fails its queries against the
    benchmark's own transport solver, and nothing else fails."""
    worker.import_meandyn()
    from meandyn import measures
    true_flow = measures._w1_flow

    def off_by_a_little(*args, **kwargs):
        return true_flow(*args, **kwargs) + Fraction(1, 10 ** 6)

    monkeypatch.setattr(measures, "_w1_flow", off_by_a_little)
    p = worker.one_pass("queries", 3, time.perf_counter(), tiny=True)
    assert p["failed"] > 0
    assert all(label.startswith("w1 ") for label in p["failures"])
