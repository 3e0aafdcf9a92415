"""meandyn benchmark.

    python3 perfbench/run.py --workload {replay-z,replay-lamp,queries}
        --seed N --seconds S --trace {0,1} [--tiny]

One caller, one thread, closed loop: each pass runs in a fresh
interpreter (`worker.py`), because command-line users pay meandyn's
cold caches on every invocation.  With `--trace 0`, passes run back to
back while the next one is expected to end within `--seconds` (at least
one pass), with `SETUP_PROBES` set-up-only starts split between the
start and the end of the run; the end-to-end metrics are printed.  With
`--trace 1`, one untraced and one traced pass run and the per-layer
metrics are printed, with the spans written to `.perfbench_out/`.
`--tiny` shrinks every workload for the fast test.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  The line before it is a record of the run: the
environment, the sample count behind every median and tail, the
failure fraction and the digest of all exact results.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("replay-z", "replay-lamp", "queries")
SETUP_PROBES = 24
CHILD_TIMEOUT = 170
# highest level with at least ten samples beyond it wins
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

perf = time.perf_counter


class BenchError(RuntimeError):
    pass


def child(workload, seed, *flags):
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed)] + list(flags)
    t0 = perf()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("pass exceeded %d s" % CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError("worker failed (%d): %s"
                         % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_level(n):
    for level in TAIL_LEVELS:
        if n * (1 - level / 100) >= 10:
            return level
    return 100.0


def percentile(values, level):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(level / 100 * len(s)) - 1)]


def git_sha():
    """HEAD of this checkout, or "unknown" outside a git checkout (the
    `.git` test keeps git from answering for an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def tally(passes):
    """(attempted, failed) over passes of the same inputs.  The first
    pass was checked; a later pass fails as a whole unless its digest
    equals the first one's."""
    first = passes[0]
    failed = first["failed"] + sum(first["attempted"] for p in passes[1:]
                                   if p["digest"] != first["digest"])
    return first["attempted"] * len(passes), failed


def summarize(passes, setups):
    """End-to-end metrics, failure counts and sample counts of the
    untraced passes of one run."""
    walls = [p["wall_s"] for p in passes]
    per_pass = len(passes[0]["latencies"])
    level = tail_level(per_pass)
    attempted, failed = tally(passes)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
        "queries_per_s": (per_pass / statistics.median(walls), "1/s"),
        "query_p50_ms": (statistics.median(
            1e3 * statistics.median(p["latencies"]) for p in passes), "ms"),
        "query_tail_ms": (statistics.median(
            1e3 * percentile(p["latencies"], level) for p in passes), "ms"),
    }
    record = {
        "samples": {"passes": len(passes), "setup": len(setups),
                    "requests_per_pass": per_pass,
                    "latencies": per_pass * len(passes)},
        "wall_tail_s": max(walls),
        "query_tail_percentile": level,
        "failed_frac": failed / attempted,
        "digests": sorted({p["digest"] for p in passes}),
        "failures": passes[0]["failures"],
    }
    return metrics, attempted, failed, record


def probe_setups(workload, seed, extra, count):
    return [child(workload, seed, "--setup-only", *extra)["setup_s"]
            for _ in range(count)]


def measure(workload, seed, seconds, tiny):
    extra = ["--tiny"] if tiny else []
    # half the set-up probes before the passes and half after, so that
    # their median spans the run rather than its first seconds
    setups = probe_setups(workload, seed, extra, SETUP_PROBES // 2)
    passes = []
    start = perf()
    while True:
        t = perf()
        passes.append(child(workload, seed, *extra,
                            *(["--no-check"] if passes else [])))
        last = perf() - t
        if perf() - start + last > seconds:
            break
    setups += probe_setups(workload, seed, extra, SETUP_PROBES // 2)
    setups += [p["setup_s"] for p in passes]
    return summarize(passes, setups)


def measure_traced(workload, seed, tiny):
    extra = ["--tiny"] if tiny else []
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-seed%d.jsonl" % (workload, seed))
    base = child(workload, seed, *extra)
    traced = child(workload, seed, "--trace", "--spans", str(spans),
                   "--no-check", *extra)
    metrics = {k: (v["value"], v["unit"]) for k, v in traced["layers"].items()}
    metrics["trace.overhead_frac"] = (traced["wall_s"] / base["wall_s"] - 1,
                                      "ratio")
    attempted, failed = tally([base, traced])
    record = {
        "samples": {"passes": 1, "traced_passes": 1,
                    "requests_per_pass": len(traced["latencies"])},
        "untraced_wall_s": base["wall_s"], "traced_wall_s": traced["wall_s"],
        "spans": traced["spans"], "spans_file": str(spans.relative_to(ROOT)),
        "failed_frac": failed / attempted,
        "digests": sorted({base["digest"], traced["digest"]}),
        "failures": base["failures"],
    }
    return metrics, attempted, failed, record


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "meandyn" / "__init__.py").is_file():
        print("error: no meandyn sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    try:
        if a.trace:
            metrics, attempted, failed, record = measure_traced(
                a.workload, a.seed, a.tiny)
        else:
            metrics, attempted, failed, record = measure(
                a.workload, a.seed, a.seconds, a.tiny)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    record["env"] = {"python": platform.python_version(),
                     "cores": os.cpu_count(), "git_sha": git_sha(),
                     "workload": a.workload, "seed": a.seed,
                     "seconds": a.seconds, "trace": a.trace, "tiny": a.tiny}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
