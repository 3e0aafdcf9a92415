"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --t0 T
        [--setup-only] [--trace --spans PATH] [--tiny] [--no-check]

`--t0` is the parent's `time.perf_counter()` just before it started
this process (the clock is system-wide on Linux), so `setup_s` covers
interpreter start, imports, space and target construction and input
generation.  The pass is timed request by request; the outputs are
checked afterwards, outside the timed region, unless `--no-check`
leaves that to a comparison of the digest with a checked pass.  The
last line of stdout is one JSON object.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

perf = time.perf_counter


def import_meandyn():
    """Import meandyn from this checkout's `src`, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import meandyn
    where = Path(meandyn.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise ImportError("meandyn imported from %s, not %s" % (where, SRC))
    return meandyn


def metric_cache_counts(meandyn):
    """(hits, misses) of `spaces._metric1`, or (0, 0) without it."""
    cached = getattr(meandyn.spaces, "_metric1", None)
    if not hasattr(cached, "cache_info"):
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


def run_pass(workload, requests, tracer=None):
    """Run every request once; returns (results, latencies, wall)."""
    import workloads
    results, latencies = [], []
    start = perf()
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.op = i
        t0 = perf()
        try:
            result = workloads.run_request(workload, request)
        except Exception as exc:  # counted as a failed request
            result = exc
        latencies.append(perf() - t0)
        results.append(result)
    return results, latencies, perf() - start


def check_pass(workload, requests, results):
    """(attempted, failed, labels of failed requests)."""
    import workloads
    attempted = failed = 0
    bad = []
    for request, result in zip(requests, results):
        a, f = workloads.check(workload, request, result)
        attempted += a
        failed += f
        if f:
            bad.append(request.label() if workload == "queries" else request)
    return attempted, failed, bad


def one_pass(workload, seed, t0, trace=False, tiny=False, spans=None,
             setup_only=False, check=True):
    meandyn = import_meandyn()
    import tracing
    import workloads
    requests = workloads.make_requests(workload, seed, tiny)
    out = {"setup_s": perf() - t0}
    if setup_only:
        return out
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        hits0, misses0 = metric_cache_counts(meandyn)
        tracer.install(meandyn)
    try:
        results, latencies, wall = run_pass(workload, requests, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        hits1, misses1 = metric_cache_counts(meandyn)
        out["layers"] = tracer.layer_metrics(hits1 - hits0, misses1 - misses0)
        out["spans"] = len(tracer.spans)
        if spans:
            tracer.write_spans(spans)
    out.update(wall_s=wall, latencies=latencies,
               digest=workloads.digest(workload, requests, results))
    if check:
        attempted, failed, bad = check_pass(workload, requests, results)
        out.update(attempted=attempted, failed=failed, failures=bad[:10])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--no-check", action="store_true")
    a = ap.parse_args(argv)
    out = one_pass(a.workload, a.seed, a.t0, a.trace, a.tiny, a.spans,
                   a.setup_only, not a.no_check)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
