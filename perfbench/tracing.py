"""Span tracer that instruments meandyn from outside the package.

`Tracer.install()` replaces the traced functions by wrappers in every
meandyn module that holds them, so calls through a name bound by
`from .spaces import act` are seen as well as calls through
`spaces.act`.  `uninstall()` puts the originals back.

Three kinds of wrapper:

* span:    records (id, parent id, op id, name, start, end) per call and
           keeps the spans in memory until `write_spans`;
* leaf:    the hot inner calls (act, metric, contains, multiply), which
           run millions of times a pass.  They are timed and counted
           like spans, so their time is subtracted from the caller's
           self time, but no span record is kept for each call;
* counter: counts calls only (the two W1 routes), so that the route's
           time stays inside `measures.w1`.

A call to a wrapped function made directly by the same function (the
per-leg recursion of `act` and `contains`) folds into the outer call.
Self time is a call's duration minus the time its traced children
took.
"""

import json
import time
from collections import Counter, defaultdict

perf = time.perf_counter

MODULES = ("spaces", "groups", "folner", "density", "averaging", "measures",
           "relations", "gallery", "cli")

LEAVES = {
    "spaces": ("act", "metric", "contains"),
    "groups": ("multiply",),
}

SPANNED = {
    "folner": ("elements", "defect"),
    "density": ("hitting_density", "ua_dens_estimate", "ub_dens_estimate"),
    "averaging": ("cesaro_metric", "besicovitch_profile"),
    "measures": ("empirical", "w1"),
    "relations": ("detect_qrms_f", "detect_srjms_f", "detect_swsm_f",
                  "detect_qrms_banach", "detect_qrp", "detect_proximal",
                  "forward_closure_negative", "icer_hull"),
    "gallery": ("verify",),
    "cli": ("main",),
}

COUNTED = {"measures": ("_w1_line", "_w1_flow")}

SYSTEMS = ("literature-dock", "lamplighter-z", "lamplighter", "two-point",
           "three-glued")

HITTING = "density.hitting_density"


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        # frame: [name, child seconds, span id, distinct images or None]
        self._stack = [["<root>", 0.0, None, None]]
        self._next_id = 0
        self._patched = []

    # ------------------------------------------------------------ wrappers

    def _timed(self, name, fn, keep_span):
        stack = self._stack
        spans = self.spans
        calls, total, self_time = self.calls, self.total, self.self_time
        images = name == HITTING
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == name:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            frame = [name, 0.0, sid, set() if images else None]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - frame[1]
                if keep_span:
                    spans.append((sid, parent[2], self.op, name, t0, t1))
            if after is not None:
                after(self, frame, parent, args, result, dt)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------- install / undo

    def install(self, package):
        """Patch every meandyn module that holds a traced function."""
        mods = {m: getattr(package, m) for m in MODULES}
        wrapped = {}
        for table, make in ((LEAVES, lambda n, f: self._timed(n, f, False)),
                            (SPANNED, lambda n, f: self._timed(n, f, True)),
                            (COUNTED, self._counter)):
            for mod, names in table.items():
                for fn_name in names:
                    # a private helper that a refactor removed reads 0
                    fn = getattr(mods[mod], fn_name, None)
                    if fn is not None:
                        wrapped[fn] = make("%s.%s" % (mod, fn_name), fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched = []

    # -------------------------------------------------------------- output

    def layer_metrics(self, cache_hits, cache_misses):
        """The per-layer metrics of BENCHMARK.json, from the aggregates."""
        c, s, t, k = self.calls, self.self_time, self.total, self.counts
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for name in ("spaces.act", "spaces.metric", "spaces.contains",
                     "groups.multiply", "folner.elements",
                     "density.hitting_density", "averaging.cesaro_metric",
                     "measures.empirical", "measures.w1"):
            put(name + ".calls", c[name], "count")
            put(name + ".self_s", s[name], "s")
        for name in ("folner.defect", "density.ua_dens_estimate",
                     "density.ub_dens_estimate",
                     "averaging.besicovitch_profile", "cli.main"):
            put(name + ".self_s", s[name], "s")
        lookups = cache_hits + cache_misses
        put("spaces.metric_cache.hit_ratio",
            cache_hits / lookups if lookups else 0.0, "ratio")
        put("folner.elements.items", k["folner.elements.items"], "count")
        visited = k["density.elements_visited"]
        put("density.hitting_density.elements_visited", visited, "count")
        images = k["density.distinct_images"]
        put("density.image_ratio", images / visited if visited else 0.0,
            "ratio")
        put("measures.empirical.atoms", k["measures.empirical.atoms"], "count")
        put("measures.w1.line_calls", c["measures._w1_line"], "count")
        put("measures.w1.flow_calls", c["measures._w1_flow"], "count")
        put("measures.w1.max_atoms", k["measures.w1.max_atoms"], "count")
        for fn_name in SPANNED["relations"]:
            name = "relations." + fn_name
            put(name + ".total_s", t[name], "s")
            put(name + ".self_s", s[name], "s")
        for system in SYSTEMS:
            put("gallery.verify.%s_s" % system,
                t["gallery.verify." + system], "s")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1}))
                fh.write("\n")


# ---------------------------------------------------------- counting hooks

def _after_act(tracer, frame, parent, args, result, dt):
    if parent[3] is not None:
        parent[3].add(result)


def _after_hitting(tracer, frame, parent, args, result, dt):
    tracer.counts["density.elements_visited"] += result.total
    tracer.counts["density.distinct_images"] += len(frame[3])


def _after_elements(tracer, frame, parent, args, result, dt):
    tracer.counts["folner.elements.items"] += len(result)


def _after_empirical(tracer, frame, parent, args, result, dt):
    tracer.counts["measures.empirical.atoms"] += len(result.atoms)


def _after_w1(tracer, frame, parent, args, result, dt):
    atoms = max(len(args[0].atoms), len(args[1].atoms))
    k = tracer.counts
    k["measures.w1.max_atoms"] = max(k["measures.w1.max_atoms"], atoms)


def _after_verify(tracer, frame, parent, args, result, dt):
    tracer.total["gallery.verify." + args[0]] += dt


AFTER = {
    "spaces.act": _after_act,
    HITTING: _after_hitting,
    "folner.elements": _after_elements,
    "measures.empirical": _after_empirical,
    "measures.w1": _after_w1,
    "gallery.verify": _after_verify,
}
