"""Per-layer tracing from outside the package.

`Tracer.install` replaces every public function of every `stablepp.*` module
at each of its binding sites (the name in each module that defines or
imports it) and every public method, plus `__call__`, on the classes those
modules define, with a wrapper that records a span: (name, start, end, span
id, parent span id, job index). Spans stay in memory until `write`.

A span opened on a worker thread with no open span of its own takes the
span open on the main thread (the campaign that started the pool) as its
parent. A span's self time is its duration minus the union of its child
spans' intervals, so children running in parallel are not subtracted twice.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

import numpy as np

PACKAGE = "stablepp"

EVAL = "point_measure._BaseTestFunction.eval"
SERIALIZE = "point_measure._BaseMeasure.to_json_line"
PARSE = "point_measure._BaseMeasure.from_json_line"
CAMPAIGN = "sampler.run_campaign"
BLOCK = "sampler.ProcessSource.sample_block"
REDUCE = {f"sampler.FlatCampaign.{m}"
          for m in ("laplace_integrals", "maxmods", "max_locations", "counts")}
REPLICA = "sampler.FlatCampaign.replica_measure"
PREDICT = {"functionals.predict_scaled_laplace", "functionals.predict_shift_laplace"}
QUAD = {"functionals.cf_quadrature", "functionals.kappa_quadrature"}
PSI = {"functionals.psi_decoration_scale", "functionals.psi_decoration_shift"}
ESTIMATE = {"functionals.estimate_scaled_laplace", "functionals.estimate_shift_laplace"}
FIT = "characterization.fit_scale_template"
EXTRACT = "extraction.extract_decoration"
MEASURE_MAPS = {"transform.log_transform", "transform.exp_transform"}
OBSERVE = "trace.observe"

# Counts that depend only on the inputs: two traced passes over the same jobs
# must agree on them exactly, whatever the thread count.
DETERMINISTIC = ("sampler.atoms", "sampler.blocks", "point_measure.eval_points",
                 "functionals.psi_calls", "extraction.attempts")


def _observe_eval(counts, args, kwargs, result):
    counts["eval_points"] += int(np.size(args[1] if len(args) > 1 else kwargs["x"]))
    counts["eval_nonzero"] += int(np.count_nonzero(result))


def _observe_campaign(counts, args, kwargs, result):
    counts["atoms"] += int(result.locations.size)
    counts["reps"] += int(result.n_reps)
    nbytes = result.locations.nbytes + result.replica.nbytes + result.weights.nbytes
    counts["campaign_bytes"] = max(counts["campaign_bytes"], nbytes)


def _observe_extract(counts, args, kwargs, result):
    counts["attempts"] += int(result.attempts)
    counts["accepted"] += len(result.decorations)


OBSERVERS = {EVAL: _observe_eval, CAMPAIGN: _observe_campaign, EXTRACT: _observe_extract}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.job = -1
        self.counts = {"eval_points": 0, "eval_nonzero": 0, "atoms": 0, "reps": 0,
                       "campaign_bytes": 0, "attempts": 0, "accepted": 0}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._lock = threading.Lock()
        self._wrappers = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrapper(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        name = f"{fn.__module__.removeprefix(PACKAGE + '.')}.{fn.__qualname__}"
        nid = self._name_id(name)
        observe_id = self._name_id(OBSERVE)
        observe = OBSERVERS.get(name)
        spans, local, main_stack = self.spans, self._local, self._main_stack
        ids, clock, tracer = self._ids, time.perf_counter_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((nid, t0, t1, sid, parent, tracer.job))
            if observe is not None:
                # the observer's own time is a child span, so it leaves the
                # caller's self time untouched
                with tracer._lock:
                    observe(tracer.counts, args, kwargs, result)
                spans.append((observe_id, t1, clock(), next(ids), parent, tracer.job))
            return result

        self._wrappers[fn] = wrapper
        return wrapper

    def _wrap_class(self, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attr, type(raw)(self._wrapper(raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrapper(raw))

    def install(self):
        """Wrap the package's public functions and methods; call from the main thread."""
        self._local.stack = self._main_stack
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for obj in list(vars(mod).values()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__.startswith(PACKAGE + ".")):
                    setattr(mod, attr, self._wrapper(obj))

    def write(self, path: str):
        """Write the spans as tab-separated name, start_ns, end_ns, id, parent, job."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tid\tparent\tjob\n")
            fh.writelines(f"{self.names[n]}\t{t0}\t{t1}\t{sid}\t{p}\t{job}\n"
                          for n, t0, t1, sid, p, job in self.spans)

    def layer_metrics(self, quad_warnings: int, bytes_out: int) -> dict:
        """Per-layer time (s), counts and ratios of the traced jobs."""
        by_name, parent, children = {}, {}, {}
        for n, t0, t1, sid, p, _ in self.spans:
            by_name.setdefault(self.names[n], []).append(sid)
            parent[sid] = p
            children.setdefault(p, []).append((t0, t1))
        dur, own = {}, {}
        for _, t0, t1, sid, _, _ in self.spans:
            dur[sid] = t1 - t0
            own[sid] = dur[sid] - _union(children[sid]) if sid in children else dur[sid]

        def match(pred):
            return [s for n, sids in by_name.items() if pred(n) for s in sids]

        def self_s(pred):
            return sum(own[s] for s in match(pred)) / 1e9

        def inclusive_s(pred):
            # outermost spans of the group only, so nested calls count once
            picked = set(match(pred))
            total = 0
            for s in picked:
                p = parent[s]
                while p != -1 and p not in picked:
                    p = parent.get(p, -1)
                if p == -1:
                    total += dur[s]
            return total / 1e9

        def count(pred):
            return len(match(pred))

        def ratio(a, b):
            return a / b if b else 0.0

        def module(prefix):
            return lambda n: n.startswith(prefix + ".")

        def member(names):
            return lambda n: n in names

        c = self.counts
        return {
            "point_measure.eval_s": inclusive_s(member({EVAL})),
            "point_measure.eval_calls": count(member({EVAL})),
            "point_measure.eval_points": c["eval_points"],
            "point_measure.eval_nonzero_ratio": ratio(c["eval_nonzero"], c["eval_points"]),
            "point_measure.serialize_s": inclusive_s(member({SERIALIZE})),
            "point_measure.parse_s": inclusive_s(member({PARSE})),
            "point_measure.lines": count(member({SERIALIZE, PARSE})),
            "sampler.campaign_s": inclusive_s(member({CAMPAIGN})),
            "sampler.block_s": inclusive_s(member({BLOCK})),
            "sampler.blocks": count(member({BLOCK})),
            "sampler.atoms": c["atoms"],
            "sampler.atoms_per_rep": ratio(c["atoms"], c["reps"]),
            "sampler.campaign_mb": c["campaign_bytes"] / 2 ** 20,
            "sampler.reduce_s": self_s(member(REDUCE)),
            "sampler.replica_measure_s": inclusive_s(member({REPLICA})),
            "sampler.replica_measures": count(member({REPLICA})),
            "functionals.predict_s": inclusive_s(member(PREDICT)),
            "functionals.quad_s": inclusive_s(member(QUAD)),
            "functionals.psi_calls": count(member(PSI)),
            "functionals.quad_warnings": quad_warnings,
            "functionals.estimate_self_s": self_s(
                member(ESTIMATE | {"functionals.battery_estimates"})),
            "functionals.estimates": count(member(ESTIMATE)),
            "characterization.fit_s": inclusive_s(member({FIT})),
            "characterization.fit_calls": count(member({FIT})),
            "characterization.test_self_s": self_s(
                lambda n: n.startswith("characterization.") and n != FIT),
            "extraction.self_s": self_s(module("extraction")),
            "extraction.attempts": c["attempts"],
            "extraction.accept_ratio": ratio(c["accepted"], c["attempts"]),
            "transform.transform_s": inclusive_s(module("transform")),
            "transform.measures": count(member(MEASURE_MAPS)),
            "cli.self_s": self_s(module("cli")),
            "cli.bytes_out": bytes_out,
        }


def _union(intervals) -> int:
    """Total length covered by a set of (start, end) intervals."""
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
