"""Per-layer tracing from outside the program.

The traced run wraps the program's layer functions at run time, under the
names their callers look up — ``repro.verifier.linear.successors``, not only
``repro.service.runs.successors`` — and records every call as a span: name,
start, end, parent span and request id.  Spans stay in memory until the run
ends.  The program itself is not changed, and a target that a refactor
removed or renamed is reported as absent instead of failing the run.

Pool workers inherit the probes through fork, but their spans and counts die
with them: the in-unit layers are measured on the sequential workloads, and
``ltl_pool`` reports what the parent sees (enumeration, compilation,
``run_units``) plus the ``unit.finish`` events the workers ship back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from time import perf_counter

CALL = "call"    # one span per call
GEN = "gen"      # generator function: one span per next(), and an item count
COUNT = "count"  # a call count only: called too often for a span each
HIT = "hit"      # a call count, and how many calls returned an existing object

#: (probe name, target as ``module:attribute.path``, kind)
PROBES = (
    ("enumerate_databases", "repro.verifier.engine:enumerate_databases", GEN),
    ("enumerate_sigmas", "repro.verifier.engine:enumerate_sigmas", GEN),
    ("run_procedure", "repro.verifier.linear:run_procedure", CALL),
    ("run_procedure", "repro.verifier.branching:run_procedure", CALL),
    ("run_units", "repro.verifier.engine:run_units", CALL),
    ("warm_service_plans", "repro.verifier.engine:warm_service_plans", CALL),
    ("ltl_to_buchi", "repro.verifier.linear:ltl_to_buchi", CALL),
    ("successors", "repro.verifier.linear:successors", CALL),
    ("successors", "repro.service.runs:successors", CALL),
    ("deterministic_step", "repro.service.runs:deterministic_step", CALL),
    ("deterministic_step", "repro.verifier.branching:deterministic_step",
     CALL),
    ("enumerate_choices", "repro.service.runs:enumerate_choices", GEN),
    ("enumerate_choices", "repro.verifier.branching:enumerate_choices", GEN),
    ("page_options", "repro.service.runs:page_options", CALL),
    ("make_eval_context", "repro.service.runs:RunContext.make_eval_context",
     CALL),
    ("bits", "repro.fol.compile:CompiledFormula.bits", CALL),
    ("check", "repro.fol.compile:CompiledFormula.check", COUNT),
    ("solve", "repro.fol.compile:CompiledQuery.solve", COUNT),
    ("compile", "repro.fol.compile:CompiledFormula.__init__", COUNT),
    ("compile", "repro.fol.compile:CompiledQuery.__init__", COUNT),
    ("find_accepting_lasso", "repro.verifier.linear:find_accepting_lasso",
     CALL),
    ("build_snapshot_kripke",
     "repro.verifier.branching:build_snapshot_kripke", CALL),
    ("satisfying_states", "repro.verifier.branching:satisfying_states", CALL),
    ("intern", "repro.service.compiled:SnapshotInterner.snapshot", HIT),
    ("intern", "repro.service.compiled:SnapshotInterner.instance", HIT),
)

#: The per-layer metrics and their units, in report order.  Times are
#: calibrated ms; shares and ratios are pooled over requests.
METRICS = {
    "schema.enumerate.databases": "count",
    "schema.enumerate.ms": "ms",
    "verifier.engine.sigmas": "count",
    "verifier.engine.self_ms": "ms",
    "service.compiled.warm_ms": "ms",
    "fol.compile.compiles": "count",
    "service.runs.successors_calls": "count",
    "service.runs.successors_ms": "ms",
    "service.runs.successors_self_ms": "ms",
    "service.runs.step_calls": "count",
    "service.runs.step_ms": "ms",
    "service.runs.choices_ms": "ms",
    "service.runs.options_ms": "ms",
    "service.runs.eval_contexts": "count",
    "service.runs.eval_context_ms": "ms",
    "service.runs.successor_reuse": "1",
    "fol.compile.bits_calls": "count",
    "fol.compile.bits_ms": "ms",
    "fol.compile.check_calls": "count",
    "fol.compile.solve_calls": "count",
    "verifier.linear.label_share": "1",
    "ltl.buchi.compile_ms": "ms",
    "ltl.buchi.states": "count",
    "ltl.buchi.searches": "count",
    "ltl.buchi.search_self_ms": "ms",
    "ltl.buchi.searches_per_valuation": "1",
    "verifier.branching.kripke_ms": "ms",
    "verifier.branching.kripke_self_ms": "ms",
    "verifier.branching.kripke_states": "count",
    "ctl.modelcheck.label_ms": "ms",
    "service.compiled.intern_hit_share": "1",
    "verifier.parallel.units": "count",
    "verifier.parallel.run_units_ms": "ms",
    "verifier.parallel.unit_ms": "ms",
    "verifier.parallel.pool_overhead_ms": "ms",
    "verifier.parallel.units_retried": "count",
    "verifier.parallel.pool_rebuilds": "count",
}


def resolve(target: str):
    """``(owner, attribute, function)`` for a dotted target, or None when
    the program no longer has it."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    function = getattr(owner, attribute, None)
    if not callable(function):
        return None
    return owner, attribute, function


class Spans:
    """Spans in compact columns, plus the current request's call counts.

    A span's self time is its duration minus the durations of its child
    spans; :meth:`close` adds each span's duration to its parent's child
    time as it goes.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.child = array("d")
        self._stack: list[int] = []
        self.request_id = -1
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id: int) -> int:
        index = len(self.name)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.child.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        now = perf_counter()
        self.end[index] = now
        self._stack.pop()
        parent = self.parent[index]
        if parent >= 0:
            self.child[parent] += now - self.start[index]

    def totals(self, first: int, last: int) -> dict[str, tuple]:
        """``name -> (calls, total s, self s)`` over spans first..last-1."""
        acc: dict[int, list] = {}
        for i in range(first, last):
            duration = self.end[i] - self.start[i]
            entry = acc.get(self.name[i])
            if entry is None:
                acc[self.name[i]] = [1, duration, duration - self.child[i]]
            else:
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - self.child[i]
        return {self.names[k]: tuple(v) for k, v in acc.items()}

    def dump(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\trequest\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.request[i]}\t"
                    f"{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\n"
                )


def _call_probe(spans: Spans, function, name: str):
    name_id = spans.name_id(name)

    @functools.wraps(function)
    def probe(*args, **kwargs):
        index = spans.open(name_id)
        try:
            return function(*args, **kwargs)
        finally:
            spans.close(index)

    return probe


def _timed_next(spans: Spans, iterator, name_id: int, name: str):
    counts = spans.counts
    while True:
        index = spans.open(name_id)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            spans.close(index)
        counts[name] = counts.get(name, 0) + 1
        yield item


def _gen_probe(spans: Spans, function, name: str):
    name_id = spans.name_id(name)

    @functools.wraps(function)
    def probe(*args, **kwargs):
        return _timed_next(spans, function(*args, **kwargs), name_id, name)

    return probe


def _count_probe(spans: Spans, function, name: str):
    counts = spans.counts

    @functools.wraps(function)
    def probe(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return function(*args, **kwargs)

    return probe


def _hit_probe(spans: Spans, function, name: str):
    counts = spans.counts
    hits = name + ".hits"

    @functools.wraps(function)
    def probe(*args, **kwargs):
        out = function(*args, **kwargs)
        counts[name] = counts.get(name, 0) + 1
        if args and out is not args[-1]:
            counts[hits] = counts.get(hits, 0) + 1
        return out

    return probe


_MAKERS = {CALL: _call_probe, GEN: _gen_probe, COUNT: _count_probe,
           HIT: _hit_probe}


class Probes:
    """Installs the probes, records one entry per traced request, and
    turns the entries into the per-layer metrics."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.absent: list[str] = []
        self.requests: list[dict] = []
        self._installed: list[tuple] = []
        self._first = 0
        self._root = -1

    def install(self) -> None:
        for name, target, kind in PROBES:
            found = resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attribute, function = found
            own = attribute in vars(owner)
            setattr(owner, attribute,
                    _MAKERS[kind](self.spans, function, name))
            self._installed.append((owner, attribute, function, own))

    def uninstall(self) -> None:
        for owner, attribute, function, own in reversed(self._installed):
            if own:
                setattr(owner, attribute, function)
            else:
                delattr(owner, attribute)
        self._installed.clear()

    def begin_request(self, request_id: int) -> None:
        spans = self.spans
        spans.request_id = request_id
        spans.counts.clear()
        self._first = len(spans.name)
        self._root = spans.open(spans.name_id("request"))

    def end_request(self, result, events, workers: int, scale: float) -> None:
        """Record the request that just returned.

        ``events`` are the trace events the program emitted for it, and
        ``scale`` turns its raw ms into calibrated ms.
        """
        spans = self.spans
        spans.close(self._root)
        spans.request_id = -1
        totals = spans.totals(self._first, len(spans.name))
        self.requests.append(_layer_values(
            totals, dict(spans.counts),
            result.stats if result is not None else {},
            events, workers, scale,
        ))

    def metrics(self) -> dict[str, float]:
        """Per-request means of every metric; ratios pooled over requests."""
        n = max(1, len(self.requests))
        out = {}
        for metric in METRICS:
            values = [r[metric] for r in self.requests]
            if values and isinstance(values[0], tuple):
                num = sum(v[0] for v in values)
                den = sum(v[1] for v in values)
                out[metric] = num / den if den else 0.0
            else:
                out[metric] = sum(values) / n
        return out


def _layer_values(totals, counts, stats, events, workers, scale) -> dict:
    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def ms(name):
        return totals.get(name, (0, 0.0, 0.0))[1] * 1e3 * scale

    def self_ms(name):
        return totals.get(name, (0, 0.0, 0.0))[2] * 1e3 * scale

    label_computed = label_shared = units = 0
    unit_s = 0.0
    for event in events:
        if event.name == "label.bits":
            label_computed += event.fields.get("computed", 0)
            label_shared += event.fields.get("shared", 0)
        elif event.name == "unit.finish":
            units += 1
            unit_s += event.fields.get("dur", 0.0)
    run_units_ms = ms("run_units")
    unit_ms = unit_s * 1e3 * scale
    successor_calls = calls("successors")
    explored = stats.get("snapshots_explored", 0) if successor_calls else 0
    return {
        "schema.enumerate.databases": counts.get("enumerate_databases", 0),
        "schema.enumerate.ms": ms("enumerate_databases"),
        "verifier.engine.sigmas": counts.get("enumerate_sigmas", 0),
        "verifier.engine.self_ms": ms("run_procedure") - run_units_ms,
        "service.compiled.warm_ms": ms("warm_service_plans"),
        "fol.compile.compiles": counts.get("compile", 0),
        "service.runs.successors_calls": successor_calls,
        "service.runs.successors_ms": ms("successors"),
        "service.runs.successors_self_ms": self_ms("successors"),
        "service.runs.step_calls": calls("deterministic_step"),
        "service.runs.step_ms": ms("deterministic_step"),
        "service.runs.choices_ms": ms("enumerate_choices"),
        "service.runs.options_ms": ms("page_options"),
        "service.runs.eval_contexts": calls("make_eval_context"),
        "service.runs.eval_context_ms": ms("make_eval_context"),
        # 1 - successors calls / snapshots explored, as (num, den)
        "service.runs.successor_reuse": (explored - successor_calls
                                         if explored else 0, explored),
        "fol.compile.bits_calls": calls("bits"),
        "fol.compile.bits_ms": ms("bits"),
        "fol.compile.check_calls": counts.get("check", 0),
        "fol.compile.solve_calls": counts.get("solve", 0),
        "verifier.linear.label_share": (label_shared,
                                        label_computed + label_shared),
        "ltl.buchi.compile_ms": ms("ltl_to_buchi"),
        "ltl.buchi.states": stats.get("buchi_states", 0),
        "ltl.buchi.searches": calls("find_accepting_lasso"),
        "ltl.buchi.search_self_ms": self_ms("find_accepting_lasso"),
        "ltl.buchi.searches_per_valuation": (
            calls("find_accepting_lasso"), stats.get("valuations_checked", 0)
        ),
        "verifier.branching.kripke_ms": ms("build_snapshot_kripke"),
        "verifier.branching.kripke_self_ms": self_ms("build_snapshot_kripke"),
        "verifier.branching.kripke_states": stats.get("kripke_states", 0),
        "ctl.modelcheck.label_ms": ms("satisfying_states"),
        "service.compiled.intern_hit_share": (counts.get("intern.hits", 0),
                                              counts.get("intern", 0)),
        "verifier.parallel.units": units,
        "verifier.parallel.run_units_ms": run_units_ms,
        "verifier.parallel.unit_ms": unit_ms,
        # worker time the pool held minus the time units spent working
        "verifier.parallel.pool_overhead_ms": (
            workers * run_units_ms - unit_ms if workers > 1 else 0.0
        ),
        "verifier.parallel.units_retried": stats.get("units_retried", 0),
        "verifier.parallel.pool_rebuilds": stats.get("pool_rebuilds", 0),
    }
