"""The verifier's benchmark: closed-loop workloads in calibrated units.

Run it from the repository root::

    python3 perfbench/run.py --workload ltl_registration --seed 1 \\
        --seconds 10 --trace 0

One caller in one process sends each request when the previous verdict has
returned.  The first pass over the workload's request list is warm-up and is
discarded; whole passes then run until ``--seconds`` have passed, so every
run sees the same mix.  Every verdict is checked against the answer written
by hand in ``workloads.py``, and every result against the parity gate
(:func:`fingerprint`, :func:`gate`): each request must reproduce its first
result on every later pass, traced or not, and on the workload's pool twin.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced, then with the probes of ``layers.py`` installed, and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, prefixed ``perfbench-info``, carries the
raw wall-clock figures, the kernel's own times and the host, ungated.  The
exit code is 0 only when every request returned its expected verdict and
every parity check held.

``--self-check`` runs the calibration kernel's heap check and the parity
gate's self-test, prints what they found, and exits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# No bytecode next to the sources: main() points the bytecode cache at a
# directory this run owns before the program is imported.
sys.dont_write_bytecode = True

from calibrate import (  # noqa: E402
    NOMINAL_MS, Sampler, calibrated, kernel_ms,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: the run's bytecode cache, span dumps.
WORK = ROOT / ".perfbench"

#: Fresh interpreters timed per run for ``setup_s``, after one discarded.
SETUP_SAMPLES = 4

#: Stats keys that echo how a run was configured rather than what it found:
#: the provenance block and the requested worker count.
CONFIG_KEYS = ("config", "workers")

_MISSING = object()


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="ltl_registration")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Drop every ``REPRO_*`` variable, here and so in every child.

    An operator's ``REPRO_WORKERS``, ``REPRO_SIGMA_BLOCK`` or ``REPRO_TRACE``
    would otherwise silently change a workload.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def import_program() -> None:
    sys.path.insert(0, str(SRC))
    import repro

    found = Path(repro.__file__).resolve().parent
    if found != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {found}, "
                         f"not from {SRC}")


# -- parity -----------------------------------------------------------------------

def fingerprint(result) -> dict:
    """What parity compares: the verdict, the counterexample, and the stats
    without the keys that echo the run's configuration."""
    run = result.counterexample
    database = result.counterexample_database
    return {
        "verdict": result.verdict.value,
        "counterexample": run.describe() if run is not None else None,
        "counterexample_database": (
            repr(database) if database is not None else None
        ),
        "stats": {k: v for k, v in result.stats.items()
                  if k not in CONFIG_KEYS},
    }


def gate(expected: dict, got: dict) -> list[str]:
    """The fields on which two fingerprints differ; empty when they agree."""
    diffs = [key for key in ("verdict", "counterexample",
                             "counterexample_database")
             if expected[key] != got[key]]
    a, b = expected["stats"], got["stats"]
    diffs += [f"stats.{key}" for key in sorted(set(a) | set(b))
              if a.get(key, _MISSING) != b.get(key, _MISSING)]
    return diffs


def gate_self_test(result) -> list[str]:
    """Shows the gate gating: a copy of ``result`` that differs only in
    the configuration it echoes must pass, and a copy with one stats
    counter changed must fail.  Returns the problems found."""
    base = fingerprint(result)
    problems = []
    echo = dataclasses.replace(result, stats={
        **result.stats, "config": {"workers": -1}, "workers": -1,
    })
    if gate(base, fingerprint(echo)):
        problems.append("gate rejects a result differing only in config")
    counter = next((k for k, v in result.stats.items()
                    if k not in CONFIG_KEYS and type(v) is int), None)
    if counter is None:
        problems.append("result has no stats counter to perturb")
    else:
        bumped = dataclasses.replace(result, stats={
            **result.stats, counter: result.stats[counter] + 1,
        })
        if not gate(base, fingerprint(bumped)):
            problems.append(f"gate accepts a changed stats[{counter!r}]")
    return problems


# -- the closed loop ----------------------------------------------------------------

@dataclasses.dataclass
class Sample:
    raw_ms: float
    kernel_ms: float
    cpu_ms: float

    @property
    def ms(self) -> float:
        return calibrated(self.raw_ms, self.kernel_ms)

    @property
    def cpu(self) -> float:
        return calibrated(self.cpu_ms, self.kernel_ms)


def _cpu_s() -> float:
    """CPU time of this process plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Runner:
    """One caller in a closed loop over a workload's request list, checking
    every result against the oracle and the parity reference."""

    def __init__(self, workload, sampler) -> None:
        self.workload = workload
        self.sampler = sampler
        self.attempted = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []
        self.compared = 0
        #: request index -> fingerprint every later result must match
        self.reference: dict[int, dict] = {}
        self.first_result = None

    def request(self, index: int, probes=None) -> Sample:
        workload = self.workload
        request = workload.requests[index]
        tracer = None
        if probes is not None:
            from repro.obs import CollectingTracer

            # read only events the program already emits: label.bits and
            # unit.finish
            tracer = CollectingTracer()
        mark = self.sampler.mark()
        self.sampler.sample()
        if probes is not None:
            probes.begin_request(index)
        cpu_start = _cpu_s()
        start = time.perf_counter()
        try:
            result, error = workload.verify(request, tracer=tracer), None
        except Exception as exc:  # a failed request is counted, not fatal
            result, error = None, f"{request.label}: {exc!r}"
        raw = time.perf_counter() - start
        multiprocessing.active_children()  # reap pool workers first
        cpu = _cpu_s() - cpu_start
        kernel = self.sampler.mean_since(mark)
        if probes is not None:
            probes.end_request(
                result, tracer.events, workload.workers,
                calibrated(1.0, kernel),
            )
        self.attempted += 1
        error = error or workload.check(request, result)
        if error:
            self.failures.append(error)
        else:
            if self.first_result is None:
                self.first_result = result
            got = fingerprint(result)
            diffs = gate(self.reference.setdefault(index, got), got)
            self.compared += 1
            if diffs:
                self.mismatches.append(
                    f"request {index} ({request.label}): {', '.join(diffs)}"
                )
        return Sample(raw * 1e3, kernel, cpu * 1e3)

    def run_pass(self, probes=None) -> list[Sample]:
        return [self.request(i, probes)
                for i in range(len(self.workload.requests))]

    def run_for(self, seconds: float, probes=None) -> list[list[Sample]]:
        """Whole passes until ``seconds`` have passed (at least one)."""
        deadline = time.monotonic() + seconds
        passes = [self.run_pass(probes)]
        while time.monotonic() < deadline:
            passes.append(self.run_pass(probes))
        return passes


def traced_passes(runner: Runner, probes, seconds: float):
    """``runner.run_for(seconds)`` with ``probes`` installed (if any)."""
    if probes is None:
        return runner.run_for(seconds)
    probes.install()
    try:
        return runner.run_for(seconds, probes)
    finally:
        probes.uninstall()


def tail_percentile(values: list[float]) -> dict | None:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples
    beyond it, or None when there are too few samples."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return {"p": p,
                    "value": statistics.quantiles(values, n=100)[p - 1]}
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest of its reaped
    children (the pool workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(passes: list[list[Sample]]) -> tuple[dict, dict]:
    """Calibrated end-to-end metrics and their raw counterparts.

    Throughput and CPU per request come from one typical pass: each
    request's median over the passes, so one disturbed request moves
    neither.
    """
    timed = [s for p in passes for s in p]
    by_request = list(zip(*passes))

    def metrics(wall, cpu) -> dict:
        typical = [statistics.median(wall(s) for s in c) for c in by_request]
        typical_cpu = [statistics.median(cpu(s) for s in c)
                       for c in by_request]
        return {
            "latency_p50_ms": statistics.median(wall(s) for s in timed),
            "throughput_per_s": len(typical) / (sum(typical) / 1e3),
            "cpu_per_op_ms": sum(typical_cpu) / len(typical_cpu),
        }

    return (metrics(lambda s: s.ms, lambda s: s.cpu),
            metrics(lambda s: s.raw_ms, lambda s: s.cpu_ms))


# -- set-up time ----------------------------------------------------------------

def setup_child(name: str, seed: int) -> int:
    """Import, build the inputs, verify the first full-exploration request,
    and report when its verdict returned (``time.monotonic`` is one clock
    for every process on the host)."""
    with Sampler() as sampler:
        sampler.sample()
        import_program()
        import workloads

        workload = workloads.build(name, seed)
        request = workload.first_full()
        result = workload.verify(request)
        verdict_at = time.monotonic()
        kernel = sampler.mean_since(0)
    error = workload.check(request, result)
    print(json.dumps({"verdict_at": verdict_at, "kernel_ms": kernel,
                      "error": error}))
    return 1 if error else 0


def measure_setup(name: str, seed: int) -> tuple[list, list[str]]:
    """``(raw s, calibrated s)`` of SETUP_SAMPLES fresh interpreters from
    start to first verdict, after one discarded so bytecode caches exist;
    and the failures seen."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-child", "--workload", name, "--seed", str(seed)]
    samples, failures = [], []
    for attempt in range(SETUP_SAMPLES + 1):
        started = time.monotonic()
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=120)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            failures.append(f"setup interpreter exited {child.returncode}: "
                            f"{(lines or [child.stderr.strip()])[-1]}")
            continue
        report = json.loads(lines[-1])
        raw = report["verdict_at"] - started
        if attempt:
            samples.append((raw, calibrated(raw, report["kernel_ms"])))
    return samples, failures


# -- modes --------------------------------------------------------------------------

def measure(args) -> int:
    fresh_kernel = statistics.median(kernel_ms() for _ in range(50))
    import_program()
    import layers
    import workloads

    workload = workloads.build(args.workload, args.seed)
    probes = layers.Probes() if args.trace else None
    runners = []
    with Sampler() as sampler:
        runner = Runner(workload, sampler)
        runners.append(runner)
        runner.run_pass()  # warm-up, discarded
        if args.trace:
            untraced = runner.run_for(args.seconds / 2)
            passes = traced_passes(runner, probes, args.seconds / 2)
        else:
            passes = runner.run_for(args.seconds)
        # before the twin's pool workers and the set-up interpreters
        # become reaped children
        rss = peak_rss_mb()
        if workload.pool_twin:
            # the pool must reproduce the sequential results request by
            # request; traced, it gives the verifier.parallel layer
            twin = Runner(workloads.build(workload.pool_twin, args.seed),
                          sampler)
            twin.reference = runner.reference
            runners.append(twin)
            pool_probes = layers.Probes() if args.trace else None
            traced_passes(twin, pool_probes, 0.0)
        run_kernel = statistics.median(sampler.times)
    timed = [s for p in passes for s in p]
    metrics, raw = end_to_end(passes)
    failures = [f for r in runners for f in r.failures]
    attempted = sum(r.attempted for r in runners)
    info = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "requests": len(timed), "passes": len(passes),
        "latency_tail_ms": tail_percentile([s.ms for s in timed]),
        "kernel_ms": {"nominal": NOMINAL_MS, "run_median": run_kernel,
                      "fresh_heap_median": fresh_kernel},
        "raw": raw,
        "parity": {"compared": sum(r.compared for r in runners),
                   "mismatches": [m for r in runners for m in r.mismatches]},
    }
    if args.trace:
        untraced_p50 = statistics.median(
            s.ms for p in untraced for s in p)
        out = probes.metrics()
        if workload.pool_twin:
            out.update((name, value)
                       for name, value in pool_probes.metrics().items()
                       if name.startswith("verifier.parallel."))
        out["trace.overhead_pct"] = (
            100.0 * (metrics["latency_p50_ms"] / untraced_p50 - 1.0))
        info["trace_overhead_pct"] = out["trace.overhead_pct"]
        info["untraced_latency_p50_ms"] = untraced_p50
        info["absent_probes"] = probes.absent
        WORK.mkdir(exist_ok=True)
        probes.spans.dump(WORK / f"spans-{workload.name}.tsv.gz")
        units = {**layers.METRICS, "trace.overhead_pct": "%"}
    else:
        metrics["peak_rss_mb"] = rss
        setup, setup_failures = measure_setup(workload.name, args.seed)
        attempted += SETUP_SAMPLES + 1
        failures += setup_failures
        if setup:
            metrics["setup_s"] = statistics.median(c for _, c in setup)
            raw["setup_s"] = statistics.median(r for r, _ in setup)
        out = metrics
        units = {"latency_p50_ms": "ms", "throughput_per_s": "1/s",
                 "cpu_per_op_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
    problems = gate_self_test(runner.first_result) if (
        runner.first_result is not None) else ["no result to self-test"]
    info["parity"]["gate_self_test"] = problems or "gate fails on a " \
        "perturbed fingerprint and passes a config-only change"
    info["attempted"] = attempted
    info["failed"] = len(failures)
    info["failed_op_share"] = len(failures) / attempted
    info["failures"] = failures[:5]
    correct = not failures and not info["parity"]["mismatches"] \
        and not problems
    print("perfbench-info " + json.dumps(info, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value,
                           "unit": units.get(name, "count")}
                    for name, value in out.items()},
    }))
    return 0 if correct else 1


def self_check() -> int:
    """The kernel's heap check and the parity gate's self-test."""
    fresh = [kernel_ms() for _ in range(300)]
    import_program()
    import layers
    import workloads
    from repro.schema import Database

    store = workloads.build("ctl_store", 0)
    # the heap a verifier leaves behind: three CTL results, plus three
    # full Kripke structures of the store to make the heap large
    held = [store.verify(r) for r in store.requests]
    builder = layers.resolve(
        "repro.verifier.branching:build_snapshot_kripke")
    if builder is not None:
        empty = Database(store.service.schema.database)
        held += [builder[2](store.service, empty) for _ in range(3)]
    loaded = [kernel_ms() for _ in range(300)]
    ratio = min(loaded) / min(fresh)
    registration = workloads.build("ltl_registration", 0)
    violated = next(r for r in registration.requests if not r.full)
    problems = gate_self_test(registration.verify(violated))
    report = {
        "kernel_fresh_heap_ms": {"min": min(fresh),
                                 "median": statistics.median(fresh)},
        "kernel_held_heap_ms": {"min": min(loaded),
                                "median": statistics.median(loaded)},
        "held_objects": len(held),
        "ratio_of_minima": ratio,
        "heap_independent": abs(ratio - 1.0) <= 0.1,
        "gate_self_test": problems or "ok",
    }
    print(json.dumps(report))
    return 0 if report["heap_independent"] and not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        # the parent's bytecode cache reaches us through PYTHONPYCACHEPREFIX
        return setup_child(args.workload, args.seed)
    # Bytecode goes to a directory this run owns, so set-up time never
    # reads or rewrites bytecode that lives with the sources.
    WORK.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="pycache-", dir=WORK)
    sys.pycache_prefix = cache
    sys.dont_write_bytecode = False
    os.environ["PYTHONPYCACHEPREFIX"] = cache
    try:
        return self_check() if args.self_check else measure(args)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
