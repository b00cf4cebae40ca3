"""E12 — parallel verification: sequential vs ``workers=N`` throughput.

The (database, sigma) enumeration behind every decision procedure is
embarrassingly parallel (each pair is an independent model check), so
the expected shape is near-linear speedup with the worker count up to
the machine's core count — and, crucially, *identical* verdicts,
counterexample cursors and aggregate stats at every worker count.

Run as a script to emit ``BENCH_parallel.json``::

    PYTHONPATH=src:benchmarks python benchmarks/bench_parallel.py

The record keeps honest numbers: it stores ``cpu_count`` next to the
speedup, because on a single-core machine the pool backend can only
measure its own overhead (speedup < 1 is the expected outcome there,
not a regression — the determinism checks are the meaningful part).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.fol import Atom, Not, Var
from repro.ltl import B, LTLFOSentence
from repro.obs import CollectingTracer
from repro.verifier import verify_ltlfo

from workloads import registration_service

PARALLEL_WORKERS = 4


def _workload():
    """A ~10-unit enumeration, heavy enough for per-unit times to matter."""
    service = registration_service(2)
    variables = ("x0", "x1")
    terms = tuple(Var(v) for v in variables)
    prop = LTLFOSentence(
        variables,
        B(Atom("record", terms), Not(Atom("stored", terms))),
        name="stored only after recorded",
    )
    return service, prop


def _run(workers: int, tracer=None):
    service, prop = _workload()
    start = time.perf_counter()
    result = verify_ltlfo(
        service, prop, domain_size=2, workers=workers, tracer=tracer
    )
    return time.perf_counter() - start, result


def _comparable_stats(result) -> dict:
    # The worker count differs by design, in stats["workers"] and in the
    # stats["config"] provenance block; every other stat must match.
    return {
        k: v for k, v in sorted(result.stats.items())
        if k not in ("workers", "config")
    }


def collect() -> dict:
    cpu_count = os.cpu_count() or 1
    # On a single-core box the pool can only measure its own overhead, so
    # the timing comparison says nothing about the backend — skip it and
    # keep the parity checks, which are the meaningful part everywhere.
    cores_adequate = cpu_count >= 2
    seq_s, seq = _run(1)
    par_s, par = _run(PARALLEL_WORKERS)
    # phase timings via the tracer, plus the tracing-on overhead vs the
    # untraced sequential run just measured
    traced_s, traced = _run(1, tracer=CollectingTracer())
    record = {
        "benchmark": "parallel verification (verify_ltlfo, registration arity 2)",
        "workers": PARALLEL_WORKERS,
        "cpu_count": cpu_count,
        "cores_adequate": cores_adequate,
        "sequential_s": round(seq_s, 4),
        "parallel_s": round(par_s, 4),
        "speedup": (
            round(seq_s / par_s, 3) if cores_adequate and par_s > 0 else None
        ),
        "verdicts_equal": seq.verdict == par.verdict,
        "stats_equal": _comparable_stats(seq) == _comparable_stats(par),
        "verdict": seq.verdict.name,
        "databases_checked": seq.stats["databases_checked"],
        "sigmas_checked": seq.stats["sigmas_checked"],
        "phase_timings": traced.timings,
        "traced_sequential_s": round(traced_s, 4),
        # full CollectingTracer cost, not the (null) default path — with
        # tracing off the only added work is one attribute read per
        # coarse step, indistinguishable from run-to-run noise
        "tracing_on_overhead_pct": (
            round(100.0 * (traced_s - seq_s) / seq_s, 2) if seq_s > 0 else None
        ),
        "traced_verdict_equal": traced.verdict == seq.verdict,
    }
    return record


def main() -> int:
    record = collect()
    out = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    if not (record["verdicts_equal"] and record["stats_equal"]):
        print("DETERMINISM CHECK FAILED: backends disagree")
        return 1
    return 0


# -- pytest smoke (runs in CI with --benchmark-disable) ---------------------

@pytest.mark.benchmark(group="E12 parallel speedup")
@pytest.mark.parametrize("workers", [1, 2])
def test_workers_sweep(cold, workers):
    # a fresh service per round: at workers=1 a reused one would serve
    # every round after the first from its exploration cache
    _, prop = _workload()
    result = cold(
        lambda: _workload()[:1],
        lambda service: verify_ltlfo(
            service, prop, domain_size=2, workers=workers
        ),
        rounds=5,
    )
    assert result.holds


def test_backends_agree():
    _, seq = _run(1)
    _, par = _run(PARALLEL_WORKERS)
    assert seq.verdict == par.verdict
    assert _comparable_stats(seq) == _comparable_stats(par)


if __name__ == "__main__":
    raise SystemExit(main())
