"""E13 — compiled evaluation core: interpreter vs compiled plans.

Measures the formula→plan compiler of :mod:`repro.fol.compile` on the
E12 registration workload's **evaluation phase**: every rule formula of
every page, solved or checked against the evaluation context of each
reachable snapshot (the inner loop of run semantics and snapshot
labelling).  This is the phase the compiler targets: plans are built
once and re-run, so per-call analysis (variable resolution, guard-atom
selection, join order) drops out of the loop.  The baseline is the
reference interpreter (``evaluate_interpreted`` /
``evaluate_query_interpreted``), which the verifier itself never runs.

The verifier has one evaluation path, so there is no end-to-end
comparison here; ``perfbench``'s ``ltl_registration`` workload tracks
the end-to-end cost of that path on the same service.

Run as a script to emit ``BENCH_compile.json``::

    PYTHONPATH=src:benchmarks python benchmarks/bench_eval_compile.py

Parity is asserted, not assumed: both engines produce a checksum over
the same evaluations, the record keeps the equality flag next to the
timings, and the script exits 1 when they disagree.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path

import pytest

from repro.fol import (
    evaluate,
    evaluate_interpreted,
    evaluate_query,
    evaluate_query_interpreted,
)
from repro.fol.compile import clear_compile_cache
from repro.service import RunContext, initial_snapshots, successors

from workloads import registration_database, registration_service

EVAL_PHASE_REPS = 3
MAX_TIMED_SNAPSHOTS = 800


def _reachable_snapshots(service, db):
    """All reachable snapshots of the (service, db) configuration graph."""
    ctx = RunContext(service, db)
    seen = set()
    queue = deque(initial_snapshots(ctx))
    while queue:
        snap = queue.popleft()
        if snap in seen:
            continue
        seen.add(snap)
        for nxt in successors(ctx, snap):
            if nxt not in seen:
                queue.append(nxt)
    ordered = [s for s in sorted(seen, key=repr) if not s.is_error]
    return ordered[:MAX_TIMED_SNAPSHOTS]


def _eval_phase(service, db, snaps, compiled: bool, reps: int = EVAL_PHASE_REPS):
    """Time every rule formula against every snapshot context.

    Returns (seconds, checksum) — the checksum (total solve-set sizes
    plus target-rule truth count) must be identical between engines.
    """
    if compiled:
        check, query = evaluate, evaluate_query
    else:
        check, query = evaluate_interpreted, evaluate_query_interpreted
    clear_compile_cache()
    ctx = RunContext(service, db)
    ectxs = []
    for snap in snaps:
        page = service.page(snap.page)
        ectxs.append((page, ctx.make_eval_context(
            snap.state, snap.inputs, snap.prev, snap.actions,
            gamma=snap.provided_before, page=snap.page,
        )))
    started = time.perf_counter()
    checksum = 0
    for _ in range(reps):
        for page, ectx in ectxs:
            for rule in page.input_rules:
                checksum += len(query(rule.formula, rule.variables, ectx))
            for rule in page.state_rules:
                checksum += len(query(rule.formula, rule.variables, ectx))
            for rule in page.action_rules:
                checksum += len(query(rule.formula, rule.variables, ectx))
            for rule in page.target_rules:
                checksum += check(rule.formula, ectx)
    return time.perf_counter() - started, checksum


def collect() -> dict:
    service = registration_service(2)
    db = registration_database(service, 2)
    snaps = _reachable_snapshots(service, db)

    # warm both engines, then measure
    _eval_phase(service, db, snaps, True, reps=1)
    _eval_phase(service, db, snaps, False, reps=1)
    interp_s, interp_sum = _eval_phase(service, db, snaps, False)
    compiled_s, compiled_sum = _eval_phase(service, db, snaps, True)

    return {
        "benchmark": (
            "compiled evaluation core, evaluation phase "
            "(registration arity 2, domain 2)"
        ),
        "snapshots_timed": len(snaps),
        "eval_phase_reps": EVAL_PHASE_REPS,
        "eval_phase_interpreted_s": round(interp_s, 4),
        "eval_phase_compiled_s": round(compiled_s, 4),
        "speedup_eval_phase": (
            round(interp_s / compiled_s, 3) if compiled_s > 0 else None
        ),
        "eval_phase_checksums_equal": interp_sum == compiled_sum,
    }


def main() -> int:
    record = collect()
    out = Path(__file__).resolve().parent.parent / "BENCH_compile.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    if not record["eval_phase_checksums_equal"]:
        print("PARITY CHECK FAILED: engines disagree")
        return 1
    return 0


# -- pytest smoke (runs in CI with --benchmark-disable) ---------------------

@pytest.mark.benchmark(group="E13 compiled evaluation")
@pytest.mark.parametrize("compiled", [False, True])
def test_eval_phase_sweep(benchmark, compiled):
    service = registration_service(2)
    db = registration_database(service, 2)
    snaps = _reachable_snapshots(service, db)[:100]
    _, ref = _eval_phase(service, db, snaps, False, reps=1)
    _, got = benchmark(
        lambda: _eval_phase(service, db, snaps, compiled, reps=1)
    )
    assert got == ref


if __name__ == "__main__":
    raise SystemExit(main())
