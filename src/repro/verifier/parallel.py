"""Parallel verification: work units over the (database, sigma) enumeration.

Every decision procedure in this package has the same outer shape — a
deterministic enumeration of candidate databases (and, for the
linear-time procedures, input-constant interpretations sigma within
each database) with an *independent* model check per pair.  That
independence is what the paper's operational strategy (and the WAVE
verifier after it) exploits, and it makes the enumeration embarrassingly
parallel: this module turns each (db_index, sigma_index) pair into a
:class:`WorkUnit` and runs the units either in-process (the classic
sequential loop) or on a :class:`~concurrent.futures.ProcessPoolExecutor`
selected with ``workers=N``.

Guarantees, regardless of worker count:

- **Deterministic verdicts.**  A violated property always reports the
  violation with the *lowest* (db_index, sigma_index) cursor, not the
  first one a worker happened to finish — so ``workers=1`` and
  ``workers=8`` return the same verdict, the same counterexample
  database and the same counterexample cursor.
- **Early cancellation.**  Once a violation at cursor *c* is confirmed,
  units beyond *c* are cancelled and no new units are submitted; units
  below *c* are still awaited (one of them could hold an even lower
  violation).
- **Budget integration.**  The parent governor keeps charging the
  database cap and the wall-clock deadline at submission time; workers
  enforce the per-pair caps and the remaining deadline locally, and the
  parent absorbs their counters as units complete so global caps and
  aggregate stats stay meaningful.
- **Resumable frontier.**  On interruption the checkpoint records the
  lowest incomplete cursor plus the out-of-order completions beyond it
  (``extra["completed_units"]``), so a resume — sequential or parallel —
  re-runs exactly the incomplete units.
- **Deterministic traces.**  When a :mod:`repro.obs` tracer is active,
  workers collect their unit's events locally and ship the batch back
  with the :class:`UnitOutcome`; the parent buffers batches and merges
  them into its tracer in **cursor order**, under the same
  prefix filter as the stats aggregation — so the traced unit set is
  identical at every worker count, and per-process timestamps stay
  monotonic in file order.

The streaming is lazy end-to-end: databases are pulled from the
canonical enumeration one at a time and shipped to workers in a bounded
submission window, never materialized as a list.

Workers are spawned per verification call with the task's specification
pickled once into each worker (service, property, precompiled Büchi
automaton, unit budget caps) — the per-unit messages carry only the
database and sigma.  ``REPRO_WORKERS`` in the environment supplies a
default worker count for entry points called without ``workers=``.

**Fault tolerance.**  A run that takes hours must survive the failures
hours bring: a worker segfault, a stuck unit, a SIGTERM from the
scheduler.  The :class:`Supervisor` wraps both backends with a failure
model:

- **Retry with backoff.**  A unit whose worker raises (anything that is
  not a budget verdict) is retried up to ``max_retries`` times with
  exponential backoff and deterministic jitter; verdicts stay
  lowest-cursor-deterministic because a unit's *result* is a pure
  function of ``(db, sigma)`` — retrying changes when it is computed,
  never what it is.
- **Crash recovery.**  A dead worker (``BrokenProcessPool``) kills the
  whole pool; the supervisor rebuilds it and re-runs the in-flight
  units one at a time (probation) so the culprit identifies itself
  instead of taking innocent units' retry budget with it.
- **Unit timeouts.**  With ``unit_timeout_s`` set, a unit that exceeds
  its wall-clock allowance is treated as hung: the pool is rebuilt
  (a stuck worker cannot be preempted, only killed) and the unit
  retried.
- **Quarantine.**  A unit that exhausts its retries is quarantined —
  recorded in ``stats["quarantined_units"]`` and the checkpoint — and
  the run *continues*; an otherwise-clean verdict degrades to
  INCONCLUSIVE (the quarantined space was never verified) instead of
  the whole run aborting.
- **Fallback.**  If the pool cannot be rebuilt (``max_pool_rebuilds``
  exceeded), the remaining units run in-process — slower, but the run
  finishes.
- **Crash-safe checkpoints.**  With ``checkpoint_every=N``, the merged
  frontier is atomically written every N completed units (and on
  SIGINT/SIGTERM via :data:`GLOBAL_STOP`), so a kill at any moment
  loses at most N units of work and can never corrupt the resume file.

Deterministic fault *injection* for testing all of the above lives in
:mod:`repro.faults`.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.faults import (
    CheckpointWriteInterrupted,
    FaultInjector,
    FaultPlan,
    resolve_fault_plan,
)
from repro.fol.bitset import SigmaBlock
from repro.obs import NULL_TRACER, CollectingTracer, TraceEvent, Tracer
from repro.verifier.budget import Budget, Checkpoint
from repro.verifier.results import VerificationBudgetExceeded

__all__ = [
    "WorkUnit",
    "UnitOutcome",
    "TaskSpec",
    "UnitStream",
    "EnumerationOutcome",
    "RetryPolicy",
    "RunInterrupted",
    "StopToken",
    "GLOBAL_STOP",
    "Supervisor",
    "apply_quarantine",
    "run_units",
    "unit_checker",
    "resolve_workers",
    "resolve_sigma_block",
    "frontier_checkpoint",
    "merge_unit_stats",
    "CLEAN",
    "VIOLATED",
    "BUDGET",
]

#: Clock seams: supervision code reads time and sleeps through these
#: module globals so tests can drive the retry/backoff schedule with a
#: patched clock instead of real sleeps.  The hot verification paths
#: keep calling ``time.monotonic`` directly — patching these affects
#: only supervision decisions.
_MONOTONIC = time.monotonic
_SLEEP = time.sleep

CLEAN = "clean"
VIOLATED = "violated"
BUDGET = "budget"

#: Stats keys aggregated by max (structure sizes); everything else sums.
_MAX_KEYS = frozenset({"buchi_states", "kripke_states"})


def resolve_workers(workers: int | None) -> int:
    """The effective worker count for one verification call.

    ``None`` falls back to the ``REPRO_WORKERS`` environment variable
    (production deployments set it once instead of threading a parameter
    through every call site), and finally to 1 — the sequential loop.
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_WORKERS must be an integer, got {raw!r}"
                ) from None
    if workers is None:
        return 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def resolve_sigma_block(sigma_block: int | None) -> int:
    """The effective sigma-block size for one verification call.

    ``None`` falls back to the ``REPRO_SIGMA_BLOCK`` environment
    variable and finally to 1 — classic one-sigma work units.  Sizes
    above 1 batch that many consecutive sigmas of a database into one
    ``(db_index, sigma_block)`` unit (see :class:`WorkUnit`).
    """
    if sigma_block is None:
        raw = os.environ.get("REPRO_SIGMA_BLOCK", "").strip()
        if raw:
            try:
                sigma_block = int(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_SIGMA_BLOCK must be an integer, got {raw!r}"
                ) from None
    if sigma_block is None:
        return 1
    if sigma_block < 1:
        raise ValueError(f"sigma_block must be >= 1, got {sigma_block}")
    return sigma_block


@dataclass(frozen=True)
class WorkUnit:
    """One independent model check with its cursor.

    Classically a single (database, sigma) pair; with sigma-blocking a
    unit covers a contiguous ``(db_index, sigma_block)`` *range* of
    sigmas of one database (``sigma_index``/``sigma`` then hold the
    first pair of the block, keeping the cursor meaning — and every
    pickled checkpoint — unchanged).  Blocked units amortise snapshot
    interning and label bitsets across their sigmas and keep pool
    dispatch overhead per block instead of per sigma.
    """

    db_index: int
    sigma_index: int
    database: Any
    sigma: dict | None  # None for the per-database procedures
    sigma_block: Any = None  # SigmaBlock | None

    @property
    def cursor(self) -> tuple[int, int]:
        return (self.db_index, self.sigma_index)

    def sigma_pairs(self) -> list:
        """The ``(sigma_index, sigma)`` pairs this unit covers, in order."""
        if self.sigma_block is not None:
            return list(self.sigma_block.entries)
        return [(self.sigma_index, self.sigma)]


@dataclass
class UnitOutcome:
    """What one work unit reported back.

    ``status`` is ``clean`` (no violation), ``violated`` (``detail``
    carries the procedure-specific counterexample payload), or
    ``budget`` (the unit's own governor struck; ``limit``/``message``
    say which, ``stats`` holds the partial counters).  ``events`` is the
    unit's trace-event batch (empty unless the task spec is traced):
    pool workers collect locally and ship the batch back here, and the
    parent merges batches into its tracer in cursor order.
    """

    db_index: int
    sigma_index: int
    status: str
    stats: dict = field(default_factory=dict)
    limit: str = ""
    message: str = ""
    detail: Any = None
    events: list[TraceEvent] = field(default_factory=list)
    #: Cursors of the sigmas a blocked unit fully checked (empty for
    #: classic single-sigma units — the unit's own cursor covers it).
    #: Checkpoints record these, so resume stays sigma-granular even
    #: when execution is block-granular.
    covered: list = field(default_factory=list)

    @property
    def cursor(self) -> tuple[int, int]:
        return (self.db_index, self.sigma_index)


@dataclass(frozen=True)
class TaskSpec:
    """Picklable description of the per-unit work of one entry point.

    ``procedure`` selects the registered checker; ``payload`` carries
    the procedure's own data (sentence, precompiled automaton, formula,
    flags); ``unit_limits`` are the caps each worker installs in its
    local :class:`Budget` (the per-pair/per-structure caps — the global
    caps stay with the parent governor).  ``traced`` tells workers to
    collect trace events per unit and ship them back with the outcome;
    when False (the default) workers run with the null tracer.
    ``faults`` is the deterministic :class:`~repro.faults.FaultPlan`
    under test, if any — workers perform the matching unit-site faults
    before running their checker (None, the default, costs one ``is
    None`` check per unit).
    """

    procedure: str
    service: Any
    payload: Mapping[str, Any]
    unit_limits: Mapping[str, Any]
    traced: bool = False
    faults: FaultPlan | None = None

    def make_unit_budget(self, timeout_s: float | None) -> Budget:
        return Budget(
            max_snapshots=self.unit_limits.get("max_snapshots"),
            max_states=self.unit_limits.get("max_states"),
            max_valuations=self.unit_limits.get("max_valuations"),
            timeout_s=timeout_s,
        ).start()


# -- checker registry -------------------------------------------------------

#: procedure name -> checker(spec, unit, budget, cache) -> UnitOutcome.
#: Checkers must be module-level (picklable by reference) and raise
#: VerificationBudgetExceeded when their governor strikes; the backends
#: decide whether that propagates (sequential) or becomes a BUDGET
#: outcome (pool workers).
_CHECKERS: dict[str, Callable[[TaskSpec, WorkUnit, Budget, dict], UnitOutcome]] = {}


def unit_checker(procedure: str):
    """Register the per-unit checker of one decision procedure."""

    def register(fn):
        _CHECKERS[procedure] = fn
        return fn

    return register


def _load_checkers() -> None:
    """Import every module that registers a checker (worker processes)."""
    import repro.verifier.branching  # noqa: F401
    import repro.verifier.errors  # noqa: F401
    import repro.verifier.linear  # noqa: F401
    import repro.verifier.search  # noqa: F401


# -- worker-side plumbing ---------------------------------------------------

_WORKER_SPEC: TaskSpec | None = None
_WORKER_CACHE: dict | None = None


def _init_worker(spec: TaskSpec) -> None:
    global _WORKER_SPEC, _WORKER_CACHE
    _load_checkers()
    _WORKER_SPEC = spec
    _WORKER_CACHE = {}
    # Compile the service's rule plans once per worker per TaskSpec (the
    # spec's service is unpickled exactly once per worker), so units never
    # pay plan-compile time.
    from repro.service.compiled import warm_service_plans

    warm_service_plans(spec.service)


def _execute_unit(
    spec: TaskSpec,
    unit: WorkUnit,
    timeout_s: float | None,
    cache: dict,
    injector: FaultInjector | None = None,
    attempt: int = 0,
) -> UnitOutcome:
    """Run one unit under its own local budget (worker or fallback).

    The shared core of the pool worker and the in-process pool-fallback
    path: a fresh unit budget from the spec's caps, a collecting tracer
    when the spec is traced, budget strikes converted to a BUDGET
    outcome.  ``attempt`` is the retry ordinal the supervisor assigned
    this execution — fault injection is keyed on it, so a transient
    injected fault fires on attempt 0 and lets the retry through.
    """
    if injector is not None:
        # may raise (a unit failure for the supervisor) or kill this
        # process outright when in_worker — that is the point
        injector.fire_unit(unit.cursor, attempt)
    gov = spec.make_unit_budget(timeout_s)
    tracer: Tracer = CollectingTracer() if spec.traced else NULL_TRACER
    gov.tracer = tracer
    started = time.monotonic()
    if tracer.active:
        tracer.emit("unit.start", cursor=unit.cursor)
    try:
        outcome = _CHECKERS[spec.procedure](spec, unit, gov, cache)
    except VerificationBudgetExceeded as exc:
        stats = dict(exc.stats)
        stats.setdefault("snapshots_explored", gov.snapshots_total)
        stats.setdefault("valuations_checked", gov.valuations)
        outcome = UnitOutcome(
            unit.db_index,
            unit.sigma_index,
            BUDGET,
            stats=stats,
            limit=exc.limit,
            message=str(exc),
        )
    if tracer.active:
        tracer.emit(
            "unit.finish", cursor=unit.cursor,
            dur=time.monotonic() - started, status=outcome.status,
        )
        outcome.events = tracer.events
    return outcome


def _pool_check(
    unit: WorkUnit, timeout_s: float | None, attempt: int = 0
) -> UnitOutcome:
    """Run one unit in a worker: local budget, shared per-worker cache."""
    spec = _WORKER_SPEC
    assert spec is not None, "worker used before initialization"
    injector = None
    if spec.faults is not None:
        injector = FaultInjector(spec.faults, in_worker=True)
    return _execute_unit(
        spec, unit, timeout_s, _WORKER_CACHE,
        injector=injector, attempt=attempt,
    )


# -- the unit stream --------------------------------------------------------

class UnitStream:
    """Lazy, resumable iterator of pending work units.

    Wraps the (streaming) database enumeration, applies the resume
    cursor and the completed-units frontier, charges the parent governor
    per database, and keeps ``cursor`` pointed at the unit most recently
    yielded (or the database being entered) — the position an
    interruption should checkpoint.
    """

    def __init__(
        self,
        databases: Iterable,
        gov: Budget,
        stats: dict,
        *,
        sigma_fn: Callable[[Any], Iterable[Mapping[str, Any]]] | None = None,
        resume: Checkpoint | None = None,
        on_database: Callable[[Any], None] | None = None,
        block_size: int = 1,
    ) -> None:
        self._databases = databases
        self._gov = gov
        self._stats = stats
        self._sigma_fn = sigma_fn
        self._on_database = on_database
        self._block_size = max(1, block_size)
        self._skip_db = resume.db_index if resume is not None else 0
        self._skip_sigma = resume.sigma_index if resume is not None else 0
        self._done = resume.completed_units() if resume is not None else frozenset()
        self._db_marks: dict[int, tuple[int, int]] = {}
        self.cursor: tuple[int, int] = (self._skip_db, self._skip_sigma)

    def __iter__(self) -> Iterator[WorkUnit]:
        tracer = self._gov.tracer
        for db_index, db in enumerate(self._databases):
            if db_index < self._skip_db or (
                self._sigma_fn is None and (db_index, 0) in self._done
            ):
                self._stats["databases_skipped"] += 1
                continue
            self.cursor = (db_index, 0)
            self._gov.charge_database()
            self._stats["databases_checked"] += 1
            self._db_marks[db_index] = (
                self._stats["databases_checked"],
                self._stats["databases_skipped"],
            )
            if tracer.active:
                tracer.emit(
                    "database.enumerated", cursor=(db_index, 0),
                    db_index=db_index, domain=len(db.domain),
                )
            if self._on_database is not None:
                self._on_database(db)
            if self._sigma_fn is None:
                yield WorkUnit(db_index, 0, db, None)
                continue
            n_sigmas = 0
            # Pending (sigma_index, sigma) pairs batched into units of
            # up to block_size consecutive sigmas (size 1 — the default
            # — reproduces the classic one-pair unit exactly, pickled
            # form included).
            batch: list[tuple[int, dict]] = []
            for sigma_index, sigma in enumerate(self._sigma_fn(db)):
                n_sigmas += 1
                if db_index == self._skip_db and sigma_index < self._skip_sigma:
                    continue
                if (db_index, sigma_index) in self._done:
                    continue
                batch.append((sigma_index, dict(sigma)))
                if len(batch) >= self._block_size:
                    yield self._make_unit(db_index, db, batch)
                    batch = []
            if batch:
                yield self._make_unit(db_index, db, batch)
            if tracer.active:
                tracer.emit(
                    "sigma.batch", cursor=(db_index, 0), count=n_sigmas
                )

    def _make_unit(
        self, db_index: int, db, batch: list[tuple[int, dict]]
    ) -> WorkUnit:
        first_index, first_sigma = batch[0]
        self.cursor = (db_index, first_index)
        if len(batch) == 1 and self._block_size == 1:
            return WorkUnit(db_index, first_index, db, first_sigma)
        return WorkUnit(
            db_index, first_index, db, first_sigma,
            sigma_block=SigmaBlock(db_index, tuple(batch)),
        )

    def clamp_db_stats(self, db_index: int) -> None:
        """Rewind the database counters to their values when ``db_index``
        was entered.

        The pool's submission window pulls this stream ahead of the
        units actually resolved, so on a violation the counters must be
        reset to the prefix a sequential run would have charged before
        stopping at that database.
        """
        mark = self._db_marks.get(db_index)
        if mark is not None:
            self._stats["databases_checked"] = mark[0]
            self._stats["databases_skipped"] = mark[1]


# -- outcome aggregation ----------------------------------------------------

def merge_unit_stats(agg: dict, unit_stats: Mapping[str, Any]) -> None:
    """Fold one unit's counters into the aggregate (sums; max for sizes)."""
    for key, value in unit_stats.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if key in _MAX_KEYS:
            agg[key] = max(agg.get(key, 0), value)
        else:
            agg[key] = agg.get(key, 0) + value


@dataclass
class EnumerationOutcome:
    """How one enumeration run ended, backend-independent.

    Exactly one of three shapes: a ``violation`` (lowest cursor), an
    ``interrupted`` budget exception with the ``pending`` frontier and
    ``completed`` out-of-order cursors, or neither (exhausted — HOLDS).
    ``quarantined`` is orthogonal: units that exhausted their retry
    budget, each recorded as ``{"cursor", "attempts", "error"}`` — a
    non-empty list degrades an otherwise-clean run to INCONCLUSIVE via
    :func:`apply_quarantine`.
    """

    violation: UnitOutcome | None = None
    interrupted: VerificationBudgetExceeded | None = None
    pending: list[tuple[int, int]] = field(default_factory=list)
    completed: list[tuple[int, int]] = field(default_factory=list)
    unit_stats: dict = field(default_factory=dict)
    quarantined: list[dict] = field(default_factory=list)


def frontier_checkpoint(
    outcome: EnumerationOutcome,
    *,
    procedure: str,
    property_name: str = "",
    domain_size: int | None = None,
    up_to_iso: bool | None = None,
    workers: int | None = None,
    resume: Checkpoint | None = None,
    extra: Mapping[str, Any] | None = None,
) -> Checkpoint:
    """The merged resumable checkpoint of an interrupted enumeration.

    The cursor is the lowest incomplete unit; completions beyond it
    (out-of-order parallel finishes, plus any carried over from the
    checkpoint being resumed) are recorded so the next run skips them.
    Quarantined units count as incomplete — a resume retries them with
    a fresh attempt budget — and are additionally recorded under
    ``extra["quarantined_units"]`` (the ``repro.checkpoint/2`` field)
    so the resuming operator can see what kept failing.
    """
    quarantined = sorted(
        {tuple(q["cursor"]) for q in outcome.quarantined}
    )
    pending = sorted(set(outcome.pending) | set(quarantined))
    cursor = pending[0] if pending else (0, 0)
    done: set[tuple[int, int]] = set(outcome.completed)
    if resume is not None:
        done |= resume.completed_units()
    ahead = sorted(c for c in done if c > cursor)
    payload = dict(extra or {})
    if ahead:
        payload["completed_units"] = [list(c) for c in ahead]
    if quarantined:
        payload["quarantined_units"] = [list(c) for c in quarantined]
    return Checkpoint(
        procedure=procedure,
        property_name=property_name,
        db_index=cursor[0],
        sigma_index=cursor[1],
        domain_size=domain_size,
        up_to_iso=up_to_iso,
        workers=workers,
        extra=payload,
    )


# -- supervision ------------------------------------------------------------

class RunInterrupted(VerificationBudgetExceeded):
    """A cooperative stop (SIGINT/SIGTERM) interrupted the run.

    A subclass of the budget exception so the whole graceful-degradation
    machinery — INCONCLUSIVE verdict, partial stats, resumable frontier
    checkpoint — applies to signals exactly as it does to deadlines;
    ``limit`` is always ``"interrupted"`` so callers (the CLI exit code)
    can tell the two apart.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(
            f"run interrupted by {reason}", limit="interrupted"
        )
        self.reason = reason


class StopToken:
    """A latch a signal handler can set from outside the run loop.

    Signal handlers must do almost nothing (they run between arbitrary
    bytecodes); setting this flag is all the CLI's SIGINT/SIGTERM
    handlers do.  The supervision loop polls it at every scheduling
    step and turns it into a :class:`RunInterrupted` — so the engine
    winds down through its own checkpoint-flushing path instead of a
    ``KeyboardInterrupt`` unwinding mid-pool.
    """

    def __init__(self) -> None:
        self.reason: str | None = None

    def set(self, reason: str = "signal") -> None:
        self.reason = reason

    def clear(self) -> None:
        self.reason = None

    def __bool__(self) -> bool:
        return self.reason is not None


#: The process-wide stop token the CLI's signal handlers set.  Library
#: callers who want their own scoping can pass a private token via
#: ``Supervisor(stop=...)``.
GLOBAL_STOP = StopToken()


@dataclass(frozen=True)
class RetryPolicy:
    """How transient unit failures are retried.

    ``max_retries`` bounds the *re*-executions of one unit (0 disables
    retry: first failure quarantines).  The backoff before retry *n*
    (0-based) is ``min(backoff_max_s, backoff_base_s * 2**n)`` scaled by
    ``1 + backoff_jitter * u`` with ``u`` drawn deterministically from
    the fault-plan seed and the unit cursor — reproducible schedules,
    but no thundering herd when many units fail at once.
    ``unit_timeout_s`` is the per-execution wall-clock allowance (pool
    backend only — an in-process unit cannot be preempted);
    ``max_pool_rebuilds`` bounds pool reconstruction before the run
    falls back to the in-process backend.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    backoff_jitter: float = 0.1
    unit_timeout_s: float | None = None
    max_pool_rebuilds: int = 8

    def backoff_s(
        self, cursor: tuple[int, int], attempt: int, seed: int = 0
    ) -> float:
        base = min(self.backoff_max_s, self.backoff_base_s * (2 ** attempt))
        if self.backoff_jitter <= 0:
            return base
        u = random.Random(
            f"{seed}:{cursor[0]}:{cursor[1]}:{attempt}"
        ).random()
        return base * (1.0 + self.backoff_jitter * u)


def _env_number(name: str, convert, minimum) -> Any:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = convert(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be {'an integer' if convert is int else 'a number'},"
            f" got {raw!r}"
        ) from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


class Supervisor:
    """Failure handling for one enumeration run.

    Owns the retry policy, the resolved fault plan, the stop token, the
    quarantine record, and the periodic-checkpoint sink.  One instance
    per ``run_units`` call; entry points build it from their
    ``retry=`` / ``unit_timeout_s=`` / ``faults=`` / ``checkpoint_path=``
    / ``checkpoint_every=`` keywords (environment fallbacks:
    ``REPRO_RETRY``, ``REPRO_UNIT_TIMEOUT_S``, ``REPRO_FAULTS``,
    ``REPRO_CHECKPOINT_EVERY``) and point ``frontier_kwargs`` at their
    :func:`frontier_checkpoint` parameters so mid-run checkpoints carry
    the same identity as end-of-run ones.
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        *,
        plan: FaultPlan | None = None,
        checkpoint_path: Any = None,
        checkpoint_every: int | None = None,
        stop: StopToken | None = None,
    ) -> None:
        self.policy = policy or RetryPolicy()
        self.plan = plan
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.stop = stop if stop is not None else GLOBAL_STOP
        #: set by the entry point: frontier_checkpoint(...) keywords for
        #: periodic checkpoints (None = periodic checkpointing disabled)
        self.frontier_kwargs: dict[str, Any] | None = None
        self.quarantined: list[dict] = []
        self.retries = 0
        self.pool_rebuilds = 0
        self.checkpoints_written = 0
        self._since_checkpoint = 0
        self._stop_announced = False

    @classmethod
    def resolve(
        cls,
        *,
        retry: int | None = None,
        unit_timeout_s: float | None = None,
        faults: Any = None,
        checkpoint_path: Any = None,
        checkpoint_every: int | None = None,
        stop: StopToken | None = None,
    ) -> "Supervisor":
        """Build the supervisor for one call, applying env fallbacks."""
        if retry is None:
            retry = _env_number("REPRO_RETRY", int, 0)
        if unit_timeout_s is None:
            unit_timeout_s = _env_number("REPRO_UNIT_TIMEOUT_S", float, 0.0)
        if checkpoint_every is None:
            checkpoint_every = _env_number("REPRO_CHECKPOINT_EVERY", int, 1)
        if retry is not None and retry < 0:
            raise ValueError(f"retry must be >= 0, got {retry}")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        defaults = RetryPolicy()
        policy = RetryPolicy(
            max_retries=defaults.max_retries if retry is None else retry,
            unit_timeout_s=unit_timeout_s,
        )
        return cls(
            policy,
            plan=resolve_fault_plan(faults),
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            stop=stop,
        )

    # -- stop / fault plumbing --------------------------------------------

    def check_stop(self, tracer: Tracer) -> None:
        """Raise :class:`RunInterrupted` when the stop token is set."""
        reason = self.stop.reason
        if reason is None:
            return
        if tracer.active and not self._stop_announced:
            tracer.emit("run.interrupted", signal=reason)
        self._stop_announced = True
        raise RunInterrupted(reason)

    def announce_fault(
        self, tracer: Tracer, site: str,
        cursor: tuple[int, int], attempt: int,
    ) -> None:
        """Emit ``fault.injected`` parent-side for a matching fault.

        The parent announces because the fault may kill the worker
        before it could ship its own trace events home.
        """
        if self.plan is None or not tracer.active:
            return
        spec = self.plan.match(site, cursor, attempt)
        if spec is not None:
            tracer.emit(
                "fault.injected", cursor=cursor,
                kind=spec.kind, site=site, attempt=attempt,
            )

    def local_injector(self) -> FaultInjector | None:
        """The in-process injector (sequential backend, checkpoint site)."""
        if self.plan is None:
            return None
        return FaultInjector(self.plan, in_worker=False, _sleep=_SLEEP)

    # -- retry / quarantine ------------------------------------------------

    def should_retry(self, attempt: int) -> bool:
        return attempt < self.policy.max_retries

    def backoff_for(self, cursor: tuple[int, int], attempt: int) -> float:
        seed = self.plan.seed if self.plan is not None else 0
        return self.policy.backoff_s(cursor, attempt, seed)

    def note_retry(
        self, tracer: Tracer, cursor: tuple[int, int],
        attempt: int, delay: float, error: BaseException | str,
    ) -> None:
        self.retries += 1
        if tracer.active:
            tracer.emit(
                "unit.retry", cursor=cursor, attempt=attempt,
                backoff_s=round(delay, 6), error=str(error),
            )

    def quarantine(
        self, out: EnumerationOutcome, tracer: Tracer,
        cursor: tuple[int, int], attempts: int, error: BaseException | str,
    ) -> None:
        """Record a poison unit; the run continues without it."""
        record = {
            "cursor": tuple(cursor),
            "attempts": attempts,
            "error": str(error),
        }
        self.quarantined.append(record)
        out.quarantined.append(record)
        if tracer.active:
            tracer.emit(
                "unit.quarantined", cursor=cursor,
                attempts=attempts, error=str(error),
            )

    def counters(self) -> dict[str, int]:
        """Supervision counters folded into the run's stats (only when
        something actually happened, so fault-free runs keep stats
        byte-identical to the unsupervised engine)."""
        out: dict[str, int] = {}
        if self.retries:
            out["units_retried"] = self.retries
        if self.pool_rebuilds:
            out["pool_rebuilds"] = self.pool_rebuilds
        if self.checkpoints_written:
            out["checkpoints_written"] = self.checkpoints_written
        return out

    # -- periodic checkpoints ----------------------------------------------

    def note_completed(
        self, tracer: Tracer, out: EnumerationOutcome,
        incomplete: Iterable[tuple[int, int]] = (),
    ) -> None:
        """One unit completed; maybe flush a periodic checkpoint."""
        if self.checkpoint_path is None or self.checkpoint_every is None:
            return
        self._since_checkpoint += 1
        if self._since_checkpoint < self.checkpoint_every:
            return
        self._since_checkpoint = 0
        self.write_checkpoint(tracer, out, incomplete)

    def write_checkpoint(
        self, tracer: Tracer, out: EnumerationOutcome,
        incomplete: Iterable[tuple[int, int]] = (),
    ) -> None:
        """Atomically write the current frontier to ``checkpoint_path``.

        ``incomplete`` is the set of cursors known to be in flight,
        queued for retry, or otherwise unfinished; everything completed
        is recorded so a resume re-runs exactly the rest.  An injected
        ``checkpoint`` fault interrupts between the temp write and the
        rename — the previous file must survive (that is the test).
        """
        if self.checkpoint_path is None or self.frontier_kwargs is None:
            return
        from repro.io import save_checkpoint

        snapshot = EnumerationOutcome(
            pending=sorted(set(incomplete)),
            completed=list(out.completed),
            quarantined=list(out.quarantined),
        )
        ckpt = frontier_checkpoint(snapshot, **self.frontier_kwargs)
        cursor = (ckpt.db_index, ckpt.sigma_index)
        interrupt = None
        injector = self.local_injector()
        if injector is not None:
            self.announce_fault(tracer, "checkpoint", cursor, 0)
            interrupt = lambda: injector.checkpoint_interrupt(cursor)  # noqa: E731
        try:
            save_checkpoint(ckpt, self.checkpoint_path, interrupt=interrupt)
        except CheckpointWriteInterrupted:
            # the simulated kill: this update is lost, the previous
            # checkpoint file is intact — exactly what a real SIGKILL
            # between write and rename leaves behind
            return
        self.checkpoints_written += 1
        if tracer.active:
            tracer.emit(
                "checkpoint.saved", cursor=cursor,
                path=str(self.checkpoint_path),
                completed=len(snapshot.completed),
            )


def apply_quarantine(outcome: EnumerationOutcome, stats: dict) -> None:
    """Fold quarantine state into the run's stats and verdict shape.

    Quarantined cursors land in ``stats["quarantined_units"]``
    regardless of verdict.  A run that would otherwise report HOLDS is
    marked interrupted instead — the quarantined units were *never
    verified*, so claiming the property holds over them would be
    unsound; the standard degradation path then returns INCONCLUSIVE
    with a checkpoint whose pending frontier retries them.  A VIOLATED
    verdict stands: the counterexample is genuine whatever happened to
    other units.
    """
    if not outcome.quarantined:
        return
    cursors = sorted({tuple(q["cursor"]) for q in outcome.quarantined})
    stats["quarantined_units"] = [list(c) for c in cursors]
    if outcome.violation is None and outcome.interrupted is None:
        preview = "; ".join(
            f"{tuple(q['cursor'])}: {q['error']}"
            for q in outcome.quarantined[:3]
        )
        outcome.interrupted = VerificationBudgetExceeded(
            f"{len(cursors)} work unit(s) quarantined after repeated "
            f"failures ({preview})",
            limit="quarantined_units",
        )


# -- backends ---------------------------------------------------------------

def run_units(
    spec: TaskSpec,
    stream: UnitStream,
    gov: Budget,
    workers: int,
    supervisor: Supervisor | None = None,
) -> EnumerationOutcome:
    """Run every pending unit; first confirmed lowest-cursor violation wins.

    ``workers <= 1`` is the classic sequential loop sharing the parent
    governor (identical charging order to the pre-parallel verifier);
    ``workers > 1`` fans units out to a process pool.  ``supervisor``
    carries the failure model (retry, quarantine, timeouts, periodic
    checkpoints, stop token); None builds one from the environment
    defaults.
    """
    sup = supervisor if supervisor is not None else Supervisor.resolve()
    if workers <= 1:
        out = _run_sequential(spec, stream, gov, sup)
    else:
        out = _run_pool(spec, stream, gov, workers, sup)
    for key, value in sup.counters().items():
        out.unit_stats[key] = out.unit_stats.get(key, 0) + value
    return out


def _attempt_unit_local(
    spec: TaskSpec,
    unit: WorkUnit,
    gov: Budget,
    cache: dict,
    sup: Supervisor,
    out: EnumerationOutcome,
    first_attempt: int = 0,
) -> UnitOutcome | None:
    """Run one unit in-process under the retry policy.

    Returns the outcome, or None when the unit was quarantined.  Budget
    exhaustion propagates — it is a verdict about the search, not a
    failure of the machinery.  Injected ``crash`` faults are downgraded
    to transient errors by the injector (``in_worker=False``): the
    parent process is not expendable.
    """
    checker = _CHECKERS[spec.procedure]
    tracer = gov.tracer
    injector = sup.local_injector()
    attempt = first_attempt
    while True:
        sup.check_stop(tracer)
        sup.announce_fault(tracer, "unit", unit.cursor, attempt)
        if tracer.active:
            tracer.emit("unit.start", cursor=unit.cursor)
        started = time.monotonic()
        try:
            if injector is not None:
                injector.fire_unit(unit.cursor, attempt)
            return_value = checker(spec, unit, gov, cache)
        except VerificationBudgetExceeded:
            if tracer.active:
                tracer.emit(
                    "unit.finish", cursor=unit.cursor,
                    dur=time.monotonic() - started, status=BUDGET,
                )
            raise
        except Exception as exc:
            if tracer.active:
                tracer.emit(
                    "unit.finish", cursor=unit.cursor,
                    dur=time.monotonic() - started, status="failed",
                )
            if not sup.should_retry(attempt):
                sup.quarantine(out, tracer, unit.cursor, attempt + 1, exc)
                return None
            delay = sup.backoff_for(unit.cursor, attempt)
            sup.note_retry(tracer, unit.cursor, attempt, delay, exc)
            _SLEEP(delay)
            attempt += 1
            continue
        if tracer.active:
            tracer.emit(
                "unit.finish", cursor=unit.cursor,
                dur=time.monotonic() - started, status=return_value.status,
            )
        return return_value


def _run_sequential(
    spec: TaskSpec, stream: UnitStream, gov: Budget, sup: Supervisor
) -> EnumerationOutcome:
    """The classic in-process loop; trace events stream live, in cursor
    order, straight into the parent tracer (no batching needed — units
    complete in the order the stream yields them)."""
    tracer = gov.tracer
    cache: dict = {}
    out = EnumerationOutcome()
    try:
        for unit in stream:
            result = _attempt_unit_local(spec, unit, gov, cache, sup, out)
            if result is None:  # quarantined; move on
                continue
            if result.status == VIOLATED:
                merge_unit_stats(out.unit_stats, result.stats)
                out.violation = result
                return out
            # A blocked unit reports every sigma it covered so resume
            # frontiers stay sigma-granular; classic units cover exactly
            # their own cursor.
            out.completed.extend(result.covered or [unit.cursor])
            merge_unit_stats(out.unit_stats, result.stats)
            sup.note_completed(tracer, out)
    except VerificationBudgetExceeded as exc:
        out.interrupted = exc
        out.pending = [stream.cursor]
        sup.write_checkpoint(tracer, out, incomplete=out.pending)
    return out


@dataclass
class _Flight:
    """One submitted pool execution: the unit, the retry ordinal this
    execution runs at, and its wall-clock deadline (None when no unit
    timeout is configured)."""

    unit: WorkUnit
    attempt: int
    deadline: float | None


def _run_pool(
    spec: TaskSpec, stream: UnitStream, gov: Budget, workers: int,
    sup: Supervisor,
) -> EnumerationOutcome:
    out = EnumerationOutcome()
    tracer = gov.tracer
    policy = sup.policy
    window = max(2 * workers, workers + 2)
    units = iter(stream)
    exhausted = False
    stop_stream = False  # no more units pulled from the stream
    halt = False  # interrupted: nothing new starts, running units drain
    in_flight: dict[Future, _Flight] = {}
    #: failed units waiting out their backoff: (release_time, unit, attempt)
    retry_q: list[tuple[float, WorkUnit, int]] = []
    #: units to re-run one at a time after a pool break (crash suspects)
    probation: list[tuple[WorkUnit, int]] = []
    #: units ready for immediate resubmission (due retries, timeout innocents)
    pending_submit: list[tuple[WorkUnit, int]] = []
    seq_cache: dict = {}  # checker cache for the in-process fallback
    best: UnitOutcome | None = None
    # Per-unit stats, folded into out.unit_stats only once the verdict
    # is known: on a violation the aggregate must cover exactly the
    # prefix of units at or below the winning cursor (what a sequential
    # run charges), not whatever speculative units happened to finish
    # before cancellation — stats stay worker-count-independent.
    stats_by_cursor: dict[tuple[int, int], Mapping[str, Any]] = {}
    # Trace-event batches shipped back by workers, buffered until the
    # verdict is known and then merged into the parent tracer in cursor
    # order under the same filter as the stats — the trace covers the
    # same unit set at every worker count.
    events_by_cursor: dict[tuple[int, int], list[TraceEvent]] = {}
    pool: ProcessPoolExecutor | None = None

    def flush_events(limit_cursor: tuple[int, int] | None) -> None:
        if not gov.tracer.active:
            return
        for cursor in sorted(events_by_cursor):
            if limit_cursor is not None and cursor > limit_cursor:
                continue
            for event in events_by_cursor[cursor]:
                gov.tracer.emit_event(event)

    def interrupt(exc: VerificationBudgetExceeded) -> None:
        nonlocal stop_stream, halt
        if out.interrupted is None:
            out.interrupted = exc
        stop_stream = True
        halt = True
        # queued work will not run; record it as pending for the resume
        out.pending.extend(u.cursor for (_, u, _a) in retry_q)
        out.pending.extend(u.cursor for (u, _a) in probation)
        out.pending.extend(u.cursor for (u, _a) in pending_submit)
        retry_q.clear()
        probation.clear()
        pending_submit.clear()

    def stream_refused(exc: VerificationBudgetExceeded) -> None:
        # The stream raised while yielding its next unit (the database
        # cap, or the deadline during enumeration): stop pulling, but
        # let the units already pulled drain — in flight, awaiting a
        # retry or on probation — as the sequential loop finishes every
        # unit before the stream refuses the next.  Their databases are
        # already charged inside the cap.  ``pending`` then falls back
        # to ``stream.cursor``, as in sequential; a deadline still
        # halts through the idle tick or the drained units' own
        # budgets.
        nonlocal stop_stream
        if out.interrupted is None:
            out.interrupted = exc
        stop_stream = True

    def incomplete_cursors() -> set[tuple[int, int]]:
        cursors = {flight.unit.cursor for flight in in_flight.values()}
        cursors.update(u.cursor for (_, u, _a) in retry_q)
        cursors.update(u.cursor for (u, _a) in probation)
        cursors.update(u.cursor for (u, _a) in pending_submit)
        if not exhausted:
            cursors.add(stream.cursor)
        return cursors

    def handle_result(unit: WorkUnit, result: UnitOutcome) -> None:
        nonlocal best
        if result.events:
            events_by_cursor[unit.cursor] = result.events
        if result.status == BUDGET:
            out.pending.append(unit.cursor)
            stats_by_cursor[unit.cursor] = result.stats
            interrupt(
                VerificationBudgetExceeded(
                    result.message, limit=result.limit, stats=result.stats,
                )
            )
            return
        if result.status == VIOLATED:
            # the violating sigma's own cursor, plus any clean sigmas a
            # blocked unit checked before it
            out.completed.extend([*result.covered, result.cursor])
        else:
            out.completed.extend(result.covered or [unit.cursor])
        stats_by_cursor[unit.cursor] = result.stats
        if result.status == VIOLATED and (
            best is None or result.cursor < best.cursor
        ):
            best = result
        try:
            gov.absorb(result.stats)
        except VerificationBudgetExceeded as exc:
            interrupt(exc)
        sup.note_completed(tracer, out, incomplete=incomplete_cursors())

    def handle_failure(
        unit: WorkUnit, attempt: int, error: BaseException | str
    ) -> None:
        if sup.should_retry(attempt):
            delay = sup.backoff_for(unit.cursor, attempt)
            sup.note_retry(tracer, unit.cursor, attempt, delay, error)
            retry_q.append((_MONOTONIC() + delay, unit, attempt + 1))
        else:
            sup.quarantine(out, tracer, unit.cursor, attempt + 1, error)

    def kill_pool() -> None:
        # a hung or crashed worker cannot be joined; SIGKILL the whole
        # cohort and abandon the executor without waiting
        nonlocal pool
        if pool is None:
            return
        procs = getattr(pool, "_processes", None)
        for proc in list((procs or {}).values()):
            try:
                proc.kill()
            except Exception:
                pass  # already reaped
        pool.shutdown(wait=False, cancel_futures=True)
        pool = None

    def rebuild(cause: str) -> None:
        nonlocal pool
        kill_pool()
        sup.pool_rebuilds += 1
        giving_up = sup.pool_rebuilds > policy.max_pool_rebuilds
        if tracer.active:
            tracer.emit(
                "pool.rebuilt", cursor=stream.cursor, cause=cause,
                rebuilds=sup.pool_rebuilds, fallback=giving_up,
            )
        if giving_up:
            return  # in-process fallback from here on
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(spec,),
            )
        except Exception:
            pool = None

    def on_pool_break() -> None:
        flights = sorted(in_flight.values(), key=lambda f: f.unit.cursor)
        in_flight.clear()
        if len(flights) == 1:
            # a unit that breaks the pool while running alone is the
            # proven culprit: charge the failure to its retry budget
            flight = flights[0]
            handle_failure(
                flight.unit, flight.attempt,
                "worker process died (pool broken)",
            )
        else:
            # cannot tell which in-flight unit killed the pool: re-run
            # them one at a time so the culprit identifies itself
            # without charging the innocents' retry budget
            probation.extend((f.unit, f.attempt) for f in flights)
        rebuild("worker-crash")

    def scan_timeouts() -> None:
        if policy.unit_timeout_s is None or not in_flight:
            return
        now = _MONOTONIC()
        expired: list[_Flight] = []
        innocent: list[_Flight] = []
        for flight in in_flight.values():
            if flight.deadline is not None and now >= flight.deadline:
                expired.append(flight)
            else:
                innocent.append(flight)
        if not expired:
            return
        in_flight.clear()
        for flight in sorted(expired, key=lambda f: f.unit.cursor):
            if tracer.active:
                tracer.emit(
                    "unit.timeout", cursor=flight.unit.cursor,
                    attempt=flight.attempt,
                    timeout_s=policy.unit_timeout_s,
                )
            handle_failure(
                flight.unit, flight.attempt,
                f"unit exceeded {policy.unit_timeout_s}s wall-clock "
                "timeout",
            )
        # the innocents lose their in-progress work with the pool, but
        # not their retry budget: resubmit at the same attempt
        pending_submit.extend(
            (f.unit, f.attempt)
            for f in sorted(innocent, key=lambda f: f.unit.cursor)
        )
        rebuild("unit-timeout")

    def launch(unit: WorkUnit, attempt: int) -> bool:
        sup.announce_fault(tracer, "unit", unit.cursor, attempt)
        deadline = None
        if policy.unit_timeout_s is not None:
            deadline = _MONOTONIC() + policy.unit_timeout_s
        try:
            fut = pool.submit(
                _pool_check, unit, gov.remaining_time(), attempt
            )
        except (BrokenProcessPool, RuntimeError):
            # the pool died under us mid-submit; this unit never ran
            pending_submit.insert(0, (unit, attempt))
            on_pool_break()
            return False
        in_flight[fut] = _Flight(unit, attempt, deadline)
        return True

    try:
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(spec,)
        )
    except Exception:
        pool = None  # cannot even start a pool: run everything in-process

    try:
        while True:
            # cooperative stop (SIGINT/SIGTERM via the stop token)
            if sup.stop and out.interrupted is None:
                try:
                    sup.check_stop(tracer)
                except RunInterrupted as exc:
                    # promptness over drain: kill running units, record
                    # them pending, and flush the final checkpoint
                    for flight in in_flight.values():
                        out.pending.append(flight.unit.cursor)
                    in_flight.clear()
                    interrupt(exc)
                    kill_pool()

            if halt and not in_flight:
                break

            # promote retries whose backoff has elapsed
            if retry_q and not halt:
                now = _MONOTONIC()
                due = sorted(
                    (e for e in retry_q if e[0] <= now),
                    key=lambda e: e[1].cursor,
                )
                if due:
                    retry_q[:] = [e for e in retry_q if e[0] > now]
                    pending_submit.extend((u, a) for (_, u, a) in due)

            if pool is not None and not halt:
                # keep the submission window full (one unit at a time
                # while crash suspects are on probation).  The stream
                # itself can raise (database cap, deadline during
                # enumeration) — that stops submission from the stream
                # but every unit already pulled still runs.
                if probation:
                    if not in_flight:
                        unit, attempt = probation.pop(0)
                        launch(unit, attempt)
                else:
                    while pool is not None and len(in_flight) < window:
                        if pending_submit:
                            unit, attempt = pending_submit.pop(0)
                        elif not (exhausted or stop_stream):
                            try:
                                unit, attempt = next(units), 0
                            except StopIteration:
                                exhausted = True
                                continue
                            except VerificationBudgetExceeded as exc:
                                stream_refused(exc)
                                break
                        else:
                            break
                        if not launch(unit, attempt):
                            break

            if pool is not None and in_flight:
                done, _ = wait(
                    in_flight, timeout=0.1, return_when=FIRST_COMPLETED
                )
                broke = False
                for fut in sorted(
                    done, key=lambda f: in_flight[f].unit.cursor
                ):
                    flight = in_flight.pop(fut)
                    if fut.cancelled():
                        out.pending.append(flight.unit.cursor)
                        continue
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        # every in-flight future died with the pool
                        in_flight[fut] = flight
                        broke = True
                        break
                    except Exception as exc:
                        handle_failure(flight.unit, flight.attempt, exc)
                        continue
                    handle_result(flight.unit, result)
                if broke:
                    on_pool_break()
                else:
                    if not done and not halt:
                        # Idle tick: let the parent deadline fire even
                        # when no unit completed in this window.
                        try:
                            gov.check_deadline()
                        except VerificationBudgetExceeded as exc:
                            interrupt(exc)
                    scan_timeouts()
            elif pool is None and not halt:
                # in-process fallback: the pool could not be (re)built;
                # run one unit per iteration with the same per-unit
                # budget semantics a worker would have used
                item = None
                if probation:
                    item = probation.pop(0)
                elif pending_submit:
                    item = pending_submit.pop(0)
                elif not (exhausted or stop_stream):
                    try:
                        item = (next(units), 0)
                    except StopIteration:
                        exhausted = True
                    except VerificationBudgetExceeded as exc:
                        stream_refused(exc)
                if item is not None:
                    unit, attempt = item
                    sup.announce_fault(tracer, "unit", unit.cursor, attempt)
                    try:
                        result = _execute_unit(
                            spec, unit, gov.remaining_time(), seq_cache,
                            injector=sup.local_injector(), attempt=attempt,
                        )
                    except Exception as exc:
                        handle_failure(unit, attempt, exc)
                    else:
                        handle_result(unit, result)

            if best is not None:
                # Units beyond the best violation cannot change the
                # answer: cancel what hasn't started, stop submitting,
                # and only await the units below the best cursor.
                stop_stream = True
                for fut, flight in list(in_flight.items()):
                    if flight.unit.cursor > best.cursor and fut.cancel():
                        del in_flight[fut]
                pending_submit[:] = [
                    (u, a) for (u, a) in pending_submit
                    if u.cursor < best.cursor
                ]
                retry_q[:] = [
                    e for e in retry_q if e[1].cursor < best.cursor
                ]
                probation[:] = [
                    (u, a) for (u, a) in probation if u.cursor < best.cursor
                ]
            if halt and best is None:
                # Interrupted: anything not yet started is pending; the
                # already-running units drain (their own deadline mirrors
                # the parent's, so this does not hang).
                for fut, flight in list(in_flight.items()):
                    if fut.cancel():
                        out.pending.append(flight.unit.cursor)
                        del in_flight[fut]

            if (
                not in_flight and not pending_submit and not probation
                and retry_q and not halt
            ):
                # nothing runnable until the earliest backoff elapses
                earliest = min(e[0] for e in retry_q)
                _SLEEP(min(0.1, max(0.0, earliest - _MONOTONIC())))

            if (
                not in_flight and not retry_q and not probation
                and not pending_submit
                and (exhausted or stop_stream or halt)
            ):
                break
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    if best is not None:
        below = sorted(c for c in set(out.pending) if c < best.cursor)
        if below:
            # A unit below the winning violation was itself interrupted:
            # the sequential order would have stopped there before ever
            # reaching this violation.  Resolve INCONCLUSIVE at that
            # frontier so the verdict stays worker-count-independent;
            # the violation is rediscovered on resume.
            out.pending = below
            for cursor, unit_stats in stats_by_cursor.items():
                merge_unit_stats(out.unit_stats, unit_stats)
            flush_events(None)
            if out.interrupted is None:  # pragma: no cover - defensive
                out.interrupted = VerificationBudgetExceeded(
                    "a unit below the first violation was interrupted",
                    limit="budget",
                )
            return out
        out.violation = best
        out.interrupted = None
        out.pending = []
        for cursor, unit_stats in stats_by_cursor.items():
            if cursor <= best.cursor:
                merge_unit_stats(out.unit_stats, unit_stats)
        flush_events(best.cursor)
        stream.clamp_db_stats(best.db_index)
        return out
    for cursor, unit_stats in stats_by_cursor.items():
        merge_unit_stats(out.unit_stats, unit_stats)
    flush_events(None)
    if out.interrupted is not None:
        if not out.pending:
            out.pending = [stream.cursor]
        else:
            out.pending = sorted(set(out.pending))
        sup.write_checkpoint(tracer, out, incomplete=out.pending)
    return out
