"""Parallel verification: work units over the (database, sigma) enumeration.

Every decision procedure in this package has the same outer shape — a
deterministic enumeration of candidate databases (and, for the
linear-time procedures, input-constant interpretations sigma within
each database) with an *independent* model check per pair.  That
independence is what the paper's operational strategy (and the WAVE
verifier after it) exploits, and it makes the enumeration embarrassingly
parallel: this module packs the ``(sigma_index, sigma)`` pairs of a
database into work units (:class:`WorkUnit`) and runs the units either
in-process (the classic sequential loop) or on a
:class:`~concurrent.futures.ProcessPoolExecutor` selected with
``workers=N``.

Guarantees, regardless of worker count, all from one rule: the pool
runs units in any order but **commits** them in cursor order, each once
every unit below it has committed, and only a commit folds anything
into the run.

- **Deterministic verdicts.**  A violated property always reports the
  violation with the *lowest* (db_index, sigma_index) cursor, not the
  first one a worker happened to finish — so ``workers=1`` and
  ``workers=8`` return the same verdict, the same counterexample
  database and the same counterexample cursor.
- **Early cancellation.**  Once a violation, or a unit's own budget
  strike, arrives at cursor *c*, no new units are pulled and the units
  above *c* are cancelled or dropped; the units below *c* still run,
  retry and commit (one of them could hold a lower violation or
  strike), and the run ends when *c* commits.
- **Budget integration.**  The parent governor keeps charging the
  database cap and the wall-clock deadline as the stream is pulled;
  workers enforce the per-pair caps and the remaining deadline locally,
  and the parent absorbs their counters as units commit, so global caps
  and aggregate stats cover exactly the prefix a sequential run covers.
- **Resumable frontier.**  On interruption the checkpoint's cursor is
  the lowest unit pulled and not committed; completions beyond it
  (units committed past a quarantined one) are recorded in
  ``extra["completed_units"]``, so a resume — sequential or parallel —
  re-runs exactly the rest.  Where no uncommitted unit has been pulled
  (always, in the sequential loop) the cursor is the unit just
  committed, listed as completed.  Units that finished past the
  frontier never committed, so a resume redoes them: at most one
  submission window.
- **Deterministic traces.**  When a :mod:`repro.obs` tracer is active,
  workers collect their unit's events locally and ship the batch back
  with the :class:`UnitOutcome`; the parent emits each batch into its
  tracer as the unit commits, in **cursor order** — so the traced unit
  set is identical at every worker count, progress shows live, and
  per-process timestamps stay monotonic in file order.

Supervision's trace events and ``pool_rebuilds`` are the one exception
to the commit rule: the parent emits ``fault.injected``, ``unit.retry``,
``unit.timeout``, ``unit.quarantined`` and ``pool.rebuilt`` and counts
``pool_rebuilds`` when they happen, so in a pool run they may cover a
unit that a stop below it later drops, which the sequential loop never
runs.  ``units_retried`` commits: a unit's retries count when its
outcome, its own strike or its quarantine record commits, so a unit
dropped above a stop adds none.

The streaming is lazy end-to-end: databases are pulled from the
canonical enumeration one at a time and shipped to workers in a bounded
submission window, never materialized as a list.

Workers are spawned per verification call with the task's specification
pickled once into each worker (the checker, the service, the property,
the precompiled Büchi automaton, the unit budget caps) — the per-unit
messages carry only the database and the sigmas.  The checker is a
module-level function, which pickle stores by reference: unpickling the
specification imports the checker's module in the worker, so there is
no checker registry.  The worker count, like every option, is resolved
by the engine (``workers=``, else ``REPRO_WORKERS``, else 1).

**Fault tolerance.**  A run that takes hours must survive the failures
hours bring: a worker segfault, a stuck unit, a SIGTERM from the
scheduler.  The :class:`Supervisor` wraps both backends with a failure
model:

- **Retry with backoff.**  A unit whose execution raises (anything
  that is not a budget verdict) is retried up to ``retry`` times with
  exponential backoff and deterministic jitter (:func:`backoff_s`);
  verdicts stay lowest-cursor-deterministic because a unit's *result*
  is a pure function of ``(db, sigma)`` — retrying changes when it is
  computed, never what it is.  :meth:`Supervisor.failed` is the one
  rule both backends apply to a failed execution.
- **Crash recovery.**  A dead worker (``BrokenProcessPool``) kills the
  whole pool; the supervisor rebuilds it and re-runs the in-flight
  units one at a time, each alone in the pool, so the culprit
  identifies itself instead of taking innocent units' retry budget
  with it.
- **Unit timeouts.**  With ``unit_timeout_s`` set, a unit that exceeds
  its wall-clock allowance is treated as hung: the pool is rebuilt
  (a stuck worker cannot be preempted, only killed) and the unit
  retried.  The allowance also bounds executions whose outcome the run
  will never read (dropped above a stop, or running when the run
  ends): past it they are killed, uncharged.
- **Quarantine.**  A unit that exhausts its retries is quarantined —
  recorded in ``stats["quarantined_units"]`` and the checkpoint — and
  the run *continues*; an otherwise-clean verdict degrades to
  INCONCLUSIVE (the quarantined space was never verified) instead of
  the whole run aborting.
- **Fallback.**  If the pool cannot be started, or has been rebuilt
  more than :data:`_MAX_POOL_REBUILDS` times, an in-process executor
  takes its place and runs the remaining units one at a time —
  slower, but the run finishes.
- **Crash-safe checkpoints.**  With ``checkpoint_every=N``, the
  frontier is atomically written every N committed units (and on
  SIGINT/SIGTERM via :data:`GLOBAL_STOP`), so a kill at any moment
  loses at most N units of work, plus the pool's window, and can never
  corrupt the resume file.

Deterministic fault *injection* for testing all of the above lives in
:mod:`repro.faults`.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from repro.faults import (
    CheckpointWriteInterrupted,
    FaultInjector,
    FaultPlan,
)
from repro.obs import NULL_TRACER, CollectingTracer, TraceEvent, Tracer
from repro.verifier.budget import Budget, Checkpoint
from repro.verifier.results import VerificationBudgetExceeded

if TYPE_CHECKING:  # the engine imports this module
    from repro.verifier.engine import RunConfig

__all__ = [
    "WorkUnit",
    "UnitOutcome",
    "TaskSpec",
    "UnitStream",
    "EnumerationOutcome",
    "RunInterrupted",
    "StopToken",
    "GLOBAL_STOP",
    "Supervisor",
    "apply_quarantine",
    "backoff_s",
    "run_units",
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

#: The backoff before retry *n* (0-based) is
#: ``min(_BACKOFF_MAX_S, _BACKOFF_BASE_S * 2**n)``, scaled by
#: ``1 + _BACKOFF_JITTER * u`` (see :func:`backoff_s`).
_BACKOFF_BASE_S = 0.05
_BACKOFF_MAX_S = 2.0
_BACKOFF_JITTER = 0.1

#: Pool rebuilds (after a worker crash or a unit timeout) before the run
#: falls back to in-process execution.
_MAX_POOL_REBUILDS = 8


@dataclass(frozen=True)
class WorkUnit:
    """One scheduled check: a database and the sigmas it is checked under.

    ``sigmas`` holds ``(sigma_index, sigma)`` pairs of consecutive
    sigmas in enumeration order: ``((0, None),)`` for the per-database
    procedures, one pair at ``sigma_block=1``, up to ``sigma_block``
    pairs otherwise.  The cursor is the first pair's, so checkpoints
    mean the same at every block size.
    """

    db_index: int
    database: Any
    sigmas: tuple

    @property
    def cursor(self) -> tuple[int, int]:
        return (self.db_index, self.sigmas[0][0])

    def completed(self, outcome: UnitOutcome) -> list[tuple[int, int]]:
        """The cursors ``outcome`` leaves done: every one of a clean
        unit, and those below the violating one of a violated unit."""
        return [
            (self.db_index, i) for i, _sigma in self.sigmas
            if outcome.status == CLEAN or (self.db_index, i) < outcome.cursor
        ]


@dataclass
class UnitOutcome:
    """What one work unit reported back.

    ``status`` is ``clean`` (no violation), ``violated`` (the cursor is
    the violating sigma's; ``detail`` carries the counterexample:
    ``database`` plus ``run`` and ``confirmed``, or
    ``violating_initial_states``), or ``budget`` (the unit's own
    governor struck: ``limit``/``message`` say which, ``detail`` holds
    the checker's own exception stats, and ``stats`` only what the
    sequential loop counts of a struck unit — its snapshots, for sigma
    units).  ``events`` is the unit's trace-event batch (empty unless
    the task spec is traced): pool workers collect locally and ship the
    batch back here, and the parent merges batches into its tracer in
    cursor order.
    """

    db_index: int
    sigma_index: int
    status: str
    stats: dict = field(default_factory=dict)
    limit: str = ""
    message: str = ""
    detail: Any = None
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def cursor(self) -> tuple[int, int]:
        return (self.db_index, self.sigma_index)


@dataclass(frozen=True)
class TaskSpec:
    """Picklable description of the per-unit work of one entry point.

    ``checker`` is the procedure's module-level per-unit checker,
    ``checker(spec, unit, budget) -> UnitOutcome``, which raises
    :class:`VerificationBudgetExceeded` when its governor strikes;
    pickle stores it by reference.  ``payload`` carries the
    procedure's own data (sentence, precompiled automaton, formula,
    flags); ``unit_limits`` are the parent governor's caps
    (:meth:`Budget.limits`), of which each worker installs the
    per-pair, per-structure and valuation caps in its local
    :class:`Budget` (the database cap and the deadline stay with the
    parent governor).  ``traced`` tells workers to
    collect trace events per unit and ship them back with the outcome;
    when False (the default) workers run with the null tracer.
    ``faults`` is the deterministic :class:`~repro.faults.FaultPlan`
    under test, if any — workers perform the matching unit-site faults
    before running their checker (None, the default, costs one ``is
    None`` check per unit).
    """

    checker: Callable[..., UnitOutcome]
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


# -- worker-side plumbing ---------------------------------------------------

_WORKER_SPEC: TaskSpec | None = None


def _init_worker(spec: TaskSpec) -> None:
    global _WORKER_SPEC
    _WORKER_SPEC = spec
    # Compile the service's rule plans once per worker per TaskSpec (the
    # spec's service is unpickled exactly once per worker), so units never
    # pay plan-compile time.
    from repro.service.compiled import warm_service_plans

    warm_service_plans(spec.service)


def _run_unit(
    spec: TaskSpec,
    unit: WorkUnit,
    gov: Budget,
    injector: FaultInjector | None,
    attempt: int,
) -> UnitOutcome:
    """One execution of one unit, on every backend.

    Emits ``unit.start``, fires the unit-site fault, runs the checker
    under ``gov`` and emits ``unit.finish`` with the outcome's status —
    ``budget`` when the governor struck and ``failed`` when the attempt
    raised; either exception propagates.  ``attempt`` is the retry
    ordinal the supervisor assigned this execution: fault injection is
    keyed on it, so a transient injected fault fires on attempt 0 and
    lets the retry through.
    """
    tracer = gov.tracer
    if tracer.active:
        tracer.emit("unit.start", cursor=unit.cursor)
    started = time.monotonic()
    try:
        if injector is not None:
            # may raise (a unit failure for the supervisor) or, in a
            # pool worker, kill the process outright — that is the point
            injector.fire_unit(unit.cursor, attempt)
        outcome = spec.checker(spec, unit, gov)
    except Exception as exc:
        if tracer.active:
            tracer.emit(
                "unit.finish", cursor=unit.cursor,
                dur=time.monotonic() - started,
                status=(BUDGET if isinstance(exc, VerificationBudgetExceeded)
                        else "failed"),
            )
        raise
    if tracer.active:
        tracer.emit(
            "unit.finish", cursor=unit.cursor,
            dur=time.monotonic() - started, status=outcome.status,
        )
    return outcome


def _execute_unit(
    spec: TaskSpec,
    unit: WorkUnit,
    timeout_s: float | None,
    injector: FaultInjector | None,
    attempt: int,
) -> UnitOutcome:
    """Run one unit under its own unit budget (pool worker or fallback).

    A fresh budget from the spec's caps and the parent's remaining
    time, a collecting tracer when the spec is traced (its events ship
    back on the outcome), and a budget strike turned into a BUDGET
    outcome carrying the checker's own exception stats.  Its counters
    are what the sequential loop counts of a struck unit: the snapshots
    the governor charged, for sigma units, and nothing of the sigma or
    valuation in progress.
    """
    gov = spec.make_unit_budget(timeout_s)
    gov.tracer = CollectingTracer() if spec.traced else NULL_TRACER
    try:
        outcome = _run_unit(spec, unit, gov, injector, attempt)
    except VerificationBudgetExceeded as exc:
        stats = {"snapshots_explored": gov.snapshots_total}
        outcome = UnitOutcome(
            *unit.cursor, BUDGET,
            stats={} if unit.sigmas[0][1] is None else stats,
            limit=exc.limit, message=str(exc), detail=dict(exc.stats),
        )
    if gov.tracer.active:
        outcome.events = gov.tracer.events
    return outcome


def _pool_check(
    unit: WorkUnit, timeout_s: float | None, attempt: int
) -> UnitOutcome:
    """Run one unit in a worker, under its own budget."""
    spec = _WORKER_SPEC
    assert spec is not None, "worker used before initialization"
    injector = None
    if spec.faults is not None:
        injector = FaultInjector(spec.faults, in_worker=True)
    return _execute_unit(spec, unit, timeout_s, injector, attempt)


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
        block_size: int = 1,
    ) -> None:
        self._databases = databases
        self._gov = gov
        self._stats = stats
        self._sigma_fn = sigma_fn
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
            if self._sigma_fn is None:
                yield WorkUnit(db_index, db, ((0, None),))
                continue
            n_sigmas = 0
            # Pending (sigma_index, sigma) pairs batched into units of
            # up to block_size consecutive sigmas.
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
        unit = WorkUnit(db_index, db, tuple(batch))
        self.cursor = unit.cursor
        return unit

    def clamp_db_stats(self, db_index: int) -> None:
        """Rewind the database counters to their values when ``db_index``
        was entered.

        The pool's submission window pulls this stream ahead of the
        units actually committed, so when the run stops at a violation
        or a unit's own strike, the counters must be reset to the prefix
        a sequential run would have charged before stopping at that
        database.
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
    the ``completed`` cursors, or neither (exhausted — HOLDS).
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

    The cursor is the lowest incomplete unit; completions at or beyond
    it (units committed past a quarantined one, plus any carried over
    from the checkpoint being resumed) are recorded so the next run
    skips them.  A cursor that is itself completed — the stream's
    cursor, given when the caller could name no unit past the last one
    committed — is listed too, so a resume skips it.
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
    ahead = sorted(c for c in done if c >= cursor)
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


#: The process-wide stop token the CLI's signal handlers set; both run
#: loops poll it.
GLOBAL_STOP = StopToken()


def backoff_s(cursor: tuple[int, int], attempt: int, seed: int = 0) -> float:
    """The wait before retry ``attempt + 1`` of the unit at ``cursor``.

    Exponential in ``attempt`` and capped (:data:`_BACKOFF_BASE_S`,
    :data:`_BACKOFF_MAX_S`), scaled by a jitter factor drawn
    deterministically from the fault-plan ``seed`` and the cursor —
    reproducible schedules, but no thundering herd when many units fail
    at once.
    """
    base = min(_BACKOFF_MAX_S, _BACKOFF_BASE_S * (2 ** attempt))
    u = random.Random(f"{seed}:{cursor[0]}:{cursor[1]}:{attempt}").random()
    return base * (1.0 + _BACKOFF_JITTER * u)


class Supervisor:
    """Failure handling for one enumeration run.

    Owns the retry count, the unit timeout, the resolved fault plan and
    the periodic-checkpoint sink, read from a resolved
    :class:`~repro.verifier.engine.RunConfig` (``retry``,
    ``unit_timeout_s``, ``faults``, ``checkpoint_path``,
    ``checkpoint_every``; the engine's ``resolve_option`` has applied
    the ``REPRO_*`` fallbacks).  One instance per ``run_units`` call.
    ``retry`` bounds the *re*-executions of one unit (0: the first
    failure quarantines); ``unit_timeout_s`` is the per-execution
    wall-clock allowance (pool backend only — an in-process unit
    cannot be preempted).  The entry point points ``frontier_kwargs``
    at its :func:`frontier_checkpoint` parameters so mid-run
    checkpoints carry the same identity as end-of-run ones.
    """

    def __init__(self, cfg: RunConfig) -> None:
        self.max_retries = cfg.retry
        self.unit_timeout_s = cfg.unit_timeout_s
        self.plan: FaultPlan | None = cfg.faults
        self.checkpoint_path = cfg.checkpoint_path
        self.checkpoint_every = cfg.checkpoint_every
        #: set by the entry point: frontier_checkpoint(...) keywords for
        #: periodic checkpoints (None = periodic checkpointing disabled)
        self.frontier_kwargs: dict[str, Any] | None = None
        self.retries = 0
        self.pool_rebuilds = 0
        self.checkpoints_written = 0
        self._since_checkpoint = 0
        self._stop_announced = False

    # -- stop / fault plumbing --------------------------------------------

    def check_stop(self, tracer: Tracer) -> None:
        """Raise :class:`RunInterrupted` when :data:`GLOBAL_STOP` is set."""
        reason = GLOBAL_STOP.reason
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
        """The in-process injector (sequential backend, inline fallback,
        checkpoint site)."""
        if self.plan is None:
            return None
        return FaultInjector(self.plan, in_worker=False, _sleep=_SLEEP)

    # -- the failure rule ---------------------------------------------------

    def failed(
        self, tracer: Tracer,
        cursor: tuple[int, int], attempt: int, error: BaseException | str,
    ) -> float | dict:
        """Execution ``attempt`` of the unit at ``cursor`` failed.

        Returns the backoff to wait before running it again at
        ``attempt + 1``; or, once its retries are spent, quarantines it
        and returns its record (``{"cursor", "attempts", "error"}``),
        which the caller files in ``EnumerationOutcome.quarantined``
        when the unit commits; the run continues without it.  The retry
        is traced now and counted when the unit commits
        (:meth:`committed`).
        """
        if attempt >= self.max_retries:
            if tracer.active:
                tracer.emit(
                    "unit.quarantined", cursor=cursor,
                    attempts=attempt + 1, error=str(error),
                )
            return {
                "cursor": tuple(cursor),
                "attempts": attempt + 1,
                "error": str(error),
            }
        delay = backoff_s(
            cursor, attempt, self.plan.seed if self.plan is not None else 0
        )
        if tracer.active:
            tracer.emit(
                "unit.retry", cursor=cursor, attempt=attempt,
                backoff_s=round(delay, 6), error=str(error),
            )
        return delay

    def committed(self, attempt: int) -> None:
        """A unit committed from execution ``attempt``: its outcome,
        its own strike or its quarantine record.  Each execution before
        it failed and was retried."""
        self.retries += attempt

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
        incomplete: Iterable[tuple[int, int]],
    ) -> None:
        """One unit committed; maybe flush a periodic checkpoint."""
        if self.checkpoint_path is None or self.checkpoint_every is None:
            return
        self._since_checkpoint += 1
        if self._since_checkpoint < self.checkpoint_every:
            return
        self._since_checkpoint = 0
        self.write_checkpoint(tracer, out, incomplete)

    def write_checkpoint(
        self, tracer: Tracer, out: EnumerationOutcome,
        incomplete: Iterable[tuple[int, int]],
    ) -> None:
        """Atomically write the current frontier to ``checkpoint_path``.

        ``incomplete`` holds the cursors of the units pulled and not yet
        committed, or else the stream's cursor (then the unit just
        committed); everything completed at or past the frontier is
        recorded so a resume re-runs exactly the rest.  An injected
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
    supervisor: Supervisor,
) -> EnumerationOutcome:
    """Run every pending unit; first confirmed lowest-cursor violation wins.

    ``workers <= 1`` is the classic sequential loop sharing the parent
    governor (identical charging order to the pre-parallel verifier);
    ``workers > 1`` fans units out to a process pool.  ``supervisor``
    carries the failure model (retry, quarantine, timeouts, periodic
    checkpoints).

    The two loops stay separate because they differ where it matters:
    the sequential one charges the parent governor and traces live; the
    pool gives each unit its own budget and commits units in cursor
    order, folding the counters back with ``Budget.absorb`` and each
    unit's events into the trace as it commits.  Both run the same
    attempt body (:func:`_run_unit`), apply the same failure rule
    (:meth:`Supervisor.failed`) and checkpoint by one rule: at the
    lowest unit pulled and not committed, else at the stream's cursor,
    the unit just committed, which the checkpoint then lists as done.
    The sequential loop always takes the second form.
    """
    if workers <= 1:
        out = _run_sequential(spec, stream, gov, supervisor)
    else:
        out = _run_pool(spec, stream, gov, workers, supervisor)
    for key, value in supervisor.counters().items():
        out.unit_stats[key] = out.unit_stats.get(key, 0) + value
    return out


def _run_sequential(
    spec: TaskSpec, stream: UnitStream, gov: Budget, sup: Supervisor
) -> EnumerationOutcome:
    """The classic in-process loop; trace events stream live, in cursor
    order, straight into the parent tracer (no batching needed — units
    complete in the order the stream yields them).

    A failed attempt is retried in place after its backoff.  Budget
    exhaustion propagates — it is a verdict about the search, not a
    failure of the machinery.  Injected ``crash`` faults are downgraded
    to transient errors by the in-process injector: the parent process
    is not expendable.
    """
    tracer = gov.tracer
    injector = sup.local_injector()
    out = EnumerationOutcome()
    try:
        for unit in stream:
            result = None
            for attempt in itertools.count():
                sup.check_stop(tracer)
                sup.announce_fault(tracer, "unit", unit.cursor, attempt)
                try:
                    result = _run_unit(spec, unit, gov, injector, attempt)
                except VerificationBudgetExceeded:
                    sup.committed(attempt)  # the unit's own strike
                    raise
                except Exception as exc:
                    retry = sup.failed(tracer, unit.cursor, attempt, exc)
                    if not isinstance(retry, dict):
                        _SLEEP(retry)
                        continue
                    out.quarantined.append(retry)
                break
            sup.committed(attempt)
            if result is None:  # quarantined; move on
                continue
            out.completed.extend(unit.completed(result))
            merge_unit_stats(out.unit_stats, result.stats)
            if result.status == VIOLATED:
                out.violation = result
                return out
            sup.note_completed(tracer, out, [stream.cursor])
    except VerificationBudgetExceeded as exc:
        out.interrupted = exc
        out.pending = [stream.cursor]
        sup.write_checkpoint(tracer, out, out.pending)
    return out


@dataclass(eq=False)
class _Job:
    """One unit waiting for, or running in, the pool.

    ``attempt`` is the retry ordinal the execution runs at;
    ``not_before`` holds a retry back until its backoff has elapsed;
    ``solo`` marks a crash suspect, which runs alone in the pool;
    ``deadline`` is the wall-clock limit of the running execution (None
    when no unit timeout is configured).
    """

    unit: WorkUnit
    attempt: int = 0
    not_before: float = 0.0
    solo: bool = False
    deadline: float | None = None


class _InlineExecutor:
    """Stands in for the process pool once it cannot be (re)started.

    ``submit`` runs the unit at once, in this process, under the same
    per-unit budget a worker would use and with the parent-side fault
    injector (a ``crash`` fault raises instead of killing the parent),
    and returns the finished future.  ``fn`` is the worker entry point
    the pool would have called; it is not used here.
    """

    def __init__(self, spec: TaskSpec, injector: FaultInjector | None):
        self._spec = spec
        self._injector = injector

    def submit(
        self, fn, unit: WorkUnit, timeout_s: float | None, attempt: int
    ) -> Future:
        fut: Future = Future()
        try:
            fut.set_result(_execute_unit(
                self._spec, unit, timeout_s, self._injector, attempt
            ))
        except Exception as exc:
            fut.set_exception(exc)
        return fut

    def shutdown(self, wait: bool = True, cancel_futures: bool = False):
        pass


def _run_pool(
    spec: TaskSpec, stream: UnitStream, gov: Budget, workers: int,
    sup: Supervisor,
) -> EnumerationOutcome:
    """The process-pool loop: units run in any order and commit in
    cursor order.

    Every unit pulled from the stream keeps its place in ``order`` until
    it commits, and its outcome (or its quarantine) waits in ``arrived``
    until every unit below it has committed.  Only a commit folds
    anything into the run: the unit's trace batch, stats, completions,
    ``gov.absorb`` and the periodic checkpoint, so the verdict, the
    search stats, the unit events and the checkpoint are what the
    sequential loop reports over the same prefix, ``units_retried``
    included: an outcome or quarantine record waits in ``arrived`` with
    the attempt it came from.  Supervision's trace events and pool
    rebuilds are the exception: retries, timeouts, quarantines and
    rebuilds are traced, and rebuilds counted, when they happen, so they
    may cover a unit that a stop below it later drops, which the
    sequential loop never runs.

    A violation or a unit's own strike arriving at cursor *c* stops the
    pull and drops what lies above *c*; the units below keep running,
    retrying and committing, and the run ends when *c* commits.  A
    parent-side halt (the idle-tick deadline, the stop token, a cap
    struck on absorb) ends the run at once: nothing further starts or
    commits, and whatever has not committed is pending.  A dropped
    execution that had started, and any still running when the run
    ends, is never read but keeps its unit timeout: past it the pool is
    killed (and, mid-run, rebuilt without charging the dropped unit).
    Without a unit timeout the pool's shutdown awaits them; the stop
    token kills them at once.
    """
    out = EnumerationOutcome()
    tracer = gov.tracer
    window = max(2 * workers, workers + 2)
    units = iter(stream)
    pulling = True  # the stream may yield further units
    refused: VerificationBudgetExceeded | None = None
    stop: tuple[int, int] | None = None  # the run ends when it commits
    order: deque[WorkUnit] = deque()  # pulled, not yet committed
    #: cursor -> (the attempt it came from, its outcome or quarantine)
    arrived: dict[tuple[int, int], tuple[int, UnitOutcome | dict]] = {}
    #: submitted executions, until they end; those above ``stop`` are
    #: never read, but hold a worker and their deadline all the same
    in_flight: dict[Future, _Job] = {}
    #: units waiting to run: retries, crash suspects, units a pool
    #: rebuild took down with it
    jobs: list[_Job] = []

    def start_pool(inline: bool):
        nonlocal window
        if not inline:
            try:
                return ProcessPoolExecutor(
                    max_workers=workers, initializer=_init_worker,
                    initargs=(spec,),
                )
            except Exception:
                pass  # cannot start a pool: run the rest in-process
        window = 1
        return _InlineExecutor(spec, sup.local_injector())

    pool = start_pool(inline=False)

    def incomplete() -> list[tuple[int, int]]:
        # the units a checkpoint written now leaves to a resume
        return [unit.cursor for unit in order] or [stream.cursor]

    def next_job() -> _Job | None:
        # The first job whose backoff has elapsed, else the next unit of
        # the stream; but a crash suspect starts only in an empty pool,
        # and nothing starts beside it.
        nonlocal pulling, refused
        if any(job.solo for job in in_flight.values()):
            return None
        now = _MONOTONIC()
        for i, job in enumerate(jobs):
            if job.not_before <= now:
                if job.solo and in_flight:
                    return None
                return jobs.pop(i)
        if not pulling:
            return None
        try:
            unit = next(units)
        except StopIteration:
            pulling = False
            return None
        except VerificationBudgetExceeded as exc:
            # The stream refused its next database (the database cap, or
            # the deadline during enumeration).  The units already pulled
            # still run and commit, as the sequential loop finishes every
            # unit before the stream refuses the next; the refusal ends
            # the run once they have.
            pulling, refused = False, exc
            return None
        order.append(unit)
        return _Job(unit)

    def dropped(job: _Job) -> bool:
        return stop is not None and job.unit.cursor > stop

    def stop_at(cursor: tuple[int, int]) -> None:
        # The run ends when ``cursor`` commits: pull nothing more, count
        # no database past its own, and cancel or drop everything above
        # it.
        nonlocal pulling, stop
        pulling, stop = False, cursor
        stream.clamp_db_stats(cursor[0])
        while order[-1].cursor > cursor:
            order.pop()
        jobs[:] = [job for job in jobs if job.unit.cursor < cursor]
        for fut, job in list(in_flight.items()):
            if dropped(job) and fut.cancel():
                del in_flight[fut]

    def commit() -> None:
        while order and order[0].cursor in arrived:
            attempt, result = arrived.pop(order[0].cursor)
            sup.committed(attempt)
            if isinstance(result, dict):  # quarantined: the run moves on
                out.quarantined.append(result)
                order.popleft()
                continue
            if tracer.active:
                for event in result.events:
                    tracer.emit_event(event)
            merge_unit_stats(out.unit_stats, result.stats)
            if result.status == BUDGET:
                # the struck unit stays pending: a resume redoes it
                out.interrupted = _budget_error(result)
                return
            # never the violating cursor, which a resume must reach again
            out.completed.extend(order.popleft().completed(result))
            if result.status == VIOLATED:
                out.violation = result
                return
            try:
                gov.absorb(result.stats)
            except VerificationBudgetExceeded as exc:
                out.interrupted = exc
                return
            sup.note_completed(tracer, out, incomplete())

    def fail(job: _Job, error: BaseException | str) -> None:
        retry = sup.failed(tracer, job.unit.cursor, job.attempt, error)
        if isinstance(retry, dict):
            arrived[job.unit.cursor] = (job.attempt, retry)
        else:
            jobs.append(
                _Job(job.unit, job.attempt + 1, _MONOTONIC() + retry)
            )

    def kill_pool() -> None:
        # a hung or crashed worker cannot be joined; SIGKILL the whole
        # cohort and abandon the executor without waiting (a later
        # shutdown of it finds nothing left to join)
        procs = getattr(pool, "_processes", None)
        for proc in list((procs or {}).values()):
            try:
                proc.kill()
            except Exception:
                pass  # already reaped
        pool.shutdown(wait=False, cancel_futures=True)
        in_flight.clear()

    def rebuild(cause: str) -> None:
        nonlocal pool
        kill_pool()
        sup.pool_rebuilds += 1
        giving_up = sup.pool_rebuilds > _MAX_POOL_REBUILDS
        if tracer.active:
            tracer.emit(
                "pool.rebuilt", cursor=stream.cursor, cause=cause,
                rebuilds=sup.pool_rebuilds, fallback=giving_up,
            )
        pool = start_pool(inline=giving_up)

    def on_pool_break() -> None:
        broken = sorted(in_flight.values(), key=lambda job: job.unit.cursor)
        suspects = [job for job in broken if not dropped(job)]
        if len(broken) == 1 and suspects:
            # a unit that breaks the pool while running alone is the
            # proven culprit: charge the failure to its retry budget
            fail(broken[0], "worker process died (pool broken)")
        else:
            # cannot tell which in-flight unit killed the pool: re-run
            # them one at a time so the culprit identifies itself
            # without charging the innocents' retry budget
            for job in suspects:
                job.solo = True
            jobs.extend(suspects)
        rebuild("worker-crash")

    def scan_timeouts() -> None:
        if sup.unit_timeout_s is None:
            return
        now = _MONOTONIC()
        if all(now < job.deadline for job in in_flight.values()):
            return
        # a dropped execution dies with the pool, unread and uncharged
        running = sorted(
            (job for job in in_flight.values() if not dropped(job)),
            key=lambda job: job.unit.cursor,
        )
        for job in running:
            if now < job.deadline:
                continue
            if tracer.active:
                tracer.emit(
                    "unit.timeout", cursor=job.unit.cursor,
                    attempt=job.attempt, timeout_s=sup.unit_timeout_s,
                )
            fail(
                job,
                f"unit exceeded {sup.unit_timeout_s}s wall-clock timeout",
            )
        # the others lose their in-progress work with the pool, but not
        # their retry budget: run them again at the same attempt
        jobs.extend(job for job in running if now < job.deadline)
        rebuild("unit-timeout")

    def launch(job: _Job) -> bool:
        sup.announce_fault(tracer, "unit", job.unit.cursor, job.attempt)
        if sup.unit_timeout_s is not None:
            job.deadline = _MONOTONIC() + sup.unit_timeout_s
        try:
            fut = pool.submit(
                _pool_check, job.unit, gov.remaining_time(), job.attempt
            )
        except (BrokenProcessPool, RuntimeError):
            # the pool died under us mid-submit; this unit never ran
            jobs.insert(0, job)
            on_pool_break()
            return False
        in_flight[fut] = job
        return True

    try:
        while out.violation is None and out.interrupted is None:
            if GLOBAL_STOP:
                # cooperative stop (SIGINT/SIGTERM via the stop token)
                try:
                    sup.check_stop(tracer)
                except RunInterrupted as exc:
                    # promptness over drain: kill the running units
                    out.interrupted = exc
                    kill_pool()
                    break

            # keep the submission window full
            while len(in_flight) < window:
                job = next_job()
                if job is None or not launch(job):
                    break
            if not order and not pulling:
                # every pulled unit committed and the stream is done
                out.interrupted = refused
                break

            if in_flight:
                done, _ = wait(
                    in_flight, timeout=0.1, return_when=FIRST_COMPLETED
                )
                broke = False
                for fut in sorted(
                    done, key=lambda f: in_flight[f].unit.cursor
                ):
                    job = in_flight.pop(fut)
                    if dropped(job):
                        continue  # never read
                    try:
                        result = fut.result()
                    except BrokenProcessPool:
                        # every in-flight future died with the pool
                        in_flight[fut] = job
                        broke = True
                        break
                    except Exception as exc:
                        fail(job, exc)
                        continue
                    arrived[job.unit.cursor] = (job.attempt, result)
                    if result.status != CLEAN:
                        stop_at(job.unit.cursor)
                if broke:
                    on_pool_break()
                else:
                    if not done:
                        # Idle tick: let the parent deadline fire even
                        # when no unit completed in this window.
                        try:
                            gov.check_deadline()
                        except VerificationBudgetExceeded as exc:
                            out.interrupted = exc
                            break
                    scan_timeouts()
                commit()
            elif jobs:
                # nothing runnable until the earliest backoff elapses
                idle = min(job.not_before for job in jobs) - _MONOTONIC()
                if idle > 0:
                    _SLEEP(min(0.1, idle))
    finally:
        # What still runs goes unread, but the unit timeout bounds it as
        # it bounds any execution: past its deadline the pool is killed.
        # Otherwise a clean join of the workers and the manager thread:
        # the next pool forks its workers, which is not safe beside a
        # live thread.
        if sup.unit_timeout_s is not None:
            for fut in [fut for fut in in_flight if fut.cancel()]:
                del in_flight[fut]
            for fut, job in sorted(
                in_flight.items(), key=lambda item: item[1].deadline
            ):
                left = max(0.0, job.deadline - _MONOTONIC())
                if not wait([fut], timeout=left).done:
                    kill_pool()
                    break
        pool.shutdown(wait=True, cancel_futures=True)

    if out.interrupted is not None:
        out.pending = incomplete()
        sup.write_checkpoint(tracer, out, out.pending)
    return out


def _budget_error(outcome: UnitOutcome) -> VerificationBudgetExceeded:
    """The strike a BUDGET outcome reports, with the checker's own stats."""
    return VerificationBudgetExceeded(
        outcome.message, limit=outcome.limit, stats=outcome.detail
    )
