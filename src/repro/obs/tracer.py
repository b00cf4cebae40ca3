"""Structured tracing for the verifier: typed events, zero-cost when off.

Every decision procedure emits a small vocabulary of **typed events**
while it runs (see the taxonomy below); a :class:`Tracer` receives them.
The default :data:`NULL_TRACER` drops everything — emission sites guard
on :attr:`Tracer.active` so the tracing-off path costs one attribute
read per *coarse* step (per database / per work unit / per structure,
never per snapshot) and cannot perturb verdicts.

Event taxonomy (``name`` → meaning, extra fields):

- ``unit.start`` / ``unit.finish`` — one (database, sigma) work unit
  began / ended (``dur``, ``status`` on finish);
- ``database.enumerated`` — the enumeration produced one candidate
  database (``db_index``, ``domain``);
- ``sigma.batch`` — the input-constant interpretations of one database
  were enumerated (``count``);
- ``buchi.compiled`` — the negated property's Büchi automaton was
  obtained (``dur``, ``n_states``, ``cached``; once per
  ``verify_ltlfo`` call — ``cached=True`` when an earlier call on the
  same service object had constructed it, as the serving daemon's
  pinned services have);
- ``label.bits`` — set-at-a-time labelling accounting for one work
  unit (``computed``, ``shared``: label bitsets evaluated vs read from
  the explored graph's label memo, which spans sigmas, units and
  calls);
- ``product.searches`` — the LTL-FO lasso search of one work unit,
  emitted right after its ``label.bits`` (``searches``: product searches
  run; ``covered``: valuations settled unsearched because a clean
  search's dominated class held them; the two sum to the unit's
  ``valuations_checked``; ``nested``: the searches whose pre-order
  walk met an accepting transition and handed over to the nested DFS;
  ``replayed``: the searches answered from an outcome the compiled
  product kept from an earlier clean search, charges replayed in
  order; ``nested + replayed`` is at most ``searches``);
- ``plan.compiled`` — the service's rule formulas were compiled to
  evaluation plans (``dur``, ``n_plans``; once per verification call,
  emitted parent-side so traces stay worker-count independent —
  workers re-warm their own copy silently in the pool initialiser);
- ``plan.pruned`` — dataflow pruning dropped plans from the compiled
  service (``pruned_rules``, ``pruned_pages``; emitted right after
  ``plan.compiled``, and only when something was actually dropped, so
  traces of unprunable services are unchanged);
- ``analysis.fact`` — one whole-service dataflow fact family from
  :mod:`repro.analysis.dataflow` (``fact`` is one of
  ``reachability`` / ``input_constants`` / ``relation_liveness`` /
  ``rule_firability``, plus family-specific fields; emitted by the
  lint pre-flight alongside ``lint.finding``);
- ``kripke.built`` — one configuration Kripke structure was obtained
  (``dur``, ``n_states``, ``cached``; ``cached=True`` when it was served
  from the service's exploration cache, with its state charges replayed,
  instead of being constructed);
- ``budget.charge`` — the resource governor charged a coarse counter
  (``counter``, ``value``; per database / per absorbed unit, never per
  snapshot);
- ``budget.exhausted`` — a budget limit struck (``limit``, ``phase``);
- ``lint.finding`` — the static pre-flight of
  :func:`~repro.verifier.statics.verify` surfaced one diagnostic
  (``code``, ``severity``, ``location``, ``message``); always precedes
  every ``database.enumerated`` event of the call, since the linter
  runs before any decision procedure;
- ``registry.hit`` / ``registry.miss`` — a daemon request resolved a
  registered spec with its compiled plans (``spec_id``, ``n_plans``) /
  parsed an inline spec per-request (:mod:`repro.server` only);
- ``verdict`` — the verification call finished (``verdict``,
  ``procedure``, ``method``).

Supervision events (the fault-tolerance layer of
:mod:`repro.verifier.parallel`; all emitted parent-side, since a
failing worker may die before shipping its own events home):

- ``fault.injected`` — a deterministic test fault from a
  :mod:`repro.faults` plan is about to be performed (``kind``,
  ``site``, ``attempt``);
- ``unit.retry`` — a failed unit was scheduled for re-execution
  (``attempt``, ``backoff_s``, ``error``);
- ``unit.timeout`` — a unit exceeded its wall-clock allowance and its
  pool is being rebuilt (``attempt``, ``timeout_s``);
- ``unit.quarantined`` — a unit exhausted its retries and was set
  aside (``attempts``, ``error``); the run continues without it;
- ``pool.rebuilt`` — the process pool was killed and reconstructed
  after a crash or timeout (``cause``, ``rebuilds``, ``fallback`` —
  True when giving up on pools and finishing in-process);
- ``checkpoint.saved`` — a periodic crash-safe checkpoint was
  atomically written (``path``, ``completed``);
- ``run.interrupted`` — a cooperative stop (SIGINT/SIGTERM) was
  observed; the final checkpoint flush follows (``signal``).

Every event carries a monotonic timestamp ``t`` (``time.monotonic`` of
the *emitting* process) and the emitting process id ``pid``.  Within one
process the timestamps are non-decreasing; across processes only the
``pid`` grouping is meaningful.  Under the process-pool backend, worker
events are shipped back with the unit results and merged into the parent
tracer **in cursor order** (see :mod:`repro.verifier.parallel`), so a
trace file is deterministic up to timestamps for a fixed worker count.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, TextIO

__all__ = [
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "CollectingTracer",
    "JsonlTracer",
    "TeeTracer",
    "ProgressTracer",
    "resolve_tracer",
    "finalize_result",
]


@dataclass(frozen=True)
class TraceEvent:
    """One structured event: a name, a monotonic timestamp, and fields.

    ``cursor`` is the (db_index, sigma_index) work-unit cursor where the
    event happened, when there is one.  Instances are immutable and
    picklable — the parallel backend ships batches of them between
    processes.
    """

    name: str
    t: float
    pid: int
    cursor: tuple[int, int] | None = None
    fields: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "t": round(self.t, 6),
            "pid": self.pid,
        }
        if self.cursor is not None:
            out["cursor"] = list(self.cursor)
        out.update(self.fields)
        return out


class Tracer:
    """The tracer interface; the base class is the no-op implementation.

    ``active`` is False exactly when emission is a no-op — the
    procedures guard every emission site on it so the default path does
    no field computation, no dict building, and no clock reads beyond
    the ones the governor makes anyway.
    """

    active: bool = False

    def emit(self, name: str, *, cursor: tuple[int, int] | None = None,
             **fields: Any) -> None:
        """Record one event, stamped with this process's clock and pid."""

    def emit_event(self, event: TraceEvent) -> None:
        """Record an already-stamped event (cross-process merge path)."""

    def timings(self) -> dict[str, dict[str, Any]]:
        """Per-event-name aggregate: ``{name: {count, total_s}}``.

        ``total_s`` sums the ``dur`` fields of the events seen (0.0 for
        events that carry no duration).
        """
        return {}

    def close(self) -> None:
        """Release any resource held (files); no-op for most tracers.

        Idempotent for every tracer in this module: closing twice (or
        closing a tracer that never opened its file) is safe, so cleanup
        paths never have to track whether a close already happened.
        """

    def __enter__(self) -> "Tracer":
        """Tracers are context managers: ``with JsonlTracer(p) as tr:``.

        A handler that raises mid-stream would otherwise leak the file
        handle — ``__exit__`` guarantees :meth:`close` runs on every
        exit path (the server's per-job event capture relies on this).
        """
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class NullTracer(Tracer):
    """Drops every event; the zero-overhead default."""


#: The shared no-op tracer; identity-comparable, never active.
NULL_TRACER = NullTracer()


class _RecordingTracer(Tracer):
    """Shared machinery: stamp events, aggregate per-name timings."""

    active = True

    def __init__(self) -> None:
        self._totals: dict[str, list[float]] = {}

    def emit(self, name: str, *, cursor: tuple[int, int] | None = None,
             **fields: Any) -> None:
        self.emit_event(
            TraceEvent(name, time.monotonic(), os.getpid(), cursor, fields)
        )

    def emit_event(self, event: TraceEvent) -> None:
        entry = self._totals.setdefault(event.name, [0, 0.0])
        entry[0] += 1
        dur = event.fields.get("dur")
        if dur is not None:
            entry[1] += dur
        self._record(event)

    def _record(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def timings(self) -> dict[str, dict[str, Any]]:
        return {
            name: {"count": int(count), "total_s": round(total, 6)}
            for name, (count, total) in sorted(self._totals.items())
        }


class CollectingTracer(_RecordingTracer):
    """Keeps every event in memory; the in-process/worker-side tracer."""

    def __init__(self) -> None:
        super().__init__()
        self.events: list[TraceEvent] = []

    def _record(self, event: TraceEvent) -> None:
        self.events.append(event)


class JsonlTracer(_RecordingTracer):
    """Streams events to a file as JSON lines, one object per event.

    The file is opened lazily on the first event and flushed per line,
    so an interrupted run still leaves a valid JSONL prefix behind.
    """

    def __init__(self, path: str, append: bool = False) -> None:
        super().__init__()
        self.path = str(path)
        self._append = append
        self._fh: TextIO | None = None

    def _record(self, event: TraceEvent) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a" if self._append else "w")
        self._fh.write(json.dumps(event.to_dict(), default=str) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            # a straggler event emitted after close() (e.g. by a worker
            # draining late) reopens in append mode — it must not clobber
            # the lines already flushed
            self._append = True


class TeeTracer(_RecordingTracer):
    """Forwards every event to several tracers (e.g. JSONL + progress)."""

    def __init__(self, children: Iterable[Tracer]) -> None:
        super().__init__()
        self.children = list(children)

    def _record(self, event: TraceEvent) -> None:
        for child in self.children:
            child.emit_event(event)

    def close(self) -> None:
        for child in self.children:
            child.close()


class ProgressTracer(_RecordingTracer):
    """Prints one human-readable progress line per coarse event.

    Meant for the CLI's ``--progress`` flag: it surfaces the enumeration
    position (which database, which unit, how long) the way SPIN-style
    model checkers report progress, without the full trace machinery.
    """

    #: event names worth a progress line (the rest are aggregated only)
    SHOWN = frozenset({
        "database.enumerated", "unit.finish", "buchi.compiled",
        "plan.compiled", "plan.pruned", "kripke.built", "budget.exhausted",
        "lint.finding", "verdict",
        "fault.injected", "unit.retry", "unit.timeout",
        "unit.quarantined", "pool.rebuilt", "checkpoint.saved",
        "run.interrupted",
    })

    def __init__(self, stream: TextIO | None = None) -> None:
        super().__init__()
        self._stream = stream if stream is not None else sys.stderr

    def _record(self, event: TraceEvent) -> None:
        if event.name not in self.SHOWN:
            return
        bits = [f"[{event.name}]"]
        if event.cursor is not None:
            bits.append(f"cursor={event.cursor[0]},{event.cursor[1]}")
        for key, value in event.fields.items():
            if key == "dur":
                bits.append(f"dur={value:.3f}s")
            else:
                bits.append(f"{key}={value}")
        print(" ".join(bits), file=self._stream)
        self._stream.flush()


#: JSONL tracers resolved from a path (``REPRO_TRACE``), one per path —
#: reused across verification calls so the file handle stays open and
#: appended.
_PATH_TRACERS: dict[str, JsonlTracer] = {}


def resolve_tracer(tracer: Tracer | str | None) -> Tracer:
    """The effective tracer for one verification call.

    A tracer is used as it is; a string names a JSONL file to append to
    (the engine hands over ``REPRO_TRACE`` this way: CI sets it once to
    trace a whole test suite), with one tracer per path kept across
    calls; None is the no-op :data:`NULL_TRACER`.
    """
    if tracer is None:
        return NULL_TRACER
    if isinstance(tracer, str):
        cached = _PATH_TRACERS.get(tracer)
        if cached is None:
            cached = _PATH_TRACERS[tracer] = JsonlTracer(tracer, append=True)
        return cached
    return tracer


def finalize_result(tracer: Tracer, result: Any) -> Any:
    """Emit the ``verdict`` event and attach the timing summary.

    Called by every entry point on every return path.  With the null
    tracer this returns immediately, leaving ``result.timings`` empty —
    results are byte-identical to the untraced behaviour.  Timings are
    cumulative per tracer; pass a fresh tracer per call for per-call
    numbers.
    """
    if tracer.active:
        tracer.emit(
            "verdict",
            verdict=result.verdict.value,
            procedure=result.procedure,
            method=result.method,
        )
        result.timings = tracer.timings()
    return result
