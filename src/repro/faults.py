"""Deterministic fault injection for the verification engine.

A fault-tolerant verifier is only trustworthy if its failure paths are
*tested* paths, and failure paths are untestable unless failures can be
produced on demand, at a known place, on every run.  This module is that
switchboard: a :class:`FaultPlan` names the faults to inject — each one
keyed by the ``(db_index, sigma_index)`` work-unit cursor it strikes at
and the attempt numbers it strikes on — and a :class:`FaultInjector`
performs them at the two injection sites the engine exposes:

- ``unit`` — just before a work unit's checker runs (in the worker
  process under the pool backend, in-process under the sequential one);
- ``checkpoint`` — between the temp-file write and the ``os.replace``
  of an atomic checkpoint write, simulating a kill at the worst moment.

Fault kinds (``FaultSpec.kind``):

``error``
    Raise :class:`InjectedFault` — a transient worker exception, the
    shape of an OOM kill of a helper, a flaky NFS read, a cosmic ray.
    Exercises the retry/backoff path.
``crash``
    ``os._exit(13)`` — the worker process dies without unwinding, the
    way a segfault or an external SIGKILL looks to the parent
    (``BrokenProcessPool``).  Under the sequential backend this is
    downgraded to ``error`` (killing the caller's own process would
    take the test harness with it).
``hang``
    Sleep for ``delay_s`` (default 30s) — a stuck unit.  Exercises the
    per-unit wall-clock timeout and pool-rebuild path.
``slow``
    Sleep for ``delay_s`` (default 0.05s) — a straggler that should
    *not* trip supervision.
``checkpoint``
    Raise :class:`CheckpointWriteInterrupted` mid-write at the
    ``checkpoint`` site.  Exercises write atomicity: the previous
    checkpoint file must survive intact.

Determinism: a fault fires iff its cursor matches and the unit's
``attempt`` number is below ``times`` (-1 means every attempt), so the
same plan produces the same failure schedule on every run, at every
worker count — and retried attempts beyond ``times`` succeed, which is
what lets a test assert "transient fault, same final verdict".  The
plan's ``seed`` feeds the retry backoff jitter so even the timing
schedule is reproducible.

Plans come from ``verify(..., faults=)`` (a :class:`FaultPlan`, a dict,
or a JSON string) or from the ``REPRO_FAULTS`` environment variable
(inline JSON, or ``@path`` to a JSON file; the run engine reads it and
hands the string to :func:`resolve_fault_plan`) — the latter is how CI
runs an entire test suite under a standing fault plan.  Every injected fault
is announced as a ``fault.injected`` trace event through
:mod:`repro.obs` by the *parent* process (the worker may die before it
could ship the event home).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    "CheckpointWriteInterrupted",
    "resolve_fault_plan",
]

#: the recognised values of FaultSpec.kind
FAULT_KINDS = ("error", "crash", "hang", "slow", "checkpoint")

#: default sleep durations for the time-based kinds
_DEFAULT_DELAYS = {"hang": 30.0, "slow": 0.05}


class FaultPlanError(ValueError):
    """A fault plan could not be parsed; the message names the field."""


class InjectedFault(RuntimeError):
    """The transient worker failure raised by ``error`` faults.

    Deliberately a plain ``RuntimeError`` subclass: the supervision
    layer must treat it exactly like any unexpected worker exception —
    no special-casing, or the tests would be testing the test harness.
    """

    def __init__(self, cursor: tuple[int, int], attempt: int) -> None:
        super().__init__(
            f"injected fault at cursor {cursor} (attempt {attempt})"
        )
        self.cursor = cursor
        self.attempt = attempt

    def __reduce__(self):
        # exceptions cross the process-pool boundary pickled; the default
        # reduction would replay __init__ with the message string only
        return (InjectedFault, (self.cursor, self.attempt))


class CheckpointWriteInterrupted(RuntimeError):
    """An atomic checkpoint write was interrupted between temp and replace.

    The temp file is left behind (a killed process could not have
    cleaned it up either); the destination file is untouched.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One fault: where it strikes, what it does, how often it fires.

    ``times`` is the number of *attempts* of the unit the fault fires
    on: with the default 1 it fires on attempt 0 only, so the first
    retry succeeds (a transient fault); -1 fires on every attempt (a
    persistent fault — the quarantine path).
    """

    kind: str
    db_index: int
    sigma_index: int = 0
    times: int = 1
    delay_s: float | None = None

    @property
    def cursor(self) -> tuple[int, int]:
        return (self.db_index, self.sigma_index)

    def fires_on(self, attempt: int) -> bool:
        return self.times < 0 or attempt < self.times

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "db_index": self.db_index,
            "sigma_index": self.sigma_index,
        }
        if self.times != 1:
            out["times"] = self.times
        if self.delay_s is not None:
            out["delay_s"] = self.delay_s
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, index: int = 0) -> "FaultSpec":
        where = f"faults[{index}]"
        if not isinstance(data, Mapping):
            raise FaultPlanError(
                f"{where} must be an object, got {type(data).__name__}"
            )
        kind = data.get("kind")
        if kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"{where}.kind must be one of {', '.join(FAULT_KINDS)}; "
                f"got {kind!r}"
            )
        out: dict[str, Any] = {"kind": kind}
        for name, default in (
            ("db_index", None), ("sigma_index", 0), ("times", 1),
        ):
            value = data.get(name, default)
            if name == "db_index" and value is None:
                raise FaultPlanError(f"{where}.db_index is required")
            if not isinstance(value, int) or isinstance(value, bool):
                raise FaultPlanError(
                    f"{where}.{name} must be an integer, got {value!r}"
                )
            out[name] = value
        delay = data.get("delay_s")
        if delay is not None:
            if not isinstance(delay, (int, float)) or isinstance(delay, bool):
                raise FaultPlanError(
                    f"{where}.delay_s must be a number, got {delay!r}"
                )
            out["delay_s"] = float(delay)
        unknown = set(data) - {"kind", "db_index", "sigma_index", "times",
                               "delay_s"}
        if unknown:
            raise FaultPlanError(
                f"{where} has unknown key(s): {', '.join(sorted(unknown))}"
            )
        return cls(**out)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults plus the seed for backoff jitter.

    Immutable and picklable: the plan ships to pool workers inside the
    :class:`~repro.verifier.parallel.TaskSpec`, and matching is a pure
    function of ``(site, cursor, attempt)`` — no hidden counter state
    that could drift between the parent and a worker, or between a
    first run and its resume.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __bool__(self) -> bool:
        return bool(self.specs)

    def match(
        self, site: str, cursor: tuple[int, int], attempt: int = 0
    ) -> FaultSpec | None:
        """The first fault that fires at this site/cursor/attempt, if any."""
        for spec in self.specs:
            if spec.cursor != cursor or not spec.fires_on(attempt):
                continue
            if (spec.kind == "checkpoint") != (site == "checkpoint"):
                continue
            return spec
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise FaultPlanError(
                f"fault plan must be an object, got {type(data).__name__}"
            )
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise FaultPlanError(f"seed must be an integer, got {seed!r}")
        raw = data.get("faults", [])
        if not isinstance(raw, (list, tuple)):
            raise FaultPlanError(
                f"faults must be a list, got {type(raw).__name__}"
            )
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise FaultPlanError(
                f"fault plan has unknown key(s): {', '.join(sorted(unknown))}"
            )
        specs = tuple(
            FaultSpec.from_dict(item, index=i) for i, item in enumerate(raw)
        )
        return cls(specs=specs, seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(data)


def resolve_fault_plan(faults: Any = None) -> FaultPlan | None:
    """The effective fault plan for one verification call.

    ``faults`` is a :class:`FaultPlan`, a dict, a JSON string (the
    engine hands over ``REPRO_FAULTS`` this way), or ``@path`` to a
    JSON file; None, or an empty plan, resolves to None — the
    zero-overhead default: with no plan, the engine's injection sites
    are a single ``is None`` check.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return faults if faults else None
    if isinstance(faults, Mapping):
        return FaultPlan.from_dict(faults) or None
    if isinstance(faults, str):
        text = faults.strip()
        if text.startswith("@"):
            path = Path(text[1:])
            try:
                text = path.read_text()
            except OSError as exc:
                raise FaultPlanError(
                    f"cannot read fault plan file {path}: {exc}"
                ) from None
        return FaultPlan.from_json(text) or None
    raise FaultPlanError(
        "faults= accepts a FaultPlan, a dict, a JSON string, or '@path'; "
        f"got {type(faults).__name__}"
    )


@dataclass
class FaultInjector:
    """Performs the faults of one plan at the engine's injection sites.

    ``in_worker`` says whether this injector runs inside a disposable
    pool worker: only there may a ``crash`` fault actually kill the
    process.  In the parent (sequential backend, checkpoint writes) a
    crash is downgraded to an :class:`InjectedFault` so the test
    harness survives.
    """

    plan: FaultPlan
    in_worker: bool = False
    #: seam for tests — patched to avoid real sleeps
    _sleep: Any = field(default=time.sleep, repr=False)

    def fire_unit(self, cursor: tuple[int, int], attempt: int) -> None:
        """Perform the matching unit-site fault, if any."""
        spec = self.plan.match("unit", cursor, attempt)
        if spec is None:
            return
        if spec.kind == "crash" and self.in_worker:
            os._exit(13)
        if spec.kind in ("error", "crash"):
            raise InjectedFault(cursor, attempt)
        if spec.kind in ("hang", "slow"):
            delay = spec.delay_s
            if delay is None:
                delay = _DEFAULT_DELAYS[spec.kind]
            self._sleep(delay)

    def checkpoint_interrupt(self, cursor: tuple[int, int]) -> None:
        """Raise mid-atomic-write when a ``checkpoint`` fault matches."""
        spec = self.plan.match("checkpoint", cursor, 0)
        if spec is not None:
            raise CheckpointWriteInterrupted(
                f"injected checkpoint-write interruption at cursor {cursor}"
            )
