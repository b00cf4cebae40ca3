"""Tests for the fault-tolerance layer: injection, supervision, recovery.

The contract under test: a fault-injected run reaches the *same verdict*
as the fault-free run whenever retries can absorb the faults, and
degrades to INCONCLUSIVE with ``quarantined_units`` and a resumable
checkpoint when they cannot — never a crash, never a wrong answer.
Checkpoint writes are atomic (a kill at the worst moment leaves the
previous file intact), the retry/backoff schedule is deterministic, and
SIGINT/SIGTERM wind down through the checkpoint-flushing stop path.
"""

import json
import pickle
import time

import pytest

from repro.faults import (
    FAULT_KINDS,
    CheckpointWriteInterrupted,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedFault,
    resolve_fault_plan,
)
from repro.fol import Atom, Not
from repro.io import (
    atomic_write_text,
    checkpoint_to_dict,
    load_checkpoint,
    save_checkpoint,
    save_service,
)
from repro.io.json_format import checkpoint_from_dict
from repro.ltl import G, LTLFOSentence
from repro.obs import CollectingTracer
from repro.service import ServiceBuilder
from repro.verifier import (
    GLOBAL_STOP,
    Budget,
    CheckpointFormatError,
    Verdict,
    verify_ltlfo,
)
import repro.verifier.parallel as parallel
from tests.engine_cases import (
    CASES, ORACLE_PATH, fingerprint, load_spec, run_case,
)

POOL = 2  # worker count for the pool-backend tests

#: stats keys that record the backend or its supervision, not the search
_SUPERVISION_KEYS = (
    "workers", "units_retried", "pool_rebuilds", "checkpoints_written",
)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _pingpong():
    b = ServiceBuilder("pingpong")
    b.input("go")
    p1 = b.page("P1", home=True)
    p1.toggle("go")
    p1.target("P2", "go")
    p2 = b.page("P2")
    p2.toggle("go")
    p2.target("P1", "go")
    return b.build()


def _no_error():
    return LTLFOSentence((), G(Not(Atom("ERROR", ()))))


def _two_constants():
    """Two input constants over a unary ``item`` relation: at domain
    size 2, three databases of ten sigmas each."""
    b = ServiceBuilder("sig")
    b.database("item", 1)
    b.input_constant("c", "d")
    hp = b.page("HP", home=True)
    hp.request("c", "d")
    hp.target("P2", "true")
    b.page("P2")
    return b.build()


def _plan(*specs, seed=0):
    return FaultPlan(specs=tuple(specs), seed=seed)


def _clean_then_violated():
    """The core service, a property that holds at sigma (0, 0) after 4
    snapshots and is violated at sigma (0, 1) after 2, and the options
    that pick those two sigmas, one work unit each."""
    from repro.demo.core import core_database
    from repro.ltl.parser import parse_ltlfo

    svc = load_spec("core.json")
    prop = parse_ltlfo('G (MP -> @name = "alice")')
    options = dict(
        databases=[core_database(svc)],
        sigmas=[{"name": "alice", "password": "pw-alice"},
                {"name": "nobody", "password": "nope"}],
        sigma_block=1,
    )
    return svc, prop, options


def _without_supervision(fp):
    """An engine-case fingerprint minus what records the backend."""
    fp = json.loads(json.dumps(fp))
    fp["stats"] = {k: v for k, v in fp["stats"].items()
                   if k not in _SUPERVISION_KEYS}
    fp["stats_order"] = [k for k in fp["stats_order"]
                         if k not in _SUPERVISION_KEYS]
    if fp["checkpoint"] is not None:
        del fp["checkpoint"]["workers"]
    return fp


@pytest.fixture
def no_sleep(monkeypatch):
    """Replace the engine's backoff sleep with a recorder (no real waits)."""
    recorded = []
    monkeypatch.setattr(parallel, "_SLEEP", recorded.append)
    return recorded


# ---------------------------------------------------------------------------
# plan parsing and matching
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_roundtrip(self):
        plan = _plan(
            FaultSpec("error", 3, 1, times=2),
            FaultSpec("hang", 0, delay_s=0.5),
            seed=7,
        )
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan

    def test_defaults(self):
        spec = FaultSpec.from_dict({"kind": "error", "db_index": 2})
        assert spec.sigma_index == 0
        assert spec.times == 1
        assert spec.delay_s is None
        assert spec.cursor == (2, 0)

    def test_bad_kind_names_field(self):
        with pytest.raises(FaultPlanError, match=r"faults\[0\]\.kind"):
            FaultPlan.from_dict({"faults": [{"kind": "explode",
                                             "db_index": 0}]})

    def test_missing_db_index(self):
        with pytest.raises(FaultPlanError, match=r"faults\[1\]\.db_index"):
            FaultPlan.from_dict({"faults": [
                {"kind": "error", "db_index": 0},
                {"kind": "error"},
            ]})

    def test_unknown_key_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown key"):
            FaultSpec.from_dict({"kind": "error", "db_index": 0, "when": 3})
        with pytest.raises(FaultPlanError, match="unknown key"):
            FaultPlan.from_dict({"faults": [], "jitter": 1})

    def test_type_errors(self):
        with pytest.raises(FaultPlanError, match="must be an integer"):
            FaultSpec.from_dict({"kind": "error", "db_index": "zero"})
        with pytest.raises(FaultPlanError, match="seed"):
            FaultPlan.from_dict({"seed": "x", "faults": []})
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")

    def test_fires_on_schedule(self):
        transient = FaultSpec("error", 0)
        assert transient.fires_on(0) and not transient.fires_on(1)
        persistent = FaultSpec("error", 0, times=-1)
        assert all(persistent.fires_on(a) for a in range(5))

    def test_match_site_discipline(self):
        plan = _plan(FaultSpec("error", 1), FaultSpec("checkpoint", 1))
        # unit site sees only non-checkpoint kinds, and vice versa
        assert plan.match("unit", (1, 0), 0).kind == "error"
        assert plan.match("checkpoint", (1, 0), 0).kind == "checkpoint"
        assert plan.match("unit", (2, 0), 0) is None

    def test_resolve_precedence(self, monkeypatch, tmp_path):
        explicit = _plan(FaultSpec("error", 0))
        monkeypatch.setenv(
            "REPRO_FAULTS",
            '{"faults": [{"kind": "slow", "db_index": 9}]}',
        )
        assert resolve_fault_plan(explicit) is explicit
        env_plan = resolve_fault_plan(None)
        assert env_plan.specs[0].kind == "slow"
        monkeypatch.delenv("REPRO_FAULTS")
        assert resolve_fault_plan(None) is None
        # @path form
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(explicit.to_dict()))
        assert resolve_fault_plan(f"@{path}") == explicit
        with pytest.raises(FaultPlanError, match="cannot read"):
            resolve_fault_plan(f"@{tmp_path}/missing.json")

    def test_empty_plan_resolves_to_none(self):
        assert resolve_fault_plan({"faults": []}) is None
        assert resolve_fault_plan('{"faults": []}') is None

    def test_plan_pickles(self):
        plan = _plan(FaultSpec("crash", 2, 1, times=-1), seed=3)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_injected_fault_pickles(self):
        exc = InjectedFault((4, 2), 1)
        again = pickle.loads(pickle.dumps(exc))
        assert again.cursor == (4, 2) and again.attempt == 1

    def test_all_kinds_parse(self):
        for kind in FAULT_KINDS:
            assert FaultSpec.from_dict(
                {"kind": kind, "db_index": 0}
            ).kind == kind


class TestFaultInjector:
    def test_error_raises(self):
        inj = FaultInjector(_plan(FaultSpec("error", 0)))
        with pytest.raises(InjectedFault) as info:
            inj.fire_unit((0, 0), 0)
        assert info.value.cursor == (0, 0)
        inj.fire_unit((0, 0), 1)  # beyond times=1: no fault
        inj.fire_unit((1, 0), 0)  # different cursor: no fault

    def test_crash_downgrades_in_parent(self):
        inj = FaultInjector(_plan(FaultSpec("crash", 0)), in_worker=False)
        with pytest.raises(InjectedFault):
            inj.fire_unit((0, 0), 0)  # must NOT os._exit here

    def test_sleep_kinds_use_seam(self):
        slept = []
        inj = FaultInjector(
            _plan(FaultSpec("hang", 0, delay_s=2.5), FaultSpec("slow", 1)),
            _sleep=slept.append,
        )
        inj.fire_unit((0, 0), 0)
        inj.fire_unit((1, 0), 0)
        assert slept == [2.5, 0.05]  # explicit delay, then the slow default

    def test_checkpoint_interrupt(self):
        inj = FaultInjector(_plan(FaultSpec("checkpoint", 0)))
        with pytest.raises(CheckpointWriteInterrupted):
            inj.checkpoint_interrupt((0, 0))
        inj.checkpoint_interrupt((1, 0))  # no match: no raise


# ---------------------------------------------------------------------------
# supervised runs: retry, quarantine, recovery (sequential backend)
# ---------------------------------------------------------------------------

class TestSequentialSupervision:
    def test_transient_fault_same_verdict(self, no_sleep):
        svc, prop = _pingpong(), _no_error()
        clean = verify_ltlfo(svc, prop, domain_size=2, workers=1)
        faulty = verify_ltlfo(
            svc, prop, domain_size=2, workers=1,
            faults=_plan(FaultSpec("error", 0)),
        )
        assert clean.verdict is Verdict.HOLDS
        assert faulty.verdict is clean.verdict
        assert faulty.stats["units_retried"] == 1
        assert len(no_sleep) == 1  # one backoff, recorded not slept
        # fault-free runs carry no supervision counters at all
        assert "units_retried" not in clean.stats

    def test_persistent_fault_quarantines(self, no_sleep):
        svc, prop = _pingpong(), _no_error()
        result = verify_ltlfo(
            svc, prop, domain_size=2, workers=1,
            faults=_plan(FaultSpec("error", 0, times=-1)),
        )
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.quarantined_units == ((0, 0),)
        assert result.stats["quarantined_units"] == [[0, 0]]
        assert result.checkpoint is not None
        # the checkpoint carries the quarantined cursors for the resume
        assert result.checkpoint.quarantined_units() == [(0, 0)]
        # resuming without the fault plan completes the run
        resumed = verify_ltlfo(
            svc, prop, domain_size=2, workers=1, resume=result.checkpoint,
        )
        assert resumed.verdict is Verdict.HOLDS

    def test_retry_zero_quarantines_immediately(self, no_sleep):
        svc, prop = _pingpong(), _no_error()
        result = verify_ltlfo(
            svc, prop, domain_size=2, workers=1, retry=0,
            faults=_plan(FaultSpec("error", 0)),
        )
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.quarantined_units == ((0, 0),)
        assert not no_sleep  # no retry, no backoff

    def test_backoff_schedule_deterministic(self, no_sleep):
        svc, prop = _pingpong(), _no_error()
        plan = _plan(FaultSpec("error", 0, times=2), seed=11)
        verify_ltlfo(svc, prop, domain_size=2, workers=1, retry=3,
                     faults=plan)
        first = list(no_sleep)
        no_sleep.clear()
        verify_ltlfo(svc, prop, domain_size=2, workers=1, retry=3,
                     faults=plan)
        assert no_sleep == first  # same plan, same schedule
        expected = [parallel.backoff_s((0, 0), a, 11) for a in range(2)]
        assert first == expected
        assert first[0] < first[1]  # exponential growth survives jitter

    def test_fault_events_traced(self, no_sleep):
        svc, prop = _pingpong(), _no_error()
        tracer = CollectingTracer()
        verify_ltlfo(
            svc, prop, domain_size=2, workers=1, tracer=tracer,
            faults=_plan(FaultSpec("error", 0)),
        )
        names = [e.name for e in tracer.events]
        assert "fault.injected" in names
        assert "unit.retry" in names
        injected = next(e for e in tracer.events
                        if e.name == "fault.injected")
        assert injected.fields["kind"] == "error"
        assert injected.cursor == (0, 0)
        # the live order of a failed attempt and its retry
        supervision = [
            (e.name, e.fields.get("status")) for e in tracer.events
            if e.name.startswith(("unit.", "fault."))
        ]
        assert supervision == [
            ("fault.injected", None), ("unit.start", None),
            ("unit.finish", "failed"), ("unit.retry", None),
            ("unit.start", None), ("unit.finish", "clean"),
        ]

    def test_quarantine_event_traced(self, no_sleep):
        svc, prop = _pingpong(), _no_error()
        tracer = CollectingTracer()
        verify_ltlfo(
            svc, prop, domain_size=2, workers=1, tracer=tracer,
            faults=_plan(FaultSpec("error", 0, times=-1)),
        )
        quarantined = [e for e in tracer.events
                       if e.name == "unit.quarantined"]
        assert len(quarantined) == 1
        assert quarantined[0].cursor == (0, 0)
        assert quarantined[0].fields["attempts"] == 3  # 1 try + 2 retries


# ---------------------------------------------------------------------------
# supervised runs: pool backend (crash, hang, recovery)
# ---------------------------------------------------------------------------

class TestPoolSupervision:
    def test_transient_error_in_worker(self):
        svc, prop = _pingpong(), _no_error()
        clean = verify_ltlfo(svc, prop, domain_size=2, workers=POOL)
        faulty = verify_ltlfo(
            svc, prop, domain_size=2, workers=POOL,
            faults=_plan(FaultSpec("error", 0)),
        )
        assert faulty.verdict is clean.verdict is Verdict.HOLDS
        assert faulty.stats["units_retried"] >= 1

    def test_worker_crash_recovery(self):
        svc, prop = _pingpong(), _no_error()
        faulty = verify_ltlfo(
            svc, prop, domain_size=2, workers=POOL,
            faults=_plan(FaultSpec("crash", 0)),
        )
        assert faulty.verdict is Verdict.HOLDS
        assert faulty.stats["pool_rebuilds"] >= 1

    def test_hang_timeout_retry(self):
        svc, prop = _pingpong(), _no_error()
        tracer = CollectingTracer()
        faulty = verify_ltlfo(
            svc, prop, domain_size=2, workers=POOL,
            unit_timeout_s=0.5, tracer=tracer,
            faults=_plan(FaultSpec("hang", 0, delay_s=10.0)),
        )
        assert faulty.verdict is Verdict.HOLDS
        names = [e.name for e in tracer.events]
        assert "unit.timeout" in names
        assert "pool.rebuilt" in names

    def test_timeout_bounds_a_unit_above_the_violation(self):
        # (0, 1) hangs in its worker after the violation at (0, 0) ended
        # the run; its outcome is never read, but the unit timeout still
        # bounds it: the call returns without waiting out the hang
        svc, prop, options = _clean_then_violated()
        options["sigmas"] = options["sigmas"][::-1]
        tracer = CollectingTracer()
        started = time.monotonic()
        result = verify_ltlfo(
            svc, prop, workers=POOL, unit_timeout_s=0.5, tracer=tracer,
            faults=_plan(FaultSpec("hang", 0, 1, delay_s=10.0)), **options,
        )
        assert time.monotonic() - started < 5.0
        assert result.verdict is Verdict.VIOLATED
        assert (result.stats["counterexample_db_index"],
                result.stats["counterexample_sigma_index"]) == (0, 0)
        assert not {"units_retried", "pool_rebuilds"} & set(result.stats)
        assert not [e for e in tracer.events if e.name == "unit.timeout"]

    def test_timeout_watches_units_dropped_above_a_stop(self, monkeypatch):
        # (0, 0) fails once and waits out a 0.5 s backoff, (0, 1) is
        # violated, and (0, 2) and (0, 3) hang on both workers.  The
        # dropped hangs time out first: the rebuild that kills them
        # charges nothing, and the retry of (0, 0) queued behind them
        # runs again at its own attempt instead of timing out itself.
        monkeypatch.setattr(parallel, "_BACKOFF_BASE_S", 0.5)
        svc, prop, options = _clean_then_violated()
        options["sigmas"] = options["sigmas"] + [
            {"name": "bob", "password": "x"},
            {"name": "carol", "password": "y"},
        ]
        tracer = CollectingTracer()
        started = time.monotonic()
        result = verify_ltlfo(
            svc, prop, workers=POOL, unit_timeout_s=0.5, tracer=tracer,
            faults=_plan(FaultSpec("error", 0),
                         FaultSpec("hang", 0, 2, delay_s=10.0),
                         FaultSpec("hang", 0, 3, delay_s=10.0)),
            **options,
        )
        assert time.monotonic() - started < 5.0
        assert result.verdict is Verdict.VIOLATED
        assert (result.stats["counterexample_db_index"],
                result.stats["counterexample_sigma_index"]) == (0, 1)
        assert result.stats["units_retried"] == 1
        assert result.stats["pool_rebuilds"] == 1
        assert not [e for e in tracer.events if e.name == "unit.timeout"]

    def test_persistent_crash_quarantines(self):
        svc, prop = _pingpong(), _no_error()
        faulty = verify_ltlfo(
            svc, prop, domain_size=2, workers=POOL,
            faults=_plan(FaultSpec("crash", 0, times=-1)),
        )
        assert faulty.verdict is Verdict.INCONCLUSIVE
        assert (0, 0) in faulty.quarantined_units
        # the run survived: every other unit completed
        assert faulty.stats["databases_checked"] >= 1


class TestInProcessFallback:
    """The in-process executor that replaces a pool which cannot be
    started or has been rebuilt too often."""

    @pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
    def test_pool_unavailable_matches_sequential(self, case, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("no process pool here")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        _, result = run_case(case, workers=POOL)
        want = json.loads(ORACLE_PATH.read_text())[case["id"]]["workers=1"]
        assert _without_supervision(fingerprint(result)) == \
            _without_supervision(want)

    def test_rebuild_cap_falls_back_in_process(self, monkeypatch):
        monkeypatch.setattr(parallel, "_MAX_POOL_REBUILDS", 0)
        tracer = CollectingTracer()
        result = verify_ltlfo(
            _pingpong(), _no_error(), domain_size=2, workers=POOL,
            tracer=tracer, faults=_plan(FaultSpec("crash", 0, times=-1)),
        )
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.quarantined_units == ((0, 0),)
        assert result.stats["pool_rebuilds"] == 1
        rebuilt = [e for e in tracer.events if e.name == "pool.rebuilt"]
        assert [e.fields["fallback"] for e in rebuilt] == [True]

    def test_crash_suspects_run_alone(self):
        # (0, 1) is still sleeping when (0, 0) kills the pool, so both
        # are suspects.  Each then runs alone: only (0, 0) breaks the
        # pool again and is charged, and the pool is never given up.
        svc, prop, options = _clean_then_violated()
        tracer = CollectingTracer()
        result = verify_ltlfo(
            svc, prop, workers=POOL, tracer=tracer,
            faults=_plan(FaultSpec("crash", 0, times=-1),
                         FaultSpec("slow", 0, 1, times=-1, delay_s=0.5)),
            **options,
        )
        assert result.quarantined_units == ((0, 0),)
        assert result.stats["units_retried"] == 2
        # one break with both running, then one per attempt of (0, 0)
        assert result.stats["pool_rebuilds"] == 4
        assert not any(e.fields["fallback"] for e in tracer.events
                       if e.name == "pool.rebuilt")


# ---------------------------------------------------------------------------
# crash-safe checkpointing
# ---------------------------------------------------------------------------

class TestAtomicWrites:
    def test_basic_write(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "first")
        assert path.read_text() == "first"
        atomic_write_text(path, "second")
        assert path.read_text() == "second"

    def test_interrupted_write_preserves_previous(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "previous")

        def kill():
            raise CheckpointWriteInterrupted("boom")

        with pytest.raises(CheckpointWriteInterrupted):
            atomic_write_text(path, "torn", interrupt=kill)
        assert path.read_text() == "previous"
        # the temp file is left behind, as a real SIGKILL would leave it
        debris = list(tmp_path.glob("out.json.tmp.*"))
        assert debris and debris[0].read_text() == "torn"


class TestPeriodicCheckpoints:
    def test_periodic_writes_and_resume(self, tmp_path, monkeypatch):
        """A periodic checkpoint sits at the run's frontier: resuming it
        runs exactly the units the run had not committed and enters no
        database the run had finished — at either worker count.

        The sequential loop cannot name the next unit before pulling
        it, so its checkpoint sits on the unit just committed and lists
        that unit as done; the pool's sits on its lowest unit pulled and
        not committed, or takes the sequential form when its whole
        window had committed."""
        svc, prop = _two_constants(), _no_error()
        options = dict(domain_size=2, sigma_block=1)
        written = []

        def recording_save(ckpt, path, **kwargs):
            written.append((
                (ckpt.db_index, ckpt.sigma_index),
                sorted(ckpt.completed_units()),
            ))
            save_checkpoint(ckpt, path, **kwargs)

        monkeypatch.setattr("repro.io.save_checkpoint", recording_save)
        # written after 7, 14, 21 and 28 of the 30 units: the last unit
        # committed, and the one after it
        frontiers = [((0, 6), (0, 7)), ((1, 3), (1, 4)),
                     ((2, 0), (2, 1)), ((2, 7), (2, 8))]
        for workers in (1, POOL):
            path = tmp_path / f"ck-{workers}.json"
            tracer = CollectingTracer()
            written.clear()
            result = verify_ltlfo(
                svc, prop, workers=workers, tracer=tracer,
                checkpoint_path=str(path), checkpoint_every=7, **options,
            )
            assert result.verdict is Verdict.HOLDS
            saved = [e.cursor for e in tracer.events
                     if e.name == "checkpoint.saved"]
            assert result.stats["checkpoints_written"] == len(saved) == 4
            assert saved == [cursor for cursor, _done in written]
            for (last, after), ckpt in zip(frontiers, written):
                if workers == 1:
                    assert ckpt == (last, [last])
                else:
                    assert ckpt in ((after, []), (last, [last])), ckpt
            tracer = CollectingTracer()
            resumed = verify_ltlfo(
                svc, prop, workers=workers, resume=load_checkpoint(path),
                tracer=tracer, **options,
            )
            assert resumed.verdict is Verdict.HOLDS
            assert [e.fields["db_index"] for e in tracer.events
                    if e.name == "database.enumerated"] == [2]
            assert resumed.stats["sigmas_checked"] == 2, workers

    def test_injected_checkpoint_fault_preserves_file(self, tmp_path):
        svc, prop = _pingpong(), _no_error()
        path = tmp_path / "ck.json"
        # every checkpoint write at cursor (0, 0) is interrupted; later
        # writes (and the final state of the file) must stay valid JSON
        result = verify_ltlfo(
            svc, prop, domain_size=2, workers=1,
            checkpoint_path=str(path), checkpoint_every=1,
            faults=_plan(FaultSpec("checkpoint", 0, times=-1)),
        )
        assert result.verdict is Verdict.HOLDS
        if path.exists():  # any write that did land must be complete
            load_checkpoint(path)

    def test_checkpoint_saved_event(self, tmp_path):
        svc, prop = _pingpong(), _no_error()
        tracer = CollectingTracer()
        verify_ltlfo(
            svc, prop, domain_size=2, workers=1, tracer=tracer,
            checkpoint_path=str(tmp_path / "ck.json"), checkpoint_every=1,
        )
        saved = [e for e in tracer.events if e.name == "checkpoint.saved"]
        assert saved
        assert saved[0].fields["path"].endswith("ck.json")


class TestFinalCheckpoint:
    @pytest.mark.parametrize("workers", [1, POOL])
    def test_periodic_checkpoint_leaves_violation_to_resume(
        self, tmp_path, workers
    ):
        svc, prop, options = _clean_then_violated()
        path = tmp_path / "ck.json"
        result = verify_ltlfo(
            svc, prop, workers=workers, checkpoint_path=str(path),
            checkpoint_every=1, **options,
        )
        assert result.verdict is Verdict.VIOLATED
        # the last periodic checkpoint never counts the violating unit
        # as done, so a run killed after writing it still finds it
        assert (0, 1) not in load_checkpoint(path).completed_units()
        resumed = verify_ltlfo(
            svc, prop, workers=workers, resume=load_checkpoint(path),
            **options,
        )
        assert resumed.verdict is Verdict.VIOLATED

    def test_written_when_a_unit_below_a_violation_is_interrupted(
        self, tmp_path
    ):
        """Unit (0, 0) holds but needs 4 snapshots, over the cap of 3;
        unit (0, 1) is violated after 2.  The sequential loop stops at
        (0, 0).  The pool may finish (0, 1) first, and must still end
        INCONCLUSIVE at (0, 0), write the same final checkpoint, and
        leave the violation for the resume to find."""
        svc, prop, options = _clean_then_violated()
        results = {}
        for workers in (1, POOL):
            path = tmp_path / f"ck-{workers}.json"
            tracer = CollectingTracer()
            result = verify_ltlfo(
                svc, prop, workers=workers, budget=Budget(max_snapshots=3),
                checkpoint_path=str(path), tracer=tracer, **options,
            )
            assert result.verdict is Verdict.INCONCLUSIVE
            assert [(e.cursor, e.fields["status"]) for e in tracer.events
                    if e.name == "unit.finish"] == [((0, 0), "budget")]
            assert path.exists()
            assert load_checkpoint(path).to_dict() == \
                result.checkpoint.to_dict()
            resumed = verify_ltlfo(
                svc, prop, workers=workers, resume=result.checkpoint,
                **options,
            )
            assert resumed.verdict is Verdict.VIOLATED
            results[workers] = result
        ignore = {"workers", "config"}
        seq, par = (
            {k: v for k, v in results[w].stats.items() if k not in ignore}
            for w in (1, POOL)
        )
        assert seq == par
        assert seq["checkpoints_written"] == 1
        seq_ck, par_ck = (results[w].checkpoint.to_dict() for w in (1, POOL))
        del seq_ck["workers"], par_ck["workers"]
        assert seq_ck == par_ck


class TestCheckpointFormat:
    def _checkpoint(self):
        svc, prop = _pingpong(), _no_error()
        result = verify_ltlfo(
            svc, prop, domain_size=2, workers=1,
            faults=_plan(FaultSpec("error", 0, times=-1)), retry=0,
        )
        assert result.checkpoint is not None
        return result.checkpoint

    def test_v2_roundtrip_carries_quarantine(self, tmp_path):
        ckpt = self._checkpoint()
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        data = json.loads(path.read_text())
        assert data["format"] == "repro.checkpoint/2"
        assert data["extra"]["quarantined_units"] == [[0, 0]]
        again = load_checkpoint(path)
        assert again.quarantined_units() == [(0, 0)]

    def test_v1_files_still_load(self, tmp_path):
        ckpt = self._checkpoint()
        data = checkpoint_to_dict(ckpt)
        data["format"] = "repro.checkpoint/1"
        data["extra"].pop("quarantined_units", None)
        again = checkpoint_from_dict(data)
        assert again.db_index == ckpt.db_index
        assert again.quarantined_units() == []

    def test_truncated_file_coded_error(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text('{"format": "repro.checkpoint/2", "db_ind')
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_unknown_format_coded_error(self):
        with pytest.raises(CheckpointFormatError) as info:
            checkpoint_from_dict({"format": "repro.checkpoint/99"})
        assert info.value.field == "format"

    def test_bad_field_coded_error(self):
        data = checkpoint_to_dict(self._checkpoint())
        data["db_index"] = "three"
        with pytest.raises(CheckpointFormatError) as info:
            checkpoint_from_dict(data)
        assert info.value.field == "db_index"


# ---------------------------------------------------------------------------
# cooperative interruption (stop token, CLI exit codes)
# ---------------------------------------------------------------------------

class TestInterruption:
    def test_stop_token_interrupts_run(self):
        svc, prop = _pingpong(), _no_error()
        GLOBAL_STOP.set("SIGINT")
        try:
            result = verify_ltlfo(svc, prop, domain_size=2, workers=1)
        finally:
            GLOBAL_STOP.clear()
        assert result.verdict is Verdict.INCONCLUSIVE
        assert result.stats["interrupted_by"] == "interrupted"
        assert result.checkpoint is not None

    def test_run_interrupted_event(self):
        svc, prop = _pingpong(), _no_error()
        tracer = CollectingTracer()
        GLOBAL_STOP.set("SIGTERM")
        try:
            verify_ltlfo(svc, prop, domain_size=2, workers=1, tracer=tracer)
        finally:
            GLOBAL_STOP.clear()
        events = [e for e in tracer.events if e.name == "run.interrupted"]
        assert len(events) == 1
        assert events[0].fields["signal"] == "SIGTERM"


class TestCLI:
    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "svc.json"
        save_service(_pingpong(), path)
        return str(path)

    def test_exit_130_on_interrupt(self, spec_path, tmp_path, capsys):
        from repro.cli import EXIT_INTERRUPTED, main

        ck = tmp_path / "ck.json"
        GLOBAL_STOP.set("SIGINT")  # as the signal handler would
        try:
            rc = main([
                "verify", spec_path, "--ltl", "G !ERROR",
                "--domain-size", "2", "--checkpoint", str(ck),
            ])
        finally:
            GLOBAL_STOP.clear()
        assert rc == EXIT_INTERRUPTED == 130
        assert ck.exists()  # the final checkpoint was flushed
        load_checkpoint(ck)

    def test_handlers_clear_global_stop(self, spec_path):
        # the CLI restores handlers and clears the token on the way out,
        # so one interrupted invocation cannot poison the next
        from repro.cli import main

        GLOBAL_STOP.set("SIGINT")
        try:
            main(["verify", spec_path, "--ltl", "G !ERROR",
                  "--domain-size", "2"])
        finally:
            leaked = bool(GLOBAL_STOP)
            GLOBAL_STOP.clear()
        assert not leaked

    def test_bad_faults_plan_exits_2(self, spec_path, capsys):
        from repro.cli import EXIT_USAGE, main

        rc = main(["verify", spec_path, "--ltl", "G !ERROR",
                   "--domain-size", "2", "--faults", "{not json"])
        assert rc == EXIT_USAGE
        assert "fault plan" in capsys.readouterr().err

    def test_bad_resume_file_exits_2(self, spec_path, tmp_path, capsys):
        from repro.cli import EXIT_USAGE, main

        bad = tmp_path / "ck.json"
        bad.write_text('{"format": "repro.checkpoint/2", trunc')
        rc = main(["verify", spec_path, "--ltl", "G !ERROR",
                   "--domain-size", "2", "--resume", str(bad)])
        assert rc == EXIT_USAGE
        assert "malformed" in capsys.readouterr().err

    def test_checkpointing_refused_on_fp_fast_path(self, spec_path,
                                                   tmp_path, capsys):
        # a CTL property on a fully propositional service without
        # --domain-size takes the Theorem 4.6 fast path, which has no
        # enumeration cursor to checkpoint — a clean refusal, not a
        # silently ignored flag
        from repro.cli import EXIT_USAGE, main

        rc = main(["verify", spec_path, "--ctl", "AG !P2",
                   "--checkpoint", str(tmp_path / "ck.json"),
                   "--checkpoint-every", "5"])
        assert rc == EXIT_USAGE
        assert "verify_fully_propositional" in capsys.readouterr().err

    def test_cli_faults_flag_roundtrip(self, spec_path, capsys):
        from repro.cli import EXIT_HOLDS, main

        rc = main([
            "verify", spec_path, "--ltl", "G !ERROR", "--domain-size", "2",
            "--faults", '{"faults": [{"kind": "error", "db_index": 0}]}',
        ])
        assert rc == EXIT_HOLDS
        assert "HOLDS" in capsys.readouterr().out
