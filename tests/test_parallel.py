"""Tests for the parallel verification engine and its bugfix satellites.

The headline contract: ``workers=N`` never changes a verdict, a
counterexample, or a counterexample cursor — the pool backend must be
observationally identical to the sequential loop on every decision
procedure.  The satellites: fresh-value collisions in
``enumerate_sigmas``, breadth-first ``explore_configuration_graph``,
accurate stats on every verdict, and checkpoint parameter compatibility.
"""

import time

import pytest

from repro.ctl import AG, CAtom, CNot, EF
from repro.fol import Atom, Not, Var
from repro.ltl import F, G, LTLFOSentence
from repro.schema import Database
from repro.service import ServiceBuilder
from repro.service.runs import RunContext
from repro.verifier import (
    Budget,
    Checkpoint,
    CheckpointMismatchError,
    Verdict,
    enumerate_sigmas,
    explore_configuration_graph,
    fresh_value_pool,
    resolve_workers,
    verify_ctl,
    verify_error_free,
    verify_fully_propositional,
    verify_input_driven_search,
    verify_ltlfo,
)
from repro.verifier.parallel import (
    EnumerationOutcome,
    UnitStream,
    frontier_checkpoint,
)

POOL = 2  # worker count for the pool-backend tests


# ---------------------------------------------------------------------------
# helper services
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


def _chain():
    """P1 -> P2 -> P3, strictly one page deeper per step."""
    b = ServiceBuilder("chain")
    b.input("go")
    p1 = b.page("P1", home=True)
    p1.toggle("go")
    p1.target("P2", "go")
    p2 = b.page("P2")
    p2.toggle("go")
    p2.target("P3", "go")
    b.page("P3")
    return b.build()


def _constants_service():
    """Two input constants — exercises the sigma enumeration."""
    b = ServiceBuilder("sig")
    b.database("item", 1)
    b.input_constant("c", "d")
    hp = b.page("HP", home=True)
    hp.request("c", "d")
    hp.target("P2", "true")
    b.page("P2")
    return b.build()


def _no_error():
    return LTLFOSentence((), G(Not(Atom("ERROR", ()))))


def _stats_match(a, b, *, ignore=("workers", "config")):
    """Assert two stats dicts agree on every key except ``ignore``.

    ``stats["config"]`` records the resolved options — including the
    worker count — and so differs between the backends by construction.
    """
    keys = (set(a) | set(b)) - set(ignore)
    diff = {k: (a.get(k), b.get(k)) for k in keys if a.get(k) != b.get(k)}
    assert not diff, f"stats diverge between backends: {diff}"


# ---------------------------------------------------------------------------
# sequential vs parallel equivalence, all four procedures
# ---------------------------------------------------------------------------

class TestSequentialParallelEquivalence:
    def test_ltlfo_holds(self):
        svc = _pingpong()
        prop = _no_error()
        seq = verify_ltlfo(svc, prop, domain_size=2, workers=1)
        par = verify_ltlfo(svc, prop, domain_size=2, workers=POOL)
        assert seq.verdict is Verdict.HOLDS
        assert par.verdict is Verdict.HOLDS
        _stats_match(seq.stats, par.stats)

    def test_ltlfo_violated_same_counterexample(self):
        svc = _pingpong()
        prop = LTLFOSentence((), G(Not(Atom("P2", ()))), name="never P2")
        seq = verify_ltlfo(svc, prop, domain_size=2, workers=1)
        par = verify_ltlfo(svc, prop, domain_size=2, workers=POOL)
        assert seq.verdict is Verdict.VIOLATED
        assert par.verdict is Verdict.VIOLATED
        # same cursor, same witness trace — not merely "some" violation
        assert (seq.stats["counterexample_db_index"],
                seq.stats["counterexample_sigma_index"]) == (
                par.stats["counterexample_db_index"],
                par.stats["counterexample_sigma_index"])
        assert [s.page for s in seq.counterexample.snapshots] == \
               [s.page for s in par.counterexample.snapshots]
        assert seq.counterexample.loop_index == par.counterexample.loop_index
        _stats_match(seq.stats, par.stats)

    def test_ltlfo_sigma_units(self):
        # sigma enumeration splits one database into several work units
        svc = _constants_service()
        prop = _no_error()
        seq = verify_ltlfo(svc, prop, domain_size=1, workers=1)
        par = verify_ltlfo(svc, prop, domain_size=1, workers=POOL)
        assert seq.verdict == par.verdict
        assert seq.stats["sigmas_checked"] > 1
        _stats_match(seq.stats, par.stats)

    def test_error_free_direct(self, toy_service):
        seq = verify_error_free(toy_service, domain_size=1, workers=1)
        par = verify_error_free(toy_service, domain_size=1, workers=POOL)
        assert seq.verdict == par.verdict
        _stats_match(seq.stats, par.stats)

    def test_error_free_violated_same_trace(self):
        from tests.conftest import build_toy_service

        broken = build_toy_service(broken_target=True)
        seq = verify_error_free(broken, domain_size=1, workers=1)
        par = verify_error_free(broken, domain_size=1, workers=POOL)
        assert seq.verdict is Verdict.VIOLATED
        assert par.verdict is Verdict.VIOLATED
        assert (seq.stats["counterexample_db_index"],
                seq.stats["counterexample_sigma_index"]) == (
                par.stats["counterexample_db_index"],
                par.stats["counterexample_sigma_index"])
        assert [s.page for s in seq.counterexample.snapshots] == \
               [s.page for s in par.counterexample.snapshots]

    def test_violated_stats_ignore_speculative_units(self):
        # The violation sits early in a multi-database enumeration, so
        # the pool's submission window pulls the stream (and completes
        # units) well past the winning cursor before cancellation.
        # Those speculative completions must not leak into the stats:
        # the aggregate covers exactly the sequential prefix.
        from tests.conftest import build_toy_service

        broken = build_toy_service(broken_target=True)
        seq = verify_error_free(broken, workers=1)
        par = verify_error_free(broken, workers=POOL)
        assert seq.verdict is Verdict.VIOLATED
        assert par.verdict is Verdict.VIOLATED
        _stats_match(seq.stats, par.stats)
        assert par.stats["databases_checked"] == seq.stats["databases_checked"]

    def test_ctl(self, prop_service):
        prop = AG(EF(CAtom("HP")))
        seq = verify_ctl(prop_service, prop, check_restrictions=False,
                         domain_size=1, workers=1)
        par = verify_ctl(prop_service, prop, check_restrictions=False,
                         domain_size=1, workers=POOL)
        assert seq.verdict == par.verdict
        _stats_match(seq.stats, par.stats)

    def test_ctl_violated(self, prop_service):
        prop = AG(CNot(CAtom("CP")))  # the checkout page is reachable
        seq = verify_ctl(prop_service, prop, check_restrictions=False,
                         domain_size=1, workers=1)
        par = verify_ctl(prop_service, prop, check_restrictions=False,
                         domain_size=1, workers=POOL)
        assert seq.verdict == par.verdict
        if seq.verdict is Verdict.VIOLATED:
            assert seq.stats["counterexample_db_index"] == \
                   par.stats["counterexample_db_index"]
        _stats_match(seq.stats, par.stats)

    def test_fully_propositional(self, prop_service):
        prop = AG(EF(CAtom("HP")))
        seq = verify_fully_propositional(prop_service, prop, workers=1)
        par = verify_fully_propositional(prop_service, prop, workers=POOL)
        assert seq.verdict == par.verdict
        _stats_match(seq.stats, par.stats)

    def test_input_driven_search(self, ids_service, ids_db):
        prop = EF(CAtom("ERROR"))
        seq = verify_input_driven_search(
            ids_service, prop, databases=[ids_db], workers=1)
        par = verify_input_driven_search(
            ids_service, prop, databases=[ids_db], workers=POOL)
        assert seq.verdict == par.verdict
        _stats_match(seq.stats, par.stats)


# ---------------------------------------------------------------------------
# deadlines and budgets under the pool backend
# ---------------------------------------------------------------------------

class TestParallelBudgets:
    def test_deadline_fires_mid_run(self, core):
        # Full enumeration for the core service is a multi-minute
        # workload; the deadline must cut the pool run short too.
        start = time.monotonic()
        result = verify_ltlfo(core, _no_error(), timeout_s=0.5, workers=POOL)
        elapsed = time.monotonic() - start
        assert result.inconclusive
        assert result.stats["interrupted_by"] == "timeout_s"
        assert result.checkpoint is not None
        assert result.checkpoint.workers == POOL
        # pool startup + drain overhead allowed, but no runaway
        assert elapsed < 30

    def test_max_databases_cap_parallel(self, toy_service):
        result = verify_ltlfo(toy_service, _no_error(), domain_size=1,
                              budget=Budget(max_databases=1), workers=POOL)
        assert result.inconclusive
        assert result.stats["interrupted_by"] == "max_databases"
        assert result.checkpoint is not None

    def test_parallel_resume_reaches_sequential_verdict(self, toy_service):
        prop = _no_error()
        unbounded = verify_ltlfo(toy_service, prop, domain_size=1, workers=1)
        result = verify_ltlfo(toy_service, prop, domain_size=1,
                              budget=Budget(max_databases=1), workers=POOL)
        rounds = 1
        while result.inconclusive:
            assert result.checkpoint is not None
            result = verify_ltlfo(toy_service, prop, domain_size=1,
                                  budget=Budget(max_databases=1),
                                  resume=result.checkpoint, workers=POOL)
            rounds += 1
            assert rounds < 100
        assert result.verdict == unbounded.verdict
        assert rounds > 1

    @pytest.mark.slow
    def test_database_cap_drains_pulled_units(self, monkeypatch):
        """The stream raising the database cap stops pulling, but every
        unit already pulled (its database charged inside the cap) still
        runs, as in sequential: stats, coverage and the checkpoint
        cursor match the recorded pool entry on every run.  A
        zero-timeout ``wait`` widens the window in which a cancel could
        land on a pulled unit that has not started."""
        import concurrent.futures as cf
        import json

        import repro.verifier.parallel as parallel
        from tests.engine_cases import (
            CASES, ORACLE_PATH, fingerprint, run_case,
        )

        def zero_wait(fs, timeout=None, return_when=cf.ALL_COMPLETED):
            return cf.wait(fs, timeout=0, return_when=return_when)

        monkeypatch.setattr(parallel, "wait", zero_wait)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        case = next(c for c in CASES if c["id"] == "ltlfo-core-inconclusive")
        want = json.loads(ORACLE_PATH.read_text())[case["id"]]["workers=2"]
        for _ in range(10):
            _, result = run_case(case, workers=POOL)
            assert json.loads(json.dumps(fingerprint(result))) == want


# ---------------------------------------------------------------------------
# a unit's own budget strikes: the pool reports the sequential stats
# ---------------------------------------------------------------------------

def _registration():
    """E12's registration service (arity 2): rows of ``allowed`` are
    recorded on FORM, stored, and acknowledged on REVIEW."""
    b = ServiceBuilder("registration-2")
    b.database("allowed", 2)
    b.input("record", 2)
    b.input("done")
    b.state("stored", 2)
    b.state("closed")
    b.action("ack", 2)
    form = b.page("FORM", home=True)
    form.toggle("done")
    form.options("record", "allowed(x0, x1)", ("x0", "x1"))
    form.insert("stored", "record(x0, x1) & !closed", ("x0", "x1"))
    form.insert("closed", "done")
    form.target("REVIEW", "done")
    review = b.page("REVIEW")
    review.act("ack", "stored(x0, x1)", ("x0", "x1"))
    review.toggle("done")
    review.target("FORM", "done")
    return b.build()


def _strike_registration(workers, order=(0, 0, 6)):
    """``order`` picks the candidate databases in run order: by default
    two clean units (10 snapshots each), then one that strikes."""
    from repro.ltl import B
    from repro.verifier.engine import candidate_databases

    svc = _registration()
    terms = (Var("x"), Var("y"))
    prop = LTLFOSentence(
        ("x", "y"), B(Atom("record", terms), Not(Atom("stored", terms)))
    )
    dbs = list(candidate_databases(svc, prop, None, 2, True)[0])
    return verify_ltlfo(
        svc, prop, databases=[dbs[i] for i in order],
        budget=Budget(max_snapshots=10), workers=workers,
    )


def _strike_registration_first(workers):
    """The strike on the first unit, while the pool window runs the two
    clean ones past it."""
    return _strike_registration(workers, order=(6, 0, 0))


def _strike_core(entry, cap):
    """Three sigmas of the core database, each over a snapshot cap of
    1-3: the first strikes while the pool runs the others."""
    from tests.engine_cases import _build_database, load_spec

    def run(workers):
        svc = load_spec("core.json")
        db = _build_database("core", svc)
        sigmas = list(enumerate_sigmas(svc, db))[:3]
        args = (svc,) if entry is verify_error_free else (svc, _no_error())
        return entry(
            *args, databases=[db], sigmas=sigmas,
            budget=Budget(max_snapshots=cap), workers=workers,
        )

    return run


def _strike_kripke(entry):
    """A state cap of 3 on one database's Kripke structure."""
    from tests.engine_cases import _build_database, load_spec

    def run(workers):
        if entry is verify_input_driven_search:
            svc = load_spec("search_site.json")
            options = {"databases": [_build_database("figure1", svc)]}
        else:
            svc = load_spec("propositional.json")
            options = {} if entry is verify_fully_propositional else {
                "databases": [Database(svc.schema.database)]
            }
        return entry(
            svc, AG(EF(CAtom("HP"))), max_states=3, workers=workers,
            **options,
        )

    return run


STRIKES = {
    "ltl-registration": _strike_registration,
    "ltl-registration-first": _strike_registration_first,
    **{f"ltl-core-cap{cap}": _strike_core(verify_ltlfo, cap)
       for cap in (1, 2, 3)},
    **{f"error-free-core-cap{cap}": _strike_core(verify_error_free, cap)
       for cap in (1, 2, 3)},
    "ctl": _strike_kripke(verify_ctl),
    "fully-propositional": _strike_kripke(verify_fully_propositional),
    "input-driven-search": _strike_kripke(verify_input_driven_search),
}


def _checkpoint(result):
    """The result's checkpoint as a dict without its worker count, which
    differs between the backends by construction (None without one)."""
    ck = result.checkpoint
    if ck is None:
        return None
    return {k: v for k, v in ck.to_dict().items() if k != "workers"}


class TestStrikeStats:
    """When a unit's own budget strikes, the pool reports what the
    sequential loop reports: the run's totals (not the struck unit's
    partial counters), nothing of the valuation in progress, no counter
    the procedure does not declare, and the same checkpoint.  That holds
    too when the strike is on an early unit and the pool window has run
    later ones: they do not count."""

    @pytest.mark.parametrize("case", sorted(STRIKES))
    def test_pool_matches_sequential(self, case, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        seq, par = (STRIKES[case](workers) for workers in (1, POOL))
        assert seq.verdict is par.verdict is Verdict.INCONCLUSIVE
        assert list(seq.stats) == list(par.stats)
        _stats_match(seq.stats, par.stats)
        assert seq.coverage == par.coverage
        assert _checkpoint(seq) == _checkpoint(par)

    def test_parent_cap_keeps_its_limit(self, monkeypatch):
        """A global cap that strikes in the parent, absorbing a clean
        unit at the stream's cursor, stays the interrupt: no unit
        struck, so no unit's outcome may stand in for it."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        from tests.engine_cases import _build_database, load_spec

        svc = load_spec("core.json")
        db = _build_database("core", svc)
        sigmas = list(enumerate_sigmas(svc, db))[:3]
        for workers in (1, POOL):
            result = verify_ltlfo(
                svc, _no_error(), databases=[db], sigmas=sigmas,
                budget=Budget(max_valuations=2), workers=workers,
            )
            assert result.stats["interrupted_by"] == "max_valuations"
            assert result.stats["interrupted_phase"] == "lasso search"

    def test_registration_counts_every_unit(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        stats = _strike_registration(POOL).stats
        assert stats["snapshots_explored"] == 31
        assert stats["valuations_checked"] == 8


# ---------------------------------------------------------------------------
# satellite: fresh-value collision in enumerate_sigmas
# ---------------------------------------------------------------------------

class TestFreshValueCollision:
    def test_fresh_pool_disjoint_from_domain(self):
        svc = _constants_service()
        db = Database(svc.schema.database,
                      {"item": [("$new0",), ("$new_1",), ("b",)]})
        fresh, prefix = fresh_value_pool(db, 2)
        assert not set(fresh) & set(db.domain)
        for v in db.domain:
            assert not str(v).startswith(prefix)

    def test_collision_domain_same_sigma_count(self):
        # A domain value that *starts with* the old "$new" prefix used to
        # be misclassified as fresh, collapsing distinct sigmas.
        svc = _constants_service()
        clean = Database(svc.schema.database, {"item": [("a",), ("b",)]})
        collide = Database(svc.schema.database, {"item": [("$new0",), ("b",)]})
        sig_clean = [tuple(sorted(s.items()))
                     for s in enumerate_sigmas(svc, clean)]
        sig_collide = [tuple(sorted(s.items()))
                       for s in enumerate_sigmas(svc, collide)]
        assert len(sig_clean) == len(set(sig_clean))
        assert len(sig_collide) == len(set(sig_collide))
        assert len(sig_clean) == len(sig_collide)

    def test_domain_value_still_enumerable(self):
        # "$new0" in the domain must be offered as a *domain* value for
        # every constant, exactly like any other value.
        svc = _constants_service()
        db = Database(svc.schema.database, {"item": [("$new0",), ("b",)]})
        sigmas = list(enumerate_sigmas(svc, db))
        both_domain = [s for s in sigmas
                       if s["c"] == "$new0" and s["d"] == "$new0"]
        assert both_domain  # distinct from the fresh-fresh pattern

    def test_verdict_unchanged_by_collision(self):
        # End-to-end: a colliding domain value must not flip a verdict.
        svc = _constants_service()
        clean = Database(svc.schema.database, {"item": [("a",)]})
        collide = Database(svc.schema.database, {"item": [("$new0",)]})
        prop = _no_error()
        r_clean = verify_ltlfo(svc, prop, databases=[clean])
        r_collide = verify_ltlfo(svc, prop, databases=[collide])
        assert r_clean.verdict == r_collide.verdict
        assert r_clean.stats["sigmas_checked"] == \
               r_collide.stats["sigmas_checked"]


# ---------------------------------------------------------------------------
# satellite: explore_configuration_graph is breadth-first
# ---------------------------------------------------------------------------

class TestExplorationOrder:
    def test_order_is_breadth_first(self):
        svc = _chain()
        db = Database(svc.schema.database)
        ctx = RunContext(svc, db)
        order, edges = explore_configuration_graph(ctx)

        # recompute true BFS depths from the returned edges
        from collections import deque

        from repro.service.runs import initial_snapshots

        roots = initial_snapshots(ctx)
        assert roots
        depth = {s: 0 for s in roots}
        queue = deque(roots)
        while queue:
            s = queue.popleft()
            for t in edges.get(s, ()):
                if t not in depth:
                    depth[t] = depth[s] + 1
                    queue.append(t)
        depths = [depth[s] for s in order]
        assert depths == sorted(depths), (
            "explore_configuration_graph no longer yields level order "
            f"(depths along order: {depths})"
        )

    def test_deeper_pages_come_later(self):
        svc = _chain()
        db = Database(svc.schema.database)
        order, _ = explore_configuration_graph(RunContext(svc, db))
        first = {}
        for i, snap in enumerate(order):
            first.setdefault(snap.page, i)
        assert first["P1"] < first["P2"] < first["P3"]


# ---------------------------------------------------------------------------
# satellite: stats are accurate on every verdict
# ---------------------------------------------------------------------------

class TestStatsAccuracy:
    def test_holds_stats(self):
        result = verify_ltlfo(_pingpong(), _no_error(), domain_size=1,
                              workers=1)
        assert result.verdict is Verdict.HOLDS
        assert result.stats["snapshots_explored"] > 0
        assert result.stats["buchi_states"] > 0
        assert result.stats["workers"] == 1

    def test_violated_stats(self):
        prop = LTLFOSentence((), G(Not(Atom("P2", ()))))
        result = verify_ltlfo(_pingpong(), prop, domain_size=1)
        assert result.verdict is Verdict.VIOLATED
        assert result.stats["snapshots_explored"] > 0
        assert result.stats["buchi_states"] > 0
        assert result.stats["counterexample_db_index"] == 0

    def test_inconclusive_stats(self, toy_service):
        result = verify_ltlfo(toy_service, _no_error(), domain_size=1,
                              budget=Budget(max_snapshots=2))
        assert result.inconclusive
        assert result.stats["buchi_states"] > 0  # compiled before the search
        assert result.stats["snapshots_explored"] >= 0

    def test_automaton_compiled_once_per_call(self, monkeypatch):
        import repro.verifier.linear as linear

        calls = []
        real = linear.ltl_to_buchi

        def counting(formula):
            calls.append(formula)
            return real(formula)

        monkeypatch.setattr(linear, "ltl_to_buchi", counting)
        prop = _no_error()
        result = verify_ltlfo(_constants_service(), prop, domain_size=1)
        assert result.verdict is Verdict.HOLDS
        # one compile per verification call, regardless of the number of
        # (database, sigma, valuation) triples examined
        assert len(calls) == 1
        assert result.stats["databases_checked"] > 1
        assert result.stats["sigmas_checked"] > 2


# ---------------------------------------------------------------------------
# satellite: checkpoint parameter compatibility
# ---------------------------------------------------------------------------

class TestCheckpointCompatibility:
    def test_ensure_compatible_passes_on_match(self):
        ck = Checkpoint(procedure="verify_ltlfo", domain_size=2,
                        up_to_iso=True, workers=2)
        ck.ensure_compatible(domain_size=2, up_to_iso=True, workers=2)

    def test_ensure_compatible_skips_unknowns(self):
        # old checkpoints (no recorded parameters) stay resumable
        ck = Checkpoint(procedure="verify_ltlfo")
        ck.ensure_compatible(domain_size=3, up_to_iso=False, workers=4)

    @pytest.mark.parametrize("kwargs", [
        {"domain_size": 3},
        {"up_to_iso": False},
        {"workers": 4},
    ])
    def test_ensure_compatible_refuses_mismatch(self, kwargs):
        ck = Checkpoint(procedure="verify_ltlfo", domain_size=2,
                        up_to_iso=True, workers=2)
        merged = {"domain_size": 2, "up_to_iso": True, "workers": 2}
        merged.update(kwargs)
        with pytest.raises(CheckpointMismatchError) as info:
            ck.ensure_compatible(**merged)
        assert next(iter(kwargs)) in str(info.value)

    def test_resume_refuses_wrong_workers(self, toy_service):
        result = verify_ltlfo(toy_service, _no_error(), domain_size=1,
                              budget=Budget(max_databases=1), workers=1)
        assert result.inconclusive
        assert result.checkpoint.workers == 1
        with pytest.raises(CheckpointMismatchError):
            verify_ltlfo(toy_service, _no_error(), domain_size=1,
                         resume=result.checkpoint, workers=POOL)

    def test_resume_refuses_wrong_domain_size(self, toy_service):
        result = verify_ltlfo(toy_service, _no_error(), domain_size=1,
                              budget=Budget(max_databases=1))
        assert result.inconclusive
        assert result.checkpoint.domain_size == 1
        with pytest.raises(CheckpointMismatchError):
            verify_ltlfo(toy_service, _no_error(), domain_size=2,
                         resume=result.checkpoint)

    def test_checkpoint_roundtrips_new_fields(self, tmp_path):
        from repro.io import load_checkpoint, save_checkpoint

        ck = Checkpoint(procedure="verify_ltlfo", db_index=3, sigma_index=1,
                        domain_size=2, up_to_iso=True, workers=4,
                        extra={"completed_units": [[3, 2], [4, 0]]})
        path = tmp_path / "ck.json"
        save_checkpoint(ck, path)
        loaded = load_checkpoint(path)
        assert loaded == ck
        assert loaded.completed_units() == frozenset({(3, 2), (4, 0)})


# ---------------------------------------------------------------------------
# the unit stream and frontier checkpoints
# ---------------------------------------------------------------------------

class TestUnitMachinery:
    def test_stream_skips_completed_units(self):
        gov = Budget.ensure(None)
        stats = {"databases_checked": 0, "databases_skipped": 0}
        resume = Checkpoint(procedure="p", db_index=0, sigma_index=1,
                            extra={"completed_units": [[1, 0]]})
        stream = UnitStream(
            ["dbA", "dbB"], gov, stats,
            sigma_fn=lambda db: [{"c": "x"}, {"c": "y"}],
            resume=resume,
        )
        cursors = [u.cursor for u in stream]
        assert cursors == [(0, 1), (1, 1)]

    def test_stream_db_cursor_resume(self):
        gov = Budget.ensure(None)
        stats = {"databases_checked": 0, "databases_skipped": 0}
        resume = Checkpoint(procedure="p", db_index=1, sigma_index=0)
        stream = UnitStream(["dbA", "dbB", "dbC"], gov, stats, resume=resume)
        cursors = [u.cursor for u in stream]
        assert cursors == [(1, 0), (2, 0)]
        assert stats["databases_skipped"] == 1
        assert stats["databases_checked"] == 2

    def test_frontier_checkpoint_merges_completions(self):
        outcome = EnumerationOutcome(
            pending=[(2, 0), (1, 1)],
            completed=[(3, 0), (0, 0)],
        )
        prior = Checkpoint(procedure="p", extra={"completed_units": [[5, 2]]})
        ck = frontier_checkpoint(outcome, procedure="verify_ltlfo",
                                 property_name="q", domain_size=2,
                                 up_to_iso=True, workers=2, resume=prior)
        assert (ck.db_index, ck.sigma_index) == (1, 1)
        # completions beyond the cursor survive — including the resumed
        # checkpoint's — completions below it are implied by the cursor
        assert ck.completed_units() == frozenset({(3, 0), (5, 2)})
        assert ck.workers == 2 and ck.up_to_iso is True

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers(None) == 4
        assert resolve_workers(1) == 1  # explicit beats the environment
        monkeypatch.setenv("REPRO_WORKERS", "zap")
        with pytest.raises(ValueError):
            resolve_workers(None)
        with pytest.raises(ValueError):
            resolve_workers(0)


# ---------------------------------------------------------------------------
# CLI: --workers plumbing and mismatch refusal
# ---------------------------------------------------------------------------

class TestCLIWorkers:
    @pytest.fixture()
    def spec_path(self, toy_service, tmp_path):
        from repro.io import save_service

        path = tmp_path / "toy.json"
        save_service(toy_service, path)
        return str(path)

    def _run(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_workers_flag(self, spec_path, capsys):
        code, out, _ = self._run(
            ["verify", spec_path, "--ltl", "G !ERROR", "--domain-size", "1",
             "--workers", "2"], capsys)
        assert code == 0
        assert "HOLDS" in out

    def test_workers_mismatch_exit_2(self, spec_path, tmp_path, capsys):
        ck = str(tmp_path / "ck.json")
        code, _, _ = self._run(
            ["verify", spec_path, "--ltl", "G !ERROR", "--domain-size", "1",
             "--max-databases", "1", "--workers", "1", "--checkpoint", ck],
            capsys)
        assert code == 5
        code, _, err = self._run(
            ["verify", spec_path, "--ltl", "G !ERROR", "--resume", ck,
             "--workers", "2"], capsys)
        assert code == 2
        assert "workers" in err

    def test_resume_adopts_checkpoint_workers(self, spec_path, tmp_path,
                                              capsys):
        ck = str(tmp_path / "ck.json")
        code, _, _ = self._run(
            ["verify", spec_path, "--ltl", "G !ERROR", "--domain-size", "1",
             "--max-databases", "1", "--workers", "2",
             "--checkpoint", ck], capsys)
        assert code == 5
        # no --workers on resume: the checkpoint's worker count is adopted
        code, out, _ = self._run(
            ["verify", spec_path, "--ltl", "G !ERROR", "--resume", ck],
            capsys)
        assert code == 0
        assert "HOLDS" in out
