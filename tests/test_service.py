"""Tests for the Web service model: rules, pages, validation, the
builder, run semantics (Definition 2.3), sessions and classification."""

import pytest

from repro.fol import TRUE, Atom, Exists, Not, Var, parse_formula
from repro.schema import Database, Instance, RelationalSchema, database_relation
from repro.service import (
    ActionRule,
    InputRule,
    RunContext,
    ServiceBuilder,
    ServiceClass,
    Session,
    Snapshot,
    SpecificationError,
    StateRule,
    TargetRule,
    UserChoice,
    WebPageSchema,
    classify,
    enumerate_choices,
    error_snapshot,
    initial_snapshots,
    page_options,
    random_run,
    successors,
)
from repro.service.session import ChoiceError

from tests.conftest import build_toy_service


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

class TestRules:
    def test_head_variable_check(self):
        with pytest.raises(ValueError):
            InputRule("i", ("x",), parse_formula("p(x, y)"))

    def test_repeated_head_variables_rejected(self):
        with pytest.raises(ValueError):
            StateRule("s", ("x", "x"), parse_formula("p(x, x)"))

    def test_target_rule_must_be_sentence(self):
        with pytest.raises(ValueError):
            TargetRule("P", parse_formula("p(x)"))

    def test_str_rendering(self):
        rule = StateRule("s", ("x",), parse_formula("p(x)"), insert=False)
        assert str(rule).startswith("¬s(x)")
        assert "Options_i" in str(InputRule("i", ("x",), parse_formula("p(x)")))


class TestWebPageSchema:
    def test_rule_lookup(self, toy_service):
        hp = toy_service.page("HP")
        assert hp.input_rule_for("button") is not None
        assert hp.input_rule_for("nope") is None
        ins, dele = hp.state_rules_for("chosen")
        assert ins is not None and dele is None

    def test_updated_states(self, toy_service):
        assert toy_service.page("HP").updated_states() == {"chosen", "visited"}

    def test_all_rules_order(self, toy_service):
        kinds = [type(r).__name__ for r in toy_service.page("HP").all_rules()]
        assert kinds == sorted(kinds, key=["InputRule", "StateRule",
                                           "ActionRule", "TargetRule"].index)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class TestValidation:
    def _base(self):
        b = ServiceBuilder("v")
        b.database("d", 1)
        b.input("i", 1)
        b.state("s", 1)
        b.action("a", 1)
        return b

    def test_missing_home_page(self):
        b = self._base()
        b.page("P")
        with pytest.raises(ValueError):
            b.build()

    def test_unknown_target(self):
        b = self._base()
        page = b.page("P", home=True)
        page.options("i", "d(x)", ("x",))
        page.target("MISSING", TRUE)
        with pytest.raises(SpecificationError, match="MISSING"):
            b.build()

    def test_unknown_relation_in_rule(self):
        b = self._base()
        page = b.page("P", home=True)
        page.insert("s", "zzz(x)", ("x",))
        with pytest.raises(SpecificationError, match="zzz"):
            b.build()

    def test_arity_mismatch(self):
        b = self._base()
        page = b.page("P", home=True)
        page.insert("s", "d(x, x)", ("x",))
        with pytest.raises(SpecificationError, match="arity"):
            b.build()

    def test_input_without_rule_rejected(self):
        b = self._base()
        page = b.page("P", home=True)
        page.toggle("i")  # i has arity 1: needs an options rule
        with pytest.raises(SpecificationError, match="no input rule"):
            b.build()

    def test_rule_reading_action_rejected(self):
        b = self._base()
        page = b.page("P", home=True)
        page.insert("s", "a(x)", ("x",))
        with pytest.raises(SpecificationError, match="action"):
            b.build()

    def test_input_rule_reading_current_input_rejected(self):
        b = self._base()
        b.input("j", 1)
        page = b.page("P", home=True)
        page.options("i", "j(x)", ("x",))
        page.options("j", "d(x)", ("x",))
        with pytest.raises(SpecificationError, match="current inputs"):
            b.build()

    def test_rule_reading_other_pages_input_rejected(self):
        b = self._base()
        b.input("j", 1)
        p1 = b.page("P1", home=True)
        p1.options("i", "d(x)", ("x",))
        p1.insert("s", "j(x)", ("x",))  # j is not an input of P1
        with pytest.raises(SpecificationError, match="not an input of page"):
            b.build()

    def test_unknown_input_constant_rejected(self):
        b = self._base()
        page = b.page("P", home=True)
        page.insert("s", "x = @ghost", ("x",))
        with pytest.raises(SpecificationError, match="ghost"):
            b.build()

    def test_error_page_not_in_pages(self):
        b = ServiceBuilder("v", error_page="P")
        b.page("P", home=True)
        with pytest.raises(SpecificationError, match="error page"):
            b.build()

    def test_all_problems_reported_together(self):
        b = self._base()
        page = b.page("P", home=True)
        page.insert("s", "zzz(x)", ("x",))
        page.target("GONE", TRUE)
        try:
            b.build()
        except SpecificationError as exc:
            assert len(exc.problems) >= 2
        else:
            pytest.fail("expected SpecificationError")


# ---------------------------------------------------------------------------
# builder ergonomics
# ---------------------------------------------------------------------------

class TestBuilder:
    def test_single_free_variable_inferred(self):
        b = ServiceBuilder("b")
        b.database("d", 1)
        b.input("i", 1)
        page = b.page("P", home=True)
        page.options("i", "d(x)")  # variables inferred
        service = b.build()
        assert service.page("P").input_rules[0].variables == ("x",)

    def test_ambiguous_variables_require_explicit_order(self):
        b = ServiceBuilder("b")
        b.database("d", 2)
        b.input("i", 2)
        page = b.page("P", home=True)
        with pytest.raises(ValueError, match="order matters"):
            page.options("i", "d(x, y)")

    def test_two_home_pages_rejected(self):
        b = ServiceBuilder("b")
        b.page("P", home=True)
        with pytest.raises(ValueError):
            b.page("Q", home=True)

    def test_formula_text_uses_declared_constants(self):
        b = ServiceBuilder("b")
        b.input_constant("name")
        b.db_constant("kmin")
        f = b.formula("name = #kmin")
        from repro.fol import DbConst, Eq, InputConst

        assert f == Eq(InputConst("name"), DbConst("kmin"))


# ---------------------------------------------------------------------------
# run semantics (Definition 2.3)
# ---------------------------------------------------------------------------

class TestRunSemantics:
    def test_initial_snapshots_enumerate_choices(self, toy_service, toy_db):
        ctx = RunContext(toy_service, toy_db)
        starts = initial_snapshots(ctx)
        # button in {none, go, stay} x pick in {none, i1, i2} = 9
        assert len(starts) == 9
        assert all(s.page == "HP" and not s.state for s in starts)

    def test_state_insertion(self, toy_service, toy_db):
        ctx = RunContext(toy_service, toy_db)
        snap = _start_with(ctx, toy_service, {"button": ("go",), "pick": ("i1",)})
        (succ,) = [
            s for s in successors(ctx, snap) if not s.inputs
        ]
        chosen = toy_service.schema.state["chosen"]
        assert succ.state.tuples(chosen) == {("i1",)}
        assert succ.page == "P2"

    def test_state_persists_without_rules(self, toy_service, toy_db):
        ctx = RunContext(toy_service, toy_db)
        snap = _start_with(ctx, toy_service, {"button": ("go",), "pick": ("i1",)})
        nxt = successors(ctx, snap)[0]
        # P2 has no rule for `chosen`: it must persist unchanged.
        after = successors(ctx, nxt)[0]
        chosen = toy_service.schema.state["chosen"]
        assert after.state.tuples(chosen) == {("i1",)}

    def test_stay_when_no_target_fires(self, toy_service, toy_db):
        ctx = RunContext(toy_service, toy_db)
        snap = _start_with(ctx, toy_service, {"button": ("stay",)})
        assert all(s.page == "HP" for s in successors(ctx, snap))

    def test_prev_holds_last_inputs(self, toy_service, toy_db):
        ctx = RunContext(toy_service, toy_db)
        snap = _start_with(ctx, toy_service, {"button": ("go",), "pick": ("i2",)})
        nxt = successors(ctx, snap)[0]
        prev_pick = ctx.service.schema.prev["prev_pick"]
        prev_button = ctx.service.schema.prev["prev_button"]
        assert nxt.prev.tuples(prev_pick) == {("i2",)}
        assert nxt.prev.tuples(prev_button) == {("go",)}

    def test_actions_fire_one_step_late(self, toy_service, toy_db):
        ctx = RunContext(toy_service, toy_db)
        snap = _start_with(ctx, toy_service, {"button": ("go",)})
        at_p2 = successors(ctx, snap)[0]
        assert not at_p2.actions  # P2's own action not yet fired
        after = successors(ctx, at_p2)[0]
        done = toy_service.schema.action["done"]
        assert after.actions.truth(done)

    def test_insert_delete_conflict_is_noop(self):
        b = ServiceBuilder("conflict")
        b.input("t")
        b.state("s", 0)
        page = b.page("P", home=True)
        page.toggle("t")
        page.insert("s", "t")
        page.delete("s", "t")
        service = b.build()
        ctx = RunContext(service, Database(service.schema.database))
        start = [s for s in initial_snapshots(ctx) if s.inputs][0]
        nxt = successors(ctx, start)[0]
        s_sym = service.schema.state["s"]
        assert not nxt.state.truth(s_sym)  # was false, stays false
        # now make it true first, then conflict: stays true
        b2 = ServiceBuilder("conflict2")
        b2.input("t")
        b2.input("u")
        b2.state("s", 0)
        page = b2.page("P", home=True)
        page.toggle("t", "u")
        page.insert("s", "u")       # set via u on the first step
        page.insert("s", "t")
        page.delete("s", "t")
        service2 = b2.build()
        ctx2 = RunContext(service2, Database(service2.schema.database))
        start = [
            s for s in initial_snapshots(ctx2)
            if s.inputs.truth(service2.schema.input["u"])
            and not s.inputs.truth(service2.schema.input["t"])
        ][0]
        mid = [
            s for s in successors(ctx2, start)
            if s.inputs.truth(service2.schema.input["t"])
            and not s.inputs.truth(service2.schema.input["u"])
        ][0]
        s_sym = service2.schema.state["s"]
        assert mid.state.truth(s_sym)
        nxt = successors(ctx2, mid)[0]
        assert nxt.state.truth(s_sym)  # conflict: no-op, stays true

    def test_error_condition_iii_ambiguity(self, toy_db):
        service = build_toy_service(broken_target=True)
        db = Database(service.schema.database, {"item": [("i1",)]})
        ctx = RunContext(service, db)
        snap = _start_with(ctx, service, {"button": ("go",)})
        (err,) = successors(ctx, snap)
        assert err.is_error

    def test_error_page_absorbs(self, toy_service, toy_db):
        ctx = RunContext(toy_service, toy_db)
        err = error_snapshot(toy_service)
        assert successors(ctx, err) == [err]

    def test_error_condition_ii_rerequest(self):
        b = ServiceBuilder("rereq")
        b.database("user", 2)
        b.input_constant("name", "password")
        b.input("go")
        hp = b.page("HP", home=True)
        hp.request("name", "password")
        hp.toggle("go")
        hp.target("HP", "go")  # returning to HP re-requests the constants
        service = b.build()
        db = Database(service.schema.database, {"user": [("a", "b")]})
        ctx = RunContext(service, db, sigma={"name": "a", "password": "b"})
        snap = [
            s for s in initial_snapshots(ctx)
            if s.inputs.truth(service.schema.input["go"])
        ][0]
        back_home = successors(ctx, snap)
        assert all(s.page == "HP" for s in back_home)
        for s in back_home:
            nxt = successors(ctx, s)
            assert all(t.is_error for t in nxt)

    def test_error_condition_i_missing_constant(self):
        b = ServiceBuilder("missing")
        b.database("user", 2)
        b.input_constant("name")
        b.input("go")
        hp = b.page("HP", home=True)   # does NOT request @name
        hp.toggle("go")
        hp.target("P2", b.formula('go & name = "x"'))
        b.page("P2")
        service = b.build()
        ctx = RunContext(service, Database(service.schema.database),
                         sigma={"name": "x"})
        snap = [
            s for s in initial_snapshots(ctx)
            if s.inputs.truth(service.schema.input["go"])
        ][0]
        (err,) = successors(ctx, snap)
        assert err.is_error

    def test_choice_at_most_one_tuple_per_input(self, toy_service, toy_db):
        ctx = RunContext(toy_service, toy_db)
        pick = toy_service.schema.input["pick"]
        for snap in initial_snapshots(ctx):
            assert len(snap.inputs.tuples(pick)) <= 1

    def test_options_respect_rules(self, toy_service, toy_db):
        ctx = RunContext(toy_service, toy_db)
        opts = page_options(
            ctx, toy_service.page("HP"), Instance.empty(), Instance.empty(),
            frozenset(),
        )
        assert opts["pick"] == {("i1",), ("i2",)}
        assert opts["button"] == {("go",), ("stay",)}

    def test_random_run_reproducible(self, toy_service, toy_db):
        ctx = RunContext(toy_service, toy_db)
        r1 = random_run(ctx, 6, rng=5)
        r2 = random_run(ctx, 6, rng=5)
        assert r1.snapshots == r2.snapshots

    def test_run_lasso_indexing(self, toy_service, toy_db):
        ctx = RunContext(toy_service, toy_db)
        run = random_run(ctx, 4, rng=0)
        run.loop_index = 2
        assert run.snapshot_at(2) == run.snapshots[2]
        assert run.snapshot_at(4) == run.snapshots[2]
        assert run.snapshot_at(5) == run.snapshots[3]

    def test_multiple_rules_same_state_union(self):
        b = ServiceBuilder("multi")
        b.database("d", 1)
        b.input("i", 1)
        b.state("s", 1)
        page = b.page("P", home=True)
        page.options("i", "d(x)", ("x",))
        page.insert("s", 'x = "a"', ("x",))
        page.insert("s", 'x = "b"', ("x",))
        service = b.build()
        db = Database(service.schema.database, {"d": [("a",)]})
        ctx = RunContext(service, db)
        snap = initial_snapshots(ctx)[0]
        nxt = successors(ctx, snap)[0]
        s_sym = service.schema.state["s"]
        assert nxt.state.tuples(s_sym) == {("a",), ("b",)}


def _start_with(ctx, service, picks) -> Snapshot:
    """The initial snapshot with exactly the given picks."""
    wanted = UserChoice.of(picks=picks)
    from repro.service.runs import _inputs_instance

    target_inputs = _inputs_instance(service, service.page(service.home), wanted)
    for snap in initial_snapshots(ctx):
        if snap.inputs == target_inputs:
            return snap
    raise AssertionError(f"no initial snapshot with picks {picks}")


# ---------------------------------------------------------------------------
# session simulator
# ---------------------------------------------------------------------------

class TestSession:
    def test_basic_navigation(self, toy_service, toy_db):
        s = Session(toy_service, toy_db)
        assert s.page == "HP"
        assert s.submit(picks={"button": ("go",)}) == "P2"
        assert s.submit(picks={"button": ("back",)}) == "HP"

    def test_invalid_pick_rejected(self, toy_service, toy_db):
        s = Session(toy_service, toy_db)
        with pytest.raises(ChoiceError):
            s.submit(picks={"button": ("teleport",)})

    def test_unknown_input_rejected(self, toy_service, toy_db):
        s = Session(toy_service, toy_db)
        with pytest.raises(ChoiceError):
            s.submit(picks={"nosuch": ("x",)})

    def test_history_run(self, toy_service, toy_db):
        s = Session(toy_service, toy_db)
        s.submit(picks={"button": ("go",)})
        s.submit(picks={"button": ("back",)})
        run = s.run()
        assert [snap.page for snap in run.snapshots] == ["HP", "P2"]

    def test_describe(self, toy_service, toy_db):
        s = Session(toy_service, toy_db)
        text = s.describe()
        assert "HP" in text and "button" in text

    def test_constants_flow(self, demo_service, demo_db):
        s = Session(demo_service, demo_db)
        s.submit(
            picks={"button": ("login",)},
            constants={"name": "alice", "password": "pw1"},
        )
        assert s.page == "CP"
        assert s.provided_constants == {"name": "alice", "password": "pw1"}

    def test_failed_login_goes_to_mp(self, demo_service, demo_db):
        s = Session(demo_service, demo_db)
        s.submit(
            picks={"button": ("login",)},
            constants={"name": "mallory", "password": "xxx"},
        )
        assert s.page == "MP"

    def test_error_absorbs_session(self, demo_service, demo_db):
        s = Session(demo_service, demo_db)
        s.submit(
            picks={"button": ("login",)},
            constants={"name": "mallory", "password": "xxx"},
        )
        s.submit(picks={"button": ("back",)})   # MP -> HP re-requests
        assert s.page == "HP"
        s.submit(picks={})
        assert s.at_error_page
        assert s.submit(picks={}) == demo_service.error_page

    def test_constant_for_wrong_page_rejected(self, demo_service, demo_db):
        s = Session(demo_service, demo_db)
        with pytest.raises(ChoiceError):
            s.submit(constants={"ccno": "1234"})


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class TestClassification:
    def test_toy_is_input_bounded(self, toy_service):
        report = classify(toy_service)
        assert report.is_in(ServiceClass.INPUT_BOUNDED)

    def test_core_is_input_bounded_only(self, core):
        report = classify(core)
        assert report.is_in(ServiceClass.INPUT_BOUNDED)
        assert not report.is_in(ServiceClass.PROPOSITIONAL)
        assert not report.is_in(ServiceClass.FULLY_PROPOSITIONAL)

    def test_full_demo_not_input_bounded(self, demo_service):
        report = classify(demo_service)
        assert not report.is_in(ServiceClass.INPUT_BOUNDED)
        assert report.why_not(ServiceClass.INPUT_BOUNDED)

    def test_propositional_demo(self, prop_service):
        report = classify(prop_service)
        assert report.is_in(ServiceClass.FULLY_PROPOSITIONAL)
        assert report.is_in(ServiceClass.PROPOSITIONAL)

    def test_ids_demo(self, ids_service):
        report = classify(ids_service)
        assert report.is_in(ServiceClass.INPUT_DRIVEN_SEARCH)

    def test_ids_shape_violation_detected(self):
        # same schema but wrong input rule shape
        b = ServiceBuilder("notids")
        b.database("R_I", 2)
        b.database("avail", 1)
        b.db_constant("i0")
        b.input("I", 1)
        b.state("not_start")
        page = b.page("SEARCH", home=True)
        page.options("I", "avail(y)", ("y",))
        page.insert("not_start", "!not_start")
        svc = b.build()
        report = classify(svc)
        assert not report.is_in(ServiceClass.INPUT_DRIVEN_SEARCH)

    def test_simple_class(self):
        b = ServiceBuilder("simple")
        b.database("d", 1)
        b.input("i", 1)
        page = b.page("W", home=True)
        page.options("i", "d(x)", ("x",))
        svc = b.build()
        assert classify(svc).is_in(ServiceClass.SIMPLE)

    def test_state_projection_detection(self):
        b = ServiceBuilder("proj")
        b.input("i", 2)
        b.database("d", 1)
        b.state("s2", 2)
        b.state("s1", 1)
        page = b.page("W", home=True)
        page.options("i", "d(x) & d(y)", ("x", "y"))
        page.insert("s2", "i(x, y)", ("x", "y"))
        page.insert("s1", "exists y . s2(x, y)", ("x",))
        svc = b.build()
        assert classify(svc).has_state_projections

    def test_each_call_gets_its_own_copy_of_one_report(self, core):
        import sys

        from repro.fol.compile import clear_compile_cache

        kept = sys.modules["repro.service.classify"]._REPORTS
        first, second = classify(core), classify(core)
        assert first is not second and first == second
        assert kept[core] == first and kept[core] is not first
        first.classes.clear()
        first.reasons[ServiceClass.INPUT_BOUNDED] = ["forged"]
        first.state_projections.append("forged")
        assert classify(core) == second
        clear_compile_cache()
        assert core not in kept

    def test_changing_a_report_changes_no_later_preflight(
        self, core, prop_service
    ):
        """A caller that edits the report ``classify()`` handed it can
        neither admit a service a theorem excludes nor refuse one it
        admits: the verifiers' pre-flight checks read their own copy."""
        from repro.ctl.parser import parse_ctl
        from repro.ltl.parser import parse_ltlfo
        from repro.verifier import (
            UndecidableInstanceError,
            verify_ctl,
            verify_fully_propositional,
            verify_ltlfo,
        )

        for service, excluded in (
            (core, ServiceClass.INPUT_BOUNDED),
            (prop_service, ServiceClass.FULLY_PROPOSITIONAL),
        ):
            report = classify(service)
            assert report.is_in(excluded)
            report.classes.clear()
            report.reasons[excluded] = ["forged"]
        admitted = classify(core)
        admitted.classes.add(ServiceClass.PROPOSITIONAL)
        admitted.reasons.clear()

        result = verify_ltlfo(
            core, parse_ltlfo("G !ERROR"), databases=[], workers=1
        )
        assert result.verdict.value == "holds"
        result = verify_fully_propositional(
            prop_service, parse_ctl("AG EF HP"), workers=1
        )
        assert result.verdict.value == "holds"
        with pytest.raises(UndecidableInstanceError):
            verify_ctl(core, parse_ctl("AG EF HP"), databases=[], workers=1)

    def test_describe_mentions_reasons(self, demo_service, core):
        text = classify(demo_service).describe()
        assert "input-bounded" in text and "[no ]" in text
        assert "[yes]" in classify(core).describe()
