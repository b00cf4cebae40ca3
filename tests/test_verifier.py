"""Tests for the verifier: the Theorem 3.5 linear-time procedure,
error-freeness (direct and via the Lemma A.5 reduction), the branching
procedures (Theorems 4.4/4.6/4.9) and the dispatching front door."""

import pytest

from repro.ctl import AF, AG, CAtom, CNot, E, EF, EX, PF, PState, PAnd
from repro.ctl.parser import parse_ctl
from repro.demo.propositional import propositional_service
from repro.fol import Atom, Not, Var, parse_formula
from repro.ltl import B, F, G, LTLFOSentence, U
from repro.ltl.syntax import LTLAtom, LNot, LOr
from repro.schema import Database
from repro.service import ServiceBuilder, classify
from repro.verifier import (
    UndecidableInstanceError,
    Verdict,
    VerificationBudgetExceeded,
    decidability_report,
    default_domain_size,
    enumerate_sigmas,
    errorfree_reduction,
    verify,
    verify_ctl,
    verify_error_free,
    verify_fully_propositional,
    verify_input_driven_search,
    verify_ltlfo,
)
from repro.verifier.branching import ROOT_STATE, build_snapshot_kripke
from repro.verifier.errors import TRAP_PAGE
from tests.engine_cases import CASES, run_case
from tests.witness import check_ctl_counterexample, check_error_witness


# ---------------------------------------------------------------------------
# helper services
# ---------------------------------------------------------------------------

def _pingpong():
    """Two pages bouncing on a propositional input."""
    b = ServiceBuilder("pingpong")
    b.input("go")
    p1 = b.page("P1", home=True)
    p1.toggle("go")
    p1.target("P2", "go")
    p2 = b.page("P2")
    p2.toggle("go")
    p2.target("P1", "go")
    return b.build()


def _constbranch():
    """A constant requested on the home page decides the next page, so
    its values branch one Kripke structure; and a database for it."""
    b = ServiceBuilder("constbranch")
    b.database("user", 1)
    b.input_constant("name")
    b.input("go")
    b.state("known")
    hp = b.page("HP", home=True)
    hp.request("name")
    hp.toggle("go")
    hp.insert("known", b.formula("user(name)"))
    hp.target("OK", b.formula("go & user(name)"))
    hp.target("BAD", b.formula("go & !user(name)"))
    b.page("OK")
    b.page("BAD")
    svc = b.build()
    return svc, Database(svc.schema.database, {"user": [("alice",)]})


def _flagger():
    """Sets a flag exactly when leaving the home page."""
    b = ServiceBuilder("flagger")
    b.input("go")
    b.state("flag")
    p1 = b.page("P1", home=True)
    p1.toggle("go")
    p1.insert("flag", "go")
    p1.target("P2", "go")
    p2 = b.page("P2")
    return b.build()


# ---------------------------------------------------------------------------
# linear-time verification (Theorem 3.5)
# ---------------------------------------------------------------------------

class TestVerifyLTLFO:
    def test_valid_invariant_holds(self):
        svc = _pingpong()
        prop = LTLFOSentence(
            (), G(LOr(LTLAtom(Atom("P1", ())), LTLAtom(Atom("P2", ())))),
            name="always on a page",
        )
        result = verify_ltlfo(svc, prop, domain_size=1)
        assert result.holds
        assert result.stats["databases_checked"] >= 1

    def test_violated_invariant_produces_lasso(self):
        svc = _pingpong()
        prop = LTLFOSentence((), G(Not(Atom("P2", ()))), name="never P2")
        result = verify_ltlfo(svc, prop, domain_size=1)
        assert not result.holds
        run = result.counterexample
        assert run is not None and run.loop_index is not None
        assert any(s.page == "P2" for s in run.snapshots)
        assert result.stats.get("counterexample_confirmed") is not None

    def test_eventually_flag_violated_by_idle_run(self):
        svc = _flagger()
        prop = LTLFOSentence((), F(Atom("flag", ())))
        result = verify_ltlfo(svc, prop, domain_size=1)
        # the user may never press go: flag never set
        assert not result.holds

    def test_flag_implies_past_press(self):
        svc = _flagger()
        # B: the go-press happens before (or when) the flag first shows.
        prop = LTLFOSentence((), B(Atom("go", ()), Not(Atom("flag", ()))))
        assert verify_ltlfo(svc, prop, domain_size=1).holds

    def test_closure_variables_grounded(self, toy_service, toy_db):
        prop = LTLFOSentence(
            ("x",),
            B(Atom("pick", (Var("x"),)), Not(Atom("chosen", (Var("x"),)))),
            name="chosen only after pick",
        )
        result = verify_ltlfo(toy_service, prop, databases=[toy_db])
        assert result.holds
        assert result.stats["valuations_checked"] > 1

    def test_explicit_databases_used(self, toy_service, toy_db):
        prop = LTLFOSentence((), G(Not(Atom("ERROR", ()))))
        result = verify_ltlfo(toy_service, prop, databases=[toy_db])
        assert result.stats["databases_checked"] == 1

    def test_restriction_check_rejects_unbounded_property(self, toy_service):
        bad = LTLFOSentence((), G(parse_formula("exists x . chosen(x)")))
        with pytest.raises(UndecidableInstanceError):
            verify_ltlfo(toy_service, bad)

    def test_restriction_check_rejects_unbounded_service(self, toy_db):
        b = ServiceBuilder("unbounded")
        b.database("item", 1)
        b.input("i", 1)
        b.state("s", 1)
        page = b.page("P", home=True)
        page.options("i", "item(x)", ("x",))
        page.insert("s", "exists y . item(y) & x = y", ("x",))
        svc = b.build()
        prop = LTLFOSentence((), G(Not(Atom("ERROR", ()))))
        with pytest.raises(UndecidableInstanceError) as exc:
            verify_ltlfo(svc, prop)
        assert exc.value.reasons
        # force mode runs anyway
        result = verify_ltlfo(svc, prop, check_restrictions=False,
                              databases=[Database(svc.schema.database,
                                                  {"item": [("a",)]})])
        assert result.holds

    def test_budget_enforced(self, core, core_db, alice_sigma):
        prop = LTLFOSentence((), G(Not(Atom("ERROR", ()))))
        with pytest.raises(VerificationBudgetExceeded):
            verify_ltlfo(core, prop, databases=[core_db],
                         sigmas=alice_sigma, max_snapshots=10, strict=True)

    def test_budget_degrades_without_strict(self, core, core_db, alice_sigma):
        prop = LTLFOSentence((), G(Not(Atom("ERROR", ()))))
        result = verify_ltlfo(core, prop, databases=[core_db],
                              sigmas=alice_sigma, max_snapshots=10)
        assert result.inconclusive
        assert result.stats["interrupted_by"] == "max_snapshots"
        assert result.coverage

    def test_default_domain_size(self, toy_service):
        prop = LTLFOSentence(("x", "y"), G(Not(Atom("chosen", (Var("x"),)))))
        assert default_domain_size(toy_service, prop) == 3
        assert default_domain_size(toy_service, None) == 1


class TestSigmaEnumeration:
    def test_no_constants_single_empty_sigma(self, toy_service, toy_db):
        assert list(enumerate_sigmas(toy_service, toy_db)) == [{}]

    def test_fresh_values_and_equality_types(self, core, core_db):
        sigmas = list(enumerate_sigmas(core, core_db))
        # all assignments of 2 constants over domain + fresh, up to
        # renaming of fresh values
        assert {"name": "alice", "password": "pw1"} in sigmas
        fresh_pairs = [
            s for s in sigmas
            if str(s["name"]).startswith("$new")
            and str(s["password"]).startswith("$new")
        ]
        # exactly two equality types: equal fresh, distinct fresh
        assert len(fresh_pairs) == 2


# ---------------------------------------------------------------------------
# error-freeness (Theorem 3.5(i), Lemma A.5)
# ---------------------------------------------------------------------------

def _ambiguous_service():
    b = ServiceBuilder("ambig")
    b.input("x")
    hp = b.page("HP", home=True)
    hp.toggle("x")
    hp.target("P1", "x")
    hp.target("P2", "x")
    b.page("P1")
    b.page("P2")
    return b.build()


def _erring_chain(shallow: bool):
    """HP -> P1 -> P2 on ``go``; P2's two targets both fire on ``go``,
    an ambiguity (condition (iii)) four snapshots deep.  With
    ``shallow``, pressing ``alt`` alone at HP fires two targets at once
    and errs two snapshots deep.

    HP's choices are enumerated {}, {alt}, {go}, {alt, go}: the first
    and the last lead down the chain, so a depth-first search from
    either end meets the deep error before the shallow one."""
    b = ServiceBuilder("erring-chain")
    b.input("go")
    b.input("alt")
    hp = b.page("HP", home=True)
    hp.toggle("go", "alt")
    hp.target("P1", "!alt | go")
    if shallow:
        hp.target("P2", "alt & !go")
        hp.target("P3", "alt & !go")
    p1 = b.page("P1")
    p1.toggle("go")
    p1.target("P2", "go")
    p2 = b.page("P2")
    p2.toggle("go")
    p2.target("P1", "go")
    p2.target("HP", "go")
    b.page("P3")
    return b.build()


class TestErrorFreeness:
    """Every VIOLATED witness is replayed as a run and must end on the
    error page (``tests/witness.py::check_error_witness``)."""

    def _violated(self, svc, method="direct", **options):
        result = verify_error_free(svc, method=method, **options)
        check_error_witness(svc, result, method)
        return result

    def test_ambiguity_found_direct(self):
        result = self._violated(_ambiguous_service(), domain_size=1)
        assert not result.holds
        assert result.counterexample.snapshots[-1].is_error

    def test_ambiguity_found_via_reduction(self):
        result = self._violated(
            _ambiguous_service(), domain_size=1, method="reduction"
        )
        assert not result.holds

    def test_clean_service_both_methods(self):
        svc = _pingpong()
        assert verify_error_free(svc, domain_size=1).holds
        assert verify_error_free(svc, domain_size=1, method="reduction").holds

    def test_rerequest_found(self):
        b = ServiceBuilder("rereq")
        b.input_constant("name")
        b.input("go")
        hp = b.page("HP", home=True)
        hp.request("name")
        hp.toggle("go")
        hp.target("P2", "go")
        p2 = b.page("P2")
        p2.toggle("go")
        p2.target("HP", "go")  # HP re-requests @name: condition (ii)
        svc = b.build()
        assert not self._violated(svc, domain_size=1).holds
        assert not self._violated(svc, "reduction", domain_size=1).holds

    def test_missing_constant_found(self):
        b = ServiceBuilder("missing")
        b.input_constant("name")
        b.input("go")
        hp = b.page("HP", home=True)  # does not request @name
        hp.toggle("go")
        hp.target("P2", b.formula('go & name = "x"'))
        b.page("P2")
        svc = b.build()
        assert not self._violated(svc, domain_size=1).holds
        assert not self._violated(svc, "reduction", domain_size=1).holds

    def test_shortest_error_trace(self):
        # the direct search is breadth-first: of the two errors, it
        # reports the one two snapshots deep, not the one four deep
        deep = self._violated(_erring_chain(shallow=False), domain_size=1)
        assert [s.page for s in deep.counterexample.snapshots] == [
            "HP", "P1", "P2", "ERROR",
        ]
        both = self._violated(_erring_chain(shallow=True), domain_size=1)
        assert [s.page for s in both.counterexample.snapshots] == [
            "HP", "ERROR",
        ]

    def test_core_is_error_free(self, core, core_db, alice_sigma):
        result = verify_error_free(core, databases=[core_db], sigmas=alice_sigma)
        assert result.holds

    def test_reduction_output_shape(self, core):
        transformed, sentence = errorfree_reduction(core)
        assert TRAP_PAGE in transformed.page_names
        assert sentence.variables == ()
        # the transformation only adds bookkeeping: page set grows by one
        assert transformed.page_names == core.page_names | {TRAP_PAGE}

    def test_methods_agree_on_random_toggles(self):
        # a family of 2-page services, some clean, some ambiguous
        for variant in range(4):
            b = ServiceBuilder(f"fam{variant}")
            b.input("x")
            b.input("y")
            hp = b.page("HP", home=True)
            hp.toggle("x", "y")
            hp.target("P1", "x" if variant % 2 == 0 else "x & !y")
            hp.target("P2", "y" if variant < 2 else "y & !x")
            b.page("P1")
            b.page("P2")
            svc = b.build()
            direct = verify_error_free(svc, domain_size=1)
            reduced = verify_error_free(svc, domain_size=1, method="reduction")
            assert direct.holds == reduced.holds, f"variant {variant}"
            if not direct.holds:
                check_error_witness(svc, direct, "direct")
                check_error_witness(svc, reduced, "reduction")


# ---------------------------------------------------------------------------
# branching verification (Theorems 4.4 / 4.6)
# ---------------------------------------------------------------------------

class TestBranching:
    def test_kripke_has_root(self, prop_service):
        k = build_snapshot_kripke(prop_service, Database(prop_service.schema.database))
        assert k.initial == {ROOT_STATE}
        assert k.label(ROOT_STATE) == frozenset()

    def test_fully_propositional_dispatch(self, prop_service):
        result = verify(prop_service, AG(EF(CAtom("HP"))))
        assert result.holds
        assert "Theorem 4.6" in result.method

    def test_violated_ctl(self, prop_service):
        result = verify_fully_propositional(prop_service, AG(CNot(CAtom("UPP"))))
        assert not result.holds

    @pytest.mark.slow
    def test_ctl_star_property(self, prop_service):
        # on all paths: buying infinitely often implies visiting COP
        f = E(PAnd(PF(CAtom("CC")), PF(CAtom("COP"))))
        result = verify_fully_propositional(prop_service, f)
        assert result.holds
        assert "CTL*" in result.method

    def test_propositional_with_database(self):
        # a propositional service whose options depend on the database
        b = ServiceBuilder("dbprop")
        b.database("d", 1)
        b.input("i", 1)
        b.state("seen")
        hp = b.page("HP", home=True)
        hp.options("i", "d(x)", ("x",))
        hp.insert("seen", "exists x . i(x) & d(x)")
        hp.target("P2", "exists x . i(x)")
        b.page("P2")
        svc = b.build()
        # over SOME database, the user can reach P2; over the empty
        # database the options are empty and P2 is unreachable:
        result = verify_ctl(svc, AF(CAtom("P2")), domain_size=1)
        assert not result.holds
        result2 = verify_ctl(svc, AG(CNot(CAtom("seen")) | CAtom("P2")),
                             domain_size=1)
        assert result2.holds

    def test_ctl_restriction_rejects_nonpropositional(self, core):
        with pytest.raises(UndecidableInstanceError):
            verify_ctl(core, AG(EF(CAtom("HP"))))

    def test_input_constant_branching(self):
        # two continuations provide different constant values: E-quantified
        # properties distinguish them inside ONE structure.
        svc, db = _constbranch()
        k = build_snapshot_kripke(svc, db)
        from repro.ctl import satisfying_states

        sat = satisfying_states(k, EF(CAtom("OK")))
        sat2 = satisfying_states(k, EF(CAtom("BAD")))
        assert ROOT_STATE in sat and ROOT_STATE in sat2


class TestCTLCounterexamples:
    """An ``AG p`` violation read out of the built structure, whose
    states are graph ids, replays as a run of the service and ends on a
    configuration falsifying ``p`` by labels computed from the snapshot
    (:func:`tests.witness.check_ctl_counterexample`)."""

    def test_store_reaches_an_order(self):
        svc = propositional_service()
        db = Database(svc.schema.database)
        result = verify_fully_propositional(
            svc, parse_ctl("AG !has_order"), workers=1
        )
        assert result.verdict is Verdict.VIOLATED
        run = check_ctl_counterexample(
            svc, db, build_snapshot_kripke(svc, db), parse_ctl("!has_order")
        )
        assert run.snapshots[-1].page == "COP"

    def test_engine_case_reaches_rp(self):
        case = next(c for c in CASES if c["id"] == "ctl-prop-violated")
        svc, result = run_case(case)
        assert result.verdict is Verdict.VIOLATED
        db = result.counterexample_database
        check_ctl_counterexample(
            svc, db, build_snapshot_kripke(svc, db), parse_ctl("!RP")
        )

    def test_constant_branch_reaches_bad(self):
        svc, db = _constbranch()
        result = verify_ctl(
            svc, AG(CNot(CAtom("BAD"))), databases=[db], workers=1
        )
        assert result.verdict is Verdict.VIOLATED
        run = check_ctl_counterexample(
            svc, db, build_snapshot_kripke(svc, db), CNot(CAtom("BAD"))
        )
        assert [snap.page for snap in run.snapshots][-1] == "BAD"
        # the constant took a value outside the database
        assert run.sigma["name"] not in db.domain


# ---------------------------------------------------------------------------
# input-driven search (Theorem 4.9)
# ---------------------------------------------------------------------------

class TestInputDrivenSearch:
    def test_reachable_leaf(self, ids_service, ids_db):
        result = verify_input_driven_search(
            ids_service, EF(CAtom(("I", ("nl1",)))), databases=[ids_db]
        )
        assert result.holds

    def test_out_of_stock_leaf_unreachable(self, ids_service, ids_db):
        result = verify_input_driven_search(
            ids_service, EF(CAtom(("I", ("ul2",)))), databases=[ids_db]
        )
        assert not result.holds

    def test_new_state_tracks_branch(self, ids_service, ids_db):
        # whenever a new-desktop is picked, the `new` flag is set
        prop = AG(CNot(CAtom(("I", ("nd1",)))) | CAtom("new"))
        result = verify_input_driven_search(ids_service, prop, databases=[ids_db])
        assert result.holds

    def test_shape_restriction_enforced(self, prop_service):
        with pytest.raises(UndecidableInstanceError):
            verify_input_driven_search(prop_service, EF(CAtom("HP")))


# ---------------------------------------------------------------------------
# front door
# ---------------------------------------------------------------------------

class TestFrontDoor:
    def test_dispatch_ltlfo(self, toy_service, toy_db):
        prop = LTLFOSentence((), G(Not(Atom("ERROR", ()))))
        result = verify(toy_service, prop, databases=[toy_db])
        assert "Theorem 3.5" in result.method

    def test_dispatch_fully_propositional(self, prop_service):
        result = verify(prop_service, EF(CAtom("COP")))
        assert "Theorem 4.6" in result.method

    def test_dispatch_ids(self, ids_service, ids_db):
        result = verify(ids_service, EF(CAtom("SEARCH")), databases=[ids_db])
        assert "Theorem 4.9" in result.method

    def test_refusal_for_ctl_on_data_service(self, core):
        with pytest.raises(UndecidableInstanceError) as exc:
            verify(core, AG(EF(CAtom("HP"))))
        assert "Theorem 4.2" in str(exc.value)

    def test_unsupported_property_type(self, toy_service):
        with pytest.raises(TypeError):
            verify(toy_service, "not a property")

    def test_decidability_report_texts(self, core, prop_service):
        prop = LTLFOSentence((), G(Not(Atom("ERROR", ()))))
        text = decidability_report(core, prop)
        assert "Theorem 3.5" in text
        text2 = decidability_report(prop_service, EF(CAtom("HP")))
        assert "Theorem 4.6" in text2
        text3 = decidability_report(core, EF(CAtom("HP")))
        assert "Theorem 4.2" in text3

    def test_result_describe(self, prop_service):
        result = verify(prop_service, AG(EF(CAtom("HP"))))
        text = result.describe()
        assert "HOLDS" in text and "Theorem 4.6" in text
