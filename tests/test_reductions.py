"""Tests for the undecidability-frontier reductions, each checked
against ground truth for the source problem."""

import pytest

from repro.fol import evaluate
from repro.reductions import (
    BUSY_BEAVER_3,
    FunctionalDependency,
    InclusionDependency,
    LOOPER,
    QAnd,
    QExists,
    QForall,
    QNot,
    QOr,
    QVar,
    TuringMachine,
    dependencies_to_service,
    exists_forall_validity,
    fd_closure,
    fd_implies,
    halting_sentence,
    qbf_evaluate,
    qbf_to_service,
    random_qbf,
    simulate_tm,
    tm_to_service,
    validity_to_service,
)
from repro.reductions.dependencies import violates_fd, violates_ind
from repro.reductions.turing import BLANK
from repro.schema import Database
from repro.service import ServiceClass, classify
from repro.verifier import verify_error_free, verify_ltlfo
from tests.witness import check_error_witness


# ---------------------------------------------------------------------------
# QBF -> error-freeness (Lemma A.6)
# ---------------------------------------------------------------------------

class TestQBF:
    def test_evaluator_basics(self):
        x = QVar("x")
        assert qbf_evaluate(QExists("x", x))
        assert not qbf_evaluate(QForall("x", x))
        assert qbf_evaluate(QForall("x", QOr(x, QNot(x))))
        assert not qbf_evaluate(QExists("x", QAnd(x, QNot(x))))

    def test_nested_quantifiers(self):
        x, y = QVar("x"), QVar("y")
        assert qbf_evaluate(QExists("x", QForall("y", QOr(x, y))))
        assert not qbf_evaluate(QForall("x", QExists("y", QAnd(x, y))))

    def test_encoded_service_is_input_bounded(self):
        svc = qbf_to_service(QForall("x", QVar("x")))
        assert classify(svc).is_in(ServiceClass.INPUT_BOUNDED)

    @pytest.mark.parametrize("formula, expected", [
        (QExists("x", QVar("x")), True),
        (QForall("x", QVar("x")), False),
        (QForall("x", QOr(QVar("x"), QNot(QVar("x")))), True),
        (QExists("x", QAnd(QVar("x"), QNot(QVar("x")))), False),
        (QExists("x", QForall("y", QOr(QVar("x"), QVar("y")))), True),
        (QForall("x", QExists("y", QAnd(QVar("x"), QVar("y")))), False),
    ])
    def test_errs_iff_true(self, formula, expected):
        svc = qbf_to_service(formula)
        result = verify_error_free(svc, domain_size=2)
        assert (not result.holds) == expected
        if expected:
            check_error_witness(svc, result)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        formula = random_qbf(3, 3, rng=seed)
        expected = qbf_evaluate(formula)
        svc = qbf_to_service(formula)
        result = verify_error_free(svc, domain_size=2)
        assert (not result.holds) == expected
        if expected:
            check_error_witness(svc, result)

    def test_random_qbf_deterministic(self):
        assert str(random_qbf(3, 3, rng=5)) == str(random_qbf(3, 3, rng=5))


# ---------------------------------------------------------------------------
# TM halting -> Theorem 3.7
# ---------------------------------------------------------------------------

#: A 1-step halting machine (fast enough for the default test run).
ONE_STEP = TuringMachine(
    states=frozenset({"q0", "halt"}),
    alphabet=frozenset({BLANK, "1"}),
    transitions={("q0", BLANK): ("halt", "1", "S")},
)

#: Writes right then comes back left, then halts (exercises HL rules).
LEFT_RIGHT = TuringMachine(
    states=frozenset({"q0", "q1", "q2", "halt"}),
    alphabet=frozenset({BLANK, "1"}),
    transitions={
        ("q0", BLANK): ("q1", "1", "R"),
        ("q1", BLANK): ("q2", "1", "L"),
        ("q2", "1"): ("halt", "1", "S"),
    },
)


def _tape_db(service, n):
    dom = [f"e{i}" for i in range(n)]
    return Database(
        service.schema.database,
        {"D": [(d,) for d in dom] + [("m0",)]},
        {"min": "m0"},
    )


class TestTuring:
    def test_simulator(self):
        assert simulate_tm(ONE_STEP) == (True, 1)
        assert simulate_tm(BUSY_BEAVER_3)[0]
        assert not simulate_tm(LOOPER, max_steps=50)[0]
        assert simulate_tm(LEFT_RIGHT)[0]

    def test_halting_state_with_transitions_rejected(self):
        with pytest.raises(ValueError):
            TuringMachine(
                states=frozenset({"halt"}),
                alphabet=frozenset({BLANK}),
                transitions={("halt", BLANK): ("halt", BLANK, "S")},
                halting=frozenset({"halt"}),
            )

    def test_encoding_outside_decidable_class(self):
        svc = tm_to_service(ONE_STEP)
        report = classify(svc)
        assert not report.is_in(ServiceClass.INPUT_BOUNDED)
        assert any(
            "not ground" in reason
            for reason in report.why_not(ServiceClass.INPUT_BOUNDED)
        )

    def test_halting_machine_violates_sentence(self):
        svc = tm_to_service(ONE_STEP)
        result = verify_ltlfo(
            svc, halting_sentence(ONE_STEP),
            databases=[_tape_db(svc, 1)],
            check_restrictions=False,
        )
        assert not result.holds  # violation == halting certificate

    def test_looper_satisfies_sentence(self):
        svc = tm_to_service(LOOPER)
        result = verify_ltlfo(
            svc, halting_sentence(LOOPER),
            databases=[_tape_db(svc, 1)],
            check_restrictions=False,
        )
        assert result.holds

    def test_too_small_tape_finds_nothing(self):
        # BB3 needs 3 usable cells; with domain 1 the head runs out of
        # tape and never halts — the semi-decision aspect of Thm 3.7.
        svc = tm_to_service(BUSY_BEAVER_3)
        result = verify_ltlfo(
            svc, halting_sentence(BUSY_BEAVER_3),
            databases=[_tape_db(svc, 1)],
            check_restrictions=False,
        )
        assert result.holds

    @pytest.mark.slow
    def test_left_move_machine_halts(self):
        # LEFT_RIGHT's head path fits on two chained cells
        svc = tm_to_service(LEFT_RIGHT)
        result = verify_ltlfo(
            svc, halting_sentence(LEFT_RIGHT),
            databases=[_tape_db(svc, 2)],
            check_restrictions=False,
            max_snapshots=500_000,
        )
        assert not result.holds

    @pytest.mark.slow
    def test_busy_beaver_halting_detected(self):
        svc = tm_to_service(BUSY_BEAVER_3)
        result = verify_ltlfo(
            svc, halting_sentence(BUSY_BEAVER_3),
            databases=[_tape_db(svc, 3)],
            check_restrictions=False,
            max_snapshots=500_000,
        )
        assert not result.holds


# ---------------------------------------------------------------------------
# FD/IND implication -> Theorem 3.8
# ---------------------------------------------------------------------------

class TestDependencies:
    def test_fd_closure(self):
        fds = [FunctionalDependency((0,), 1), FunctionalDependency((1,), 2)]
        assert fd_closure([0], fds) == {0, 1, 2}
        assert fd_closure([1], fds) == {1, 2}

    def test_fd_implies(self):
        fds = [FunctionalDependency((0,), 1), FunctionalDependency((1,), 2)]
        assert fd_implies(fds, FunctionalDependency((0,), 2))
        assert not fd_implies(fds, FunctionalDependency((2,), 0))

    def test_violation_helpers(self):
        rel = [("a", "1"), ("a", "2")]
        assert violates_fd(rel, FunctionalDependency((0,), 1))
        assert not violates_fd([("a", "1")], FunctionalDependency((0,), 1))
        ind = InclusionDependency((0,), (1,))
        assert violates_ind([("a", "b")], ind)
        assert not violates_ind([("a", "a")], ind)

    def test_ind_arity_check(self):
        with pytest.raises(ValueError):
            InclusionDependency((0, 1), (0,))

    def test_encoding_uses_state_projections(self):
        fd = FunctionalDependency((0,), 1)
        svc, _prop = dependencies_to_service(2, [fd], fd)
        assert classify(svc).has_state_projections

    @pytest.mark.slow
    def test_trivially_implied_fd_holds(self):
        fd = FunctionalDependency((0,), 1)
        svc, prop = dependencies_to_service(2, [fd], fd)
        result = verify_ltlfo(svc, prop, domain_size=2, check_restrictions=False)
        assert result.holds

    @pytest.mark.slow
    def test_non_implied_fd_violated(self):
        fd = FunctionalDependency((0,), 1)
        svc, prop = dependencies_to_service(2, [], fd)
        result = verify_ltlfo(svc, prop, domain_size=2, check_restrictions=False)
        assert not result.holds


# ---------------------------------------------------------------------------
# exists-forall validity -> Theorem 4.2
# ---------------------------------------------------------------------------

class TestFOValidity:
    def test_brute_force_validity(self):
        # exists x forall y (x = y) valid only on 1-element domains
        assert not exists_forall_validity(
            lambda dom, x, y: x == y, max_domain=2
        )
        assert exists_forall_validity(lambda dom, x, y: True, max_domain=3)

    def test_service_construction(self):
        from repro.fol import parse_formula

        svc = validity_to_service(parse_formula("x = y | R(y)"))
        assert classify(svc).is_in(ServiceClass.SIMPLE)
        assert classify(svc).is_in(ServiceClass.INPUT_BOUNDED)

    def test_psi_variable_check(self):
        from repro.fol import parse_formula

        with pytest.raises(ValueError):
            validity_to_service(parse_formula("p(z)"))

    def test_true_psi_tracks_choice(self):
        """Drive two runs: one choosing a witnessing pair, one not."""
        from repro.fol import parse_formula
        from repro.service import Session

        svc = validity_to_service(parse_formula("x = y"))
        db = Database(svc.schema.database, {"R": [("a",), ("b",)]})
        s = Session(svc, db)
        s.submit(picks={"X": ("a",)})
        s.submit(picks={"X": ("a",), "Y": ("a",)})
        s.submit(picks={})
        true_psi = svc.schema.state["true_psi"]
        assert s.state.truth(true_psi)

        s2 = Session(svc, db)
        s2.submit(picks={"X": ("a",)})
        s2.submit(picks={"X": ("a",), "Y": ("b",)})
        s2.submit(picks={})
        assert not s2.state.truth(true_psi)
