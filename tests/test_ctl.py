"""Tests for the CTL substrate: syntax, Kripke structures and the model
checkers — with hypothesis cross-checks between the CTL labelling
algorithm and the automata-theoretic CTL* route."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ctl import (
    A,
    AF,
    AG,
    AU,
    AX,
    CAnd,
    CAtom,
    CFalse,
    CImplies,
    CNot,
    COr,
    CTrue,
    CTL_FALSE,
    CTL_TRUE,
    E,
    EF,
    EG,
    EU,
    EX,
    KripkeStructure,
    PAnd,
    PF,
    PG,
    PNot,
    POr,
    PState,
    PU,
    PX,
    check_ctl,
    check_ctl_star,
    ctl_size,
    is_ctl,
    satisfying_states,
    state_atoms,
)
from repro.ctl.modelcheck import _Checker


# ---------------------------------------------------------------------------
# syntax
# ---------------------------------------------------------------------------

class TestCTLSyntax:
    def test_sugar_builds_ctl(self):
        p = CAtom("p")
        for f in [EX(p), AX(p), EF(p), AF(p), EG(p), AG(p), EU(p, p), AU(p, p)]:
            assert is_ctl(f), f

    def test_state_operators(self):
        p, q = CAtom("p"), CAtom("q")
        assert (p & q) == CAnd(p, q)
        assert (p | q) == COr(p, q)
        assert (~p) == CNot(p)
        assert CImplies(p, q) == COr(CNot(p), q)

    def test_ctl_star_not_ctl(self):
        p, q = CAtom("p"), CAtom("q")
        nested = E(PAnd(PF(p), PG(q)))
        assert not is_ctl(nested)

    def test_state_atoms(self):
        f = AG(CImplies(CAtom("p"), EF(CAtom("q"))))
        assert {a.payload for a in state_atoms(f)} == {"p", "q"}

    def test_ctl_size(self):
        assert ctl_size(CAtom("p")) == 1
        assert ctl_size(EX(CAtom("p"))) >= 3


# ---------------------------------------------------------------------------
# Kripke structures
# ---------------------------------------------------------------------------

class TestKripke:
    def test_totality_enforced(self):
        with pytest.raises(ValueError, match="total"):
            KripkeStructure([0, 1], [0], {0: [1]}, {})

    def test_unknown_successor_rejected(self):
        with pytest.raises(ValueError):
            KripkeStructure([0], [0], {0: [99]}, {})

    def test_unknown_initial_rejected(self):
        with pytest.raises(ValueError):
            KripkeStructure([0], [5], {0: [0]}, {})

    def test_labels_and_successors(self):
        k = KripkeStructure([0, 1], [0], {0: [1], 1: [0]}, {0: ["p"]})
        assert k.holds(0, "p") and not k.holds(1, "p")
        assert k.successors(0) == (1,)
        assert k.predecessors_map()[0] == [1]
        assert k.n_states == 2 and k.n_edges == 2


# ---------------------------------------------------------------------------
# model checking — hand-verified cases
# ---------------------------------------------------------------------------

@pytest.fixture()
def diamond():
    """0 -> {1, 2}; 1 -> 3; 2 -> 3; 3 -> 3.   p at 1 and 3, q at 2."""
    return KripkeStructure(
        [0, 1, 2, 3],
        [0],
        {0: [1, 2], 1: [3], 2: [3], 3: [3]},
        {1: ["p"], 3: ["p"], 2: ["q"]},
    )


class TestCTLModelChecking:
    def test_ex(self, diamond):
        assert satisfying_states(diamond, EX(CAtom("p"))) == {0, 1, 2, 3}

    def test_ax(self, diamond):
        assert satisfying_states(diamond, AX(CAtom("p"))) == {1, 2, 3}

    def test_ef(self, diamond):
        assert satisfying_states(diamond, EF(CAtom("q"))) == {0, 2}

    def test_af(self, diamond):
        assert satisfying_states(diamond, AF(CAtom("p"))) == {0, 1, 2, 3}

    def test_eg(self, diamond):
        assert satisfying_states(diamond, EG(CAtom("p"))) == {1, 3}

    def test_ag(self, diamond):
        assert satisfying_states(diamond, AG(CAtom("p"))) == {1, 3}

    def test_eu(self, diamond):
        got = satisfying_states(diamond, EU(CAtom("p"), CAtom("q")))
        assert got == {2}

    def test_au(self, diamond):
        got = satisfying_states(diamond, AU(CTL_TRUE, CAtom("p")))
        assert got == {0, 1, 2, 3}

    def test_boolean_layer(self, diamond):
        assert satisfying_states(diamond, CAtom("p") & CAtom("q")) == set()
        assert satisfying_states(diamond, CAtom("p") | CAtom("q")) == {1, 2, 3}
        assert satisfying_states(diamond, ~CAtom("p")) == {0, 2}
        assert satisfying_states(diamond, CTL_TRUE) == {0, 1, 2, 3}
        assert satisfying_states(diamond, CTL_FALSE) == set()

    def test_check_ctl_initial_states(self, diamond):
        assert check_ctl(diamond, EX(CAtom("p")))
        assert not check_ctl(diamond, AX(CAtom("p")))

    def test_check_ctl_rejects_star(self, diamond):
        star = E(PAnd(PF(CAtom("p")), PF(CAtom("q"))))
        with pytest.raises(ValueError):
            check_ctl(diamond, star)
        assert check_ctl_star(diamond, star)

    def test_ctl_star_nested_path_operators(self, diamond):
        # E(F p ∧ F q): one path visiting both p and q... in the diamond
        # a single path cannot visit both 1 and 2, but q at 2 then p at 3
        # works: path 0 -> 2 -> 3.
        f = E(PAnd(PF(CAtom("q")), PF(CAtom("p"))))
        assert 0 in satisfying_states(diamond, f)

    def test_ctl_star_a_path_formula(self, diamond):
        # A(G p ∨ F q) at 0: path via 1 has G p? 0 itself lacks p — no;
        # but F p holds on every path; check A(F p).
        f = A(PF(CAtom("p")))
        assert 0 in satisfying_states(diamond, f)
        g = A(POr(PG(CAtom("p")), PF(CAtom("q"))))
        # path 0->1->3... has no q and 0 lacks p, so G p fails: violated.
        assert 0 not in satisfying_states(diamond, g)


# ---------------------------------------------------------------------------
# hypothesis: labelling vs automata route
# ---------------------------------------------------------------------------

PROPS = ["p", "q"]


def _ctl_formulas(depth=2):
    base = st.sampled_from([CAtom(a) for a in PROPS])
    if depth == 0:
        return base
    sub = _ctl_formulas(depth - 1)
    return st.one_of(
        base,
        st.builds(CNot, sub),
        st.builds(CAnd, sub, sub),
        st.builds(COr, sub, sub),
        st.builds(EX, sub),
        st.builds(AX, sub),
        st.builds(EF, sub),
        st.builds(AF, sub),
        st.builds(EG, sub),
        st.builds(AG, sub),
        st.builds(EU, sub, sub),
        st.builds(AU, sub, sub),
    )


@st.composite
def _kripkes(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    states = list(range(n))
    edges = {
        s: draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=2)
        )
        for s in states
    }
    labels = {
        s: [p for p in PROPS if draw(st.booleans())] for s in states
    }
    return KripkeStructure(states, [0], edges, labels)


def _force_automata_route(k, f):
    """Evaluate every path quantifier through the LTL/Büchi route."""
    checker = _Checker(k)

    def go(g):  # a bitset over the structure's state ids
        if isinstance(g, CAtom):
            return checker.sat(g)
        if isinstance(g, (CTrue,)):
            return checker.all
        if isinstance(g, (CFalse,)):
            return 0
        if isinstance(g, CNot):
            return checker.all & ~go(g.body)
        if isinstance(g, CAnd):
            return go(g.left) & go(g.right)
        if isinstance(g, COr):
            return go(g.left) | go(g.right)
        if isinstance(g, E):
            return checker._sat_e_path_ltl(g.path)
        if isinstance(g, A):
            return checker.all & ~checker._sat_e_path_ltl(PNot(g.path))
        raise TypeError(g)

    mask = go(f)
    return {s for i, s in enumerate(k.states) if mask >> i & 1}


class TestCTLAgainstAutomata:
    @settings(max_examples=60, deadline=None)
    @given(k=_kripkes(), f=_ctl_formulas())
    def test_labelling_agrees_with_automata(self, k, f):
        assert satisfying_states(k, f) == _force_automata_route(k, f)

    @settings(max_examples=40, deadline=None)
    @given(k=_kripkes(), f=_ctl_formulas(1))
    def test_negation_partitions_states(self, k, f):
        sat = satisfying_states(k, f)
        unsat = satisfying_states(k, CNot(f))
        assert sat | unsat == set(k.states)
        assert sat & unsat == set()

    @settings(max_examples=40, deadline=None)
    @given(k=_kripkes(), f=_ctl_formulas(1))
    def test_dualities(self, k, f):
        # AG f == ¬EF¬f and AF f == ¬EG¬f
        assert satisfying_states(k, AG(f)) == satisfying_states(
            k, CNot(EF(CNot(f)))
        )
        assert satisfying_states(k, AF(f)) == satisfying_states(
            k, CNot(EG(CNot(f)))
        )

    @settings(max_examples=40, deadline=None)
    @given(k=_kripkes(), f=_ctl_formulas(1))
    def test_fixpoint_expansions(self, k, f):
        # EF f == f ∨ EX EF f ; EG f == f ∧ EX EG f
        assert satisfying_states(k, EF(f)) == satisfying_states(
            k, COr(f, EX(EF(f)))
        )
        assert satisfying_states(k, EG(f)) == satisfying_states(
            k, CAnd(f, EX(EG(f)))
        )


# ---------------------------------------------------------------------------
# a textbook labelling oracle: fixpoint definitions over sets of states
# ---------------------------------------------------------------------------

def _textbook_sat(k, f):
    """CTL from its fixpoint definitions, over Python sets of states:
    ``E(l U r)`` and ``EG l`` iterate to stability, and every A-form and
    negated path comes through the dualities."""
    every = set(k.states)
    succ = {s: k.successors(s) for s in every}

    def ex(target):
        return {s for s in every if not target.isdisjoint(succ[s])}

    def fixpoint(step, start):
        while (nxt := step(start)) != start:
            start = nxt
        return start

    def eu(left, right):
        return fixpoint(lambda z: right | (left & ex(z)), set())

    def eg(inside):
        return fixpoint(lambda z: inside & ex(z), set(every))

    def e(p):  # E p for a CTL path formula
        if isinstance(p, PState):
            return sat(p.state)
        if isinstance(p, PX):
            return ex(sat(p.body.state))
        if isinstance(p, PU):
            return eu(sat(p.left.state), sat(p.right.state))
        q = p.body  # E ¬q
        if isinstance(q, PState):
            return every - sat(q.state)
        if isinstance(q, PNot):
            return e(q.body)
        if isinstance(q, PX):
            return ex(every - sat(q.body.state))
        # E ¬(l U r) = E(¬r U (¬l ∧ ¬r)) ∨ EG ¬r
        left, right = sat(q.left.state), sat(q.right.state)
        return eu(every - right, every - left - right) | eg(every - right)

    def sat(g):
        if isinstance(g, CTrue):
            return set(every)
        if isinstance(g, CFalse):
            return set()
        if isinstance(g, CAtom):
            return {s for s in every if k.holds(s, g.payload)}
        if isinstance(g, CNot):
            return every - sat(g.body)
        if isinstance(g, CAnd):
            return sat(g.left) & sat(g.right)
        if isinstance(g, COr):
            return sat(g.left) | sat(g.right)
        if isinstance(g, E):
            return e(g.path)
        return every - e(PNot(g.path))  # A p = ¬E¬p

    return sat(f)


def _random_kripke(rng, n):
    """``n`` states with fan-out up to 4, some self-loops, p/q labels."""
    edges = {}
    for s in range(n):
        out = [rng.randrange(n) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2:
            out.append(s)
        edges[s] = out
    labels = {s: [a for a in PROPS if rng.random() < 0.5] for s in range(n)}
    return KripkeStructure(range(n), [0], edges, labels)


def _chain(n, labels):
    """0 -> 1 -> ... -> n-1, with a self-loop at the end."""
    edges = {i: [min(i + 1, n - 1)] for i in range(n)}
    return KripkeStructure(range(n), [0], edges, labels)


def _one_formula_per_operator(p, q):
    return [
        p, CTL_TRUE, CTL_FALSE, CNot(p), CAnd(p, q), COr(p, q),
        EX(p), AX(p), EF(q), AF(q), EG(p), AG(p), EU(p, q), AU(p, q),
        AG(EF(p)), AG(CImplies(p, AF(q))), EG(CNot(q)), AU(EX(p), EG(q)),
    ]


class TestCTLAgainstTextbook:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), f=_ctl_formulas(depth=3))
    def test_seeded_random_structures(self, seed, f):
        import random

        rng = random.Random(seed)
        k = _random_kripke(rng, rng.choice([2, 3, 7, 40, rng.randint(2, 300)]))
        assert satisfying_states(k, f) == _textbook_sat(k, f)

    def test_long_chain_eg_af_au(self):
        # p everywhere but the last state and every 500th; q at state 1500
        n = 2000
        labels = {i: ["p"] for i in range(n - 1) if i % 500 != 499}
        labels[1500] = ["q"]
        k = _chain(n, labels)
        p, q = CAtom("p"), CAtom("q")
        for f in (EG(p), EG(CNot(q)), AF(q), AF(CNot(p)), AU(p, q),
                  AU(CNot(q), CNot(p))):
            assert satisfying_states(k, f) == _textbook_sat(k, f), f

    def test_store_structure(self):
        from repro.demo.propositional import propositional_service
        from repro.schema import Database
        from repro.verifier.branching import build_snapshot_kripke

        service = propositional_service()
        k = build_snapshot_kripke(service, Database(service.schema.database))
        p, q = CAtom("HP"), CAtom("has_order")
        for f in _one_formula_per_operator(p, q):
            assert satisfying_states(k, f) == _textbook_sat(k, f), f

    def test_search_site_structure(self):
        from repro.demo.search_site import figure1_database, search_service
        from repro.verifier.branching import build_snapshot_kripke

        service = search_service()
        k = build_snapshot_kripke(service, figure1_database(service))
        p, q = CAtom("new"), CAtom(("I", ("nl1",)))
        for f in _one_formula_per_operator(p, q):
            assert satisfying_states(k, f) == _textbook_sat(k, f), f


# ---------------------------------------------------------------------------
# CTL satisfiability (the Theorem 4.9 reduction target)
# ---------------------------------------------------------------------------

class TestCTLSatisfiability:
    def test_textbook_cases(self):
        from repro.ctl import ctl_satisfiable

        p, q = CAtom("p"), CAtom("q")
        satisfiable = [
            p,
            AG(EF(p)),
            CAnd(EX(p), EX(CNot(p))),
            CAnd(AF(p), EG(p)),
            EU(p, q),
            CAnd(AG(CImplies(p, EX(p))), p),
        ]
        unsatisfiable = [
            CAnd(p, CNot(p)),
            CAnd(AG(p), EF(CNot(p))),
            CAnd(EF(p), AG(CNot(p))),
            CAnd(EX(p), AX(CNot(p))),
            CAnd(AF(p), EG(CNot(p))),
            CAnd(AU(p, q), AG(CNot(q))),
        ]
        for f in satisfiable:
            assert ctl_satisfiable(f), f
        for f in unsatisfiable:
            assert not ctl_satisfiable(f), f

    def test_validities_have_unsat_negations(self):
        from repro.ctl import ctl_satisfiable

        p = CAtom("p")
        validities = [
            CImplies(AG(p), p),
            CImplies(AX(p), EX(p)),          # totality: some successor
            CImplies(p, EF(p)),
            CImplies(AG(p), AF(p)),
        ]
        for v in validities:
            assert not ctl_satisfiable(CNot(v)), v

    def test_model_checking_agreement(self):
        """Anything true somewhere in a structure is satisfiable."""
        import random

        from repro.ctl import ctl_satisfiable

        rng = random.Random(4)
        for trial in range(40):
            n = rng.randint(2, 4)
            states = list(range(n))
            edges = {
                s: [rng.randrange(n) for _ in range(rng.randint(1, 2))]
                for s in states
            }
            labels = {
                s: [x for x in ("p", "q") if rng.random() < 0.5]
                for s in states
            }
            k = KripkeStructure(states, [0], edges, labels)
            f = COr(EF(CAtom("p") & EX(CAtom("q"))), AG(CAtom("q")))
            if satisfying_states(k, f):
                assert ctl_satisfiable(f)

    def test_ctl_star_rejected(self):
        from repro.ctl import ctl_satisfiable
        from repro.ctl.syntax import E, PAnd, PF

        with pytest.raises(ValueError):
            ctl_satisfiable(E(PAnd(PF(CAtom("p")), PF(CAtom("q")))))

    def test_closure_guard(self):
        from repro.ctl import ctl_satisfiable

        f = CAtom("p")
        for _ in range(12):
            f = EU(f, AU(f, CAtom("q")))
        with pytest.raises(ValueError, match="closure"):
            ctl_satisfiable(f)
