"""Tests for the LTL substrate: syntax, lasso semantics, the Büchi
construction (cross-checked against the reference semantics with
hypothesis), and LTL-FO sentences."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fol import Atom, Not as FNot, Var, parse_formula
from repro.ltl import (
    B,
    BuchiAutomaton,
    F,
    G,
    LAnd,
    LB,
    LF,
    LG,
    LImplies,
    LNot,
    LOr,
    LR,
    LTLAtom,
    LTLFOSentence,
    LTL_FALSE,
    LTL_TRUE,
    LU,
    LX,
    U,
    X,
    check_ltlfo_input_bounded,
    eval_on_lasso,
    find_accepting_lasso,
    ltl_atoms,
    ltl_nnf,
    ltl_size,
    ltl_to_buchi,
)
from repro.ltl.buchi import CompiledProduct, accepting_product_states
from repro.ltl.syntax import ltl_map_atoms


# ---------------------------------------------------------------------------
# syntax
# ---------------------------------------------------------------------------

class TestLTLSyntax:
    def test_sugar_operators(self):
        p = LTLAtom("p")
        assert LF(p) == LU(LTL_TRUE, p)
        assert LG(p) == LR(LTL_FALSE, p)
        assert LB(p, p) == LR(p, p)
        assert LImplies(p, p) == LOr(LNot(p), p)
        assert (p & p) == LAnd(p, p)
        assert (p | p) == LOr(p, p)
        assert (~p) == LNot(p)

    def test_nnf_dualities(self):
        p, q = LTLAtom("p"), LTLAtom("q")
        assert ltl_nnf(LNot(LU(p, q))) == LR(LNot(p), LNot(q))
        assert ltl_nnf(LNot(LR(p, q))) == LU(LNot(p), LNot(q))
        assert ltl_nnf(LNot(LX(p))) == LX(LNot(p))
        assert ltl_nnf(LNot(LAnd(p, q))) == LOr(LNot(p), LNot(q))
        assert ltl_nnf(LNot(LNot(p))) == p

    def test_atoms_and_size(self):
        f = LU(LTLAtom("p"), LX(LTLAtom("q")))
        assert {a.payload for a in ltl_atoms(f)} == {"p", "q"}
        assert ltl_size(f) == 4

    def test_map_atoms(self):
        f = LU(LTLAtom(1), LTLAtom(2))
        g = ltl_map_atoms(f, lambda a: LTLAtom(a.payload * 10))
        assert g == LU(LTLAtom(10), LTLAtom(20))


# ---------------------------------------------------------------------------
# lasso semantics
# ---------------------------------------------------------------------------

def _word_eval(word):
    return lambda i, payload: word[i][payload]


class TestLassoSemantics:
    def test_atom_and_next(self):
        word = [{"p": True}, {"p": False}]
        assert eval_on_lasso(LTLAtom("p"), _word_eval(word), 2, 1)
        assert not eval_on_lasso(LX(LTLAtom("p")), _word_eval(word), 2, 1)

    def test_until(self):
        word = [{"p": True, "q": False}, {"p": True, "q": False},
                {"p": False, "q": True}]
        f = LU(LTLAtom("p"), LTLAtom("q"))
        assert eval_on_lasso(f, _word_eval(word), 3, 2)

    def test_until_requires_fulfilment(self):
        word = [{"p": True, "q": False}]
        f = LU(LTLAtom("p"), LTLAtom("q"))
        assert not eval_on_lasso(f, _word_eval(word), 1, 0)

    def test_globally_on_loop(self):
        word = [{"p": False}, {"p": True}]
        f = LG(LTLAtom("p"))
        assert not eval_on_lasso(f, _word_eval(word), 2, 1)
        assert eval_on_lasso(LX(f), _word_eval(word), 2, 1)

    def test_eventually_in_loop_only(self):
        word = [{"p": False}, {"p": False}, {"p": True}]
        assert eval_on_lasso(LF(LTLAtom("p")), _word_eval(word), 3, 1)

    def test_before_release_semantics(self):
        # p B q == neg(neg p U neg q): q must hold up to and including
        # the first p-position.
        word = [{"p": False, "q": True}, {"p": True, "q": True},
                {"p": False, "q": False}]
        f = LB(LTLAtom("p"), LTLAtom("q"))
        assert eval_on_lasso(f, _word_eval(word), 3, 2)
        word2 = [{"p": False, "q": True}, {"p": False, "q": False},
                 {"p": True, "q": True}]
        assert not eval_on_lasso(f, _word_eval(word2), 3, 2)

    def test_invalid_loop_index(self):
        with pytest.raises(ValueError):
            eval_on_lasso(LTLAtom("p"), lambda i, a: True, 2, 5)


# ---------------------------------------------------------------------------
# Büchi construction
# ---------------------------------------------------------------------------

ATOMS = ["p", "q"]


def _ltl_formulas(depth=3):
    base = st.sampled_from([LTLAtom(a) for a in ATOMS])
    if depth == 0:
        return base
    sub = _ltl_formulas(depth - 1)
    return st.one_of(
        base,
        st.builds(LNot, sub),
        st.builds(LAnd, sub, sub),
        st.builds(LOr, sub, sub),
        st.builds(LX, sub),
        st.builds(LU, sub, sub),
        st.builds(LR, sub, sub),
    )


def _random_ltl(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return LTLAtom(rng.choice(ATOMS))
    op = rng.choice([LNot, LAnd, LOr, LX, LU, LR])
    if op in (LNot, LX):
        return op(_random_ltl(rng, depth - 1))
    return op(_random_ltl(rng, depth - 1), _random_ltl(rng, depth - 1))


_words = st.lists(
    st.fixed_dictionaries({a: st.booleans() for a in ATOMS}),
    min_size=1,
    max_size=5,
)


class TestBuchi:
    def test_simple_automaton_accepts_gp(self):
        ba = ltl_to_buchi(LG(LTLAtom("p")))
        word = [{"p": True}]
        lasso = find_accepting_lasso(
            ba, [0], lambda i: [0], lambda s, a: word[s][a]
        )
        assert lasso is not None

    def test_simple_automaton_rejects_violation(self):
        ba = ltl_to_buchi(LG(LTLAtom("p")))
        word = [{"p": False}]
        lasso = find_accepting_lasso(
            ba, [0], lambda i: [0], lambda s, a: word[s][a]
        )
        assert lasso is None

    def test_lasso_shape_is_reported(self):
        # F p over word (not p)(not p)(p, loops)
        ba = ltl_to_buchi(LF(LTLAtom("p")))
        word = [{"p": False}, {"p": False}, {"p": True}]
        succ = lambda i: [min(i + 1, 2) if i < 2 else 2]
        lasso = find_accepting_lasso(
            ba, [0], succ, lambda s, a: word[s][a]
        )
        assert lasso is not None
        assert 2 in lasso.states
        assert 0 <= lasso.loop_index < len(lasso.states)

    def test_branching_system(self):
        # states 0 -> {1, 2}; 1 -> 1 (p), 2 -> 2 (not p)
        labels = {0: False, 1: True, 2: False}
        succ = {0: [1, 2], 1: [1], 2: [2]}
        ba = ltl_to_buchi(LF(LG(LTLAtom("p"))))
        lasso = find_accepting_lasso(
            ba, [0], lambda s: succ[s], lambda s, a: labels[s]
        )
        assert lasso is not None
        assert lasso.states[-1] == 1

    def test_counts_reasonable(self):
        ba = ltl_to_buchi(LU(LTLAtom("p"), LTLAtom("q")))
        assert ba.n_states >= 2
        assert ba.n_transitions > 0
        assert ba.initial and ba.accepting

    @settings(max_examples=150, deadline=None)
    @given(f=_ltl_formulas(), word=_words, data=st.data())
    def test_buchi_agrees_with_lasso_semantics(self, f, word, data):
        loop = data.draw(st.integers(min_value=0, max_value=len(word) - 1))
        length = len(word)
        ref = eval_on_lasso(f, lambda i, a: word[i][a], length, loop)
        ba = ltl_to_buchi(f)
        succ = lambda i: [loop if i == length - 1 else i + 1]
        got = find_accepting_lasso(
            ba, [0], succ, lambda s, a: word[s][a]
        ) is not None
        assert ref == got

    def test_accepting_states_agree_with_nested_dfs(self):
        """The SCC-based ``accepting_product_states`` against nested DFS
        (``find_accepting_lasso``) from each single state, two
        independent emptiness checks, on seeded random Kripke structures
        (dead ends and one-node components without a self-loop
        included) and LTL formulas."""
        agreed = {True: 0, False: 0}
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 6)
            succ = {
                s: rng.sample(range(n), rng.randint(0, min(3, n)))
                for s in range(n)
            }
            labels = {s: {a: rng.random() < 0.5 for a in ATOMS}
                      for s in range(n)}
            ba = ltl_to_buchi(_random_ltl(rng, 3))

            def label(s, atom):
                return labels[s][atom]

            got = accepting_product_states(
                ba, list(range(n)), succ.__getitem__, label
            )
            for s in range(n):
                want = find_accepting_lasso(
                    ba, [s], succ.__getitem__, label
                ) is not None
                assert (s in got) == want, (seed, s)
                agreed[want] += 1
        assert min(agreed.values()) > 100  # both answers well exercised

    def test_compiled_product_agrees_with_nested_dfs(self):
        """``CompiledProduct.search`` against ``find_accepting_lasso``
        for every valuation of a 4-valuation block, on seeded random
        systems whose atom labels are bitsets: the same lasso, and the
        same first ``successors`` call per state in the same order.  A
        valuation inside a clean class has no lasso either, and the
        product never asks for a state's successors twice."""
        width = 4
        found = {True: 0, False: 0}
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 6)
            succ = {
                s: rng.sample(range(n), rng.randint(0, min(3, n)))
                for s in range(n)
            }
            bits = {(s, a): rng.getrandbits(width)
                    for s in range(n) for a in ATOMS}
            ba = ltl_to_buchi(_random_ltl(rng, 3))
            product_calls: list = []
            product = CompiledProduct(
                ba, [0], lambda s: product_calls.append(s) or succ[s],
                lambda s, a: bits[(s, a)], (1 << width) - 1,
            )
            first_calls: list = []
            covered = 0
            for i in range(width):
                bit = 1 << i

                def ref_succ(s):
                    if s not in first_calls:
                        first_calls.append(s)
                    return succ[s]

                want = find_accepting_lasso(
                    ba, [0], ref_succ, lambda s, a: bool(bits[(s, a)] & bit)
                )
                if covered & bit:
                    assert want is None, (seed, i)
                else:
                    got, clean = product.search(bit)
                    assert got == want, (seed, i)
                    found[got is not None] += 1
                    if got is None:
                        assert clean & bit
                        covered |= clean
                assert product_calls == first_calls, (seed, i)
        assert min(found.values()) > 100  # both answers well exercised

    @settings(max_examples=80, deadline=None)
    @given(f=_ltl_formulas(2), word=_words, data=st.data())
    def test_formula_or_negation_holds(self, f, word, data):
        loop = data.draw(st.integers(min_value=0, max_value=len(word) - 1))
        length = len(word)
        pos = eval_on_lasso(f, lambda i, a: word[i][a], length, loop)
        neg = eval_on_lasso(LNot(f), lambda i, a: word[i][a], length, loop)
        assert pos != neg


# ---------------------------------------------------------------------------
# LTL-FO sentences
# ---------------------------------------------------------------------------

class TestLTLFO:
    def test_combinators_coerce_fo(self):
        fo = parse_formula("p(x)")
        f = G(fo)
        assert isinstance(f, LR)
        assert any(a.payload == fo for a in ltl_atoms(f))

    def test_closure_variable_check(self):
        fo = parse_formula("p(x, y)")
        with pytest.raises(ValueError, match="missing from"):
            LTLFOSentence(("x",), G(fo))

    def test_fo_components_deduplicated(self):
        fo = parse_formula("p(x)")
        sentence = LTLFOSentence(("x",), U(fo, fo))
        assert len(list(sentence.fo_components())) == 1

    def test_instantiate_grounds_atoms(self):
        fo = parse_formula("p(x)")
        sentence = LTLFOSentence(("x",), F(fo))
        grounded = sentence.instantiate({"x": "a"})
        payloads = [a.payload for a in ltl_atoms(grounded)]
        assert payloads == [parse_formula('p("a")')]

    def test_literals_collected(self):
        sentence = LTLFOSentence((), G(parse_formula('p("k1")')))
        assert sentence.literals() == {"k1"}

    def test_input_bounded_check(self, small_schema):
        ok = LTLFOSentence(
            ("x",), G(parse_formula("!ship(x)"))
        )
        assert check_ltlfo_input_bounded(ok, small_schema).ok
        bad = LTLFOSentence(
            (), G(parse_formula("exists x . cart(x)"))
        )
        assert not check_ltlfo_input_bounded(bad, small_schema).ok

    def test_str(self):
        sentence = LTLFOSentence(("x",), G(parse_formula("p(x)")), name="n")
        assert "∀x" in str(sentence)
