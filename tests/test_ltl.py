"""Tests for the LTL substrate: syntax, lasso semantics, the Büchi
construction (cross-checked against the reference semantics with
hypothesis), and LTL-FO sentences."""

import random
import threading

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
    ltl_atoms,
    ltl_nnf,
    ltl_size,
    ltl_to_buchi,
)
from repro.fol.bitset import ValuationBlock
from repro.ltl.buchi import BuchiTransition, CompiledProduct, ProductSearch
from repro.ltl.syntax import ltl_map_atoms
from repro.verifier.budget import Budget
from repro.verifier.linear import _search_product

from tests.product_reference import accepting_product_states, find_accepting_lasso


class _Baton:
    """Runs two thread bodies one at a time: ``hand_over(me)`` passes
    the turn to the other body while it has not finished, and waits for
    the turn to come back."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._turn = 0
        self._done = [False, False]

    def _wait(self, me: int) -> None:
        assert self._cond.wait_for(lambda: self._turn == me, timeout=60)

    def hand_over(self, me: int) -> None:
        with self._cond:
            if not self._done[1 - me]:
                self._turn = 1 - me
                self._cond.notify_all()
                self._wait(me)

    def run(self, bodies) -> None:
        errors: list[BaseException] = []

        def work(me: int) -> None:
            try:
                with self._cond:
                    self._wait(me)
                bodies[me]()
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)
            finally:
                with self._cond:
                    self._done[me] = True
                    self._turn = 1 - me
                    self._cond.notify_all()

        threads = [threading.Thread(target=work, args=(me,))
                   for me in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors


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

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_atom_evaluator_is_freed_when_the_call_ends(self, fails):
        """The recursive labeller refers to itself; the call breaks that
        cycle as it ends, so reference counting alone frees an atom
        evaluator passed in, whether the call returns or raises."""
        import gc
        import weakref

        class Evaluator:
            def __call__(self, i: int, payload) -> bool:
                if fails:
                    raise LookupError(payload)
                return i == 0

        def call(evaluator) -> None:
            try:
                eval_on_lasso(
                    LU(LTLAtom("p"), LX(LTLAtom("q"))), evaluator, 2, 1
                )
            except LookupError:
                assert fails
            else:
                assert not fails

        evaluator = Evaluator()
        ref = weakref.ref(evaluator)
        gc.disable()
        try:
            call(evaluator)
            del evaluator
            assert ref() is None
        finally:
            gc.enable()


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
        """The automaton accepts a lasso word exactly when the word
        satisfies ``f``, decided three ways: the tuple-product nested
        DFS, ``ProductSearch.search`` with one valuation, and
        ``ProductSearch.accepting_starts`` over the lasso as a
        deterministic structure, where state ``i`` must be in the set
        exactly when the suffix from position ``i`` satisfies ``f``."""
        loop = data.draw(st.integers(min_value=0, max_value=len(word) - 1))
        length = len(word)
        ref = eval_on_lasso(f, lambda i, a: word[i][a], length, loop)
        ba = ltl_to_buchi(f)
        succ = lambda i: [loop if i == length - 1 else i + 1]
        got = find_accepting_lasso(
            ba, [0], succ, lambda s, a: word[s][a]
        ) is not None
        assert ref == got

        bits = lambda s, a: int(word[s][a])
        lasso, _clean = ProductSearch(
            lambda: CompiledProduct(ba, [0], 1), succ, bits
        ).search(1)
        assert (lasso is not None) == ref

        def holds_from(i):
            order = list(range(i, length)) + list(range(loop, i))
            return eval_on_lasso(
                f, lambda j, a: word[order[j]][a], len(order),
                max(loop - i, 0),
            )

        starts = ProductSearch(
            lambda: CompiledProduct(ba, range(length), 1), succ, bits
        ).accepting_starts(1)
        assert (0 in starts) == ref
        assert starts == {i for i in range(length) if holds_from(i)}

    def test_accepting_states_agree_with_nested_dfs(self):
        """``ProductSearch.accepting_starts``, the SCC-based
        ``accepting_product_states`` and nested DFS
        (``find_accepting_lasso``) from each single state, three
        emptiness checks, on seeded random Kripke structures (dead ends
        and one-node components without a self-loop included) and LTL
        formulas.  The compiled product reads a two-valuation block:
        valuation 0 sees the labels and valuation 1 their complements."""
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
            product = ProductSearch(
                lambda: CompiledProduct(ba, range(n), 3), succ.__getitem__,
                lambda s, a: 1 if labels[s][a] else 2,
            )
            assert product.accepting_starts(1) == got, seed
            assert product.accepting_starts(2) == accepting_product_states(
                ba, list(range(n)), succ.__getitem__,
                lambda s, a: not labels[s][a],
            ), seed
            for s in range(n):
                want = find_accepting_lasso(
                    ba, [s], succ.__getitem__, label
                ) is not None
                assert (s in got) == want, (seed, s)
                agreed[want] += 1
        assert min(agreed.values()) > 100  # both answers well exercised

    def test_compiled_product_agrees_with_nested_dfs(self):
        """``ProductSearch.search`` against ``find_accepting_lasso``
        for every valuation of a 4-valuation block, on seeded random
        systems whose atom labels are bitsets: the same lasso, and a
        charge at the reference's first ``successors`` call per state,
        in the same order.  A valuation inside a clean class has no
        lasso either.  Two contexts share one outcome dict, one after the
        other: each asks for a state's successors and a label at most
        once, the second replays every search the first ended clean and
        walks only those that found a lasso, asking nothing when there
        are none, and it charges what the first did."""
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
            outcomes: dict = {}
            lassos = 0  # the searches of the first context that found one
            for context in range(2):
                charges: list = []
                asked: list = []
                labelled: list = []
                search = ProductSearch(
                    lambda: CompiledProduct(ba, [0], (1 << width) - 1),
                    lambda s: asked.append(s) or succ[s],
                    lambda s, a: labelled.append((s, a)) or bits[(s, a)],
                    charges.append, outcomes,
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
                        ba, [0], ref_succ,
                        lambda s, a: bool(bits[(s, a)] & bit),
                    )
                    if covered & bit:
                        assert want is None, (seed, i)
                    else:
                        got, clean = search.search(bit)
                        assert got == want, (seed, i)
                        found[got is not None] += 1
                        lassos += context == 0 and got is not None
                        if got is None:
                            assert clean & bit
                            covered |= clean
                    assert charges == first_calls, (seed, context, i)
                assert len(set(asked)) == len(asked), (seed, context)
                assert len(set(labelled)) == len(labelled), (seed, context)
                if context == 0:
                    assert asked == first_calls, seed
                    assert search.replayed == 0, seed
                else:
                    assert search.searches - search.replayed == lassos, seed
                    if not lassos:
                        assert asked == labelled == [], seed
                        assert search.product is None, seed
        assert min(found.values()) > 100  # both answers well exercised

    @pytest.mark.parametrize("step", ["search", "charge"])
    def test_alternating_contexts_charge_as_cold(self, step):
        """Two search contexts sharing one outcome dict, stepped
        alternately, each get the lassos, clean classes and charges of a
        context of their own.  ``search``: a valuation's search in one,
        then the same in the other, which replays the outcome the first
        just kept when that search ended clean.  ``charge``: two threads
        handing over at every charge, so both walk the same valuation
        before either search ends; the dict keeps each outcome once,
        the one a cold context keeps."""
        width = 4
        overlapped = 0  # seeds where both contexts walked a clean search
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(1, 7)
            succ = {
                s: rng.sample(range(n), rng.randint(0, min(3, n)))
                for s in range(n)
            }
            bits = {(s, a): rng.getrandbits(width)
                    for s in range(n) for a in ATOMS}
            ba = ltl_to_buchi(_random_ltl(rng, 3))
            all_mask = (1 << width) - 1

            def build():
                return CompiledProduct(ba, [0], all_mask)

            cold_log: list = []
            cold_outcomes: dict = {}
            cold_search = ProductSearch(
                build, succ.__getitem__, lambda s, a: bits[(s, a)],
                cold_log.append, cold_outcomes,
            )
            cold = [(cold_search.search(1 << i), list(cold_log))
                    for i in range(width)]

            shared: dict = {}
            logs: list = [[], []]
            got: list = [[], []]
            baton = _Baton()

            def charge(sid, me):
                logs[me].append(sid)
                if step == "charge":
                    baton.hand_over(me)

            searches = [
                ProductSearch(
                    build, succ.__getitem__, lambda s, a: bits[(s, a)],
                    lambda sid, me=me: charge(sid, me), shared,
                )
                for me in range(2)
            ]

            def run(me, i):
                got[me].append((searches[me].search(1 << i), list(logs[me])))

            if step == "search":
                for i in range(width):
                    run(0, i)
                    run(1, i)
                assert searches[0].replayed == 0, seed
                assert searches[1].replayed == len(cold_outcomes), seed
            else:
                baton.run([
                    lambda me=me: [run(me, i) for i in range(width)]
                    for me in range(2)
                ])
            assert got == [cold, cold], (seed, step)
            assert shared == cold_outcomes, (seed, step)
            replayed = searches[0].replayed + searches[1].replayed
            overlapped += replayed < len(cold_outcomes)
        # the threads really interleave inside searches
        assert (overlapped > 50) == (step == "charge"), overlapped

    @settings(max_examples=80, deadline=None)
    @given(f=_ltl_formulas(2), word=_words, data=st.data())
    def test_formula_or_negation_holds(self, f, word, data):
        loop = data.draw(st.integers(min_value=0, max_value=len(word) - 1))
        length = len(word)
        pos = eval_on_lasso(f, lambda i, a: word[i][a], length, loop)
        neg = eval_on_lasso(LNot(f), lambda i, a: word[i][a], length, loop)
        assert pos != neg


class _RecordingSearch(ProductSearch):
    """A search context that records the valuations it searched."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.searched: list[int] = []

    def search(self, bit):
        self.searched.append(bit)
        return super().search(bit)


def _run_search_product(search: ProductSearch, width: int):
    """``_search_product`` over a ``width``-valuation block, with an
    unlimited governor; its result and the number of valuations it
    charged."""
    block = ValuationBlock(("x",), tuple(range(width)))
    gov = Budget()
    gov.begin_pair()
    stats = {"valuations_checked": 0}
    found = _search_product(search, block, gov, stats)
    return found, stats["valuations_checked"]


class TestDominance:
    """A clean search settles the valuations it dominates: those that,
    at every node it expanded, enable only transitions it enables."""

    def test_dominated_valuation_is_not_searched(self):
        """System 0 -> 1, a dead end, so no valuation has a lasso.  At
        every node, valuation 1 (``p`` false) enables only the
        ``true`` transitions, a strict subset of what valuation 0
        (``p`` true) enables, so the search for 0 settles 1: one
        search, not two.  An agreement class would hold 0 alone."""
        ba = BuchiAutomaton(
            n_states=2, initial=frozenset({0}), accepting=frozenset({1}),
            transitions_from=[
                [BuchiTransition(0, frozenset({("p", True)}), 1),
                 BuchiTransition(0, frozenset(), 0)],
                [BuchiTransition(1, frozenset(), 1)],
            ],
        )
        succ = {0: (1,), 1: ()}
        charges: list = []
        search = _RecordingSearch(
            lambda: CompiledProduct(ba, [0], 0b11), succ.__getitem__,
            lambda s, a: 0b01, charges.append,
        )
        assert _run_search_product(search, 2) == (None, 2)
        assert search.searched == [0b01]
        assert search.searches == 1
        assert charges == [0, 1]

    def test_skipped_valuations_find_nothing_and_charge_nothing(self):
        """On seeded random products, every valuation ``_search_product``
        skipped, searched afterwards in the same context, finds no lasso
        and asks for no successor, no label and no charge."""
        width = 6
        skipped_total = 0
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
            calls: list = []
            search = _RecordingSearch(
                lambda: CompiledProduct(ba, [0], (1 << width) - 1),
                lambda s: calls.append(("succ", s)) or succ[s],
                lambda s, a: calls.append(("label", s, a)) or bits[(s, a)],
                lambda s: calls.append(("charge", s)),
            )
            found, checked = _run_search_product(search, width)
            searched = set(search.searched)
            assert len(searched) == search.searches == len(search.searched)
            skipped = [1 << i for i in range(checked)
                       if 1 << i not in searched]
            if found is not None:
                assert 1 << (checked - 1) in searched, seed
            before = len(calls)
            for bit in skipped:
                lasso, dominated = search.search(bit)
                assert lasso is None, (seed, bit)
                assert dominated & bit
            assert calls[before:] == [], seed
            skipped_total += len(skipped)
        assert skipped_total > 300  # the rule is well exercised


def test_walk_enters_enabled_destinations_in_order():
    """A node enabling two transitions has the walk enter the first
    one's successors first, as the blue DFS does.  System 0 -> 1, 2;
    1, 2 -> 3; 3 -> 3, with ``p`` false at 1 only.  Büchi state 0 moves
    to 1 and to 2 on anything, state 1 loops on ``p``, state 2 on
    anything, and no state accepts, so the walk decides the valuation
    alone.  The blue pre-order enters (1, 1), where state 1 enables
    nothing, then (2, 1) and (3, 1), then (1, 2): it charges 0, 2, 3, 1,
    as the reference makes its first ``successors`` calls; entering
    state 2's successors first would charge 0, 1, 3, 2."""
    ba = BuchiAutomaton(
        n_states=3, initial=frozenset({0}), accepting=frozenset(),
        transitions_from=[
            [BuchiTransition(0, frozenset(), 1),
             BuchiTransition(0, frozenset(), 2)],
            [BuchiTransition(1, frozenset({("p", True)}), 1)],
            [BuchiTransition(2, frozenset(), 2)],
        ],
    )
    succ = {0: (1, 2), 1: (3,), 2: (3,), 3: (3,)}
    first_calls: list = []

    def ref_succ(s):
        if s not in first_calls:
            first_calls.append(s)
        return succ[s]

    assert find_accepting_lasso(ba, [0], ref_succ, lambda s, a: s != 1) is None
    charges: list = []
    search = ProductSearch(
        lambda: CompiledProduct(ba, [0], 0b1), succ.__getitem__,
        lambda s, a: 0 if s == 1 else 1, charges.append,
    )
    lasso, dominated = search.search(0b1)
    assert (lasso, dominated, search.nested) == (None, 0b1, 0)
    assert charges == first_calls == [0, 2, 3, 1]


class _Strike(Exception):
    """A budget strike, raised by a charge."""


def test_struck_or_violating_search_keeps_no_outcome():
    """Only a search that ends clean keeps its outcome.  System 0 -> 1
    -> 2 -> 2, with ``p`` true at 1 only.  Büchi state 0 loops on
    anything and moves to accepting state 1 on ``p``; state 1 moves to
    itself on ``q``.  The walk charges 0, meets the accepting transition
    at 1 and hands over; the nested DFS charges 1 and 2.  With ``q``
    false, no lasso: a search struck at the walk's charge or at the
    nested DFS's first keeps no outcome, so a fresh context searches
    again; the full search keeps one, which a later context replays
    without building a product.  With ``q`` true at 2, the lasso 0, 1,
    (2): no outcome."""
    ba = BuchiAutomaton(
        n_states=2, initial=frozenset({0}), accepting=frozenset({1}),
        transitions_from=[
            [BuchiTransition(0, frozenset(), 0),
             BuchiTransition(0, frozenset({("p", True)}), 1)],
            [BuchiTransition(1, frozenset({("q", True)}), 1)],
        ],
    )
    succ = {0: (1,), 1: (2,), 2: (2,)}

    def context(outcomes, q_at, strike_at=None):
        charges: list = []

        def charge(sid):
            charges.append(sid)
            if len(charges) == strike_at:
                raise _Strike(sid)

        def bits(s, a):
            return int(s == 1) if a == "p" else int(s == q_at)

        return ProductSearch(
            lambda: CompiledProduct(ba, [0], 0b1), succ.__getitem__, bits,
            charge, outcomes,
        ), charges

    outcomes: dict = {}
    for strike_at, where in ((1, "walk"), (2, "nested DFS")):
        search, charges = context(outcomes, None, strike_at)
        with pytest.raises(_Strike):
            search.search(0b1)
        assert search.nested == (where == "nested DFS"), where
        assert charges == [0, 1][:strike_at]
        assert outcomes == {}, where
    search, charges = context(outcomes, None)
    assert search.search(0b1) == (None, 0b1)
    assert (search.nested, search.replayed, charges) == (1, 0, [0, 1, 2])
    assert list(outcomes[0b1][1]) == [0, 1, 2]
    search, charges = context(outcomes, None)
    assert search.search(0b1) == (None, 0b1)
    assert (search.nested, search.replayed, charges) == (0, 1, [0, 1, 2])
    assert search.product is None

    violating: dict = {}
    search, charges = context(violating, 2)
    lasso, dominated = search.search(0b1)
    assert (lasso.states, lasso.loop_index, dominated) == ([0, 1, 2], 2, None)
    assert violating == {}
    search, charges = context(violating, 2)
    assert search.search(0b1)[0] == lasso
    assert (search.nested, search.replayed) == (1, 0)


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
