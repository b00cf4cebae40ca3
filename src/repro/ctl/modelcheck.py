"""CTL and CTL* model checking on finite Kripke structures.

For the CTL fragment the classical labelling algorithm is used, built on
three set-level primitives:

- ``EX T`` — pre-image of ``T``;
- ``E(S U T)`` — least fixpoint by backward propagation from ``T``;
- ``EG S`` — greatest fixpoint: every member counts its successors in
  ``S``, and a member whose count reaches zero is retired, which
  decrements its predecessors' counts (linear in the structure).

The universal quantifier and derived operators reduce to these by the
standard dualities (e.g. ``A(f U g) = ¬(E(¬g U ¬f∧¬g) ∨ EG ¬g)``).

Labelling runs over the structure's state ids: a set of states is an int
bitset (bit ``i`` is state ``i``), an atom is the structure's memoized
proposition mask, the Boolean connectives are ``&``, ``|`` and
``all & ~x``, and the fixpoints walk predecessor ids over a ``bytearray``
membership table.  :func:`satisfying_states` maps the final bitset back
to states.

For full CTL* the checker recurses: every maximal state subformula under
a path quantifier is evaluated first and replaced by a fresh atom; the
remaining pure path formula is translated to LTL, compiled to a Büchi
automaton (:mod:`repro.ltl.buchi`), and ``E ψ`` holds at the states from
which the product has an accepting run — the automata-theoretic approach
of Kupferman, Vardi & Wolper [19] that the paper's Theorem 4.6 builds
on.  The product is the LTL-FO search's
:class:`~repro.ltl.buchi.CompiledProduct` over the structure's ids, with
a single valuation.
"""

from __future__ import annotations

from itertools import compress
from typing import Hashable

from repro.ctl.kripke import KripkeStructure, to_flags, to_mask
from repro.ctl.syntax import (
    A,
    CAnd,
    CAtom,
    CFalse,
    CNot,
    COr,
    CTrue,
    E,
    PAnd,
    PathFormula,
    PNot,
    POr,
    PState,
    PU,
    PX,
    StateFormula,
    is_ctl,
)
from repro.ltl.buchi import CompiledProduct, ProductSearch, ltl_to_buchi
from repro.ltl.syntax import LAnd, LNot, LOr, LTLAtom, LTLFormula, LU, LX

State = Hashable


def satisfying_states(kripke: KripkeStructure, formula: StateFormula) -> set[State]:
    """The set of states of ``kripke`` satisfying ``formula``.

    Dispatches to the labelling algorithm for CTL formulas and to the
    automata-theoretic algorithm otherwise.
    """
    mask = _Checker(kripke).sat(formula)
    return set(compress(kripke.states, to_flags(mask, kripke.n_states)))


def check_ctl(kripke: KripkeStructure, formula: StateFormula) -> bool:
    """Whether every initial state satisfies a CTL formula."""
    if not is_ctl(formula):
        raise ValueError("formula is not in the CTL fragment; use check_ctl_star")
    return kripke.initial <= satisfying_states(kripke, formula)


def check_ctl_star(kripke: KripkeStructure, formula: StateFormula) -> bool:
    """Whether every initial state satisfies a CTL* formula."""
    return kripke.initial <= satisfying_states(kripke, formula)


class _Checker:
    """Shared memoisation for one (structure, formula) evaluation; every
    set of states is a bitset over the structure's ids."""

    def __init__(self, kripke: KripkeStructure) -> None:
        self.k = kripke
        self.n = kripke.n_states
        self.all = (1 << self.n) - 1
        self._cache: dict[StateFormula, int] = {}

    # -- set-level primitives ------------------------------------------------

    def ex(self, target: int) -> int:
        """States with some successor in ``target``."""
        preds = self.k.pred_ids
        out = bytearray(self.n)
        for t in compress(range(self.n), to_flags(target, self.n)):
            for s in preds[t]:
                out[s] = 1
        return to_mask(out)

    def eu(self, left: int, right: int) -> int:
        """States satisfying ``E(left U right)`` (least fixpoint)."""
        preds = self.k.pred_ids
        todo = left & ~right
        pending = to_flags(todo, self.n)
        frontier = list(compress(range(self.n), to_flags(right, self.n)))
        while frontier:
            for s in preds[frontier.pop()]:
                if pending[s]:
                    pending[s] = 0
                    frontier.append(s)
        return right | (todo & ~to_mask(pending))

    def eg(self, inside: int) -> int:
        """States satisfying ``EG inside`` (greatest fixpoint)."""
        succs, preds = self.k.succ_ids, self.k.pred_ids
        live = to_flags(inside, self.n)
        count = [0] * self.n
        retired = []
        for s in compress(range(self.n), live):
            count[s] = c = sum(map(live.__getitem__, succs[s]))
            if not c:
                retired.append(s)
        for s in retired:
            live[s] = 0
        while retired:
            for s in preds[retired.pop()]:
                if live[s]:
                    count[s] -= 1
                    if not count[s]:
                        live[s] = 0
                        retired.append(s)
        return to_mask(live)

    # -- state formulas ----------------------------------------------------

    def sat(self, f: StateFormula) -> int:
        cached = self._cache.get(f)
        if cached is None:
            cached = self._cache[f] = self._sat(f)
        return cached

    def _sat(self, f: StateFormula) -> int:
        if isinstance(f, CTrue):
            return self.all
        if isinstance(f, CFalse):
            return 0
        if isinstance(f, CAtom):
            return self.k.prop_mask(f.payload)
        if isinstance(f, CNot):
            return self.all & ~self.sat(f.body)
        if isinstance(f, CAnd):
            return self.sat(f.left) & self.sat(f.right)
        if isinstance(f, COr):
            return self.sat(f.left) | self.sat(f.right)
        if isinstance(f, E):
            return self.sat_path(f.path, existential=True)
        if isinstance(f, A):
            return self.sat_path(f.path, existential=False)
        raise TypeError(f"unknown state formula {f!r}")

    # -- quantified path formulas --------------------------------------------

    def sat_path(self, p: PathFormula, existential: bool) -> int:
        """States satisfying ``E p`` (or ``A p``)."""
        # CTL shapes first — they keep the complexity polynomial.
        if isinstance(p, PState):
            # E s  ≡  A s  ≡  s  (a state formula constrains the first state).
            return self.sat(p.state)
        if isinstance(p, PNot):
            # E ¬q = ¬A q;  A ¬q = ¬E q.
            return self.all & ~self.sat_path(p.body, not existential)
        if isinstance(p, PX) and isinstance(p.body, PState):
            target = self.sat(p.body.state)
            if existential:
                return self.ex(target)
            return self.all & ~self.ex(self.all & ~target)
        if (
            isinstance(p, PU)
            and isinstance(p.left, PState)
            and isinstance(p.right, PState)
        ):
            left = self.sat(p.left.state)
            right = self.sat(p.right.state)
            if existential:
                return self.eu(left, right)
            # A(f U g) = ¬( E(¬g U (¬f ∧ ¬g)) ∨ EG ¬g )
            not_left = self.all & ~left
            not_right = self.all & ~right
            bad = self.eu(not_right, not_left & not_right) | self.eg(not_right)
            return self.all & ~bad
        # General CTL* path formula: automata-theoretic route.
        if existential:
            return self._sat_e_path_ltl(p)
        return self.all & ~self._sat_e_path_ltl(PNot(p))

    def _sat_e_path_ltl(self, p: PathFormula) -> int:
        """``E p`` for an arbitrary path formula, via LTL → Büchi, over
        the structure's ids."""
        tables: list[bytearray] = []

        def to_ltl(q: PathFormula) -> LTLFormula:
            if isinstance(q, PState):
                tables.append(to_flags(self.sat(q.state), self.n))
                return LTLAtom(("sat", len(tables) - 1))
            if isinstance(q, PNot):
                return LNot(to_ltl(q.body))
            if isinstance(q, PAnd):
                return LAnd(to_ltl(q.left), to_ltl(q.right))
            if isinstance(q, POr):
                return LOr(to_ltl(q.left), to_ltl(q.right))
            if isinstance(q, PX):
                return LX(to_ltl(q.body))
            if isinstance(q, PU):
                return LU(to_ltl(q.left), to_ltl(q.right))
            raise TypeError(f"unknown path formula {q!r}")

        ba = ltl_to_buchi(to_ltl(p))
        # one valuation, bit 0: a literal's bitset is its table entry
        search = ProductSearch(
            CompiledProduct(ba, range(self.n), 1),
            self.k.succ_ids.__getitem__,
            lambda state, payload: tables[payload[1]][state],
        )
        out = bytearray(self.n)
        for s in search.accepting_starts(1):
            out[s] = 1
        return to_mask(out)
