"""LTL → Büchi automata and emptiness on products.

The construction is the classical tableau: automaton states are sets of
*obligations* (NNF subformulas still to be satisfied), expanded into
*covers* — consistent choices of literals to check now, obligations to
pass to the next position, and until-formulas whose fulfilment was
postponed.  Postponement yields a transition-based generalised Büchi
acceptance (one set per until), degeneralised into an ordinary Büchi
automaton with a round-robin counter.

Emptiness of the product with a transition system is decided on one
construction in two parts: :class:`CompiledProduct`, the automaton over
ints and the start nodes, whose product nodes carry enable masks over
the valuations of a bitset block; and :class:`ProductSearch`, one
request's search state over it: the callbacks, the successor ids,
enable masks and charged sids it has expanded, and the outcomes of
clean searches its caller keeps across requests.  A search context
answers two questions:

- :meth:`ProductSearch.search` — a concrete accepting lasso for one
  valuation (the verifier's counterexample search), or the valuations a
  clean search settles.  A plain walk of the product in pre-order
  decides a valuation that enables no transition into an accepting
  state, the common case for safety properties, whose negated automata
  accept only after a bad prefix; when the walk meets such a
  transition, a nested DFS over int nodes decides it and finds the
  lasso.  A valuation its caller keeps a clean outcome for is not
  searched again: the context replays the outcome's charges, and
  builds no product when it replays every search;
- :meth:`ProductSearch.accepting_starts` — every start state with an
  accepting run, by one Tarjan pass (the CTL* model checker's ``Eψ``
  subroutine).

The tests compare both with simpler products over ``(state, q)`` tuples
(``tests/product_reference.py``, which also holds the generic nested DFS
the reference lasso search runs on).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from repro.ltl.syntax import (
    LAnd,
    LNot,
    LOr,
    LR,
    LTLAtom,
    LTLFalse,
    LTLFormula,
    LTLTrue,
    LU,
    LX,
    ltl_nnf,
)

Payload = Hashable
Literals = frozenset  # of (payload, bool)


@dataclass(frozen=True)
class BuchiTransition:
    """One transition: enabled when every (atom, value) literal holds."""

    src: int
    literals: Literals
    dst: int


@dataclass
class BuchiAutomaton:
    """A (state-based) Büchi automaton over atom-valuation letters.

    ``transitions_from[q]`` lists the outgoing transitions of state
    ``q``; a letter (an assignment of truth values to atom payloads)
    enables a transition when it agrees with all its literals.
    """

    n_states: int
    initial: frozenset[int]
    accepting: frozenset[int]
    transitions_from: list[list[BuchiTransition]]

    @property
    def n_transitions(self) -> int:
        return sum(len(outs) for outs in self.transitions_from)


# ---------------------------------------------------------------------------
# tableau construction
# ---------------------------------------------------------------------------

def _until_subformulas(f: LTLFormula) -> list[LU]:
    """All until subformulas (the generalised acceptance sets)."""
    seen: list[LU] = []

    def walk(g: LTLFormula) -> None:
        if isinstance(g, LU) and g not in seen:
            seen.append(g)
        if isinstance(g, (LNot, LX)):
            walk(g.body)
        elif isinstance(g, (LAnd, LOr, LU, LR)):
            walk(g.left)
            walk(g.right)

    walk(f)
    return seen


def _covers(
    obligations: frozenset[LTLFormula],
) -> list[tuple[Literals, frozenset[LTLFormula], frozenset[LU]]]:
    """All covers of an obligation set.

    A cover is ``(literals, nexts, postponed)``: the literals that must
    hold at the current position, the obligations for the next position,
    and the untils whose fulfilment this cover postpones.
    """
    results: dict[tuple, tuple[Literals, frozenset, frozenset]] = {}

    def expand(
        todo: tuple[LTLFormula, ...],
        literals: dict[Payload, bool],
        nexts: frozenset[LTLFormula],
        postponed: frozenset[LU],
    ) -> None:
        if not todo:
            lits = frozenset(literals.items())
            key = (lits, nexts, postponed)
            results[key] = (lits, nexts, postponed)
            return
        f, rest = todo[0], todo[1:]
        if isinstance(f, LTLTrue):
            expand(rest, literals, nexts, postponed)
        elif isinstance(f, LTLFalse):
            return
        elif isinstance(f, LTLAtom):
            if literals.get(f.payload) is False:
                return
            expand(rest, {**literals, f.payload: True}, nexts, postponed)
        elif isinstance(f, LNot):
            body = f.body
            if not isinstance(body, LTLAtom):
                raise ValueError("covers expect NNF input")
            if literals.get(body.payload) is True:
                return
            expand(rest, {**literals, body.payload: False}, nexts, postponed)
        elif isinstance(f, LAnd):
            expand((f.left, f.right) + rest, literals, nexts, postponed)
        elif isinstance(f, LOr):
            expand((f.left,) + rest, literals, nexts, postponed)
            expand((f.right,) + rest, literals, nexts, postponed)
        elif isinstance(f, LX):
            expand(rest, literals, nexts | {f.body}, postponed)
        elif isinstance(f, LU):
            # f = l U r:  r  ∨  (l ∧ X f, postponing f)
            expand((f.right,) + rest, literals, nexts, postponed)
            expand((f.left,) + rest, literals, nexts | {f}, postponed | {f})
        elif isinstance(f, LR):
            # f = l R r:  (r ∧ l)  ∨  (r ∧ X f)
            expand((f.right, f.left) + rest, literals, nexts, postponed)
            expand((f.right,) + rest, literals, nexts | {f}, postponed)
        else:
            raise TypeError(f"unknown LTL formula {f!r}")

    expand(tuple(sorted(obligations, key=str)), {}, frozenset(), frozenset())
    return list(results.values())


def ltl_to_buchi(formula: LTLFormula) -> BuchiAutomaton:
    """Construct a Büchi automaton accepting exactly the models of
    ``formula`` (over infinite words of atom valuations).

    The construction is deterministic, so an automaton may be memoized
    by its formula (``verify_ltlfo`` keeps one per service and negated
    skeleton).
    """
    nnf = ltl_nnf(formula)
    untils = _until_subformulas(nnf)
    k = len(untils)
    until_index = {u: i for i, u in enumerate(untils)}

    # --- transition-based generalised automaton over obligation sets ----
    tgba_states: dict[frozenset[LTLFormula], int] = {}
    tgba_transitions: list[list[tuple[Literals, int, frozenset[int]]]] = []

    def state_id(obls: frozenset[LTLFormula]) -> int:
        if obls not in tgba_states:
            tgba_states[obls] = len(tgba_states)
            tgba_transitions.append([])
        return tgba_states[obls]

    init = state_id(frozenset([nnf]))
    worklist = [frozenset([nnf])]
    done: set[frozenset[LTLFormula]] = set()
    while worklist:
        obls = worklist.pop()
        if obls in done:
            continue
        done.add(obls)
        src = state_id(obls)
        for literals, nexts, postponed in _covers(obls):
            fulfilled = frozenset(
                until_index[u] for u in untils if u not in postponed
            )
            dst = state_id(nexts)
            tgba_transitions[src].append((literals, dst, fulfilled))
            if nexts not in done:
                worklist.append(nexts)

    n_tgba = len(tgba_states)

    # --- degeneralisation (round-robin counter over the k untils) -------
    if k == 0:
        transitions_from: list[list[BuchiTransition]] = [[] for _ in range(n_tgba)]
        for src in range(n_tgba):
            for literals, dst, _acc in tgba_transitions[src]:
                transitions_from[src].append(BuchiTransition(src, literals, dst))
        return BuchiAutomaton(
            n_states=n_tgba,
            initial=frozenset([init]),
            accepting=frozenset(range(n_tgba)),
            transitions_from=transitions_from,
        )

    def ba_id(q: int, level: int) -> int:
        return q * (k + 1) + level

    n_ba = n_tgba * (k + 1)
    transitions_from = [[] for _ in range(n_ba)]
    for q in range(n_tgba):
        for level in range(k + 1):
            src = ba_id(q, level)
            base = 0 if level == k else level
            for literals, dst_q, fulfilled in tgba_transitions[q]:
                j = base
                while j < k and j in fulfilled:
                    j += 1
                transitions_from[src].append(
                    BuchiTransition(src, literals, ba_id(dst_q, j))
                )
    accepting = frozenset(ba_id(q, k) for q in range(n_tgba))
    return BuchiAutomaton(
        n_states=n_ba,
        initial=frozenset([ba_id(init, 0)]),
        accepting=accepting,
        transitions_from=transitions_from,
    )


# ---------------------------------------------------------------------------
# product emptiness
# ---------------------------------------------------------------------------

SystemState = Hashable
SuccFn = Callable[[SystemState], Iterable[SystemState]]


@dataclass
class Lasso:
    """An accepting product lasso projected onto the system states."""

    states: list[SystemState]
    loop_index: int


class CompiledProduct:
    """The product of a lazily explored system with ``ba``, over ints:
    the automaton's tables and the start nodes.

    System states are the caller's ids, non-negative ints: the starts
    are ids, successors are ids, and the letters are valuation bitsets
    over a block whose valuations ``all_mask`` lists (bit *i* for
    valuation *i*).  The verifier passes an explored graph's snapshot
    ids (``ExploredGraph``), and the CTL* model checker a Kripke
    structure's state ids; lassos and start sets come back as ids, which
    the caller maps to its states.  A product node is the int ``sid *
    n_states + q``.  What the product's nodes expand to is one search
    context's (:class:`ProductSearch`), which builds the product at its
    first search that walks.
    """

    __slots__ = ("n_states", "accepting", "all_mask", "starts",
                 "literals_of", "dsts_of", "payloads")

    def __init__(
        self, ba: BuchiAutomaton, initial_states: Iterable[int],
        all_mask: int,
    ) -> None:
        self.n_states = n = ba.n_states
        self.accepting = ba.accepting
        self.all_mask = all_mask
        # The automaton over ints: state q's transitions as their
        # literals, (payload number, value) pairs, and destinations.
        payloads: dict = {}
        self.literals_of: list[tuple[tuple[tuple[int, bool], ...], ...]] = []
        self.dsts_of: list[tuple[int, ...]] = []
        for outs in ba.transitions_from:
            self.literals_of.append(tuple(
                tuple(
                    (payloads.setdefault(payload, len(payloads)), value)
                    for payload, value in t.literals
                )
                for t in outs
            ))
            self.dsts_of.append(tuple(t.dst for t in outs))
        self.payloads = list(payloads)
        self.starts = tuple(
            sid * n + q for sid in initial_states for q in sorted(ba.initial)
        )


#: A clean search's outcome: its dominated class, and the sids it
#: expanded with an enabled transition in first-expansion order.
Outcome = tuple[int, array]


class ProductSearch:
    """One request's searches over the product ``build()`` returns, a
    :class:`CompiledProduct`, built at the first search that walks.

    ``successors(sid)`` returns the successors' ids of ``sid`` and
    ``literal_bits(sid, payload)`` the set of valuations under which
    ``payload`` holds at ``sid``; the context asks each once and keeps
    the answers, with each expanded node's enable masks (one per
    transition of its Büchi state: the valuations agreeing with all its
    literals), for its own searches only.  ``charge(sid)`` is called at
    the first expansion of a sid with an enabled transition in this
    context, so what a request charges does not depend on what an
    earlier one kept.

    ``outcomes`` maps a valuation bit to the outcome of a search for it
    that completed without a lasso (:data:`Outcome`), kept by the caller
    across contexts over one product key: over the same successors and
    labels, a clean search's nodes, class and order are functions of the
    bit alone, whatever a context has charged before, and the context
    decides only which of those sids are new to it.  A search that ends
    clean hands its outcome to ``keep_outcome(bit, outcome)`` (default:
    stored into ``outcomes`` unless one is held); a struck search and one
    that found a lasso hand over none.

    :meth:`search` replays the outcome for a valuation when ``outcomes``
    holds one.  Otherwise it walks the product in pre-order and runs a
    nested DFS, over a per-search memo of successor lists, only when the
    walk meets an accepting transition.  In each case it charges each
    state at the point where a nested DFS over the ``(state, q)``
    product makes its first ``successors`` call for that valuation, and
    finds the same lasso.  :meth:`accepting_starts` walks the nested
    DFS's expansion.  ``searches`` counts the searches this context ran,
    ``nested`` those whose walk handed over to the nested DFS, and
    ``replayed`` those answered from a kept outcome.
    """

    __slots__ = ("product", "searches", "nested", "replayed",
                 "_build", "_successors", "_literal_bits", "_charge",
                 "_outcomes", "_keep_outcome", "_charged", "_expanded",
                 "_children", "_bits", "_masks", "_interned", "_order")

    def __init__(
        self,
        build: Callable[[], CompiledProduct],
        successors: Callable[[int], Iterable[int]],
        literal_bits: Callable[[int, Payload], int],
        charge: Callable[[int], None] | None = None,
        outcomes: dict[int, Outcome] | None = None,
        keep_outcome: Callable[[int, Outcome], object] | None = None,
    ) -> None:
        self.product: CompiledProduct | None = None
        self.searches = 0
        self.nested = 0
        self.replayed = 0
        self._build = build
        self._successors = successors
        self._literal_bits = literal_bits
        self._charge = charge
        self._outcomes = {} if outcomes is None else outcomes
        self._keep_outcome = (
            keep_outcome if keep_outcome is not None
            else self._outcomes.setdefault
        )
        # every sid this context charged, replayed or expanded
        self._charged: set[int] = set()
        # sid -> successor ids, for every sid a search of this context
        # expanded
        self._expanded: dict[int, tuple[int, ...]] = {}
        # sid * n_states + dst -> the nodes (s, dst) for s in the
        # successors of sid, reversed: what the walk pushes
        self._children: dict[int, list[int]] = {}
        self._bits: dict[int, int] = {}  # at sid * n_payloads + payload
        # node -> its enable masks, one interned tuple per distinct
        # tuple: the enabled-destination filters key a tuple by its id,
        # and every tuple lives as long as the context
        self._masks: dict[int, tuple[int, ...]] = {}
        self._interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        # the running search's sids expanded with an enabled transition,
        # in first-expansion order (the keys)
        self._order: dict[int, None] = {}

    def _built(self) -> CompiledProduct:
        if self.product is None:
            self.product = self._build()
        return self.product

    def _node_masks(self, node: int) -> tuple[int, ...]:
        product = self.product
        sid, q = divmod(node, product.n_states)
        base = sid * len(product.payloads)
        masks = []
        for literals in product.literals_of[q]:
            mask = product.all_mask
            for p, value in literals:
                bits = self._bits.get(base + p)
                if bits is None:
                    bits = self._literal_bits(sid, product.payloads[p])
                    self._bits[base + p] = bits
                mask &= bits if value else ~bits
            masks.append(mask)
        masks = tuple(masks)
        masks = self._masks[node] = self._interned.setdefault(masks, masks)
        return masks

    def _first_expansion(self, sid: int) -> tuple[int, ...]:
        ids = self._expanded[sid] = tuple(self._successors(sid))
        if sid not in self._charged:
            self._charged.add(sid)
            if self._charge is not None:
                self._charge(sid)
        return ids

    def _expansion(self, bit: int) -> tuple[
        Callable[[int], list[int]], dict[int, list[int]],
        dict[tuple[int, int], tuple[tuple[int, ...], list[int]]],
    ]:
        """``expand(node)`` under the valuation ``bit``, which lists an
        unexpanded node's successors into the memo and its sid into
        ``_order`` when it enables a transition; the memo; and the
        enabled destinations per (Büchi state, mask tuple).

        Nodes with one Büchi state and one mask tuple enable the same
        destinations, so each such pair is filtered once per search.
        The pair is keyed by the tuple's id: the context interns the
        tuples it computes and keeps each, so nodes with equal masks
        share one object whose id stays its own.
        """
        product = self.product
        n = product.n_states
        dsts_of, node_masks = product.dsts_of, self._masks
        expanded = self._expanded
        order = self._order = {}
        memo: dict[int, list[int]] = {}
        enabled: dict[tuple[int, int], tuple[tuple[int, ...], list[int]]] = {}

        def expand(node: int) -> list[int]:
            masks = node_masks.get(node)
            if masks is None:
                masks = self._node_masks(node)
            q = node % n
            key = (q, id(masks))
            entry = enabled.get(key)
            if entry is None:
                entry = enabled[key] = (masks, [
                    dst for dst, mask in zip(dsts_of[q], masks) if mask & bit
                ])
            dsts = entry[1]
            if dsts:
                sid = node // n
                order[sid] = None
                ids = expanded.get(sid)
                if ids is None:
                    ids = self._first_expansion(sid)
                nexts = [s * n + dst for dst in dsts for s in ids]
            else:
                nexts = []
            memo[node] = nexts
            return nexts

        return expand, memo, enabled

    def search(self, bit: int) -> tuple[Lasso | None, int | None]:
        """The lasso for the valuation ``bit``, over ids, and its
        dominated class.

        When ``outcomes`` holds one for ``bit``, :meth:`_replay`
        answers (counted in ``replayed``) and no product is built.
        Otherwise a plain walk (:meth:`_walk`) in the nested DFS's blue
        pre-order; only when it meets an accepting transition does the
        nested DFS run (:meth:`_nested_dfs`, counted in ``nested``),
        reading the successor ids and label bitsets the walk left in the
        context rather than asking, labelling or charging again.  In
        each case the lasso, the class, the asks and the charge order
        are the nested DFS's.  A search that ends clean hands its
        outcome to ``keep_outcome``.

        The class is None when a lasso is found.  Otherwise it is the
        valuations that, at every node this search expanded, enable only
        transitions ``bit`` enables: the search for one of them would
        walk a subgraph of the nodes this one expanded, which holds no
        accepting lasso, and expand no sid this context has not charged.
        """
        self.searches += 1
        kept = self._outcomes.get(bit)
        if kept is not None:
            self.replayed += 1
            return None, self._replay(*kept)
        self._built()
        dominated = self._walk(bit)
        if dominated is None:
            self.nested += 1
            lasso, dominated = self._nested_dfs(bit)
            if lasso is not None:
                return lasso, None
        self._keep_outcome(bit, (dominated, array("i", self._order)))
        return None, dominated

    def _replay(self, dominated: int, sids: array) -> int:
        """A kept clean search, in this context: ``dominated``, its
        class, after charging each of ``sids``, its expanded sids in
        first-expansion order, that this context has not charged.

        That is exactly what the search would charge here: its nodes
        and order depend only on the product key and the valuation, and
        the context's charged sids decide only which are new.  So the
        charges, the strikes and the deadline checks between them are
        the search's own.  A later search of this context that walks
        asks for a replayed sid's successors and does not charge it
        again.
        """
        charged, charge = self._charged, self._charge
        for sid in sids:
            if sid not in charged:
                charged.add(sid)
                if charge is not None:
                    charge(sid)
        return dominated

    def _walk(self, bit: int) -> int | None:
        """The dominated class of ``bit`` when the product has no
        accepting lasso under it; None as soon as a node enables a
        transition into an accepting Büchi state.  The sids it expands
        with an enabled transition go into ``_order``, in order.

        Marking a node when it is popped, skipping a marked one and
        pushing a node's successors in reverse visits the nodes in the
        order a recursive DFS first reaches them: the order in which the
        blue DFS of :meth:`_nested_dfs` expands them, and until a red DFS
        closes a cycle the nested DFS expands nothing else.  A cycle
        through an accepting node enters it by a transition into an
        accepting state, at a node the walk expands before the nested
        DFS could close that cycle.  So a walk that meets no such
        transition has shown that there is no accepting lasso, and a
        walk that meets one has asked, labelled and charged a prefix of
        what the nested DFS does, in its order: a struck walk strikes
        where the nested DFS would.  Enabled destinations are filtered
        once per (Büchi state, mask tuple), as in :meth:`_expansion`,
        and each filtering folds the masks read without ``bit`` into
        the class.
        """
        product = self.product
        n, accepting = product.n_states, product.accepting
        dsts_of, node_masks = product.dsts_of, self._masks
        expanded, children = self._expanded, self._children
        order = self._order = {}
        # per Büchi state: the id of a mask tuple -> its enabled
        # destinations, reversed for pushing (the context keeps every
        # tuple, so an id stays its tuple's)
        enabled: list[dict[int, list[int]]] = [{} for _ in range(n)]
        union = 0  # the valuations enabling a transition ``bit`` does not
        marked: set[int] = set()
        mark = marked.add
        stack = list(reversed(product.starts))
        pop, push = stack.pop, stack.extend
        while stack:
            node = pop()
            if node in marked:
                continue
            mark(node)
            masks = node_masks.get(node)
            if masks is None:
                masks = self._node_masks(node)
            q = node % n
            by_masks = enabled[q]
            dsts = by_masks.get(id(masks))
            if dsts is None:
                dsts = []
                for dst, mask in zip(dsts_of[q], masks):
                    if not mask & bit:
                        union |= mask
                    elif dst in accepting:
                        return None
                    else:
                        dsts.append(dst)
                dsts.reverse()
                by_masks[id(masks)] = dsts
            if dsts:
                order[node // n] = None
            base = node - q  # sid * n
            for dst in dsts:
                nexts = children.get(base + dst)
                if nexts is None:
                    sid = node // n
                    ids = expanded.get(sid)
                    if ids is None:
                        ids = self._first_expansion(sid)
                    nexts = children[base + dst] = [
                        s * n + dst for s in reversed(ids)
                    ]
                push(nexts)
        return product.all_mask & ~union

    def _nested_dfs(self, bit: int) -> tuple[Lasso | None, int | None]:
        """:meth:`search` by the nested DFS of Courcoubetis, Vardi,
        Wolper and Yannakakis.

        The outer (blue) DFS expands each node it reaches once, so the
        memo's key set is the set it has visited.  It launches the inner
        (red) DFS from each accepting node in post-order, when every
        node reachable from it other than through the blue DFS stack is
        expanded; a red DFS that closes a cycle yields the lasso, its
        stem read off the stack and its cycle found by a BFS from the
        accepting node back to itself.
        """
        product = self.product
        n, accepting = product.n_states, product.accepting
        expand, memo, enabled = self._expansion(bit)
        red: set[int] = set()
        for start in product.starts:
            if start in memo:
                continue
            on_path = {start}
            stack = [(start, iter(expand(start)))]
            while stack:
                node, nexts = stack[-1]
                for nxt in nexts:
                    if nxt not in memo:
                        on_path.add(nxt)
                        stack.append((nxt, iter(expand(nxt))))
                        break
                else:
                    # post-order: an accepting node seeds the red DFS
                    stack.pop()
                    on_path.discard(node)
                    if (
                        node % n in accepting and node not in red
                        and _red_dfs(node, memo, red, on_path)
                    ):
                        stem = [m for m, _nexts in stack]
                        stem.append(node)
                        nodes = stem + _cycle(node, memo, expand)
                        return Lasso([m // n for m in nodes],
                                     len(stem) - 1), None
        union = 0  # the valuations enabling a transition ``bit`` does not
        for masks, _dsts in enabled.values():
            for mask in masks:
                if not mask & bit:
                    union |= mask
        return None, product.all_mask & ~union

    def accepting_starts(self, bit: int) -> set[int]:
        """The ids of the initial states with an accepting run under the
        valuation ``bit``.

        One iterative Tarjan pass over the nodes reachable from the
        starts, expanded as :meth:`search` expands them.  Tarjan
        completes SCCs in reverse topological order, so each SCC is
        judged as it completes: it is good when it is a cycle through an
        accepting Büchi state or has an edge into a good SCC.  A start
        node has an accepting run exactly when its SCC is good.
        """
        product = self._built()
        n, accepting = product.n_states, product.accepting
        expand, memo, _enabled = self._expansion(bit)
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        stack: list[int] = []  # nodes of the SCCs not yet completed
        completed: set[int] = set()
        good: set[int] = set()
        for root in product.starts:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            work = [(root, iter(expand(root)))]
            while work:
                node, nexts = work[-1]
                for nxt in nexts:
                    if nxt not in index:
                        index[nxt] = low[nxt] = len(index)
                        stack.append(nxt)
                        work.append((nxt, iter(expand(nxt))))
                        break
                    if nxt not in completed and index[nxt] < low[node]:
                        low[node] = index[nxt]
                else:
                    work.pop()
                    if work and low[node] < low[work[-1][0]]:
                        low[work[-1][0]] = low[node]
                    if low[node] != index[node]:
                        continue
                    scc = [stack.pop()]
                    while scc[-1] != node:
                        scc.append(stack.pop())
                    completed.update(scc)
                    cycle = len(scc) > 1 or node in memo[node]
                    if (
                        cycle and any(m % n in accepting for m in scc)
                    ) or any(nxt in good for m in scc for nxt in memo[m]):
                        good.update(scc)
        return {node // n for node in product.starts if node in good}


def _red_dfs(seed: int, memo: dict, red: set, on_path: set) -> bool:
    """Inner DFS: search a path from ``seed`` back to ``seed`` (or to a
    node on the blue path, which also closes an accepting cycle).  The
    blue DFS has finished ``seed``, so every node reachable from it
    other than through the blue path is in ``memo``, and the inner DFS
    stops at the blue path."""
    stack = [seed]
    local: set = set()
    while stack:
        for nxt in memo[stack.pop()]:
            if nxt == seed or nxt in on_path:
                return True
            if nxt not in red and nxt not in local:
                local.add(nxt)
                stack.append(nxt)
    red.update(local)
    red.add(seed)
    return False


def _cycle(start: int, memo: dict, expand) -> list[int]:
    """The nodes after ``start`` on a shortest cycle back to it, by a
    BFS (one exists once the red DFS closed a cycle).  The BFS may pass
    through the blue DFS stack to nodes not yet expanded, so it expands
    them as the search would, charges included."""
    back: dict = {}
    queue = deque([start])
    seen = {start}
    while queue:
        node = queue.popleft()
        nexts = memo.get(node)
        for nxt in expand(node) if nexts is None else nexts:
            if nxt == start:
                cycle = []
                while node != start:
                    cycle.append(node)
                    node = back[node]
                cycle.reverse()
                return cycle
            if nxt not in seen:
                seen.add(nxt)
                back[nxt] = node
                queue.append(nxt)
    raise RuntimeError(  # pragma: no cover - the red DFS closed a cycle
        "accepting cycle vanished during reconstruction"
    )
