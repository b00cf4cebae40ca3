"""LTL → Büchi automata and emptiness on products.

The construction is the classical tableau: automaton states are sets of
*obligations* (NNF subformulas still to be satisfied), expanded into
*covers* — consistent choices of literals to check now, obligations to
pass to the next position, and until-formulas whose fulfilment was
postponed.  Postponement yields a transition-based generalised Büchi
acceptance (one set per until), degeneralised into an ordinary Büchi
automaton with a round-robin counter.

Emptiness of the product with a transition system is decided on one
construction, :class:`CompiledProduct`: int product nodes, expanded
lazily, with per-node enable masks over the valuations of a bitset
block.  It answers two questions:

- :meth:`CompiledProduct.search` — a concrete accepting lasso for one
  valuation, by the nested DFS of :func:`nested_dfs` (the verifier's
  counterexample search);
- :meth:`CompiledProduct.accepting_starts` — every start state with an
  accepting run, by one Tarjan pass (the CTL* model checker's ``Eψ``
  subroutine).

The tests compare both with simpler products over ``(state, q)`` tuples
(``tests/product_reference.py``).
"""

from __future__ import annotations

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
Node = Hashable  # a product node, opaque to the nested DFS


@dataclass
class Lasso:
    """An accepting product lasso projected onto the system states."""

    states: list[SystemState]
    loop_index: int


def nested_dfs(
    starts: Iterable[Node],
    expand: Callable[[Node], Iterable[Node]],
    accepting: Callable[[Node], bool],
) -> tuple[list[Node], int] | None:
    """The nested DFS of Courcoubetis, Vardi, Wolper and Yannakakis.

    Nodes are opaque: ``expand(node)`` iterates a node's successors and
    ``accepting(node)`` says whether it is accepting.  The outer (blue)
    DFS launches the inner (red) DFS from each accepting node in
    post-order; an inner DFS that closes a cycle yields the lasso.  An
    iterator returned by ``expand`` is advanced lazily, once per child
    the blue DFS descends into.

    Returns ``(nodes, loop_index)``, the stem followed by the cycle
    (``nodes[-1]`` steps back to ``nodes[loop_index]``, the accepting
    node), or None when no accepting lasso is reachable.
    """
    blue: set = set()
    red: set = set()
    parent: dict = {}
    for start in starts:
        if start in blue:
            continue
        parent.setdefault(start, None)
        blue.add(start)
        on_path = {start}
        stack = [(start, iter(expand(start)))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt not in blue:
                    blue.add(nxt)
                    parent[nxt] = node
                    on_path.add(nxt)
                    stack.append((nxt, iter(expand(nxt))))
                    break
            else:
                # post-order: an accepting node seeds the red DFS
                stack.pop()
                on_path.discard(node)
                if (
                    accepting(node) and node not in red
                    and _red_dfs(node, expand, red, on_path)
                ):
                    return _build_lasso(node, parent, expand)
    return None


def _red_dfs(seed: Node, expand, red: set, on_path: set) -> bool:
    """Inner DFS: search a path from ``seed`` back to ``seed`` (or to a
    node on the blue path, which also closes an accepting cycle)."""
    stack = [seed]
    local: set = set()
    while stack:
        node = stack.pop()
        for nxt in expand(node):
            if nxt == seed or nxt in on_path:
                return True
            if nxt not in red and nxt not in local:
                local.add(nxt)
                stack.append(nxt)
    red.update(local)
    red.add(seed)
    return False


def _build_lasso(
    accepting_node: Node, parent: dict, expand
) -> tuple[list[Node], int]:
    """Reconstruct a lasso through ``accepting_node``.

    The stem comes from the blue-DFS parent pointers; the cycle is found
    by a BFS from the accepting node back to itself (guaranteed to exist
    once the red DFS succeeded).
    """
    stem = [accepting_node]
    while parent.get(stem[-1]) is not None:
        stem.append(parent[stem[-1]])
    stem.reverse()

    # cycle: accepting_node -> accepting_node, BFS over the product
    start = accepting_node
    back: dict = {}
    queue = deque([start])
    seen = {start}
    found = False
    while queue and not found:
        node = queue.popleft()
        for nxt in expand(node):
            if nxt == start:
                back[start] = node
                found = True
                break
            if nxt not in seen:
                seen.add(nxt)
                back[nxt] = node
                queue.append(nxt)
    if not found:  # pragma: no cover - red DFS guarantees a cycle
        raise RuntimeError("accepting cycle vanished during reconstruction")

    cycle = []
    node = back[start]
    while node != start:
        cycle.append(node)
        node = back[node]
    cycle.reverse()
    return stem + cycle, len(stem) - 1


class CompiledProduct:
    """The product of a lazily explored system with ``ba``, over ints,
    searched once per valuation of a block.

    System states are the caller's ids, non-negative ints: the starts
    are ids, ``successors(sid)`` returns ids, and the letters are
    valuation bitsets, ``literal_bits(sid, payload)`` being the set of
    valuations (bit *i* for valuation *i*, within ``all_mask``) under
    which ``payload`` holds at ``sid``.  The verifier passes an explored
    graph's snapshot ids (``ExploredGraph``), and the CTL* model checker
    a Kripke structure's state ids; lassos and start sets come back as
    ids, which the caller maps to its states.  A product node is the int
    ``sid * n_states + q``.  The product keeps, across searches,

    - each sid's successors, from one ``successors(sid)`` call, made on
      the sid's first expansion with an enabled transition;
    - each expanded node's enable masks, one per transition of ``q``:
      the valuations agreeing with all its literals (the AND of the
      literal bitsets, or of their complements), built from bitsets
      asked for once per (sid, payload).

    :meth:`search` runs :func:`nested_dfs` for one valuation with a
    per-search memo of successor lists.  It makes the first
    ``successors`` call per state that a nested DFS over the
    ``(state, q)`` product makes for that valuation, at the same point,
    and finds the same lasso; it never asks for a state's successors
    twice.  :meth:`accepting_starts` walks the same expansion.
    """

    def __init__(
        self,
        ba: BuchiAutomaton,
        initial_states: Iterable[int],
        successors: Callable[[int], Iterable[int]],
        literal_bits: Callable[[int, Payload], int],
        all_mask: int,
    ) -> None:
        self.n_states = n = ba.n_states
        self.accepting = ba.accepting
        self._successors = successors
        self._literal_bits = literal_bits
        self._all_mask = all_mask
        # The automaton over ints: state q's transitions as their
        # literals, (payload number, value) pairs, and destinations.
        payloads: dict = {}
        self._literals_of: list[tuple[tuple[tuple[int, bool], ...], ...]] = []
        self._dsts_of: list[tuple[int, ...]] = []
        for outs in ba.transitions_from:
            self._literals_of.append(tuple(
                tuple(
                    (payloads.setdefault(payload, len(payloads)), value)
                    for payload, value in t.literals
                )
                for t in outs
            ))
            self._dsts_of.append(tuple(t.dst for t in outs))
        self._payloads = list(payloads)
        self._succ: dict[int, list[int]] = {}  # sid -> successors' sid * n
        self._bits: dict[int, int] = {}  # at sid * n_payloads + payload
        self._masks: dict[int, tuple[int, ...]] = {}  # at node
        self.starts = [
            sid * n + q for sid in initial_states for q in sorted(ba.initial)
        ]

    def _successor_bases(self, sid: int) -> list[int]:
        n = self.n_states
        bases = self._succ[sid] = [s * n for s in self._successors(sid)]
        return bases

    def _node_masks(self, node: int) -> tuple[int, ...]:
        sid, q = divmod(node, self.n_states)
        base = sid * len(self._payloads)
        masks = []
        for literals in self._literals_of[q]:
            mask = self._all_mask
            for p, value in literals:
                bits = self._bits.get(base + p)
                if bits is None:
                    bits = self._literal_bits(sid, self._payloads[p])
                    self._bits[base + p] = bits
                mask &= bits if value else ~bits
            masks.append(mask)
        masks = self._masks[node] = tuple(masks)
        return masks

    def _expansion(
        self, bit: int
    ) -> tuple[Callable[[int], list[int]], dict[int, list[int]]]:
        """``expand(node)`` under the valuation ``bit``, and its memo of
        the successor lists it has returned."""
        n = self.n_states
        dsts_of, node_masks, succ = self._dsts_of, self._masks, self._succ
        memo: dict[int, list[int]] = {}

        def expand(node: int) -> list[int]:
            nexts = memo.get(node)
            if nexts is None:
                masks = node_masks.get(node)
                if masks is None:
                    masks = self._node_masks(node)
                dsts = [
                    dst for dst, mask in zip(dsts_of[node % n], masks)
                    if mask & bit
                ]
                if dsts:
                    bases = succ.get(node // n)
                    if bases is None:
                        bases = self._successor_bases(node // n)
                    nexts = [base + dst for dst in dsts for base in bases]
                else:
                    nexts = []
                memo[node] = nexts
            return nexts

        return expand, memo

    def search(self, bit: int) -> tuple[Lasso | None, int | None]:
        """The lasso for the valuation ``bit``, over ids, and its clean
        class.

        The class is None when a lasso is found.  Otherwise it is the
        valuations that agree with ``bit`` on every enable mask of every
        node this search expanded: they would expand the same nodes to
        the same successor lists, so their searches are clean too.
        """
        n, accepting = self.n_states, self.accepting
        expand, memo = self._expansion(bit)
        found = nested_dfs(
            self.starts, expand, lambda node: node % n in accepting
        )
        if found is not None:
            nodes, loop_index = found
            sids = [node // n for node in nodes]
            return Lasso(states=sids, loop_index=loop_index), None
        node_masks = self._masks
        clean = self._all_mask
        for mask in {mask for node in memo for mask in node_masks[node]}:
            clean &= mask if mask & bit else ~mask
        return None, clean

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
        n, accepting = self.n_states, self.accepting
        expand = self._expansion(bit)[0]
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        stack: list[int] = []  # nodes of the SCCs not yet completed
        completed: set[int] = set()
        good: set[int] = set()
        for root in self.starts:
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
                    cycle = len(scc) > 1 or node in expand(node)
                    if (
                        cycle and any(m % n in accepting for m in scc)
                    ) or any(nxt in good for m in scc for nxt in expand(m)):
                        good.update(scc)
        return {node // n for node in self.starts if node in good}
