"""Reference products for the Büchi emptiness checks.

The library decides emptiness of a system × Büchi product on one
construction, :class:`repro.ltl.buchi.CompiledProduct`: int nodes with
per-node enable masks over a block of valuations.  The references the
tests compare it with are simpler products, over ``(state, q)`` tuples
and one letter function at a time:

- :func:`find_accepting_lasso` — nested DFS over the on-the-fly tuple
  product, against :meth:`CompiledProduct.search`;
- :func:`accepting_product_states` — the full tuple product, its SCCs
  and backward reachability to the accepting cycles, against
  :meth:`CompiledProduct.accepting_starts`;
- :func:`_search_valuations` — the LTL-FO search one valuation at a
  time, one :func:`find_accepting_lasso` per valuation, against the
  verifier's ``_search_product``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from repro.ltl.buchi import (
    BuchiAutomaton,
    BuchiTransition,
    Lasso,
    Payload,
    SuccFn,
    SystemState,
    nested_dfs,
)
from repro.service.runs import Snapshot

LabelFn = Callable[[SystemState, Payload], bool]


def enabled(
    ba: BuchiAutomaton, q: int, label: Callable[[Payload], bool]
) -> Iterator[BuchiTransition]:
    """Transitions from ``q`` compatible with the letter ``label``."""
    for t in ba.transitions_from[q]:
        if all(label(payload) == value for payload, value in t.literals):
            yield t


def find_accepting_lasso(
    ba: BuchiAutomaton,
    initial_states: Iterable[SystemState],
    successors: SuccFn,
    label: LabelFn,
) -> Lasso | None:
    """Nested DFS for an accepting lasso in the on-the-fly product.

    The product pairs a system state ``s`` (whose label is the letter
    being read) with a Büchi state ``q`` (the automaton state *before*
    reading that letter).  Returns the lasso projected to system states,
    or None when the product language is empty.
    """
    init_product = [
        (s, q) for s in initial_states for q in sorted(ba.initial)
    ]

    def product_successors(node: tuple[SystemState, int]) -> Iterator[tuple[SystemState, int]]:
        s, q = node
        letter = lambda payload: label(s, payload)
        for t in enabled(ba, q, letter):
            for s2 in successors(s):
                yield (s2, t.dst)

    found = nested_dfs(
        init_product, product_successors, lambda node: node[1] in ba.accepting
    )
    if found is None:
        return None
    nodes, loop_index = found
    return Lasso(states=[s for s, _q in nodes], loop_index=loop_index)


def accepting_product_states(
    ba: BuchiAutomaton,
    system_states: Sequence[SystemState],
    successors: SuccFn,
    label: LabelFn,
) -> set[SystemState]:
    """System states from which some path satisfies the automaton.

    Builds the full product over the given (finite) system state set,
    finds the cycles through accepting Büchi states, and returns every
    system state ``s`` such that some initial Büchi state paired with
    ``s`` can reach such a cycle.  This is the ``Eψ`` subroutine of the
    CTL* model checker.
    """
    graph: dict = {(s, q): [] for s in system_states for q in range(ba.n_states)}
    for s in system_states:
        letter = lambda payload, _s=s: label(_s, payload)
        for q in range(ba.n_states):
            out = graph[(s, q)]
            for t in enabled(ba, q, letter):
                for s2 in successors(s):
                    out.append((s2, t.dst))

    # nodes on an accepting cycle: a component with more than one node,
    # or one node with a self-loop, holding an accepting Büchi state
    seeds: set = set()
    for scc in _strongly_connected_components(graph):
        has_cycle = len(scc) > 1 or scc[0] in graph.get(scc[0], ())
        if has_cycle and any(q in ba.accepting for _s, q in scc):
            seeds.update(scc)

    # backward reachability to the seeds
    preds: dict = {}
    for node, nexts in graph.items():
        for nxt in nexts:
            preds.setdefault(nxt, []).append(node)
    reach = set(seeds)
    frontier = list(seeds)
    while frontier:
        node = frontier.pop()
        for pred in preds.get(node, ()):
            if pred not in reach:
                reach.add(pred)
                frontier.append(pred)

    return {
        s
        for s in system_states
        if any((s, q) in reach for q in ba.initial)
    }


def _strongly_connected_components(
    graph: dict[Hashable, Iterable[Hashable]],
) -> list[list[Hashable]]:
    """The strongly connected components of a successor map (Tarjan).

    Iterative, so deep products never hit the recursion limit.  A node
    that appears only as a successor has no successors of its own.
    """
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    sccs: list[list[Hashable]] = []
    for root in graph:
        if root in index:
            continue
        work = [(root, iter(graph.get(root, ())))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, nexts = work[-1]
            for nxt in nexts:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(graph.get(nxt, ()))))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    scc = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    sccs.append(scc)
    return sccs


def _search_valuations(
    ba, starts, succ, labeller, names, valuation_domain, gov, stats
):
    """Valuation-at-a-time lasso search (the reference engine).

    One product search per valuation of the universal closure; label
    results are pure per (snapshot, payload) at a fixed valuation and
    the search revisits product states, so they are memoised per
    valuation.  Returns ``(lasso, valuation)`` or None.  The verifier
    runs ``repro.verifier.linear._search_product``; the tests compare it
    with this one.
    """
    for combo in itertools.product(valuation_domain, repeat=len(names)):
        gov.charge_valuation()
        stats["valuations_checked"] += 1
        valuation = dict(zip(names, combo))
        memo: dict = {}

        def label(snap: Snapshot, payload, _env=valuation, _memo=memo) -> bool:
            key = (id(payload), snap)
            value = _memo.get(key)
            if value is None:
                value = labeller(snap, payload, _env)
                _memo[key] = value
            return value

        lasso = find_accepting_lasso(ba, starts, succ, label)
        if lasso is not None:
            return lasso, valuation
    return None
