"""Precompiled rule plans and hash-consing for one Web service.

A :class:`CompiledService` holds, for every page, the compiled
:class:`~repro.fol.compile.CompiledQuery` /
:class:`~repro.fol.compile.CompiledFormula` plans of its input-option,
state, action and target rules — compiled once per (service, process)
and shared by every :class:`~repro.service.runs.RunContext` over the
service, including one compilation per worker process in the parallel
backend (the service object is unpickled once per worker, so the
weak-keyed cache below makes "compile once per worker per TaskSpec"
automatic).

Rule order is preserved exactly (declaration order within a kind;
state rules grouped by sorted state name as in ``_updated_state``), so
evaluation order — and therefore the timing of
:class:`~repro.fol.evaluation.MissingInputConstantError`, error
condition (i) — is identical to the reference interpreter's.

**Static pruning**: :func:`compiled_service` consults the
whole-service dataflow facts of :mod:`repro.analysis.dataflow` and
skips plans that provably cannot influence any run — whole pages no
executable path enters, the state/action/target rules of pages that
always fire error condition (ii), and rules whose condition is refuted
under the abstract environment *and* reads no input constant (reading
one is semantics: error condition (i)).  Dropping a plan is
observationally neutral by construction: no run enters an absent page,
so looking one up raises (a dataflow bug, not a case to handle), while
an absent rule's plan would have evaluated to false/empty without
raising.  ``CompiledService(service, prune=False)`` keeps every plan;
the step-level differential in ``tests/test_dataflow.py`` compares the
two at every reachable snapshot.

:class:`SnapshotInterner` hash-conses the :class:`Instance`s and
:class:`Snapshot`s produced while exploring one run context: equal
configurations collapse to one object, so the BFS ``seen`` sets and
successor caches hash each distinct snapshot once (snapshots memoise
their hash) and equality checks usually short-circuit on identity.

:class:`ExplorationCache` (``CompiledService.exploration``) keeps what
the verifiers explored per (database, extra domain) — snapshots
numbered once, successor-id tuples keyed by snapshot id and the sigma a
step from it reads, the LTL-FO labeller's atom label bitsets, and
completed Kripke structures — so later calls over the same service
object read the graph instead of stepping and labelling again.  It
lives and dies with the compiled service and holds at most
:data:`EXPLORATION_CACHE_ENTRIES` entries, evicting least-recently-used
databases first.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable

from repro.fol.compile import (
    CompiledFormula,
    CompiledQuery,
    compile_formula,
    compile_query,
    register_cache_clearer,
)
from repro.schema.symbols import prev_symbol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runs.py)
    from repro.ctl.kripke import KripkeStructure
    from repro.service.webservice import WebService

__all__ = [
    "CompiledPage",
    "CompiledService",
    "EXPLORATION_CACHE_ENTRIES",
    "ExplorationCache",
    "ExploredGraph",
    "SnapshotInterner",
    "compiled_service",
    "warm_service_plans",
    "pruning_stats",
]


class CompiledPage:
    """One page's step plan: its compiled rules, in evaluation order, and
    the symbols a step reads, resolved against ``schema`` once.

    ``state_updates`` and ``action_rules`` are keyed by the head's
    :class:`~repro.schema.symbols.RelationSymbol`; ``inputs`` holds the
    page's input symbols in ``page.inputs`` order, ``prev_pairs`` each of
    them with its ``prev_I`` symbol, ``requested`` the input constants
    the page requests (what a step adds to Γ), and ``step_constants``
    those plus the constants requested by every page a target rule
    names: beyond Γ_{i-1}, all a step from this page can read of sigma.

    ``dead`` holds ``(kind, index)`` pairs of rules whose plans are
    skipped (dataflow pruning); indices refer to declaration order
    within the page's per-kind rule lists.  Skipping keeps relative
    order of surviving plans — and, for input rules, leaves the options
    key absent, which ``enumerate_choices`` reads as the empty set the
    dead plan would have produced.
    """

    __slots__ = (
        "name", "input_rules", "state_updates", "action_rules", "target_rules",
        "inputs", "prev_pairs", "requested", "step_constants",
        "pruned_rules",
    )

    def __init__(
        self, page, service: "WebService",
        dead: frozenset[tuple[str, int]] = frozenset(),
    ) -> None:
        schema = service.schema
        self.name: str = page.name
        self.pruned_rules: int = 0

        def keep(kind: str, index: int) -> bool:
            if (kind, index) in dead:
                self.pruned_rules += 1
                return False
            return True

        # Rule formulas are evaluated with an empty environment, so every
        # plan below is compiled against the empty scope.
        self.input_rules: tuple[tuple[str, CompiledQuery], ...] = tuple(
            (rule.input, compile_query(rule.formula, rule.variables))
            for i, rule in enumerate(page.input_rules)
            if keep("input", i)
        )
        # Grouped exactly as _updated_state walks them: state names in
        # sorted order, each state's rules in declaration order.  A
        # group emptied by pruning keeps its key: _updated_state then
        # computes new = (old - ∅) ∪ ∅ = old, same as not running it.
        by_state: dict[str, list] = {}
        for i, rule in enumerate(page.state_rules):
            if keep("state", i):
                by_state.setdefault(rule.state, []).append(
                    (rule.insert, compile_query(rule.formula, rule.variables))
                )
        self.state_updates: tuple = tuple(
            (schema.state[state_name], tuple(by_state.get(state_name, ())))
            for state_name in sorted(page.updated_states())
        )
        self.action_rules: tuple = tuple(
            (schema.action[rule.action],
             compile_query(rule.formula, rule.variables))
            for i, rule in enumerate(page.action_rules)
            if keep("action", i)
        )
        self.target_rules: tuple[tuple[str, CompiledFormula], ...] = tuple(
            (rule.target, compile_formula(rule.formula))
            for i, rule in enumerate(page.target_rules)
            if keep("target", i)
        )
        self.inputs: tuple = tuple(schema.input[name] for name in page.inputs)
        self.prev_pairs: tuple = tuple(
            (sym, prev_symbol(sym)) for sym in self.inputs
        )
        self.requested: frozenset[str] = frozenset(page.input_constants)
        # The next page is a target-rule target or this page; pruned
        # target rules stay in, which only makes the scope wider.
        targets = {rule.target for rule in page.target_rules}
        self.step_constants: frozenset[str] = self.requested.union(*(
            service.pages[target].input_constants
            for target in targets if target in service.pages
        ))

    @property
    def n_plans(self) -> int:
        return (
            len(self.input_rules)
            + sum(len(plans) for _, plans in self.state_updates)
            + len(self.action_rules)
            + len(self.target_rules)
        )


class CompiledService:
    """All rule plans of a service, keyed by page name.

    With ``prune=True`` (what :func:`compiled_service` builds) the
    dataflow facts of :mod:`repro.analysis.dataflow` drop pages no
    executable path enters and rules that provably never fire;
    ``pruned_rules`` / ``pruned_pages`` count what was skipped.
    ``prune=False`` keeps every plan: the reference the differential
    tests compare the pruned plans against.  ``exploration`` is the
    service's :class:`ExplorationCache`; ``automata`` maps each negated
    LTL-FO skeleton verified against the service to its Büchi
    automaton, a deterministic function of the formula (an entry is
    written whole, so a racing store keeps an equal automaton).
    """

    __slots__ = ("pages", "n_plans", "pruned_rules", "pruned_pages",
                 "literals", "exploration", "automata")

    def __init__(self, service: "WebService", prune: bool = False) -> None:
        self.pruned_rules: int = 0
        self.pruned_pages: int = 0
        dead_pages: frozenset[str] = frozenset()
        dead_by_page: dict[str, set[tuple[str, int]]] = {}
        if prune:
            # lazy import: the analysis layer must not be a hard
            # dependency of plain (unpruned) compilation
            from repro.analysis.dataflow import static_facts

            facts = static_facts(service)
            dead_pages = facts.dead_pages
            for page_name, kind, index in facts.prunable_keys():
                dead_by_page.setdefault(page_name, set()).add((kind, index))
        self.pages: dict[str, CompiledPage] = {}
        for name, page in service.pages.items():
            if name in dead_pages:
                self.pruned_pages += 1
                self.pruned_rules += (
                    len(page.input_rules) + len(page.state_rules)
                    + len(page.action_rules) + len(page.target_rules)
                )
                continue
            compiled = CompiledPage(
                page, service, frozenset(dead_by_page.get(name, ()))
            )
            self.pruned_rules += compiled.pruned_rules
            self.pages[name] = compiled
        self.n_plans: int = sum(p.n_plans for p in self.pages.values())
        # The specification's literal constants, which every run
        # context adds to its quantification domain.
        self.literals: frozenset = service.literal_constants()
        self.exploration = ExplorationCache()
        self.automata: dict = {}

    def extra_domain(self, extra: Iterable = ()) -> frozenset:
        """The quantification domain a run context adds to its
        database's: ``extra`` plus the specification's literals."""
        return frozenset(extra) | self.literals

    def page(self, name: str) -> CompiledPage:
        """The plans of page ``name``.

        A page pruning dropped has none: the dataflow analysis proved no
        run enters it, so reaching it is a dataflow bug and raises.
        """
        try:
            return self.pages[name]
        except KeyError:
            raise KeyError(
                f"page {name!r} was pruned as unreachable, yet a run "
                "entered it: dataflow analysis bug"
            ) from None


# One compiled form per live service object per process.  Weak keys:
# a discarded service drops its plans and its exploration cache with
# it.  That holds only while no value refers back to its key, which is
# why a CompiledService keeps no reference to its service.
_CACHE: "weakref.WeakKeyDictionary[WebService, CompiledService]" = (
    weakref.WeakKeyDictionary()
)

# clear_compile_cache() must invalidate this layer too: a live service
# object otherwise keeps serving CompiledPage plans built before the
# clear, defeating the clear entirely.
register_cache_clearer(_CACHE.clear)


def compiled_service(service: "WebService") -> CompiledService:
    """The cached, pruned compiled form of ``service``."""
    compiled = _CACHE.get(service)
    if compiled is None:
        compiled = CompiledService(service, prune=True)
        _CACHE[service] = compiled
    return compiled


def warm_service_plans(service: "WebService") -> int:
    """Ensure the service's plans exist; the number of plans.

    Called by the verification entry points (next to the Büchi/Kripke
    construction, under the ``plan.compiled`` trace event) and by the
    parallel backend's worker initialiser, so units never pay compile
    time.
    """
    return compiled_service(service).n_plans


def pruning_stats(service: "WebService") -> tuple[int, int]:
    """``(pruned_rules, pruned_pages)`` of the service's cached plans.

    Feeds the ``plan.pruned`` trace event at the verification entry
    points.
    """
    compiled = compiled_service(service)
    return (compiled.pruned_rules, compiled.pruned_pages)


class SnapshotInterner:
    """Hash-consing for the instances and snapshots of one exploration."""

    __slots__ = ("_snapshots", "_instances")

    def __init__(self) -> None:
        self._snapshots: dict = {}
        self._instances: dict = {}

    def snapshot(self, snap):
        """The canonical representative of ``snap``."""
        return self._snapshots.setdefault(snap, snap)

    def instance(self, inst):
        """The canonical representative of ``inst``."""
        return self._instances.setdefault(inst, inst)

    def __len__(self) -> int:
        return len(self._snapshots) + len(self._instances)


#: Cap on the explored-graph entries one service retains: a successor-id
#: tuple, a label bitset or a Kripke state counts one.  At the sizes
#: measured on the benchmark workloads (EXPERIMENTS, E20 and E23: about
#: 1 KB per Kripke state, 0.24 KB per LTL entry), a full cache holds
#: at most some 68 MB, and some 16 MB of LTL entries.
EXPLORATION_CACHE_ENTRIES = 1 << 16


class ExploredGraph:
    """What has been explored over one (database, extra domain) pair.

    Snapshots are numbered once, when first stored: ``snapshots[sid]``
    is snapshot ``sid`` and ``ids`` maps it back.  ``successor_ids``
    maps ``(sid, sigma restricted to what a step from it reads)`` (see
    :meth:`~repro.service.runs.RunContext.step_sigma`) to the
    successors' ids; ``labels`` maps a label key to a ``sid -> bitset``
    dict (see :meth:`ExplorationCache.label_memo`); ``structure`` is
    ``(structure, n_initial)`` once a
    :func:`~repro.verifier.branching.build_snapshot_kripke` call over
    the pair completed.  All are only ever added to, and what they hold
    is immutable.  ``size`` counts the entries charged to the cap;
    ``retained`` turns False when the cache drops the graph, after which
    the calls still holding it keep filling it for themselves.  A graph
    holds no reference to its cache: without a cycle, reference counting
    frees a dropped cache and its graphs at once.
    """

    __slots__ = ("key", "ids", "snapshots", "successor_ids", "labels",
                 "structure", "size", "retained")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.ids: dict = {}
        self.snapshots: list = []
        self.successor_ids: dict[tuple, tuple[int, ...]] = {}
        self.labels: dict[tuple, dict[int, int]] = {}
        self.structure: tuple[KripkeStructure, int] | None = None
        self.size = 0
        self.retained = True


class ExplorationCache:
    """The configuration graphs one service has explored, bounded.

    Under Definition 2.3 the snapshot graph of a (database, sigma) pair
    is a function of the service, the database, sigma and the
    quantification domain, and so is the truth of an FO component at
    each of its snapshots, so every property checked over one database
    can share both.  One :class:`ExploredGraph` per (database, extra
    domain) pair, keyed by value and kept in least-recently-used order;
    callers :meth:`open` one per exploration.  When an insert takes the
    entry count past ``cap`` (:data:`EXPLORATION_CACHE_ENTRIES`), whole
    graphs are dropped, least recently used first; a graph that alone
    would exceed the cap is dropped itself and serves only the calls
    holding it.  The lock guards the order, the entry count, snapshot
    numbering and every store, so concurrent verifications may share one
    service; lookups (:meth:`successor_ids`, :meth:`kripke`, a label
    memo's ``get``) read a graph's dicts without it.  The hit and miss
    counters are exact in a single-threaded run.
    """

    def __init__(self) -> None:
        self.cap = EXPLORATION_CACHE_ENTRIES
        self._graphs: OrderedDict[tuple, ExploredGraph] = OrderedDict()
        self._lock = threading.Lock()
        self.entries = 0
        self.successor_hits = 0
        self.successor_misses = 0
        self.label_hits = 0
        self.label_misses = 0
        self.kripke_hits = 0
        self.kripke_misses = 0
        self.evictions = 0

    def open(self, database, extra_domain: frozenset) -> ExploredGraph:
        """The graph of ``(database, extra_domain)``, most recently used
        from now on; a new, empty one when none is held."""
        key = (database, extra_domain)
        with self._lock:
            graph = self._graphs.get(key)
            if graph is None:
                graph = self._graphs[key] = ExploredGraph(key)
            else:
                self._graphs.move_to_end(key)
        return graph

    def number(self, graph: ExploredGraph, snaps) -> tuple[int, ...]:
        """The ids of ``snaps`` in ``graph``, numbering the new ones."""
        found = tuple(map(graph.ids.get, snaps))
        if None not in found:
            return found
        with self._lock:
            return self._number(graph, snaps)

    def successor_ids(
        self, graph: ExploredGraph, ctx, sid: int, step
    ) -> tuple[int, ...]:
        """The successors' ids of snapshot ``sid`` in ``ctx``: the tuple
        ``graph`` holds, or ``step(ctx, snapshot)`` (the caller's
        ``successors``) numbered and stored there as one."""
        snap = graph.snapshots[sid]
        key = (sid, ctx.step_sigma(snap))
        found = graph.successor_ids.get(key)
        if found is not None:
            self.successor_hits += 1
            return found
        return self._store_successors(graph, key, step(ctx, snap))

    def label_memo(self, graph: ExploredGraph, key: tuple) -> dict[int, int]:
        """The ``sid -> bitset`` dict ``graph`` keeps for ``key``, made
        empty when absent.

        ``key`` must hold everything a label bitset depends on beyond
        the snapshot and the graph's own key; the LTL-FO labeller's is
        the payload with its closure variables renamed by position, the
        block's layout and sigma restricted to Γ_i.  Read the dict
        without the lock; store into it with :meth:`store_label`.
        """
        memo = graph.labels.get(key)
        if memo is None:
            with self._lock:
                memo = graph.labels.setdefault(key, {})
        return memo

    def store_label(
        self, graph: ExploredGraph, memo: dict[int, int], sid: int, bits: int
    ) -> None:
        """Keep the complete bitset ``bits`` of ``sid`` in ``memo``."""
        with self._lock:
            self.label_misses += 1
            if sid not in memo:
                memo[sid] = bits
                self._grow(graph, 1)

    def kripke(
        self, graph: ExploredGraph
    ) -> "tuple[KripkeStructure, int] | None":
        """The ``(structure, n_initial)`` ``graph`` holds, or None."""
        stored = graph.structure
        if stored is None:
            self.kripke_misses += 1
        else:
            self.kripke_hits += 1
        return stored

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "databases": len(self._graphs),
                "entries": self.entries,
                "successor_hits": self.successor_hits,
                "successor_misses": self.successor_misses,
                "label_entries": sum(
                    len(memo) for graph in self._graphs.values()
                    for memo in graph.labels.values()
                ),
                "label_hits": self.label_hits,
                "label_misses": self.label_misses,
                "kripke_hits": self.kripke_hits,
                "kripke_misses": self.kripke_misses,
                "evicted_databases": self.evictions,
            }

    def _number(self, graph: ExploredGraph, snaps) -> tuple[int, ...]:
        # Under the lock.  The snapshot is listed before its id is
        # published, so a reader that finds the id can index the list.
        ids, snapshots = graph.ids, graph.snapshots
        out = []
        for snap in snaps:
            sid = ids.get(snap)
            if sid is None:
                sid = len(snapshots)
                snapshots.append(snap)
                ids[snap] = sid
            out.append(sid)
        return tuple(out)

    def _store_successors(
        self, graph: ExploredGraph, key: tuple, succ
    ) -> tuple[int, ...]:
        with self._lock:
            self.successor_misses += 1
            found = graph.successor_ids.get(key)
            if found is None:
                graph.successor_ids[key] = found = self._number(graph, succ)
                self._grow(graph, 1)
        return found

    def store_kripke(
        self, graph: ExploredGraph, structure: "KripkeStructure",
        n_initial: int,
    ) -> None:
        """Keep a completed structure with its initial-state count."""
        with self._lock:
            if graph.structure is None:
                graph.structure = (structure, n_initial)
                self._grow(graph, structure.n_states)

    def _grow(self, graph: ExploredGraph, n: int) -> None:
        """Charge ``n`` new entries of ``graph``, then restore the cap."""
        if not graph.retained:
            return
        if graph.size + n > self.cap:
            self._drop(graph)
            return
        graph.size += n
        self.entries += n
        while self.entries > self.cap:
            self._drop(next(
                g for g in self._graphs.values() if g is not graph
            ))

    def _drop(self, graph: ExploredGraph) -> None:
        del self._graphs[graph.key]
        graph.retained = False
        self.entries -= graph.size
        self.evictions += 1
