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
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.fol.compile import (
    CompiledFormula,
    CompiledQuery,
    compile_formula,
    compile_query,
    register_cache_clearer,
)
from repro.schema.symbols import prev_symbol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runs.py)
    from repro.service.webservice import WebService

__all__ = [
    "CompiledPage",
    "CompiledService",
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
    them with its ``prev_I`` symbol, and ``requested`` the input
    constants the page requests (what a step adds to Γ).

    ``dead`` holds ``(kind, index)`` pairs of rules whose plans are
    skipped (dataflow pruning); indices refer to declaration order
    within the page's per-kind rule lists.  Skipping keeps relative
    order of surviving plans — and, for input rules, leaves the options
    key absent, which ``enumerate_choices`` reads as the empty set the
    dead plan would have produced.
    """

    __slots__ = (
        "name", "input_rules", "state_updates", "action_rules", "target_rules",
        "inputs", "prev_pairs", "requested", "pruned_rules",
    )

    def __init__(
        self, page, schema, dead: frozenset[tuple[str, int]] = frozenset()
    ) -> None:
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
    tests compare the pruned plans against.
    """

    __slots__ = ("service", "pages", "n_plans", "pruned_rules",
                 "pruned_pages", "literals")

    def __init__(self, service: "WebService", prune: bool = False) -> None:
        self.service = service
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
                page, service.schema, frozenset(dead_by_page.get(name, ()))
            )
            self.pruned_rules += compiled.pruned_rules
            self.pages[name] = compiled
        self.n_plans: int = sum(p.n_plans for p in self.pages.values())
        # The specification's literal constants, which every run
        # context adds to its quantification domain.
        self.literals: frozenset = service.literal_constants()

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
# a discarded service drops its plans with it.
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
