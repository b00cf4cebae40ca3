"""Whole-service dataflow analysis: fixpoint abstract interpretation.

The syntactic analyses in :mod:`repro.analysis.navigation` and
:mod:`repro.analysis.protocol` look at the page graph one edge at a
time.  This module runs a *whole-service* forward analysis from the home
page and computes facts no per-rule pass can see:

- **refined reachability** — which pages an actual run can enter, after
  discarding target rules whose condition is statically refuted (the
  navigation graph keeps those edges);
- **input-constant propagation** — for every reachable page, a
  three-valued fact per input constant (:class:`Tri`): definitely in
  ``provided_before`` on every executable path, definitely absent, or
  unknown.  Pages that re-request a definitely-provided constant always
  fire error condition (ii) of Definition 2.3 and contribute no
  outgoing edges;
- **relation liveness** — state relations that are empty in every
  reachable snapshot (no live insert rule anywhere), and relations
  written on executable paths but only ever read on dead ones;
- **rule firability** — rules whose condition is refuted by
  :func:`~repro.fol.transforms.constant_fold` once statically-empty
  state relations are substituted with ``FALSE``.

The abstract domain per page is a finite map ``constant → Tri`` with
``MAYBE`` as top, so the chain height is ``|const(I)|`` per page and the
worklist terminates without widening.  Transfer along an executable
edge ``P → Q`` sets the constants ``P`` requests to ``SET`` and joins
into ``Q``'s entry fact; the implicit self-loop of Definition 2.3 ("no
target fires: stay") is always considered executable, which keeps the
analysis a sound over-approximation of run-level reachability.

Refutation and emptiness feed each other (a state relation is empty iff
all its insert rules are dead; a rule may be dead only because a state
relation is empty), so an outer fixpoint grows the empty-relation set
monotonically until it stabilises — at most ``|S|`` rounds.

Soundness of the derived :meth:`StaticFacts.prunable_keys` (the facts
the compiled-evaluation layer drops plans for) is argued case by case
in DESIGN.md; the short version is that a pruned rule's compiled plan
either can never be evaluated on a reachable snapshot, or provably
evaluates to false/empty without raising — reading an input constant
disqualifies a rule from pruning because the read itself is semantics
(error condition (i)).

Everything here is pure analysis over the immutable ``WebService``; the
result is cached per service in a weak-keyed map (see
:func:`static_facts`) so the lint pass, ``classify()``, the compiled
pruning seam and the verifier pre-flight all share one computation.
"""

from __future__ import annotations

import enum
import threading
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.analysis.navigation import page_graph, shortest_paths
from repro.fol.analysis import input_constants_of, relation_names
from repro.fol.formulas import Bottom, Formula
from repro.fol.transforms import assume_empty_relations, constant_fold

if TYPE_CHECKING:  # no runtime import: keep the analysis layer cycle-free
    from repro.service.page import WebPageSchema
    from repro.service.webservice import WebService

__all__ = [
    "Tri",
    "RuleFact",
    "UnsetRead",
    "StaticFacts",
    "analyze_service",
    "static_facts",
]


class Tri(enum.Enum):
    """Three-valued abstract fact for one input constant at page entry."""

    SET = "set"        # in provided_before on every executable path
    UNSET = "unset"    # in provided_before on no executable path
    MAYBE = "maybe"    # depends on the path taken

    def join(self, other: "Tri") -> "Tri":
        return self if self is other else Tri.MAYBE


#: rule-list attribute per rule kind, in evaluation order
_RULE_KINDS: tuple[tuple[str, str], ...] = (
    ("input", "input_rules"),
    ("state", "state_rules"),
    ("action", "action_rules"),
    ("target", "target_rules"),
)


def _rule_head(kind: str, rule: object) -> str:
    if kind == "input":
        return rule.input  # type: ignore[attr-defined]
    if kind == "state":
        return rule.state  # type: ignore[attr-defined]
    if kind == "action":
        return rule.action  # type: ignore[attr-defined]
    return rule.target  # type: ignore[attr-defined]


@dataclass(frozen=True)
class RuleFact:
    """One statically-dead rule, with the reason it can never fire.

    ``reason`` is one of:

    - ``"unreachable-page"`` — the rule's page is never entered;
    - ``"always-error-page"`` — the page is entered, but re-requests a
      definitely-provided input constant, so every step from it fires
      error condition (ii) before any state/action/target rule runs;
    - ``"refuted"`` — the rule's condition constant-folds to false once
      statically-empty state relations are substituted away.

    ``plain`` marks refutations that already hold under plain
    ``constant_fold`` (no emptiness needed) — those are covered by the
    existing ``P104``/``R301``/``R302`` codes and the dataflow pass
    stays silent on them.  ``prunable`` marks rules whose compiled plan
    may be dropped without observable effect (see DESIGN.md).
    """

    page: str
    kind: str
    index: int
    head: str
    reason: str
    plain: bool = False
    prunable: bool = False

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.page, self.kind, self.index)


@dataclass(frozen=True)
class UnsetRead:
    """A rule on an executable page reads a definitely-unset constant."""

    page: str
    kind: str
    index: int
    head: str
    constant: str


@dataclass
class StaticFacts:
    """The artifact of :func:`analyze_service` — whole-service facts.

    Consumed by the ``D5xx`` lint pass, the ``CompiledService`` pruning
    seam, ``classify()`` and the server's ``POST /lint``.
    """

    service_name: str
    home: str
    pages: frozenset[str]
    syntactic_reachable: frozenset[str]
    reachable: frozenset[str]
    always_error: frozenset[str]
    empty_state_relations: frozenset[str]
    constants_at: dict[str, dict[str, Tri]]
    witness_paths: dict[str, tuple[str, ...]]
    dead_rules: tuple[RuleFact, ...] = ()
    unset_reads: tuple[UnsetRead, ...] = ()
    write_only: dict[str, dict[str, tuple[str, ...]]] = field(
        default_factory=dict
    )
    iterations: int = 1

    @property
    def unreachable_refined(self) -> frozenset[str]:
        """Pages the navigation graph reaches but no run can enter."""
        return self.syntactic_reachable - self.reachable

    @property
    def dead_pages(self) -> frozenset[str]:
        """All pages an actual run can never enter (syntactically
        unreachable ones included) — droppable from compiled plans."""
        return self.pages - self.reachable

    def witness(self, page: str) -> tuple[str, ...] | None:
        """Shortest home-to-page path: executable for reachable pages,
        syntactic for pages only the navigation graph reaches."""
        return self.witness_paths.get(page)

    def prunable_keys(self) -> frozenset[tuple[str, str, int]]:
        """``(page, kind, index)`` of every rule whose compiled plan may
        be dropped (pages in :attr:`dead_pages` are dropped wholesale
        and not repeated here)."""
        return frozenset(
            f.key for f in self.dead_rules
            if f.prunable and f.page in self.reachable
        )

    def dead_rule_count(self) -> int:
        return len(self.dead_rules)

    def to_dict(self) -> dict:
        """JSON-safe summary (server responses, ``--analyze`` output)."""
        return {
            "service": self.service_name,
            "home": self.home,
            "pages": len(self.pages),
            "syntactic_reachable": sorted(self.syntactic_reachable),
            "reachable": sorted(self.reachable),
            "unreachable_refined": sorted(self.unreachable_refined),
            "always_error": sorted(self.always_error),
            "empty_state_relations": sorted(self.empty_state_relations),
            "constants_at": {
                page: {c: tri.value for c, tri in sorted(facts.items())}
                for page, facts in sorted(self.constants_at.items())
            },
            "witness_paths": {
                page: list(path)
                for page, path in sorted(self.witness_paths.items())
            },
            "dead_rules": [
                {
                    "page": f.page, "kind": f.kind, "index": f.index,
                    "head": f.head, "reason": f.reason,
                    "plain": f.plain, "prunable": f.prunable,
                }
                for f in self.dead_rules
            ],
            "unset_reads": [
                {
                    "page": r.page, "kind": r.kind, "index": r.index,
                    "head": r.head, "constant": r.constant,
                }
                for r in self.unset_reads
            ],
            "write_only": {
                rel: {k: list(v) for k, v in sorted(info.items())}
                for rel, info in sorted(self.write_only.items())
            },
            "iterations": self.iterations,
        }

    def describe(self) -> str:
        """Human-readable fact block for ``repro lint --analyze``."""
        lines = [
            f"dataflow facts for '{self.service_name}' "
            f"({self.iterations} fixpoint round"
            f"{'s' if self.iterations != 1 else ''}):",
            f"  pages: {len(self.pages)} declared, "
            f"{len(self.syntactic_reachable)} syntactically reachable, "
            f"{len(self.reachable)} executable",
        ]
        if self.unreachable_refined:
            lines.append("  unreachable (refined): "
                         + ", ".join(sorted(self.unreachable_refined)))
        if self.always_error:
            lines.append("  always-error (condition (ii)): "
                         + ", ".join(sorted(self.always_error)))
        if self.empty_state_relations:
            lines.append("  statically-empty state relations: "
                         + ", ".join(sorted(self.empty_state_relations)))
        if self.write_only:
            lines.append("  written but never read on an executable path: "
                         + ", ".join(sorted(self.write_only)))
        prunable = len(self.prunable_keys())
        lines.append(
            f"  dead rules: {len(self.dead_rules)} "
            f"({prunable} prunable on reachable pages; dead pages: "
            f"{len(self.dead_pages)})"
        )
        if self.unset_reads:
            for r in self.unset_reads:
                lines.append(
                    f"  definitely-unset read: page {r.page}, {r.kind} rule "
                    f"{r.head} reads '{r.constant}'"
                )
        for page in sorted(self.constants_at):
            facts = self.constants_at[page]
            interesting = {c: t for c, t in facts.items() if t is not Tri.UNSET}
            if interesting:
                shown = ", ".join(f"{c}={t.value}"
                                  for c, t in sorted(interesting.items()))
                lines.append(f"  at {page}: {shown}")
        return "\n".join(lines)


@dataclass
class _Flow:
    """Result of one inner fixpoint round."""

    entry: dict[str, dict[str, Tri]]
    reachable: frozenset[str]
    always_error: frozenset[str]
    parent: dict[str, str | None]


def _run_flow(
    service: "WebService",
    consts: list[str],
    refuted,
) -> _Flow:
    """Forward worklist pass: entry facts + refined reachability.

    ``refuted(formula)`` decides target-edge removal; it must be sound
    (refuted ⇒ the rule never selects its target on any reachable
    snapshot — either the condition is false or evaluating it raises,
    and a raise routes the run to the error page, not the target).
    """
    pages = service.pages
    home = service.home
    entry: dict[str, dict[str, Tri]] = {home: {c: Tri.UNSET for c in consts}}
    parent: dict[str, str | None] = {home: None}
    queue: deque[str] = deque([home])
    queued = {home}
    while queue:
        name = queue.popleft()
        queued.discard(name)
        page = pages[name]
        fact = entry[name]
        if any(fact[c] is Tri.SET for c in page.input_constants):
            # Condition (ii) definitely fires: every step from this page
            # goes to the error page, so it has no outgoing edges (not
            # even the self-loop).
            continue
        out = dict(fact)
        for c in page.input_constants:
            out[c] = Tri.SET
        succs = {name}  # implicit self-loop: "no target fires, stay"
        for rule in page.target_rules:
            if rule.target in pages and not refuted(rule.formula):
                succs.add(rule.target)
        for succ in sorted(succs):
            cur = entry.get(succ)
            if cur is None:
                entry[succ] = dict(out)
                parent[succ] = name
                queue.append(succ)
                queued.add(succ)
                continue
            new = {c: cur[c].join(out[c]) for c in consts}
            if new != cur:
                entry[succ] = new
                if succ not in queued:
                    queue.append(succ)
                    queued.add(succ)
    reachable = frozenset(entry)
    always_error = frozenset(
        name for name, fact in entry.items()
        if any(fact[c] is Tri.SET
               for c in pages[name].input_constants)
    )
    return _Flow(entry, reachable, always_error, parent)


def _collect_dead(
    service: "WebService",
    flow: _Flow,
    refuted,
    plain_refuted,
) -> dict[tuple[str, str, int], RuleFact]:
    """Classify every statically-dead rule of the service."""
    dead: dict[tuple[str, str, int], RuleFact] = {}

    def add(page: str, kind: str, index: int, head: str, reason: str,
            *, plain: bool = False, prunable: bool = False) -> None:
        fact = RuleFact(page, kind, index, head, reason,
                        plain=plain, prunable=prunable)
        dead[fact.key] = fact

    for name, page in service.pages.items():
        if name not in flow.reachable:
            for kind, attr in _RULE_KINDS:
                for i, rule in enumerate(getattr(page, attr)):
                    add(name, kind, i, _rule_head(kind, rule),
                        "unreachable-page", prunable=True)
            continue
        always_error = name in flow.always_error
        for kind, attr in _RULE_KINDS:
            for i, rule in enumerate(getattr(page, attr)):
                head = _rule_head(kind, rule)
                if always_error and kind != "input":
                    # condition (ii) is checked before any of these
                    # rules is evaluated (Definition 2.3 / runs.py)
                    add(name, kind, i, head, "always-error-page",
                        prunable=True)
                    continue
                if refuted(rule.formula):
                    # a refuted rule never fires, but evaluating it may
                    # still read an input constant — only constant-free
                    # conditions are safe to drop from compiled plans
                    add(name, kind, i, head, "refuted",
                        plain=plain_refuted(rule.formula),
                        prunable=not input_constants_of(rule.formula))
    return dead


def analyze_service(service: "WebService") -> StaticFacts:
    """Run the whole-service dataflow analysis (uncached).

    Most callers want :func:`static_facts`, which memoizes per service.
    """
    pages = service.pages
    consts = sorted(service.schema.input_constants)
    state_names = frozenset(r.name for r in service.schema.state.relations)

    insert_sites: dict[str, list[tuple[str, int]]] = {
        name: [] for name in state_names
    }
    read_sites: dict[str, list[tuple[str, str, int, str]]] = {
        name: [] for name in state_names
    }
    write_sites: dict[str, list[tuple[str, int]]] = {
        name: [] for name in state_names
    }
    for page in pages.values():
        for i, rule in enumerate(page.state_rules):
            write_sites[rule.state].append((page.name, i))
            if rule.insert:
                insert_sites[rule.state].append((page.name, i))
        for kind, attr in _RULE_KINDS:
            for i, rule in enumerate(getattr(page, attr)):
                for rel in relation_names(rule.formula) & state_names:
                    read_sites[rel].append(
                        (page.name, kind, i, _rule_head(kind, rule))
                    )

    # Relations with no insert rule at all start (and stay) empty:
    # the initial state instance is empty and deletions cannot populate.
    empty = frozenset(n for n, sites in insert_sites.items() if not sites)

    refute_cache: dict[tuple[Formula, frozenset[str]], bool] = {}
    plain_cache: dict[Formula, bool] = {}

    def plain_refuted(f: Formula) -> bool:
        hit = plain_cache.get(f)
        if hit is None:
            hit = plain_cache[f] = isinstance(constant_fold(f), Bottom)
        return hit

    def refuted_under(f: Formula, empty_now: frozenset[str]) -> bool:
        key = (f, empty_now)
        hit = refute_cache.get(key)
        if hit is None:
            folded = constant_fold(assume_empty_relations(f, empty_now))
            hit = refute_cache[key] = isinstance(folded, Bottom)
        return hit

    # Outer fixpoint: emptiness and deadness feed each other.  The
    # empty set only grows (each round may only kill more insert rules),
    # so this terminates after at most |state relations| extra rounds.
    iterations = 0
    while True:
        iterations += 1

        def refuted(f: Formula, _e: frozenset[str] = empty) -> bool:
            return refuted_under(f, _e)

        flow = _run_flow(service, consts, refuted)
        dead = _collect_dead(service, flow, refuted, plain_refuted)
        grown = set(empty)
        for name in state_names - empty:
            sites = insert_sites[name]
            if sites and all((p, "state", i) in dead for p, i in sites):
                grown.add(name)
        if frozenset(grown) == empty:
            break
        empty = frozenset(grown)

    syntactic_paths = shortest_paths(page_graph(service), service.home)
    syntactic = frozenset(syntactic_paths)

    # Witness paths: executable (parent chain) for reachable pages,
    # syntactic shortest path for pages only the navigation graph sees.
    witness_paths: dict[str, tuple[str, ...]] = {}
    for name in flow.reachable:
        path = [name]
        cur = flow.parent.get(name)
        while cur is not None:
            path.append(cur)
            cur = flow.parent.get(cur)
        witness_paths[name] = tuple(reversed(path))
    for name in syntactic - flow.reachable:
        witness_paths[name] = syntactic_paths[name]

    # Definitely-unset constant reads on executable pages.  The fact at
    # rule-evaluation time is the entry fact with the page's own
    # requests set (input rules run at entry with the same gamma).
    unset_reads: list[UnsetRead] = []
    for name in sorted(flow.reachable):
        page = pages[name]
        fact = dict(flow.entry[name])
        for c in page.input_constants:
            fact[c] = Tri.SET
        for kind, attr in _RULE_KINDS:
            if name in flow.always_error and kind != "input":
                continue  # those rules are never evaluated
            for i, rule in enumerate(getattr(page, attr)):
                if (name, kind, i) in dead:
                    continue
                for c in sorted(input_constants_of(rule.formula)):
                    if fact.get(c) is Tri.UNSET:
                        unset_reads.append(
                            UnsetRead(name, kind, i,
                                      _rule_head(kind, rule), c)
                        )

    # Write-only relations: written by a live rule on an executable
    # page, read somewhere (so U201 stays silent) — but every read site
    # is dead.  The write never influences any run.
    write_only: dict[str, dict[str, tuple[str, ...]]] = {}
    for rel in sorted(state_names):
        reads = read_sites[rel]
        if not reads:
            continue  # U201's territory: written but never read at all
        live_writes = [
            (p, i) for p, i in write_sites[rel]
            if p in flow.reachable and (p, "state", i) not in dead
        ]
        live_reads = [
            site for site in reads
            if site[0] in flow.reachable
            and (site[0], site[1], site[2]) not in dead
        ]
        if live_writes and not live_reads:
            write_only[rel] = {
                "writers": tuple(sorted({p for p, _ in live_writes})),
                "readers": tuple(sorted({site[0] for site in reads})),
            }

    constants_at = {
        name: dict(fact) for name, fact in flow.entry.items()
    }
    dead_rules = tuple(
        dead[key] for key in sorted(dead)
    )
    return StaticFacts(
        service_name=service.name,
        home=service.home,
        pages=frozenset(pages),
        syntactic_reachable=syntactic,
        reachable=flow.reachable,
        always_error=flow.always_error,
        empty_state_relations=empty,
        constants_at=constants_at,
        witness_paths=witness_paths,
        dead_rules=dead_rules,
        unset_reads=tuple(unset_reads),
        write_only=write_only,
        iterations=iterations,
    )


#: per-service memo — services are immutable, so facts never go stale;
#: weak keys let services die normally
_FACTS_CACHE: "weakref.WeakKeyDictionary[WebService, StaticFacts]" = (
    weakref.WeakKeyDictionary()
)
_CACHE_LOCK = threading.Lock()


def static_facts(service: "WebService") -> StaticFacts:
    """Memoized :func:`analyze_service` — one analysis per service."""
    facts = _FACTS_CACHE.get(service)
    if facts is None:
        facts = analyze_service(service)
        with _CACHE_LOCK:
            _FACTS_CACHE[service] = facts
    return facts


def _clear_facts_cache() -> None:
    _FACTS_CACHE.clear()


# the compiled layer's cache-clearing hook also resets analysis memos,
# so one clear_compile_cache() leaves every layer cold and coherent
from repro.fol.compile import register_cache_clearer  # noqa: E402

register_cache_clearer(_clear_facts_cache)
