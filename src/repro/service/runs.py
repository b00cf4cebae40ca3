"""Run semantics (Definition 2.3).

A *snapshot* is one element ``<V_i, S_i, I_i, P_i, A_i>`` of a run,
together with the bookkeeping set ``Γ_{i-1}`` of input constants provided
before step ``i`` (needed for error condition (ii)).  The transition
relation between snapshots is exactly the paper's:

1. **error (i)** — some rule formula of the current page reads an input
   constant not yet provided;
2. **error (ii)** — the current page requests an input constant already
   provided earlier in the run;
3. **error (iii)** — two or more target rules fire simultaneously;
4. otherwise the next page is the unique firing target, or the current
   page when no target fires;
5. the state update uses the three-disjunct formula (insert/delete
   conflicts are no-ops), actions fire with one step of delay, and
   ``prev_I`` at the next step holds the current input to ``I``.

Once the error page is reached the run loops there forever.

User nondeterminism is captured by :class:`UserChoice`: at most one tuple
per input relation among the generated options, a truth value for each
propositional input, and a value for each input constant the page
requests (fixed up front by the run's ``sigma`` in verification,
interactively in :class:`~repro.service.session.Session`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Mapping

from repro.fol.evaluation import (
    ContextBase, EvalContext, MissingInputConstantError,
)
from repro.service.compiled import (
    CompiledPage, SnapshotInterner, compiled_service,
)
from repro.schema.database import Database
from repro.schema.instances import Instance
from repro.service.page import WebPageSchema
from repro.service.webservice import WebService

Value = Hashable


@dataclass(frozen=True)
class UserChoice:
    """One user interaction at a page.

    ``picks`` holds the chosen tuples as (input name, tuple) pairs — at
    most one per input relation; for a propositional input the pair
    ``(name, ())`` means *true*.  ``constants`` holds the values provided
    for the page's newly requested input constants.
    """

    picks: frozenset = frozenset()
    constants: tuple = ()

    @staticmethod
    def of(
        picks: Mapping[str, tuple] | Iterable[tuple[str, tuple]] = (),
        constants: Mapping[str, Value] | None = None,
    ) -> "UserChoice":
        """Convenience constructor from dicts."""
        if isinstance(picks, Mapping):
            pick_set = frozenset(picks.items())
        else:
            pick_set = frozenset(picks)
        consts = tuple(sorted((constants or {}).items()))
        return UserChoice(pick_set, consts)

    def constants_dict(self) -> dict[str, Value]:
        return dict(self.constants)

    def __str__(self) -> str:
        parts = [f"{name}{t}" for name, t in sorted(self.picks)]
        parts += [f"@{c}={v!r}" for c, v in self.constants]
        return "{" + ", ".join(parts) + "}" if parts else "{}"


@dataclass(frozen=True)
class Snapshot:
    """One step ``<V_i, S_i, I_i, P_i, A_i>`` of a run.

    ``provided_before`` is ``Γ_{i-1}``; ``pending_error`` records that a
    rule of this page already violated condition (i) while its input
    options were generated, forcing the next page to be the error page.
    """

    page: str
    state: Instance
    inputs: Instance
    prev: Instance
    actions: Instance
    provided_before: frozenset[str] = frozenset()
    is_error: bool = False
    pending_error: bool = False

    def provided_here(self, service: WebService) -> frozenset[str]:
        """``Γ_i``: constants provided up to and including this step."""
        if self.is_error:
            return self.provided_before
        page = service.page(self.page)
        return self.provided_before | frozenset(page.input_constants)

    def __hash__(self) -> int:
        # Snapshots are the keys of every BFS ``seen`` set and successor
        # cache; memoising the hash makes re-probing an interned snapshot
        # O(1) instead of re-hashing five instances.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((
                self.page, self.state, self.inputs, self.prev, self.actions,
                self.provided_before, self.is_error, self.pending_error,
            ))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        state = dict(self.__dict__)
        # Process-local (seeded string hashing) — never ship it.
        state.pop("_hash", None)
        return state

    def describe(self, service: WebService | None = None) -> str:
        """One-line human-readable rendering."""
        bits = [self.page]
        if self.is_error:
            return f"[{self.page}] (error)"
        for label, inst in (
            ("state", self.state),
            ("in", self.inputs),
            ("prev", self.prev),
            ("act", self.actions),
        ):
            if inst:
                facts = ", ".join(
                    f"{sym.name}{tuple(t)}" if sym.arity else sym.name
                    for sym, rel in inst
                    for t in sorted(rel, key=repr)
                )
                bits.append(f"{label}={{{facts}}}")
        return "[" + " | ".join(bits) + "]"


class RunContext:
    """Everything fixed for the duration of one run or one exploration.

    Parameters
    ----------
    service:
        The Web service specification.
    database:
        The fixed database instance.
    sigma:
        Interpretation of the input constants for this run.  In
        verification this is enumerated up front; constants missing from
        ``sigma`` behave as never-provided (error condition (i) fires if
        a page requests them).
    extra_domain:
        Extra quantification-domain elements (the verifier's genericity
        cutoff for values that do not occur in the database).

    **The memos.**  Definition 2.3 makes the choices offered at a page
    a function of the page, the state, the previous inputs, the
    database and γ, and a step's successors a function of its outcome.
    :meth:`choice_inputs` therefore enumerates each choice set once per
    ``(page name, state, prev, γ)``, and :meth:`next_snapshots` builds
    the snapshots entered at a page once per ``(page name, state, prev,
    actions, Γ_{i-1})``; both replay their result for every later key
    hit.  The keys are complete: within one run context the database,
    the extra domain, the plans and ``sigma`` are fixed, option rules
    read ``sigma`` only through γ, and a next snapshot is its key's
    fields plus one choice.  The memos live and die with their run
    context (one (database, sigma) exploration, or one sigma's context
    in the Kripke builder) and hold at most one entry per distinct key.
    :meth:`step_sigma` keeps what a step reads of ``sigma`` per (page
    name, Γ_{i-1}), the exploration cache's successor key.
    :class:`~repro.service.session.Session` mutates ``sigma`` as the
    user provides constants, so it calls :func:`page_options` and
    :func:`deterministic_step` directly and never reads a memo.
    """

    __slots__ = (
        "service", "database", "sigma", "extra_domain", "compiled",
        "interner", "_base", "_choices", "_nexts", "_step_sigmas",
    )

    def __init__(
        self,
        service: WebService,
        database: Database,
        sigma: Mapping[str, Value] | None = None,
        extra_domain: Iterable[Value] = (),
        interner: SnapshotInterner | None = None,
    ) -> None:
        self.service = service
        self.database = database
        self.sigma = dict(sigma or {})
        # Precompiled (pruned) rule plans and the hash-consing pool for
        # this exploration's configurations.
        # Callers exploring several sigmas of one database pass a shared
        # interner so equal snapshots collapse across run contexts.
        self.compiled = compiled_service(service)
        self.interner = interner if interner is not None else SnapshotInterner()
        # Active-domain semantics: the specification's literal constants
        # belong to every structure's domain (schemas share constant
        # symbols, paper §2), so quantifiers must range over them too.
        self.extra_domain = self.compiled.extra_domain(extra_domain)
        schema = service.schema
        declared = [r.name for r in schema.state.relations]
        declared += [r.name for r in schema.input.relations]
        declared += [r.name for r in schema.prev.relations]
        declared += [r.name for r in schema.action.relations]
        # Everything the step contexts share, built once: each context
        # copies the relations dict and overlays its four instances.
        self._base = ContextBase(
            database,
            page_names=service.page_names | {service.error_page},
            extra_domain=self.extra_domain,
            declared=declared,
        )
        self._choices: dict[tuple, tuple[Instance, ...] | None] = {}
        self._nexts: dict[tuple, tuple[Snapshot, ...]] = {}
        self._step_sigmas: dict[tuple, tuple] = {}

    def make_eval_context(
        self,
        state: Instance,
        inputs: Instance,
        prev: Instance,
        actions: Instance = Instance.empty(),
        gamma: frozenset[str] = frozenset(),
        page: str | None = None,
    ) -> EvalContext:
        """Evaluation context for rule formulas at one step.

        ``gamma`` scopes the input-constant interpretation: constants
        outside ``gamma`` read as missing (error condition (i)).
        """
        scoped = {c: v for c, v in self.sigma.items() if c in gamma}
        return self._base.context(state, inputs, prev, actions, scoped, page)

    def step_sigma(self, snap: Snapshot) -> tuple:
        """``sigma`` restricted to what a step from ``snap`` reads, as
        ``(constant, value)`` pairs sorted by constant name, memoized.

        The step reads sigma within Γ_{i-1} plus the page's
        ``step_constants``; the successor of an error or pending-error
        snapshot reads none of it.  The pairs sort by the distinct
        constant names alone, so mixed-type values are never compared.
        """
        if not self.sigma or snap.is_error or snap.pending_error:
            return ()
        key = (snap.page, snap.provided_before)
        found = self._step_sigmas.get(key)
        if found is None:
            scope = (
                snap.provided_before
                | self.compiled.page(snap.page).step_constants
            )
            found = self._step_sigmas[key] = tuple(sorted(
                (c, v) for c, v in self.sigma.items() if c in scope
            ))
        return found

    def compiled_page(self, name: str):
        """The page's precompiled rules (raises for a pruned page)."""
        return self.compiled.page(name)

    def choice_inputs(
        self,
        page: WebPageSchema,
        state: Instance,
        prev: Instance,
        gamma: frozenset[str],
    ) -> tuple[Instance, ...] | None:
        """The input instance of every choice at ``page``, memoized.

        The interned inputs of each choice :func:`enumerate_choices`
        yields, in its order, or None when generating the options reads
        an unprovided constant (error condition (i)).
        """
        key = (page.name, state, prev, gamma)
        try:
            return self._choices[key]
        except KeyError:
            pass
        intern = self.interner.instance
        # A miss goes through the module-level ``enumerate_choices``, so
        # a wrapper installed on this module sees every miss.
        try:
            found = tuple(
                intern(_inputs_instance(self.service, page, choice))
                for choice in enumerate_choices(self, page, state, prev, gamma)
            )
        except MissingInputConstantError:
            found = None
        self._choices[key] = found
        return found

    def next_snapshots(
        self,
        page: str,
        state: Instance,
        prev: Instance,
        actions: Instance,
        provided_before: frozenset[str],
    ) -> tuple[Snapshot, ...]:
        """The interned snapshots entered at ``page``, memoized.

        One per choice, in :meth:`choice_inputs` order, or the single
        ``pending_error`` snapshot when generating the options reads an
        unprovided constant (error condition (i)): the snapshot exists
        but its own successor is forced to the error page.
        """
        key = (page, state, prev, actions, provided_before)
        found = self._nexts.get(key)
        if found is None:
            gamma = provided_before | self.compiled.page(page).requested
            inputs = self.choice_inputs(
                self.service.page(page), state, prev, gamma
            )
            snap = self.interner.snapshot
            if inputs is None:
                found = (snap(Snapshot(
                    page, state, Instance.empty(), prev, actions,
                    provided_before, pending_error=True,
                )),)
            else:
                found = tuple(
                    snap(Snapshot(
                        page, state, choice, prev, actions, provided_before
                    ))
                    for choice in inputs
                )
            self._nexts[key] = found
        return found


def error_snapshot(service: WebService) -> Snapshot:
    """The absorbing error-page snapshot."""
    return Snapshot(
        page=service.error_page,
        state=Instance.empty(),
        inputs=Instance.empty(),
        prev=Instance.empty(),
        actions=Instance.empty(),
        provided_before=frozenset(),
        is_error=True,
    )


def page_options(
    ctx: RunContext,
    page: WebPageSchema,
    state: Instance,
    prev: Instance,
    gamma: frozenset[str],
) -> dict[str, frozenset]:
    """Options for each arity>0 input relation of ``page``.

    Raises :class:`MissingInputConstantError` when an input rule reads a
    constant outside ``gamma`` (error condition (i)).
    """
    ectx = ctx.make_eval_context(state, Instance.empty(), prev, gamma=gamma)
    options: dict[str, frozenset] = {}
    for input_name, plan in ctx.compiled_page(page.name).input_rules:
        options[input_name] = options.get(input_name, frozenset()) | plan.solve(ectx)
    return options


def enumerate_choices(
    ctx: RunContext,
    page: WebPageSchema,
    state: Instance,
    prev: Instance,
    gamma: frozenset[str],
) -> Iterator[UserChoice]:
    """All user choices possible at ``page`` (Definition 2.3).

    For each arity>0 input relation: nothing, or one tuple among the
    options.  For each propositional input: true or false.  Values for
    requested input constants come from the run's ``sigma``; a constant
    missing from ``sigma`` simply yields no value (and later triggers
    error (i) if read).
    """
    options = page_options(ctx, page, state, prev, gamma)
    slots: list[list[tuple[str, tuple] | None]] = []
    for sym in ctx.compiled_page(page.name).inputs:
        if sym.arity == 0:
            slots.append([None, (sym.name, ())])
        else:
            per: list[tuple[str, tuple] | None] = [None]
            per.extend(
                (sym.name, t) for t in sorted(options.get(sym.name, ()), key=repr)
            )
            slots.append(per)
    provided = {
        c: ctx.sigma[c]
        for c in page.input_constants
        if c in ctx.sigma
    }
    consts = tuple(sorted(provided.items()))
    if not slots:
        yield UserChoice(frozenset(), consts)
        return
    for combo in itertools.product(*slots):
        picks = frozenset(p for p in combo if p is not None)
        yield UserChoice(picks, consts)


def _inputs_instance(
    service: WebService, page: WebPageSchema, choice: UserChoice
) -> Instance:
    contents: dict = {}
    for input_name, t in choice.picks:
        sym = service.schema.input[input_name]
        contents.setdefault(sym, set()).add(tuple(t))
    return Instance(contents)


def initial_snapshots(ctx: RunContext) -> list[Snapshot]:
    """All step-0 snapshots: home page, empty state, each possible choice."""
    empty = Instance.empty()
    return list(ctx.next_snapshots(
        ctx.service.home, empty, empty, empty, frozenset()
    ))


def _updated_state(
    ctx: RunContext,
    plan: CompiledPage,
    ectx: EvalContext,
    state: Instance,
) -> Instance:
    """Apply the three-disjunct state update of Definition 2.3."""
    new_contents: dict = dict(state.items())
    # Several rules with the same head act as the disjunction of their
    # bodies (equivalent to Definition 2.1's single rule).
    for sym, rules in plan.state_updates:
        inserted: frozenset = frozenset()
        deleted: frozenset = frozenset()
        for insert, query in rules:
            tuples = query.solve(ectx)
            if insert:
                inserted |= tuples
            else:
                deleted |= tuples
        old = state.tuples(sym)
        # tuple kept:    old and not (deleted and not inserted)
        # tuple added:   inserted and not deleted
        new_rel = (old - (deleted - inserted)) | (inserted - deleted)
        if new_rel:
            new_contents[sym] = new_rel
        else:
            new_contents.pop(sym, None)
    return ctx.interner.instance(Instance(new_contents))


def _fired_actions(ctx: RunContext, plan: CompiledPage, ectx: EvalContext) -> Instance:
    contents: dict = {}
    for sym, query in plan.action_rules:
        tuples = query.solve(ectx)
        if tuples:
            contents[sym] = contents.get(sym, frozenset()) | tuples
    return ctx.interner.instance(Instance(contents))


def _next_prev(ctx: RunContext, plan: CompiledPage, inputs: Instance) -> Instance:
    """``P_{i+1}``: current inputs, relabelled over the prev vocabulary."""
    contents: dict = {}
    for sym, prev in plan.prev_pairs:
        tuples = inputs.tuples(sym)
        if tuples:
            contents[prev] = tuples
    return ctx.interner.instance(Instance(contents))


@dataclass(frozen=True)
class StepResult:
    """Outcome of the deterministic half of a transition.

    When ``error`` is true the next snapshot is the error page;
    otherwise the next page, state, action and prev instances and the
    updated constant set ``Γ_i`` are given, and the user's choice at the
    next page remains to be made.
    """

    error: bool
    next_page: str = ""
    next_state: Instance = Instance.empty()
    next_actions: Instance = Instance.empty()
    next_prev: Instance = Instance.empty()
    gamma: frozenset[str] = frozenset()


def deterministic_step(ctx: RunContext, snapshot: Snapshot) -> StepResult:
    """The part of Definition 2.3 that does not depend on the next choice.

    Evaluates the current page's state, action and target rules, checks
    error conditions (i), (ii) and (iii), and computes the next page,
    state, actions and ``prev`` instances.
    """
    plan = ctx.compiled_page(snapshot.page)

    # Error condition (ii): the page re-requests a provided constant.
    if plan.requested & snapshot.provided_before:
        return StepResult(error=True)

    gamma = snapshot.provided_before | plan.requested
    ectx = ctx.make_eval_context(
        snapshot.state, snapshot.inputs, snapshot.prev, gamma=gamma
    )

    try:
        fired = [
            target for target, rule in plan.target_rules if rule.check(ectx)
        ]
        # Error condition (iii): ambiguous next page.
        if len(set(fired)) > 1:
            return StepResult(error=True)
        next_page = fired[0] if fired else plan.name

        next_state = _updated_state(ctx, plan, ectx, snapshot.state)
        next_actions = _fired_actions(ctx, plan, ectx)
    except MissingInputConstantError:
        # Error condition (i): a rule read an unprovided constant.
        return StepResult(error=True)

    return StepResult(
        error=False,
        next_page=next_page,
        next_state=next_state,
        next_actions=next_actions,
        next_prev=_next_prev(ctx, plan, snapshot.inputs),
        gamma=gamma,
    )


def successors(ctx: RunContext, snapshot: Snapshot) -> list[Snapshot]:
    """All possible next snapshots of ``snapshot`` (Definition 2.3).

    A fresh list on every call: callers keep it as an edge list.
    """
    if snapshot.is_error:
        return [snapshot]
    if snapshot.pending_error:
        return [ctx.interner.snapshot(error_snapshot(ctx.service))]
    step = deterministic_step(ctx, snapshot)
    if step.error:
        return [ctx.interner.snapshot(error_snapshot(ctx.service))]
    return list(ctx.next_snapshots(
        step.next_page, step.next_state, step.next_prev, step.next_actions,
        step.gamma,
    ))


@dataclass
class Run:
    """A finite prefix of a run, optionally closed into a lasso.

    ``loop_index`` of ``k`` means the run continues forever by repeating
    ``snapshots[k:]`` (every infinite run produced by the verifier is
    ultimately periodic).
    """

    database: Database
    sigma: dict[str, Value]
    snapshots: list[Snapshot]
    loop_index: int | None = None

    def __len__(self) -> int:
        return len(self.snapshots)

    def snapshot_at(self, i: int) -> Snapshot:
        """The i-th snapshot, unrolling the lasso when present."""
        if i < len(self.snapshots):
            return self.snapshots[i]
        if self.loop_index is None:
            raise IndexError(i)
        period = len(self.snapshots) - self.loop_index
        return self.snapshots[self.loop_index + (i - self.loop_index) % period]

    def describe(self, service: WebService | None = None, limit: int = 30) -> str:
        """Multi-line rendering of the run for reports."""
        lines = []
        if self.sigma:
            lines.append(
                "input constants: "
                + ", ".join(f"@{c}={v!r}" for c, v in sorted(self.sigma.items()))
            )
        for i, snap in enumerate(self.snapshots[:limit]):
            marker = " <- loop" if self.loop_index == i else ""
            lines.append(f"  {i:3d}: {snap.describe(service)}{marker}")
        if len(self.snapshots) > limit:
            lines.append(f"  ... ({len(self.snapshots) - limit} more)")
        return "\n".join(lines)


def random_run(
    ctx: RunContext,
    steps: int,
    rng: int | random.Random | None = None,
) -> Run:
    """Simulate one run with uniformly random user choices."""
    rand = rng if isinstance(rng, random.Random) else random.Random(rng)
    starts = initial_snapshots(ctx)
    snapshot = rand.choice(starts)
    trace = [snapshot]
    for _ in range(steps - 1):
        nexts = successors(ctx, snapshot)
        snapshot = rand.choice(nexts)
        trace.append(snapshot)
    return Run(ctx.database, dict(ctx.sigma), trace)
