"""Active-domain evaluation of FO formulas.

The paper adopts active-domain semantics for FO (§2): quantifiers range
over the active domain of the structure at hand.  An :class:`EvalContext`
packages one *structure*: the fixed database, the current state, input,
``prev`` and action instances, the interpretation of the input constants
provided so far, and (for property formulas) which Web page is current.

Two entry points:

- :func:`evaluate` — truth of a formula under an environment;
- :func:`evaluate_query` — the set of satisfying valuations of the free
  variables (used to compute input options).

Reading an input constant that has not been provided raises
:class:`MissingInputConstantError`; the run semantics turns that into
error condition (i) of Definition 2.3.

Existential quantification has a *guided* fast path: when the body is a
conjunction containing a positive relational atom covering the quantified
variables (always the case for the paper's input-bounded formulas, whose
guard atom covers them by definition), candidate bindings are enumerated
from that relation's tuples instead of the full cartesian domain power.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Iterator, Mapping

from repro.fol.formulas import (
    And,
    Atom,
    Bottom,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
)
from repro.fol.terms import DbConst, InputConst, Lit, Term, Var
from repro.schema.database import Database
from repro.schema.instances import Instance

Value = Hashable
Env = Mapping[str, Value]


class MissingInputConstantError(Exception):
    """An input constant was read before the user provided its value."""

    def __init__(self, name: str) -> None:
        super().__init__(f"input constant @{name} has not been provided yet")
        self.name = name


class UnknownRelationError(Exception):
    """A formula mentions a relation absent from the evaluation context."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation {name!r} in formula")
        self.name = name


class UnboundVariableError(Exception):
    """A formula was evaluated with a free variable left unbound."""

    def __init__(self, name: str) -> None:
        super().__init__(f"variable {name!r} is unbound")
        self.name = name


class EvalContext:
    """One relational structure against which formulas are evaluated.

    Parameters
    ----------
    database:
        The fixed database (or None for fully propositional services).
    state, inputs, prev, actions:
        Current instances of the corresponding schemas.
    input_values:
        Interpretation ``sigma_i`` of the input constants provided so far.
    page:
        Name of the current Web page (page symbols act as propositions in
        property formulas — true iff equal to the current page).
    page_names:
        All page names of the service (so unknown names still error).
    extra_domain:
        Extra elements to include in the quantification domain beyond the
        database domain and the instances' active domains.
    db_constants:
        Database-constant interpretations to use when no database is given.
    """

    __slots__ = (
        "database", "state", "inputs", "prev", "actions",
        "input_values", "page", "page_names", "domain", "_relations",
        "db_constants",
    )

    def __init__(
        self,
        database: Database | None = None,
        state: Instance | None = None,
        inputs: Instance | None = None,
        prev: Instance | None = None,
        actions: Instance | None = None,
        input_values: Mapping[str, Value] | None = None,
        page: str | None = None,
        page_names: Iterable[str] = (),
        extra_domain: Iterable[Value] = (),
        db_constants: Mapping[str, Value] | None = None,
    ) -> None:
        self.database = database
        self.state = state or Instance.empty()
        self.inputs = inputs or Instance.empty()
        self.prev = prev or Instance.empty()
        self.actions = actions or Instance.empty()
        self.input_values = dict(input_values or {})
        self.page = page
        self.page_names = frozenset(page_names)
        self.db_constants = dict(db_constants or {})

        relations: dict[str, frozenset] = {}
        for inst in (self.state, self.inputs, self.prev, self.actions):
            for sym in inst.nonempty_symbols:
                relations[sym.name] = inst.tuples(sym)
        # Symbols with empty interpretations still need to resolve: pull
        # names from the instances' symbols *and* the database schema.
        if database is not None:
            for sym in database.schema.relations:
                relations[sym.name] = database.tuples(sym)
        self._relations = relations

        dom: set[Value] = set(extra_domain)
        if database is not None:
            dom |= database.domain
        for inst in (self.state, self.inputs, self.prev, self.actions):
            dom |= inst.active_domain()
        dom |= set(self.input_values.values())
        self.domain: frozenset = frozenset(dom)

    # -- resolution --------------------------------------------------------

    def relation_tuples(self, name: str) -> frozenset | None:
        """Tuples of the relation called ``name``; None when unknown.

        Unknown names that are *page names* are not relations — page
        propositions are handled separately in the evaluator.
        """
        return self._relations.get(name)

    def declare_empty(self, names: Iterable[str]) -> None:
        """Declare relation names that may appear with empty denotation.

        The run machinery uses this so that, e.g., a state relation that is
        currently empty still resolves instead of raising
        :class:`UnknownRelationError`.
        """
        for name in names:
            self._relations.setdefault(name, frozenset())

    def constant_value(self, term: DbConst) -> Value:
        if self.database is not None and term.name in self.database.constants:
            return self.database.constant(term.name)
        if term.name in self.db_constants:
            return self.db_constants[term.name]
        raise UnknownRelationError(term.name)


def eval_term(term: Term, ctx: EvalContext, env: Env) -> Value:
    """The denotation of a term."""
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise UnboundVariableError(term.name) from None
    if isinstance(term, Lit):
        return term.value
    if isinstance(term, InputConst):
        try:
            return ctx.input_values[term.name]
        except KeyError:
            raise MissingInputConstantError(term.name) from None
    if isinstance(term, DbConst):
        return ctx.constant_value(term)
    raise TypeError(f"unknown term {term!r}")


def evaluate(formula: Formula, ctx: EvalContext, env: Env | None = None) -> bool:
    """Truth value of ``formula`` in ``ctx`` under ``env``.

    Thin wrapper: the formula is compiled once into a
    :class:`~repro.fol.compile.CompiledFormula` (cached on the formula
    and the environment's key set) and the plan runs.
    """
    base = dict(env or {})
    return _compile_mod.compile_formula(formula, frozenset(base)).check(ctx, base)


def evaluate_interpreted(
    formula: Formula, ctx: EvalContext, env: Env | None = None
) -> bool:
    """The reference interpreter, bypassing compiled plans entirely.

    Only the differential tests call it: the compiled plans must match
    it result for result and exception for exception.
    """
    return _eval(formula, ctx, dict(env or {}))


def _eval(f: Formula, ctx: EvalContext, env: dict[str, Value]) -> bool:
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        return _eval_atom(f, ctx, env)
    if isinstance(f, Eq):
        return eval_term(f.left, ctx, env) == eval_term(f.right, ctx, env)
    if isinstance(f, Not):
        return not _eval(f.body, ctx, env)
    if isinstance(f, And):
        return all(_eval(p, ctx, env) for p in f.parts)
    if isinstance(f, Or):
        return any(_eval(p, ctx, env) for p in f.parts)
    if isinstance(f, Implies):
        return (not _eval(f.antecedent, ctx, env)) or _eval(f.consequent, ctx, env)
    if isinstance(f, Iff):
        return _eval(f.left, ctx, env) == _eval(f.right, ctx, env)
    if isinstance(f, Exists):
        return any(True for _ in _satisfying_envs(f.variables, f.body, ctx, env))
    if isinstance(f, Forall):
        body = f.body
        for binding in _all_bindings(f.variables, ctx):
            env2 = dict(env)
            env2.update(binding)
            if not _eval(body, ctx, env2):
                return False
        return True
    raise TypeError(f"cannot evaluate {f!r}")


def _eval_atom(a: Atom, ctx: EvalContext, env: dict[str, Value]) -> bool:
    tuples = ctx.relation_tuples(a.relation)
    if tuples is None:
        if a.relation in ctx.page_names:
            if a.terms:
                raise UnknownRelationError(a.relation)
            return a.relation == ctx.page
        raise UnknownRelationError(a.relation)
    values = tuple(eval_term(t, ctx, env) for t in a.terms)
    return values in tuples


def _all_bindings(
    variables: tuple[str, ...], ctx: EvalContext
) -> Iterator[dict[str, Value]]:
    """All assignments of the variables over the active domain."""
    domain = sorted(ctx.domain, key=repr)
    for combo in itertools.product(domain, repeat=len(variables)):
        yield dict(zip(variables, combo))


def _satisfying_envs(
    variables: tuple[str, ...],
    body: Formula,
    ctx: EvalContext,
    env: dict[str, Value],
) -> Iterator[dict[str, Value]]:
    """Environments extending ``env`` on ``variables`` that satisfy ``body``.

    A small conjunctive-query planner generates *candidate* bindings —
    by flattening nested existentials, propagating equalities, and
    enumerating positive atoms tuple-by-tuple — and each candidate is
    then re-checked against the full body, so the planner only needs to
    be complete (never miss a satisfying binding), not precise.
    """
    targets = tuple(variables)
    shadowed = dict(env)
    for name in targets:
        shadowed.pop(name, None)

    seen: set[tuple] = set()
    for binding in _candidates(list(targets), body, ctx, shadowed):
        key = tuple(binding.get(v) for v in targets)
        if key in seen:
            continue
        env2 = dict(env)
        env2.update({v: binding[v] for v in targets})
        if _eval(body, ctx, env2):
            seen.add(key)
            yield env2


def _candidates(
    solve_vars: list[str],
    formula: Formula,
    ctx: EvalContext,
    env: Mapping[str, Value],
) -> Iterator[dict[str, Value]]:
    """Candidate bindings covering ``solve_vars`` (a complete superset).

    Structure-directed: disjunctions branch, existential nests become
    extra solve variables (so guard patterns like ``∃x (I(x) ∧ a = x)``
    are seen through), and everything else goes to the conjunctive
    planner.
    """
    if isinstance(formula, Bottom):
        return
    inner = formula
    extended = list(solve_vars)
    while isinstance(inner, Exists):
        names = inner.variables
        if any(n in extended or n in env for n in names):
            break
        extended.extend(names)
        inner = inner.body
    if isinstance(inner, Or):
        for part in inner.parts:
            yield from _candidates(extended, part, ctx, env)
        return
    yield from _solve_conjunctive(extended, _flatten_and(inner), ctx, env)


def _flatten_and(f: Formula) -> list[Formula]:
    """Flatten nested conjunctions so every atom is visible to the
    planner (missing one forces the exponential domain fallback)."""
    if isinstance(f, And):
        out: list[Formula] = []
        for p in f.parts:
            out.extend(_flatten_and(p))
        return out
    return [f]


def _term_value_or_none(term: Term, ctx: EvalContext, env: Mapping[str, Value]):
    """Evaluate a term, returning None when a variable is unbound."""
    if isinstance(term, Var):
        return env.get(term.name)
    return eval_term(term, ctx, env)


def _solve_conjunctive(
    solve_vars: list[str],
    conjuncts: list[Formula],
    ctx: EvalContext,
    env: Mapping[str, Value],
) -> Iterator[dict[str, Value]]:
    """Candidate bindings of ``solve_vars`` over positive constraints.

    Complete: every binding satisfying the conjunction is generated
    (possibly among non-satisfying ones — the caller re-checks).  The
    strategy loop:

    1. propagate deterministic equalities ``x = t`` with ``t`` evaluable;
    2. otherwise branch on a positive atom containing an unbound target,
       enumerating its matching tuples;
    3. otherwise fall back to the domain power for the leftovers.
    """
    atoms = [c for c in conjuncts if isinstance(c, Atom)]
    equalities = [c for c in conjuncts if isinstance(c, Eq)]

    def helper(bound: dict[str, Value]) -> Iterator[dict[str, Value]]:
        remaining = [v for v in solve_vars if v not in bound]
        if not remaining:
            yield dict(bound)
            return
        # 1. equality propagation — ``bound`` is mutated in place: every
        # caller hands over ownership of the dict and returns right after
        # this branch, so the copy the interpreter used to make here was
        # pure overhead.
        for eq in equalities:
            for this, other in ((eq.left, eq.right), (eq.right, eq.left)):
                if isinstance(this, Var) and this.name in remaining:
                    value = _term_value_or_none(other, ctx, bound)
                    if value is not None:
                        bound[this.name] = value
                        yield from helper(bound)
                        return
        # 2. atom enumeration
        best: Atom | None = None
        best_gain = 0
        for a in atoms:
            gain = sum(
                1
                for t in a.terms
                if isinstance(t, Var) and t.name in remaining
            )
            if gain > best_gain:
                best, best_gain = a, gain
        if best is not None:
            tuples = ctx.relation_tuples(best.relation)
            if tuples is None:
                raise UnknownRelationError(best.relation)
            for row in tuples:
                bound2 = dict(bound)
                ok = True
                for term, value in zip(best.terms, row):
                    if isinstance(term, Var):
                        name = term.name
                        if name in bound2:
                            if bound2[name] != value:
                                ok = False
                                break
                        elif name in remaining:
                            bound2[name] = value
                        else:
                            # free variable not being solved and unbound:
                            # cannot constrain; skip this guide row if it
                            # conflicts with nothing we know — treat the
                            # position as a wildcard.
                            continue
                    else:
                        if eval_term(term, ctx, bound2) != value:
                            ok = False
                            break
                if ok:
                    yield from helper(bound2)
            return
        # 3. recurse through a disjunctive or existential conjunct
        for c in conjuncts:
            if isinstance(c, (Or, Exists)):
                for cand in _candidates(remaining, c, ctx, bound):
                    bound2 = dict(bound)
                    # _candidates always covers its solve variables
                    bound2.update({v: cand[v] for v in remaining})
                    yield bound2
                return
        # 4. fallback: domain power over what is left
        domain = sorted(ctx.domain, key=repr)
        for combo in itertools.product(domain, repeat=len(remaining)):
            bound2 = dict(bound)
            bound2.update(zip(remaining, combo))
            yield bound2

    yield from helper(dict(env))


def evaluate_query(
    formula: Formula,
    free_vars: tuple[str, ...],
    ctx: EvalContext,
    env: Env | None = None,
) -> frozenset[tuple]:
    """All valuations of ``free_vars`` over the active domain satisfying
    ``formula`` (the semantics of input-option rules, Definition 2.1).

    Thin wrapper over a cached :class:`~repro.fol.compile.CompiledQuery`
    plan.
    """
    base = dict(env or {})
    plan = _compile_mod.compile_query(formula, tuple(free_vars), frozenset(base))
    return plan.solve(ctx, base)


def evaluate_query_interpreted(
    formula: Formula,
    free_vars: tuple[str, ...],
    ctx: EvalContext,
    env: Env | None = None,
) -> frozenset[tuple]:
    """The reference query interpreter, bypassing compiled plans (the
    differential tests' oracle for :meth:`CompiledQuery.solve`)."""
    base = dict(env or {})
    results: set[tuple] = set()
    for sat in _satisfying_envs(tuple(free_vars), formula, ctx, base):
        results.add(tuple(sat[v] for v in free_vars))
    return frozenset(results)


# Imported last: compile.py needs the error classes and ``_flatten_and``
# defined above, and this module routes ``evaluate``/``evaluate_query``
# through it — a deliberate, order-safe cycle.
from repro.fol import compile as _compile_mod  # noqa: E402
