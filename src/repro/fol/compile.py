"""Formula → plan compilation (the compiled evaluation core).

:func:`compile_formula` and :func:`compile_query` analyse a formula
*once* — resolving which variables are free vs. bound at every node,
selecting guard atoms, ordering equality propagation, and
constant-folding closed subtrees via
:func:`repro.fol.transforms.constant_fold` — and return an executable
:class:`Plan` whose ``check(ctx, env)`` / ``solve(ctx, env)`` run with
no per-call formula analysis.  The reference interpreter in
:mod:`repro.fol.evaluation` re-derives the same decisions on every
call; the plans here are the compiled form of exactly those decisions,
so results, candidate order and raised exceptions
(:class:`MissingInputConstantError`, :class:`UnknownRelationError`,
:class:`UnboundVariableError`) coincide with the interpreter's.

Why static planning is faithful
-------------------------------
The interpreter's conjunctive solver picks its strategy from the *set*
of bound variable names, never from their values.  Given the compile
time ``scope`` (the environment's key set — fixed for every caller in
this codebase: rule formulas use the empty scope, property components
use the sentence's variables), the bound set at every planner step is
statically determined, so the whole strategy tree unrolls at compile
time into closures.

Completeness contract (inherited from ``_candidates``)
------------------------------------------------------
Candidate generation only needs to be a *complete superset* — every
satisfying binding is generated, possibly among non-satisfying ones —
because each candidate is re-checked against the full body, exactly as
in the interpreter.

Two documented deviations, both outside the verifier's reachable
inputs:

- constant-folded subtrees skip evaluation, so a folded tautology over
  an *undeclared* relation returns its truth value where the
  interpreter would raise :class:`UnknownRelationError`.  Folding is
  disabled for subtrees reading input constants (preserving error
  condition (i)) and guarded at runtime for quantified subtrees over a
  possibly-empty domain, where quantifier collapse would be unsound.
- domain values must not be ``None`` (the interpreter uses ``None`` as
  its internal "unbound" sentinel during equality propagation).  No
  enumerated or user-facing domain in this codebase contains ``None``.

:func:`repro.fol.evaluation.evaluate` and
:func:`~repro.fol.evaluation.evaluate_query` always run these plans;
the interpreter stays behind as the reference the differential tests
compare against (``evaluate_interpreted`` /
``evaluate_query_interpreted``).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from repro.fol.analysis import (
    free_variables,
    input_constants_of,
    is_quantifier_free,
)
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
from repro.fol.transforms import constant_fold

Value = Hashable
Env = Mapping[str, Value]

# Runtime signatures of the closures a plan is made of.
CheckFn = Callable[..., bool]
TermFn = Callable[..., Value]

__all__ = [
    "CompiledFormula",
    "CompiledQuery",
    "compile_formula",
    "compile_query",
    "clear_compile_cache",
    "register_cache_clearer",
]


# -- term compilation --------------------------------------------------------

def _compile_term(term: Term) -> TermFn:
    """A closure computing the term's denotation, matching ``eval_term``."""
    if isinstance(term, Var):
        name = term.name

        def ev_var(ctx, env, _name=name):
            try:
                return env[_name]
            except KeyError:
                raise UnboundVariableError(_name) from None

        return ev_var
    if isinstance(term, Lit):
        value = term.value
        return lambda ctx, env, _v=value: _v
    if isinstance(term, InputConst):
        name = term.name

        def ev_const(ctx, env, _name=name):
            try:
                return ctx.input_values[_name]
            except KeyError:
                raise MissingInputConstantError(_name) from None

        return ev_const
    if isinstance(term, DbConst):
        return lambda ctx, env, _t=term: ctx.constant_value(_t)
    raise TypeError(f"unknown term {term!r}")


def _statically_evaluable(term: Term, bound: frozenset[str]) -> bool:
    """Whether the interpreter's equality propagation would accept
    ``term`` as the defining side given this bound-variable set."""
    if isinstance(term, Var):
        return term.name in bound
    if isinstance(term, Lit):
        return term.value is not None
    return isinstance(term, (InputConst, DbConst))


# -- candidate planning (static unroll of _solve_conjunctive) ----------------

# A *step* is a closure (ctx, bound_dict) -> Iterator[binding_dict] owning
# its dict argument; a *gen* is a closure (ctx, env) -> Iterator that copies
# the caller's environment first (mirroring ``helper(dict(env))``).

_CHECK_OUTER = 0   # position must equal an already-bound variable
_CHECK_POS = 1     # position must equal an earlier position (repeated var)
_CHECK_TERM = 2    # position must equal a non-variable term's value


def _compile_candidates(solve_vars, formula, bound: frozenset[str]):
    """Compiled form of ``_candidates``: a complete candidate generator
    for ``solve_vars`` given environments with key set ``bound``."""
    if isinstance(formula, Bottom):
        return lambda ctx, env: iter(())
    extended = list(solve_vars)
    inner = formula
    while isinstance(inner, Exists):
        names = inner.variables
        if any(n in extended or n in bound for n in names):
            break
        extended.extend(names)
        inner = inner.body
    if isinstance(inner, Or):
        gens = tuple(_compile_candidates(extended, p, bound) for p in inner.parts)

        def branch(ctx, env, _gens=gens):
            for g in _gens:
                yield from g(ctx, env)

        return branch
    conjuncts = _flatten_and(inner)
    atoms = [c for c in conjuncts if isinstance(c, Atom)]
    equalities = [c for c in conjuncts if isinstance(c, Eq)]
    step = _plan_conjunctive(tuple(extended), atoms, equalities, conjuncts, bound)

    def gen(ctx, env, _step=step):
        return _step(ctx, dict(env))

    return gen


def _plan_conjunctive(solve_vars, atoms, equalities, conjuncts, bound):
    """One statically-unrolled level of the interpreter's ``helper``.

    ``bound`` grows by at least one variable per recursion, so the
    unroll terminates; the strategy order (equality propagation, best
    guard atom, first disjunctive/existential conjunct, domain power)
    and all tie-breaks replicate the interpreter's exactly.
    """
    remaining = [v for v in solve_vars if v not in bound]
    if not remaining:
        def emit(ctx, b):
            yield dict(b)

        return emit
    rem_set = frozenset(remaining)

    # 1. equality propagation — first applicable (equality, orientation)
    for eq in equalities:
        for this, other in ((eq.left, eq.right), (eq.right, eq.left)):
            if (
                isinstance(this, Var)
                and this.name in rem_set
                and _statically_evaluable(other, bound)
            ):
                name = this.name
                value_of = _compile_term(other)
                rest = _plan_conjunctive(
                    solve_vars, atoms, equalities, conjuncts, bound | {name}
                )

                def bind_step(ctx, b, _ev=value_of, _name=name, _rest=rest):
                    b[_name] = _ev(ctx, b)
                    return _rest(ctx, b)

                return bind_step

    # 2. atom enumeration — highest gain, first wins ties
    best = None
    best_gain = 0
    for a in atoms:
        gain = sum(
            1 for t in a.terms if isinstance(t, Var) and t.name in rem_set
        )
        if gain > best_gain:
            best, best_gain = a, gain
    if best is not None:
        first_pos: dict[str, int] = {}
        ops = []
        for i, term in enumerate(best.terms):
            if isinstance(term, Var):
                name = term.name
                if name in bound:
                    ops.append((_CHECK_OUTER, i, name))
                elif name in first_pos:
                    ops.append((_CHECK_POS, i, first_pos[name]))
                elif name in rem_set:
                    first_pos[name] = i
                # else: unbound non-target variable — wildcard position
            else:
                ops.append((_CHECK_TERM, i, _compile_term(term)))
        ops = tuple(ops)
        binds = tuple(first_pos.items())
        rest = _plan_conjunctive(
            solve_vars, atoms, equalities, conjuncts, bound | set(first_pos)
        )
        relation = best.relation

        def scan_step(ctx, b, _rel=relation, _ops=ops, _binds=binds, _rest=rest):
            tuples = ctx.relation_tuples(_rel)
            if tuples is None:
                raise UnknownRelationError(_rel)
            for row in tuples:
                ok = True
                for kind, i, payload in _ops:
                    if kind == _CHECK_OUTER:
                        if b[payload] != row[i]:
                            ok = False
                            break
                    elif kind == _CHECK_POS:
                        if row[payload] != row[i]:
                            ok = False
                            break
                    elif payload(ctx, b) != row[i]:
                        ok = False
                        break
                if ok:
                    b2 = dict(b)
                    for name, pos in _binds:
                        b2[name] = row[pos]
                    yield from _rest(ctx, b2)

        return scan_step

    # 3. recurse through the first disjunctive or existential conjunct
    for c in conjuncts:
        if isinstance(c, (Or, Exists)):
            sub = _compile_candidates(tuple(remaining), c, bound)
            targets = tuple(remaining)

            def sub_step(ctx, b, _sub=sub, _targets=targets):
                for cand in _sub(ctx, b):
                    b2 = dict(b)
                    for v in _targets:
                        b2[v] = cand[v]
                    yield b2

            return sub_step

    # 4. fallback: domain power over what is left
    targets = tuple(remaining)

    def fallback(ctx, b, _targets=targets):
        domain = sorted(ctx.domain, key=repr)
        for combo in itertools.product(domain, repeat=len(_targets)):
            b2 = dict(b)
            b2.update(zip(_targets, combo))
            yield b2

    return fallback


# -- check compilation -------------------------------------------------------

def _compile(f: Formula, scope: frozenset[str]) -> CheckFn:
    """Compile a truth check, trying a constant-fold shortcut first."""
    shortcut = _fold_shortcut(f, scope)
    if shortcut is not None:
        return shortcut
    return _compile_node(f, scope)


def _fold_shortcut(f: Formula, scope: frozenset[str]) -> CheckFn | None:
    """A constant closure when the subtree folds to ⊤/⊥.

    Skipped when the subtree reads input constants (evaluation must
    still raise :class:`MissingInputConstantError` — error condition
    (i) is semantics, not failure).  Quantified subtrees keep a runtime
    guard: quantifier collapse is unsound over an empty active domain,
    so the structural plan runs there instead.
    """
    if isinstance(f, (Top, Bottom)):
        return None  # already constant structurally
    if input_constants_of(f):
        return None
    if not free_variables(f) <= scope:
        # A free variable outside the environment's key set must raise
        # UnboundVariableError at runtime, exactly as the interpreter
        # does — a folded constant would swallow it.
        return None
    folded = constant_fold(f)
    if isinstance(folded, Top):
        value = True
    elif isinstance(folded, Bottom):
        value = False
    else:
        return None
    if is_quantifier_free(f):
        return lambda ctx, env, _v=value: _v
    structural = _compile_node(f, scope)

    def guarded(ctx, env, _v=value, _s=structural):
        if ctx.domain:
            return _v
        return _s(ctx, env)

    return guarded


def _compile_node(f: Formula, scope: frozenset[str]) -> CheckFn:
    if isinstance(f, Top):
        return lambda ctx, env: True
    if isinstance(f, Bottom):
        return lambda ctx, env: False
    if isinstance(f, Atom):
        return _compile_atom(f)
    if isinstance(f, Eq):
        left = _compile_term(f.left)
        right = _compile_term(f.right)
        return lambda ctx, env, _l=left, _r=right: _l(ctx, env) == _r(ctx, env)
    if isinstance(f, Not):
        body = _compile(f.body, scope)
        return lambda ctx, env, _b=body: not _b(ctx, env)
    if isinstance(f, And):
        checks = tuple(_compile(p, scope) for p in f.parts)

        def check_and(ctx, env, _checks=checks):
            for c in _checks:
                if not c(ctx, env):
                    return False
            return True

        return check_and
    if isinstance(f, Or):
        checks = tuple(_compile(p, scope) for p in f.parts)

        def check_or(ctx, env, _checks=checks):
            for c in _checks:
                if c(ctx, env):
                    return True
            return False

        return check_or
    if isinstance(f, Implies):
        ant = _compile(f.antecedent, scope)
        con = _compile(f.consequent, scope)
        return lambda ctx, env, _a=ant, _c=con: (not _a(ctx, env)) or _c(ctx, env)
    if isinstance(f, Iff):
        left = _compile(f.left, scope)
        right = _compile(f.right, scope)
        return lambda ctx, env, _l=left, _r=right: _l(ctx, env) == _r(ctx, env)
    if isinstance(f, Exists):
        return _compile_exists(f, scope)
    if isinstance(f, Forall):
        return _compile_forall(f, scope)
    raise TypeError(f"cannot compile {f!r}")


def _compile_atom(a: Atom) -> CheckFn:
    relation = a.relation
    evs = tuple(_compile_term(t) for t in a.terms)
    if evs:
        def check_atom(ctx, env, _rel=relation, _evs=evs):
            tuples = ctx.relation_tuples(_rel)
            if tuples is None:
                raise UnknownRelationError(_rel)
            return tuple(ev(ctx, env) for ev in _evs) in tuples

        return check_atom

    def check_prop(ctx, env, _rel=relation):
        tuples = ctx.relation_tuples(_rel)
        if tuples is None:
            if _rel in ctx.page_names:
                return _rel == ctx.page
            raise UnknownRelationError(_rel)
        return () in tuples

    return check_prop


def _compile_exists(f: Exists, scope: frozenset[str]) -> CheckFn:
    targets = f.variables
    target_set = frozenset(targets)
    shadowed = tuple(n for n in target_set if n in scope)
    gen = _compile_candidates(targets, f.body, scope - target_set)
    body = _compile(f.body, scope | target_set)

    def check_exists(
        ctx, env, _targets=targets, _shadowed=shadowed, _gen=gen, _body=body
    ):
        base = env
        if _shadowed:
            base = dict(env)
            for n in _shadowed:
                base.pop(n, None)
        for cand in _gen(ctx, base):
            env2 = dict(env)
            for v in _targets:
                env2[v] = cand[v]
            if _body(ctx, env2):
                return True
        return False

    return check_exists


def _compile_forall(f: Forall, scope: frozenset[str]) -> CheckFn:
    variables = f.variables
    body = _compile(f.body, scope | frozenset(variables))

    def check_forall(ctx, env, _vars=variables, _body=body):
        domain = sorted(ctx.domain, key=repr)
        for combo in itertools.product(domain, repeat=len(_vars)):
            env2 = dict(env)
            env2.update(zip(_vars, combo))
            if not _body(ctx, env2):
                return False
        return True

    return check_forall


# -- public plan objects -----------------------------------------------------

class CompiledFormula:
    """An executable truth-check plan for one formula.

    ``scope`` is the key set the runtime environment must have —
    exactly the free variables the caller supplies.  ``check`` neither
    copies nor mutates the environment it is given.
    """

    __slots__ = ("formula", "scope", "_check", "_bits")

    def __init__(self, formula: Formula, scope: frozenset[str]) -> None:
        self.formula = formula
        self.scope = scope
        self._check = _compile(formula, scope)
        self._bits: dict = {}

    def check(self, ctx, env: Env | None = None) -> bool:
        return self._check(ctx, env if env is not None else {})

    def bits(self, ctx, block) -> int:
        """Set-at-a-time check: the bitset of satisfying block valuations.

        ``block`` is a :class:`repro.fol.bitset.ValuationBlock` whose
        variables cover this plan's scope; bit *i* of the result equals
        ``check(ctx, valuation_i)``.  The per-variable-tuple bits plan
        is compiled lazily and cached on the plan object, so it shares
        the plan cache's lifetime (and is dropped by
        :func:`clear_compile_cache` with it).
        """
        fn = self._bits.get(block.variables)
        if fn is None:
            from repro.fol.bitset import compile_bits

            fn = compile_bits(self.formula, block.variables)
            self._bits[block.variables] = fn
        return fn(ctx, block)

    def __repr__(self) -> str:
        return f"CompiledFormula({self.formula!r}, scope={sorted(self.scope)})"


class CompiledQuery:
    """An executable query plan: satisfying valuations of ``variables``.

    ``solve`` mirrors ``evaluate_query`` — candidate generation over
    the shadowed environment, per-candidate re-check of the full body,
    dedup of satisfying keys — and returns the same frozenset.
    """

    __slots__ = ("formula", "variables", "scope", "_gen", "_body", "_shadowed")

    def __init__(
        self,
        formula: Formula,
        variables: tuple[str, ...],
        scope: frozenset[str],
    ) -> None:
        self.formula = formula
        self.variables = variables
        self.scope = scope
        target_set = frozenset(variables)
        self._shadowed = tuple(n for n in target_set if n in scope)
        self._gen = _compile_candidates(variables, formula, scope - target_set)
        self._body = _compile(formula, scope | target_set)

    def solve(self, ctx, env: Env | None = None) -> frozenset[tuple]:
        full = dict(env) if env else {}
        base = full
        if self._shadowed:
            base = dict(full)
            for n in self._shadowed:
                base.pop(n, None)
        targets = self.variables
        body = self._body
        seen: set[tuple] = set()
        for cand in self._gen(ctx, base):
            key = tuple(cand.get(v) for v in targets)
            if key in seen:
                continue
            env2 = dict(full)
            for v in targets:
                env2[v] = cand[v]
            if body(ctx, env2):
                seen.add(key)
        return frozenset(seen)

    def __repr__(self) -> str:
        return (
            f"CompiledQuery({self.formula!r}, variables={self.variables}, "
            f"scope={sorted(self.scope)})"
        )


@lru_cache(maxsize=4096)
def _cached_formula(formula: Formula, scope: frozenset[str]) -> CompiledFormula:
    return CompiledFormula(formula, scope)


@lru_cache(maxsize=4096)
def _cached_query(
    formula: Formula, variables: tuple[str, ...], scope: frozenset[str]
) -> CompiledQuery:
    return CompiledQuery(formula, variables, scope)


def compile_formula(
    formula: Formula, scope: Iterable[str] = ()
) -> CompiledFormula:
    """Compile (with caching) a truth-check plan for ``formula``."""
    return _cached_formula(formula, frozenset(scope))


def compile_query(
    formula: Formula,
    variables: Iterable[str],
    scope: Iterable[str] = (),
) -> CompiledQuery:
    """Compile (with caching) a query plan over ``variables``."""
    return _cached_query(formula, tuple(variables), frozenset(scope))


# Downstream plan caches (e.g. the weak-keyed CompiledService cache in
# repro.service.compiled) register their clear functions here so one
# clear_compile_cache() call invalidates every layer at once — a live
# service object must never keep serving plans from a previous cache
# generation.
_CACHE_CLEARERS: list = []


def register_cache_clearer(fn) -> None:
    """Register a thunk to run whenever the plan caches are cleared."""
    _CACHE_CLEARERS.append(fn)


def clear_compile_cache() -> None:
    """Drop all cached plans (tests and memory-sensitive callers)."""
    _cached_formula.cache_clear()
    _cached_query.cache_clear()
    for clear in _CACHE_CLEARERS:
        clear()


# Deferred import: evaluation.py imports this module at its bottom; the
# names used here are all defined above that point, so the cycle is safe
# in either import order.
from repro.fol.evaluation import (  # noqa: E402
    MissingInputConstantError,
    UnboundVariableError,
    UnknownRelationError,
    _flatten_and,
)
