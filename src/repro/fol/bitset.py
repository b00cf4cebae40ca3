"""Set-at-a-time bitset evaluation for compiled plans.

The valuation-at-a-time verifier evaluates each FO payload once per
``(snapshot, payload, valuation)`` triple.  The valuations of one
``(database, sigma)`` pair form a *fixed finite block* — the full
product of the property's closure variables over the valuation domain —
so "which valuations satisfy this payload on this snapshot" is a subset
of the block, representable as a packed integer bitset: bit *i* is the
truth value at the *i*-th valuation.  One arithmetic pass over a
relation then labels a snapshot for *every* valuation at once, and the
verifier dedups whole valuation classes whose labels provably coincide
(the same move the DCDS line and recency-bounded verification use to
work over sets of configurations instead of single ones).

The core stays zero-dependency: bitsets are Python arbitrary-precision
ints (an optional vectorised backend can be layered on top, but is
never required).

Valuation-index layout
----------------------
:class:`ValuationBlock` fixes the layout: valuation *i* is the *i*-th
element of ``itertools.product(values, repeat=len(variables))`` — row
major, last variable fastest, so variable ``j`` has stride
``len(values) ** (k - 1 - j)``.  ``var_mask(v, a)`` (the bitset of
valuations assigning ``a`` to ``v``) is therefore a periodic run
pattern, computed once per (variable, value) and cached on the block.

Semantics contract (vs. :mod:`repro.fol.compile` plans)
-------------------------------------------------------
For every valuation ``i`` of the block, bit ``i`` of
``compile_bits(f, vars)(ctx, block)`` equals
``compile_formula(f, vars).check(ctx, valuation_i)`` whenever the
latter returns; the constant-fold shortcut mirrors
``compile._fold_shortcut`` exactly (same input-constant and
free-variable guards, same empty-domain runtime guard) so the two
engines fold the same subtrees.  Exceptions
(:class:`MissingInputConstantError`, :class:`UnknownRelationError`,
:class:`UnboundVariableError`) are environment-independent, and the
boolean connectives mirror the per-valuation short-circuit at the
block level (a conjunct is skipped exactly when no valuation reaches
it), so the block evaluation raises **iff** some valuation's
evaluation raises — with one documented deviation: when a conjunct's
truth varies across the block and a *later* conjunct raises, the block
evaluation raises for every valuation while the per-valuation sweep
would return ``False`` on the valuations the earlier conjunct already
falsified.  Such payloads are unreachable through ``verify_ltlfo``'s
statically-checked properties (the §3 input-bounded check resolves
every relation and closure variable up front); the differential suite
enforces the contract.

Quantified subtrees fall back to *projection*: the quantifier node is
evaluated through its compiled plan once per assignment of the
``free ∩ block`` variables (``|values| ** |free|`` evaluations instead
of ``|values| ** k``) and the hits are expanded back to block masks.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterable

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
from repro.fol.terms import Var
from repro.fol.transforms import constant_fold

Value = Hashable

#: (ctx, block) -> int bitset over the block's valuations.
BitsFn = Callable[..., int]

__all__ = [
    "ValuationBlock",
    "compile_bits",
]


# -- the valuation block -----------------------------------------------------

class ValuationBlock:
    """The full valuation product of ``variables`` over ``values``.

    Fixes the bitset layout for one ``(database, sigma)`` pair:
    valuation *i* is ``combos()[i]`` in ``itertools.product`` order
    (row major, last variable fastest).  ``values`` must be the sorted
    valuation domain the verifier enumerates — the layout is part of
    every cached bitset's identity, so :meth:`key` includes it.
    """

    __slots__ = ("variables", "values", "n", "all_mask", "_pos", "_masks")

    def __init__(
        self, variables: Iterable[str], values: Iterable[Value]
    ) -> None:
        self.variables = tuple(variables)
        self.values = tuple(values)
        self.n = len(self.values) ** len(self.variables)
        self.all_mask = (1 << self.n) - 1
        self._pos = {v: i for i, v in enumerate(self.values)}
        self._masks: dict[tuple[str, int], int] = {}

    def key(self) -> tuple:
        """Everything the bit layout depends on (cache-key component):
        how many variables there are, not their names, and the values."""
        return (len(self.variables), self.values)

    def combos(self):
        """The valuations in index order (mirrors the verifier's loop)."""
        return itertools.product(self.values, repeat=len(self.variables))

    def var_mask(self, variable: str, value: Value) -> int:
        """Bitset of the valuations assigning ``value`` to ``variable``.

        A value outside the block's domain matches no valuation (0) —
        exactly the per-valuation outcome, where every enumerated
        assignment draws from the domain and the equality fails.
        """
        pos = self._pos.get(value)
        if pos is None:
            return 0
        memo_key = (variable, pos)
        mask = self._masks.get(memo_key)
        if mask is None:
            j = self.variables.index(variable)
            m = len(self.values)
            stride = m ** (len(self.variables) - 1 - j)
            run = (1 << stride) - 1
            period = m * stride
            mask = 0
            for start in range(pos * stride, self.n, period):
                mask |= run << start
            self._masks[memo_key] = mask
        return mask


# -- bits compilation --------------------------------------------------------

_EMPTY_ENV: dict = {}


def compile_bits(formula: Formula, variables: Iterable[str]) -> BitsFn:
    """Compile a set-at-a-time truth check over ``variables``.

    The returned closure maps ``(ctx, block)`` — with
    ``block.variables == tuple(variables)`` — to the bitset of
    satisfying valuations.  Compilation mirrors
    :func:`repro.fol.compile._compile` node for node, including the
    constant-fold shortcut, so bit *i* always equals the scalar plan's
    ``check`` at valuation *i*.
    """
    return _bits(formula, tuple(variables))


def _bits(f: Formula, vars_t: tuple[str, ...]) -> BitsFn:
    shortcut = _bits_fold(f, vars_t)
    if shortcut is not None:
        return shortcut
    return _bits_node(f, vars_t)


def _bits_fold(f: Formula, vars_t: tuple[str, ...]) -> BitsFn | None:
    """Block-level mirror of ``compile._fold_shortcut``.

    Same guards (no input constants, free variables inside the scope),
    same runtime guard for quantified subtrees over a possibly-empty
    domain — so the bitset engine folds a subtree exactly when the
    scalar plan does and the bits stay per-valuation identical.
    """
    if isinstance(f, (Top, Bottom)):
        return None  # already constant structurally
    if input_constants_of(f):
        return None
    if not free_variables(f) <= frozenset(vars_t):
        return None
    folded = constant_fold(f)
    if isinstance(folded, Top):
        value = True
    elif isinstance(folded, Bottom):
        value = False
    else:
        return None
    if is_quantifier_free(f):
        if value:
            return lambda ctx, block: block.all_mask
        return lambda ctx, block: 0
    structural = _bits_node(f, vars_t)

    def guarded(ctx, block, _v=value, _s=structural):
        if ctx.domain:
            return block.all_mask if _v else 0
        return _s(ctx, block)

    return guarded


def _bits_node(f: Formula, vars_t: tuple[str, ...]) -> BitsFn:
    if isinstance(f, Top):
        return lambda ctx, block: block.all_mask
    if isinstance(f, Bottom):
        return lambda ctx, block: 0
    if isinstance(f, Atom):
        return _bits_atom(f, vars_t)
    if isinstance(f, Eq):
        return _bits_eq(f, vars_t)
    if isinstance(f, Not):
        body = _bits(f.body, vars_t)
        return lambda ctx, block, _b=body: block.all_mask ^ _b(ctx, block)
    if isinstance(f, And):
        parts = tuple(_bits(p, vars_t) for p in f.parts)

        def bits_and(ctx, block, _parts=parts):
            acc = block.all_mask
            for part in _parts:
                # Once every valuation is falsified no valuation reaches
                # the remaining conjuncts — the block-level image of the
                # interpreter's per-valuation short circuit.
                if acc == 0:
                    return 0
                acc &= part(ctx, block)
            return acc

        return bits_and
    if isinstance(f, Or):
        parts = tuple(_bits(p, vars_t) for p in f.parts)

        def bits_or(ctx, block, _parts=parts):
            acc = 0
            for part in _parts:
                if acc == block.all_mask:
                    return acc
                acc |= part(ctx, block)
            return acc

        return bits_or
    if isinstance(f, Implies):
        ant = _bits(f.antecedent, vars_t)
        con = _bits(f.consequent, vars_t)

        def bits_implies(ctx, block, _a=ant, _c=con):
            a = _a(ctx, block)
            if a == 0:
                # vacuously true everywhere; no valuation evaluates the
                # consequent (matching the scalar short circuit)
                return block.all_mask
            return (block.all_mask ^ a) | _c(ctx, block)

        return bits_implies
    if isinstance(f, Iff):
        # the scalar plan always evaluates both sides; so do we
        left = _bits(f.left, vars_t)
        right = _bits(f.right, vars_t)

        def bits_iff(ctx, block, _l=left, _r=right):
            return block.all_mask ^ _l(ctx, block) ^ _r(ctx, block)

        return bits_iff
    if isinstance(f, (Exists, Forall)):
        return _bits_project(f, vars_t)
    raise TypeError(f"cannot compile {f!r}")


def _bits_atom(a: Atom, vars_t: tuple[str, ...]) -> BitsFn:
    relation = a.relation
    var_set = frozenset(vars_t)
    if not a.terms:
        def bits_prop(ctx, block, _rel=relation):
            tuples = ctx.relation_tuples(_rel)
            if tuples is None:
                if _rel in ctx.page_names:
                    return block.all_mask if _rel == ctx.page else 0
                raise UnknownRelationError(_rel)
            return block.all_mask if () in tuples else 0

        return bits_prop
    # Positions split into block-variable slots and fixed terms; fixed
    # terms are evaluated once per call in position order, so the first
    # raising term matches the per-valuation sweep (block variables
    # never raise — they are bound in every valuation).
    fixed: list[tuple[int, Callable]] = []
    varpos: list[tuple[int, str]] = []
    for i, term in enumerate(a.terms):
        if isinstance(term, Var) and term.name in var_set:
            varpos.append((i, term.name))
        else:
            fixed.append((i, _compile_term(term)))
    fixed_t = tuple(fixed)
    varpos_t = tuple(varpos)

    def bits_atom(ctx, block, _rel=relation, _fixed=fixed_t, _varpos=varpos_t):
        tuples = ctx.relation_tuples(_rel)
        if tuples is None:
            raise UnknownRelationError(_rel)
        # The interpreter evaluates every term before the membership
        # test, even over an empty relation — keep that error timing.
        fixed_vals = tuple((i, ev(ctx, _EMPTY_ENV)) for i, ev in _fixed)
        full = block.all_mask
        out = 0
        for row in tuples:
            ok = True
            for i, v in fixed_vals:
                if row[i] != v:
                    ok = False
                    break
            if not ok:
                continue
            m = full
            # A repeated block variable composes correctly: masks of the
            # same variable at different values are disjoint, so the AND
            # keeps exactly the rows with equal entries at both slots.
            for i, name in _varpos:
                m &= block.var_mask(name, row[i])
                if not m:
                    break
            out |= m
            if out == full:
                break
        return out

    return bits_atom


def _bits_eq(f: Eq, vars_t: tuple[str, ...]) -> BitsFn:
    var_set = frozenset(vars_t)
    left, right = f.left, f.right
    lvar = isinstance(left, Var) and left.name in var_set
    rvar = isinstance(right, Var) and right.name in var_set
    if lvar and rvar:
        if left.name == right.name:
            return lambda ctx, block: block.all_mask
        a, b = left.name, right.name

        def bits_vv(ctx, block, _a=a, _b=b):
            out = 0
            for v in block.values:
                out |= block.var_mask(_a, v) & block.var_mask(_b, v)
            return out

        return bits_vv
    if lvar or rvar:
        name = left.name if lvar else right.name
        ev = _compile_term(right if lvar else left)

        def bits_var(ctx, block, _name=name, _ev=ev):
            return block.var_mask(_name, _ev(ctx, _EMPTY_ENV))

        return bits_var
    evl = _compile_term(left)
    evr = _compile_term(right)

    def bits_fixed(ctx, block, _l=evl, _r=evr):
        return block.all_mask if _l(ctx, _EMPTY_ENV) == _r(ctx, _EMPTY_ENV) else 0

    return bits_fixed


def _bits_project(f: Formula, vars_t: tuple[str, ...]) -> BitsFn:
    """Quantifier fallback: evaluate the compiled scalar plan once per
    assignment of the node's free block variables and expand the hits.

    ``|values| ** |free|`` plan evaluations instead of ``|values| ** k``
    — quantified payload subtrees rarely mention every closure
    variable.  Free variables *outside* the block raise
    :class:`UnboundVariableError` through the plan, exactly as the
    per-valuation environment (which binds only block variables) would.
    """
    free = tuple(v for v in vars_t if v in free_variables(f))
    plan = compile_formula(f, frozenset(free))

    def bits_proj(ctx, block, _free=free, _plan=plan):
        if not _free:
            return block.all_mask if _plan.check(ctx, _EMPTY_ENV) else 0
        full = block.all_mask
        out = 0
        for combo in itertools.product(block.values, repeat=len(_free)):
            if _plan.check(ctx, dict(zip(_free, combo))):
                m = full
                for name, v in zip(_free, combo):
                    m &= block.var_mask(name, v)
                out |= m
        return out

    return bits_proj


# Deferred import: compile.py's plan objects call into this module
# lazily (CompiledFormula.bits), so importing compile here is safe in
# either order; the error classes live with the interpreter.
from repro.fol.compile import _compile_term, compile_formula  # noqa: E402
from repro.fol.evaluation import UnknownRelationError  # noqa: E402
