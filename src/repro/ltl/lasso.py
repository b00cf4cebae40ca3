"""Reference LTL semantics on ultimately periodic words (lassos).

Every counterexample the verifier produces is a lasso — a finite prefix
``w[0..n-1]`` whose suffix from ``loop`` repeats forever.  This module
evaluates an LTL formula on such a word directly, by bottom-up labelling
with fixpoint iteration for U/R around the loop.  It is the oracle the
property-based tests compare the Büchi pipeline against, and the
confirmation step the verifier runs on each counterexample before
reporting it.
"""

from __future__ import annotations

from typing import Callable, Hashable

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
)

AtomEval = Callable[[int, Hashable], bool]


def eval_on_lasso(
    formula: LTLFormula,
    atom_eval: AtomEval,
    length: int,
    loop: int,
) -> bool:
    """Truth of ``formula`` at position 0 of the lasso word.

    Parameters
    ----------
    formula:
        The LTL formula (any form; no NNF required).
    atom_eval:
        ``atom_eval(i, payload)`` gives the truth of the atom at position
        ``i`` (0 <= i < length).
    length:
        Number of distinct positions.
    loop:
        The successor of position ``length - 1`` is position ``loop``.
    """
    if not (0 <= loop < length):
        raise ValueError(f"loop index {loop} out of range for length {length}")

    def succ(i: int) -> int:
        return loop if i == length - 1 else i + 1

    cache: dict[LTLFormula, list[bool]] = {}

    def labels(f: LTLFormula) -> list[bool]:
        if f in cache:
            return cache[f]
        if isinstance(f, LTLTrue):
            result = [True] * length
        elif isinstance(f, LTLFalse):
            result = [False] * length
        elif isinstance(f, LTLAtom):
            result = [atom_eval(i, f.payload) for i in range(length)]
        elif isinstance(f, LNot):
            result = [not v for v in labels(f.body)]
        elif isinstance(f, LAnd):
            left, right = labels(f.left), labels(f.right)
            result = [a and b for a, b in zip(left, right)]
        elif isinstance(f, LOr):
            left, right = labels(f.left), labels(f.right)
            result = [a or b for a, b in zip(left, right)]
        elif isinstance(f, LX):
            body = labels(f.body)
            result = [body[succ(i)] for i in range(length)]
        elif isinstance(f, LU):
            left, right = labels(f.left), labels(f.right)
            # Least fixpoint of  U = right ∨ (left ∧ X U)  on the lasso.
            result = list(right)
            for _ in range(2 * length):
                changed = False
                for i in range(length - 1, -1, -1):
                    v = right[i] or (left[i] and result[succ(i)])
                    if v != result[i]:
                        result[i] = v
                        changed = True
                if not changed:
                    break
        elif isinstance(f, LR):
            left, right = labels(f.left), labels(f.right)
            # Greatest fixpoint of  R = right ∧ (left ∨ X R).
            result = list(right)
            for _ in range(2 * length):
                changed = False
                for i in range(length - 1, -1, -1):
                    v = right[i] and (left[i] or result[succ(i)])
                    if v != result[i]:
                        result[i] = v
                        changed = True
                if not changed:
                    break
        else:
            raise TypeError(f"unknown LTL formula {f!r}")
        cache[f] = result
        return result

    try:
        return labels(formula)[0]
    finally:
        # ``labels`` refers to itself through its closure cell; dropping
        # it frees ``atom_eval`` and the cache now, not when the cycle
        # collector next runs
        del labels
