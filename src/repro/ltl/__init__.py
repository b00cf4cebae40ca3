"""Linear-time temporal logic substrate.

- :mod:`repro.ltl.syntax` — propositional LTL over arbitrary hashable
  atom payloads, with the derived operators (F, G, B, R) of §3;
- :mod:`repro.ltl.lasso` — reference semantics on ultimately periodic
  words (used for testing and counterexample confirmation);
- :mod:`repro.ltl.buchi` — the tableau LTL→Büchi construction
  (transition-based generalized Büchi, degeneralised) and emptiness on
  its product with a transition system (``CompiledProduct``, searched
  through a ``ProductSearch``): a lasso search that decides a valuation
  by a plain pre-order walk and runs the nested DFS only when the walk
  meets an accepting transition, or replays the charges of a clean
  search the product kept, and the states with an accepting run;
- :mod:`repro.ltl.ltlfo` — LTL-FO sentences (Definition 3.1): universal
  closure of an LTL skeleton whose atoms are FO formulas.
"""

from repro.ltl.syntax import (
    LTLFormula,
    LTLAtom,
    LTLTrue,
    LTLFalse,
    LTL_TRUE,
    LTL_FALSE,
    LNot,
    LAnd,
    LOr,
    LX,
    LU,
    LR,
    LF,
    LG,
    LB,
    LImplies,
    ltl_nnf,
    ltl_atoms,
    ltl_size,
)
from repro.ltl.lasso import eval_on_lasso
from repro.ltl.buchi import BuchiAutomaton, BuchiTransition, ltl_to_buchi
from repro.ltl.ltlfo import (
    LTLFOSentence,
    X, U, G, F, B, Next, Until, Always, Eventually, Before,
    check_ltlfo_input_bounded,
    ltlfo_free_variables,
)
from repro.ltl.parser import parse_ltlfo, parse_ltl_skeleton

__all__ = [
    "parse_ltlfo", "parse_ltl_skeleton",
    "LTLFormula", "LTLAtom", "LTLTrue", "LTLFalse", "LTL_TRUE", "LTL_FALSE",
    "LNot", "LAnd", "LOr", "LX", "LU", "LR", "LF", "LG", "LB", "LImplies",
    "ltl_nnf", "ltl_atoms", "ltl_size",
    "eval_on_lasso",
    "BuchiAutomaton", "BuchiTransition", "ltl_to_buchi",
    "LTLFOSentence",
    "X", "U", "G", "F", "B", "Next", "Until", "Always", "Eventually", "Before",
    "check_ltlfo_input_bounded", "ltlfo_free_variables",
]
