"""First-order logic substrate.

Terms, formulas, active-domain evaluation, a text parser, syntactic
analyses (free variables, vocabulary usage, the paper's *input-bounded*
restriction from §3) and formula transformations (NNF, simplification,
grounding, quantifier-free projection).

Formulas are immutable ASTs referring to relations *by name*; names are
resolved against a schema at validation/evaluation time, which keeps
formula construction independent of any particular service.
"""

from repro.fol.terms import Term, Var, Lit, DbConst, InputConst
from repro.fol.formulas import (
    Formula,
    Atom,
    Eq,
    Top,
    Bottom,
    TRUE,
    FALSE,
    Not,
    And,
    Or,
    Implies,
    Iff,
    Exists,
    Forall,
    atom,
    neq,
)
from repro.fol.evaluation import (
    EvalContext,
    MissingInputConstantError,
    UnknownRelationError,
    evaluate,
    evaluate_interpreted,
    evaluate_query,
    evaluate_query_interpreted,
)
from repro.fol.compile import (
    CompiledFormula,
    CompiledQuery,
    compile_formula,
    compile_query,
)
from repro.fol.parser import parse_formula, parse_term, FormulaSyntaxError
from repro.fol.analysis import (
    free_variables,
    all_variables,
    atoms_of,
    relation_names,
    input_constants_of,
    db_constants_of,
    literals_of,
    is_quantifier_free,
    is_existential,
    InputBoundednessReport,
    check_input_bounded,
    check_input_rule_formula,
)
from repro.fol.tclogic import (
    TC,
    evaluate_tc,
    finite_satisfiable,
    is_witness_bounded,
    is_fow_pos_tc,
    is_existential_tc,
)
from repro.fol.transforms import (
    nnf,
    simplify,
    substitute,
    ground,
    rename_relations,
    formula_size,
)

__all__ = [
    "Term", "Var", "Lit", "DbConst", "InputConst",
    "Formula", "Atom", "Eq", "Top", "Bottom", "TRUE", "FALSE",
    "Not", "And", "Or", "Implies", "Iff", "Exists", "Forall", "atom", "neq",
    "EvalContext", "MissingInputConstantError", "UnknownRelationError",
    "evaluate", "evaluate_query",
    "evaluate_interpreted", "evaluate_query_interpreted",
    "CompiledFormula", "CompiledQuery", "compile_formula", "compile_query",
    "parse_formula", "parse_term", "FormulaSyntaxError",
    "free_variables", "all_variables", "atoms_of", "relation_names",
    "input_constants_of", "db_constants_of", "literals_of",
    "is_quantifier_free", "is_existential",
    "InputBoundednessReport", "check_input_bounded", "check_input_rule_formula",
    "nnf", "simplify", "substitute", "ground", "rename_relations", "formula_size",
    "TC", "evaluate_tc", "finite_satisfiable",
    "is_witness_bounded", "is_fow_pos_tc", "is_existential_tc",
]
