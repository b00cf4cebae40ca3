"""Classify a Web service against the paper's decidability map.

The verifier dispatches on the class of the (service, property) pair:

- **input-bounded** (§3): linear-time verification decidable
  (Theorem 3.5);
- **propositional input-bounded** (§4): CTL/CTL* verification decidable
  (Theorem 4.4);
- **fully propositional**: CTL* verification in PSPACE (Theorem 4.6);
- **input-driven search** (Definition 4.7): CTL/CTL* verification
  decidable (Theorem 4.9);
- anything else: undecidable in general (Theorems 3.7-3.9, 4.2), and
  :func:`classify` reports *which* restriction fails and why.
"""

from __future__ import annotations

import dataclasses
import enum
import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.fol.analysis import (
    atoms_of,
    check_input_bounded,
    check_input_rule_formula,
    free_variables,
    relation_names,
)
from repro.fol.compile import register_cache_clearer
from repro.fol.formulas import And, Atom, Eq, Exists, Formula, Not, Or
from repro.fol.terms import DbConst, Var
from repro.service.webservice import WebService

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.analysis.dataflow import StaticFacts


class ServiceClass(enum.Enum):
    """Decidable classes of Web services identified by the paper."""

    INPUT_BOUNDED = "input-bounded (Theorem 3.5)"
    PROPOSITIONAL = "propositional input-bounded (Theorem 4.4)"
    FULLY_PROPOSITIONAL = "fully propositional (Theorem 4.6)"
    INPUT_DRIVEN_SEARCH = "input-driven search (Theorem 4.9)"
    SIMPLE = "simple (Definition A.8)"
    UNRESTRICTED = "unrestricted (verification undecidable in general)"


@dataclass(frozen=True)
class ProjectionSite:
    """One state-insertion rule that projects a state relation.

    Locates a Theorem 3.8 trigger: on ``page``, the insertion rule for
    ``head`` contains the state atom ``atom`` with at least one
    existentially quantified variable — the rule computes a projection
    of ``atom``'s relation, the extension for which verification is
    undecidable.
    """

    page: str
    head: str
    atom: str
    rule: str

    def __str__(self) -> str:
        return (
            f"page {self.page}, state rule {self.head}: projects state "
            f"atom {self.atom} (existentially quantified variable)"
        )


@dataclass
class ClassificationReport:
    """Which decidable classes a service belongs to, with explanations."""

    classes: set[ServiceClass] = field(default_factory=set)
    reasons: dict[ServiceClass, list[str]] = field(default_factory=dict)
    has_state_projections: bool = False
    uses_prev: bool = False
    state_projections: list[ProjectionSite] = field(default_factory=list)
    #: whole-service dataflow facts (repro.analysis.dataflow) — shared
    #: with the classification so one report answers both "which
    #: theorems apply" and "what does the fixpoint know".
    static_facts: "StaticFacts | None" = None

    def is_in(self, cls: ServiceClass) -> bool:
        return cls in self.classes

    def copy(self) -> "ClassificationReport":
        """A copy whose classes, reasons and projection sites the caller
        may change without changing this report."""
        return dataclasses.replace(
            self,
            classes=set(self.classes),
            reasons={cls: list(why) for cls, why in self.reasons.items()},
            state_projections=list(self.state_projections),
        )

    def why_not(self, cls: ServiceClass) -> list[str]:
        """Why the service is *not* in the given class (empty if it is)."""
        return self.reasons.get(cls, [])

    def describe(self) -> str:
        lines = ["service classification:"]
        for cls in ServiceClass:
            if cls is ServiceClass.UNRESTRICTED:
                continue
            mark = "yes" if cls in self.classes else "no "
            lines.append(f"  [{mark}] {cls.value}")
            for reason in self.reasons.get(cls, [])[:4]:
                lines.append(f"        - {reason}")
        if self.has_state_projections:
            lines.append(
                "  note: uses state projections (undecidable extension, Thm 3.8)"
            )
            for site in self.state_projections[:4]:
                lines.append(f"        - {site}")
        return "\n".join(lines)


#: per-service memo — services are immutable, so a report never goes
#: stale; weak keys let services die normally
_REPORTS: "weakref.WeakKeyDictionary[WebService, ClassificationReport]" = (
    weakref.WeakKeyDictionary()
)
_REPORTS_LOCK = threading.Lock()


def _clear_reports() -> None:
    _REPORTS.clear()


# one clear_compile_cache() leaves classification cold too
register_cache_clearer(_clear_reports)


def classify(service: WebService) -> ClassificationReport:
    """Classify ``service`` against every decidable class.

    The classification runs once per service object; every call, the
    verifiers' pre-flight checks included, gets its own
    :meth:`~ClassificationReport.copy` of the kept report, so changing a
    report changes no later call's.
    """
    report = _REPORTS.get(service)
    if report is None:
        report = _classify(service)
        with _REPORTS_LOCK:
            _REPORTS[service] = report
    return report.copy()


def _classify(service: WebService) -> ClassificationReport:
    report = ClassificationReport()
    # The input-bounded check underlies three of the classes; compute it
    # once and share (each dependent check copies before extending).
    ib_problems = _check_input_bounded_service(service)
    checks = {
        ServiceClass.INPUT_BOUNDED: ib_problems,
        ServiceClass.PROPOSITIONAL: _check_propositional(service, ib_problems),
        ServiceClass.FULLY_PROPOSITIONAL: _check_fully_propositional(
            service, ib_problems
        ),
        ServiceClass.INPUT_DRIVEN_SEARCH: _check_input_driven_search(
            service, ib_problems
        ),
        ServiceClass.SIMPLE: _check_simple(service),
    }
    for cls, problems in checks.items():
        if problems:
            report.reasons[cls] = problems
        else:
            report.classes.add(cls)
    if not report.classes:
        report.classes.add(ServiceClass.UNRESTRICTED)
    report.state_projections = find_state_projections(service)
    report.has_state_projections = bool(report.state_projections)
    report.uses_prev = _uses_prev(service)
    # Lazy import: the analysis layer sits above the service layer and
    # must not become a hard import-time dependency of classification.
    from repro.analysis.dataflow import static_facts

    report.static_facts = static_facts(service)
    return report


# ---------------------------------------------------------------------------
# individual class checks (each returns a list of problems, empty = member)
# ---------------------------------------------------------------------------

def _check_input_bounded_service(service: WebService) -> list[str]:
    problems: list[str] = []
    pages = service.page_names
    for page, kind, formula in service.all_rule_formulas():
        where = f"page {page.name}, {kind} rule"
        if kind == "input":
            rep = check_input_rule_formula(formula, service.schema)
        else:
            rep = check_input_bounded(formula, service.schema, pages)
        if not rep.ok:
            problems.extend(f"{where}: {r}" for r in rep.reasons)
    return problems


def _check_propositional(
    service: WebService, ib_problems: list[str] | None = None
) -> list[str]:
    """Propositional services (§4): input-bounded, propositional states
    and actions, and no ``Prev_I`` atoms in any rule."""
    problems = list(
        ib_problems
        if ib_problems is not None
        else _check_input_bounded_service(service)
    )
    for sym in service.schema.state.relations:
        if sym.arity != 0:
            problems.append(f"state relation {sym} is not propositional")
    for sym in service.schema.action.relations:
        if sym.arity != 0:
            problems.append(f"action relation {sym} is not propositional")
    if _uses_prev(service):
        problems.append("rules use prev_I atoms, not allowed for this class")
    return problems


def _check_fully_propositional(
    service: WebService, ib_problems: list[str] | None = None
) -> list[str]:
    """Fully propositional services (Theorem 4.6): everything is
    propositional and the database plays no role."""
    problems = _check_propositional(service, ib_problems)
    for sym in service.schema.input.relations:
        if sym.arity != 0:
            problems.append(f"input relation {sym} is not propositional")
    if service.schema.input_constants:
        problems.append(
            f"service uses input constants "
            f"{sorted(service.schema.input_constants)}"
        )
    db_names = {sym.name for sym in service.schema.database.relations}
    for page, kind, formula in service.all_rule_formulas():
        used = relation_names(formula) & db_names
        if used:
            problems.append(
                f"page {page.name}, {kind} rule reads database relations "
                f"{sorted(used)}"
            )
    return problems


def _check_simple(service: WebService) -> list[str]:
    """Simple services (Definition A.8): one page, no input constants."""
    problems: list[str] = []
    if len(service.pages) != 1:
        problems.append(f"service has {len(service.pages)} pages, not 1")
    if service.schema.input_constants:
        problems.append(
            f"input schema has constants {sorted(service.schema.input_constants)}"
        )
    return problems


def _check_input_driven_search(
    service: WebService, ib_problems: list[str] | None = None
) -> list[str]:
    """Input-driven-search services (Definition 4.7)."""
    problems = list(
        ib_problems
        if ib_problems is not None
        else _check_input_bounded_service(service)
    )
    schema = service.schema

    inputs = sorted(schema.input.relations)
    if len(inputs) != 1 or inputs[0].arity != 1:
        problems.append("input schema must consist of a single unary relation I")
        return problems
    input_sym = inputs[0]
    if schema.input_constants:
        problems.append("input constants are not allowed")

    not_start = schema.state.get("not_start") or schema.state.get("not-start")
    if not_start is None or not_start.arity != 0:
        problems.append("state schema must include the proposition not_start")
    for sym in schema.state.relations:
        if sym.arity != 0:
            problems.append(f"state relation {sym} is not propositional")
    for sym in schema.action.relations:
        if sym.arity != 0:
            problems.append(f"action relation {sym} is not propositional")

    if "i0" not in schema.database.constants:
        problems.append("database schema must include the constant i0")
    search_rel = schema.database.get("R_I") or schema.database.get("RI")
    if search_rel is None or search_rel.arity != 2:
        problems.append("database schema must include a binary relation R_I")

    if problems:
        return problems

    for page in service.pages.values():
        rule = page.input_rule_for(input_sym.name)
        if rule is None:
            problems.append(f"page {page.name} lacks the input rule for I")
            continue
        if not _matches_ids_input_rule(
            rule.formula, rule.variables[0], input_sym.name, search_rel.name,
            not_start.name, service,
        ):
            problems.append(
                f"page {page.name}: input rule does not match the "
                "input-driven-search shape of Definition 4.7"
            )
    # The state rule for not_start must be the toggle not_start <- !not_start.
    toggled_somewhere = False
    for page in service.pages.values():
        ins, _ = page.state_rules_for(not_start.name)
        if ins is not None and ins.formula == Not(Atom(not_start.name, ())):
            toggled_somewhere = True
        elif ins is not None:
            problems.append(
                f"page {page.name}: not_start rule must be "
                "not_start <- !not_start"
            )
    if not toggled_somewhere:
        problems.append("no page sets not_start via not_start <- !not_start")
    return problems


def _matches_ids_input_rule(
    formula: Formula,
    head_var: str,
    input_name: str,
    search_rel: str,
    not_start: str,
    service: WebService,
) -> bool:
    """Match ``(¬not_start ∧ y = i0) ∨ (not_start ∧ ∃x(prev_I(x) ∧
    R_I(x,y)) ∧ φ(y))`` with φ quantifier-free over D ∪ S."""
    if not isinstance(formula, Or) or len(formula.parts) != 2:
        return False

    def is_start_branch(f: Formula) -> bool:
        if not isinstance(f, And) or len(f.parts) != 2:
            return False
        has_neg = any(
            isinstance(p, Not) and p.body == Atom(not_start, ()) for p in f.parts
        )
        has_eq = any(
            isinstance(p, Eq)
            and isinstance(p.left, Var)
            and p.left.name == head_var
            and isinstance(p.right, DbConst)
            and p.right.name == "i0"
            for p in f.parts
        )
        return has_neg and has_eq

    def is_search_branch(f: Formula) -> bool:
        if not isinstance(f, And):
            return False
        has_state = any(p == Atom(not_start, ()) for p in f.parts)
        has_step = False
        for p in f.parts:
            if isinstance(p, Exists) and len(p.variables) == 1:
                x = p.variables[0]
                body = p.body
                conj = list(body.parts) if isinstance(body, And) else [body]
                has_prev = any(
                    isinstance(q, Atom)
                    and q.relation == f"prev_{input_name}"
                    and q.terms == (Var(x),)
                    for q in conj
                )
                has_edge = any(
                    isinstance(q, Atom)
                    and q.relation == search_rel
                    and q.terms == (Var(x), Var(head_var))
                    for q in conj
                )
                if has_prev and has_edge:
                    has_step = True
        return has_state and has_step

    a, b = formula.parts
    return (is_start_branch(a) and is_search_branch(b)) or (
        is_start_branch(b) and is_search_branch(a)
    )


def find_state_projections(service: WebService) -> list[ProjectionSite]:
    """Locate every state-projection insertion rule (Theorem 3.8).

    A projection rule computes ``S(x̄) ← … ∃ȳ(… S'(x̄, ȳ) …) …`` — a
    state atom with at least one existentially quantified variable.
    Unlike a bare top-level ``∃y S'(x, y)`` match, this walks the whole
    body, so projections nested under conjunctions, negations, or
    multi-variable quantifier blocks are found too, and each finding
    names the page and rule that triggers the theorem.
    """
    state_names = {sym.name for sym in service.schema.state.relations}
    sites: list[ProjectionSite] = []
    # The walk can surface the same (page, rule, atom) several times — a
    # projected atom repeated across Or-branches, or reached through
    # nested quantifier blocks — which used to double-report the site.
    # One finding per distinct site, in discovery order.
    seen: set[tuple[str, str, str]] = set()
    for page in service.pages.values():
        for rule in page.state_rules:
            if not rule.insert:
                continue
            for atom in _projected_atoms(rule.formula, state_names, frozenset()):
                key = (page.name, rule.state, str(atom))
                if key in seen:
                    continue
                seen.add(key)
                sites.append(
                    ProjectionSite(page.name, rule.state, str(atom), str(rule))
                )
    return sites


def _projected_atoms(
    f: Formula, state_names: set[str], bound: frozenset[str]
) -> list[Atom]:
    if isinstance(f, Atom):
        vars_in = {t.name for t in f.terms if isinstance(t, Var)}
        if f.relation in state_names and vars_in & bound:
            return [f]
        return []
    if isinstance(f, Exists):
        return _projected_atoms(f.body, state_names, bound | set(f.variables))
    out: list[Atom] = []
    for child in _formula_children(f):
        out.extend(_projected_atoms(child, state_names, bound))
    return out


def _formula_children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, (And, Or)):
        return f.parts
    if hasattr(f, "antecedent"):
        return (f.antecedent, f.consequent)
    if hasattr(f, "left") and hasattr(f, "right") and not isinstance(f, Eq):
        return (f.left, f.right)
    if hasattr(f, "body"):
        return (f.body,)
    return ()


def _uses_prev(service: WebService) -> bool:
    prev_names = {sym.name for sym in service.schema.prev.relations}
    for _page, _kind, formula in service.all_rule_formulas():
        if relation_names(formula) & prev_names:
            return True
    return False
