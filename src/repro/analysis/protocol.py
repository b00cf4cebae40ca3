"""Input-constant protocol and ambiguity audits.

Static over-approximations of Definition 2.3's error conditions:

- **constant protocol** (conditions (i)/(ii)): along static page paths,
  is an input constant ever read before some page has requested it, or
  requested twice?
- **ambiguity** (condition (iii)): can two target rules of a page fire
  together?  The static check is syntactic (shared-button exclusivity is
  not decided here); the exact check is error-freeness verification.

Findings carry a severity so reports can separate hard errors from
may-happen warnings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.navigation import page_graph
from repro.fol.analysis import input_constants_of
from repro.service.webservice import WebService


@dataclass(frozen=True)
class AuditFinding:
    """One static-audit finding."""

    severity: str  # "error" | "warning"
    page: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.page}: {self.message}"


def _page_reads(service: WebService, page_name: str) -> frozenset[str]:
    page = service.page(page_name)
    out: set[str] = set()
    for rule in page.all_rules():
        out |= input_constants_of(rule.formula)
    return frozenset(out)


def constant_protocol_audit(service: WebService) -> list[AuditFinding]:
    """Static audit of the input-constant protocol.

    Walks the static page graph from home, tracking which constants are
    certainly requested on *every* path (must-analysis) and which may be
    requested on *some* path (may-analysis):

    - a page reading a constant not must-requested yet → condition (i)
      may fire (warning) or, when not even may-requested, will fire
      (error);
    - a page requesting a constant that may already be requested →
      condition (ii) may fire (warning), or will (error) when
      must-requested.
    """
    graph = page_graph(service)
    findings: list[AuditFinding] = []

    # may[p] / must[p]: constants requested strictly before reaching p.
    may: dict[str, set[str]] = {service.home: set()}
    must: dict[str, set[str] | None] = {service.home: set()}
    order = [service.home]
    changed = True
    iterations = 0
    while changed and iterations < 4 * len(service.pages) + 4:
        changed = False
        iterations += 1
        for page_name in list(may):
            page = service.page(page_name)
            out_may = may[page_name] | set(page.input_constants)
            out_must = (must[page_name] or set()) | set(page.input_constants)
            for succ in graph[page_name]:
                if succ not in may:
                    may[succ] = set(out_may)
                    must[succ] = set(out_must)
                    order.append(succ)
                    changed = True
                    continue
                if not out_may <= may[succ]:
                    may[succ] |= out_may
                    changed = True
                narrowed = (must[succ] or set()) & out_must
                if narrowed != must[succ]:
                    must[succ] = narrowed
                    changed = True

    for page_name in order:
        page = service.page(page_name)
        requested_here = set(page.input_constants)
        reads = _page_reads(service, page_name) - requested_here
        for const in sorted(reads):
            if const not in may[page_name]:
                findings.append(AuditFinding(
                    "error", page_name,
                    f"reads @{const}, which no path can have provided "
                    "(condition (i) always fires here)",
                ))
            elif const not in (must[page_name] or set()):
                findings.append(AuditFinding(
                    "warning", page_name,
                    f"reads @{const}, which some path has not provided "
                    "(condition (i) may fire)",
                ))
        for const in sorted(requested_here):
            if const in (must[page_name] or set()):
                findings.append(AuditFinding(
                    "error", page_name,
                    f"re-requests @{const}, already provided on every "
                    "path here (condition (ii) always fires)",
                ))
            elif const in may[page_name]:
                findings.append(AuditFinding(
                    "warning", page_name,
                    f"re-requests @{const}, already provided on some "
                    "path here (condition (ii) may fire)",
                ))
        if requested_here:
            # the page graph always holds the page's own stay loop
            only_self = set(graph[page_name]) == {page_name}
            findings.append(AuditFinding(
                "error" if only_self else "warning", page_name,
                "requests constants but the run can stay here "
                "(re-request on the next step, condition (ii))",
            ))
    return findings


def ambiguity_audit(service: WebService) -> list[AuditFinding]:
    """Syntactic screen for condition (iii): pages with >= 2 target
    rules whose formulas are not mutually exclusive *syntactically*
    (i.e. neither contains the negation of the other)."""
    from repro.fol.formulas import And, Atom, Not
    from repro.fol.terms import Lit
    from repro.fol.transforms import nnf
    from repro.schema.symbols import RelationKind

    def ground_input_atoms(f) -> dict[str, set[tuple]]:
        """Positive ground atoms over input relations, per relation —
        a single user choice makes differing tuples mutually exclusive."""
        parts = set(f.parts) if isinstance(f, And) else {f}
        out: dict[str, set[tuple]] = {}
        for p in parts:
            if isinstance(p, Atom) and all(isinstance(t, Lit) for t in p.terms):
                sym = service.schema.resolve(p.relation)
                if sym is not None and sym.kind is RelationKind.INPUT:
                    out.setdefault(p.relation, set()).add(
                        tuple(t.value for t in p.terms)
                    )
        return out

    findings: list[AuditFinding] = []
    for page in service.pages.values():
        rules = list(page.target_rules)
        for i, r1 in enumerate(rules):
            for r2 in rules[i + 1:]:
                if r1.target == r2.target:
                    continue
                f1, f2 = nnf(r1.formula), nnf(r2.formula)
                if f2 == nnf(Not(r1.formula)) or f1 == nnf(Not(r2.formula)):
                    continue  # one formula is the other's complement
                parts1 = set(f1.parts) if isinstance(f1, And) else {f1}
                parts2 = set(f2.parts) if isinstance(f2, And) else {f2}
                exclusive = any(
                    nnf(Not(p)) in parts2 for p in parts1
                ) or any(
                    nnf(Not(p)) in parts1 for p in parts2
                )
                if not exclusive:
                    g1 = ground_input_atoms(f1)
                    g2 = ground_input_atoms(f2)
                    for rel, tuples1 in g1.items():
                        tuples2 = g2.get(rel, set())
                        if tuples1 and tuples2 and tuples1.isdisjoint(tuples2):
                            exclusive = True
                            break
                if not exclusive:
                    findings.append(AuditFinding(
                        "warning", page.name,
                        f"target rules {r1.target} and {r2.target} are not "
                        "syntactically exclusive (condition (iii) may fire); "
                        "run error-freeness verification to decide",
                    ))
    return findings


def audit_service(service: WebService) -> str:
    """One-call audit report: navigation + protocol + ambiguity."""
    from repro.analysis.navigation import navigation_report

    lines = [navigation_report(service), "", "protocol and ambiguity audit:"]
    findings = constant_protocol_audit(service) + ambiguity_audit(service)
    if not findings:
        lines.append("  no findings")
    for f in findings:
        lines.append(f"  {f}")
    return "\n".join(lines)
