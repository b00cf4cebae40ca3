"""The linter's analysis passes.

Each pass is a function ``WebService -> list[Diagnostic]``; the engine
(:mod:`repro.lint.engine`) runs them in order.  The passes reuse the
repo's existing analyses — the navigation graph and protocol audits of
:mod:`repro.analysis`, the syntactic-restriction checks of
:mod:`repro.fol.analysis`, and the located projection finder of
:mod:`repro.service.classify` — and re-express their findings as coded,
located diagnostics.

- **page-graph**: unreachable pages, sink pages, target rules that can
  statically select two pages at once (Definition 2.3, condition (iii)),
  dead target rules, and the input-constant protocol (conditions (i)
  and (ii));
- **schema-usage**: state relations written but never read / read but
  never written, input relations no page offers, database relations no
  rule reads, and ``prev_I`` atoms on pages none of whose predecessors
  provides ``I``;
- **rule-level**: constant folding of rule bodies (statically empty
  options are an error — the verifier would burn its budget discovering
  an interaction that can never happen), unconstrained head variables,
  and monotone state relations;
- **frontier**: the undecidability triggers of Theorems 3.7/3.8/3.9 and
  the propositional-class boundaries of §4, located per rule;
- **dataflow**: whole-service facts from the fixpoint abstract
  interpretation of :mod:`repro.analysis.dataflow` — refined
  reachability, dead rules, write-only state relations and
  definitely-unset constant reads, each with a page-graph witness path.
"""

from __future__ import annotations

from repro.analysis.navigation import page_graph, unreachable_pages
from repro.analysis.protocol import ambiguity_audit, constant_protocol_audit
from repro.fol.analysis import (
    check_input_bounded,
    check_input_rule_formula,
    free_variables,
    relation_names,
)
from repro.fol.formulas import Bottom
from repro.fol.transforms import constant_fold
from repro.lint.catalog import diag
from repro.lint.diagnostics import Diagnostic, Severity
from repro.schema.symbols import unprev_name
from repro.service.classify import find_state_projections
from repro.service.webservice import WebService


# ---------------------------------------------------------------------------
# page-graph pass
# ---------------------------------------------------------------------------

def pass_page_graph(service: WebService) -> list[Diagnostic]:
    """Navigation structure and the Definition 2.3 error protocol."""
    out: list[Diagnostic] = []

    for page_name in sorted(unreachable_pages(service)):
        out.append(diag(
            "P101",
            f"no chain of target rules reaches {page_name!r} from the home "
            f"page {service.home!r}",
            page=page_name, rule_kind="page",
        ))

    for page in service.pages.values():
        if not page.target_rules:
            out.append(diag(
                "P102",
                f"page {page.name!r} has no target rule: every run reaching "
                "it stays there forever",
                page=page.name, rule_kind="page",
            ))

    # Dead target rules, and pairs that statically always fire together.
    identical_pairs: set[tuple[str, str, str]] = set()
    for page in service.pages.values():
        folded = {
            rule: constant_fold(rule.formula) for rule in page.target_rules
        }
        for rule, f in folded.items():
            if isinstance(f, Bottom):
                out.append(diag(
                    "P104",
                    f"target rule {rule.target} <- {rule.formula} constant-"
                    "folds to false: the transition can never fire",
                    page=page.name, rule_kind="target", rule_head=rule.target,
                ))
        rules = list(page.target_rules)
        for i, r1 in enumerate(rules):
            for r2 in rules[i + 1:]:
                if r1.target == r2.target:
                    continue
                f1, f2 = folded[r1], folded[r2]
                if isinstance(f1, Bottom) or isinstance(f2, Bottom):
                    continue
                if f1 == f2:
                    identical_pairs.add((page.name, r1.target, r2.target))
                    identical_pairs.add((page.name, r2.target, r1.target))
                    out.append(diag(
                        "P103",
                        f"target rules for {r1.target} and {r2.target} have "
                        "the same condition: whenever one fires both do, and "
                        "error condition (iii) fires with them",
                        page=page.name, rule_kind="target",
                        rule_head=r1.target, severity=Severity.ERROR,
                    ))

    # May-overlap pairs (the syntactic exclusivity screen): warning-level
    # condition-(iii) candidates; the exact check is error-freeness
    # verification.  Pairs already flagged as identical stay error-only.
    for finding in ambiguity_audit(service):
        if any(
            p == finding.page and f"{t1} and {t2}" in finding.message
            for (p, t1, t2) in identical_pairs
        ):
            continue
        out.append(diag(
            "P103", finding.message, page=finding.page, rule_kind="target",
            severity=Severity.WARNING,
        ))

    # Input-constant protocol (conditions (i)/(ii)): keep the audit's
    # must/may severity grading, map to per-condition codes.
    for finding in constant_protocol_audit(service):
        severity = (
            Severity.ERROR if finding.severity == "error" else Severity.WARNING
        )
        if "condition (i)" in finding.message:
            code = "P105" if severity is Severity.ERROR else "P106"
        else:
            code = "P107" if severity is Severity.ERROR else "P106"
        out.append(diag(
            code, finding.message, page=finding.page, rule_kind="page",
            severity=severity,
        ))
    return out


# ---------------------------------------------------------------------------
# schema-usage pass
# ---------------------------------------------------------------------------

def pass_schema_usage(service: WebService) -> list[Diagnostic]:
    """Dead relations and broken input/state dataflow."""
    out: list[Diagnostic] = []
    schema = service.schema
    state_names = {sym.name for sym in schema.state.relations}
    db_names = {sym.name for sym in schema.database.relations}

    read_on: dict[str, str] = {}  # relation -> first page reading it
    for page, _kind, formula in service.all_rule_formulas():
        for name in relation_names(formula):
            read_on.setdefault(name, page.name)

    written_on: dict[str, str] = {}  # state relation -> first writing page
    for page in service.pages.values():
        for rule in page.state_rules:
            written_on.setdefault(rule.state, page.name)

    for name in sorted(state_names):
        if name in written_on and name not in read_on:
            out.append(diag(
                "U201",
                f"state relation {name!r} is written here but no rule of any "
                "page reads it",
                page=written_on[name], rule_kind="state", rule_head=name,
            ))
        if name in read_on and name not in written_on:
            out.append(diag(
                "U202",
                f"state relation {name!r} is read here but no page has a "
                "state rule for it: the atom is statically empty",
                page=read_on[name], rule_kind="state", rule_head=name,
            ))

    offered = {name for page in service.pages.values() for name in page.inputs}
    for sym in sorted(schema.input.relations):
        if sym.name not in offered:
            out.append(diag(
                "U203",
                f"input relation {sym.name!r} is declared but no page offers "
                "it to the user",
                rule_kind="schema", rule_head=sym.name,
            ))

    for name in sorted(db_names):
        if name not in read_on:
            out.append(diag(
                "U204",
                f"database relation {name!r} is never read by any rule",
                rule_kind="schema", rule_head=name,
            ))

    # prev_I read on a page none of whose predecessors provides I.  The
    # page graph includes the implicit self-loop, so a page that itself
    # offers I legitimately sees prev_I when the run stays put.
    graph = page_graph(service)
    prev_names = {sym.name: unprev_name(sym) for sym in schema.prev.relations}
    for page in service.pages.values():
        reads: dict[str, str] = {}
        for rule in page.all_rules():
            for name in relation_names(rule.formula):
                base = prev_names.get(name)
                if base is not None:
                    reads.setdefault(name, base)
        preds = {p for p, succs in graph.items() if page.name in succs}
        for prev_name, base in sorted(reads.items()):
            providers = {
                p for p in preds if base in service.pages[p].inputs
            }
            if not providers:
                out.append(diag(
                    "U205",
                    f"rules of page {page.name} read {prev_name}, but no "
                    f"predecessor page offers the input {base!r}: the atom "
                    "is always empty here",
                    page=page.name, rule_kind="page", rule_head=prev_name,
                ))
    return out


# ---------------------------------------------------------------------------
# rule-level pass
# ---------------------------------------------------------------------------

def pass_rule_level(service: WebService) -> list[Diagnostic]:
    """Per-rule constant folding and head-variable hygiene."""
    out: list[Diagnostic] = []
    for page in service.pages.values():
        for rule in page.input_rules:
            if isinstance(constant_fold(rule.formula), Bottom):
                out.append(diag(
                    "R301",
                    f"input rule for {rule.input!r} constant-folds to false: "
                    "the options set is statically empty, so the user can "
                    "never supply this input",
                    page=page.name, rule_kind="input", rule_head=rule.input,
                ))
        for rule in page.state_rules:
            if isinstance(constant_fold(rule.formula), Bottom):
                verb = "insertion" if rule.insert else "deletion"
                out.append(diag(
                    "R302",
                    f"state {verb} rule for {rule.state!r} constant-folds to "
                    "false: the rule can never fire",
                    page=page.name, rule_kind="state", rule_head=rule.state,
                ))
        for rule in page.action_rules:
            if isinstance(constant_fold(rule.formula), Bottom):
                out.append(diag(
                    "R302",
                    f"action rule for {rule.action!r} constant-folds to "
                    "false: the rule can never fire",
                    page=page.name, rule_kind="action", rule_head=rule.action,
                ))
        # Target rules folding to false are P104 (page-graph pass).

        heads = (
            [("input", r.input, r) for r in page.input_rules]
            + [("state", r.state, r) for r in page.state_rules]
            + [("action", r.action, r) for r in page.action_rules]
        )
        for kind, head, rule in heads:
            unused = sorted(set(rule.variables) - free_variables(rule.formula))
            if unused:
                out.append(diag(
                    "R303",
                    f"{kind} rule for {head!r}: head variable(s) "
                    f"{unused} do not occur in the body, so they range over "
                    "the whole domain",
                    page=page.name, rule_kind=kind, rule_head=head,
                ))

    inserted_on: dict[str, str] = {}
    deleted: set[str] = set()
    for page in service.pages.values():
        for rule in page.state_rules:
            if rule.insert:
                inserted_on.setdefault(rule.state, page.name)
            else:
                deleted.add(rule.state)
    for name, page_name in sorted(inserted_on.items()):
        if name not in deleted:
            out.append(diag(
                "R304",
                f"state relation {name!r} is inserted but no page ever "
                "deletes from it (monotone state)",
                page=page_name, rule_kind="state", rule_head=name,
            ))
    return out


# ---------------------------------------------------------------------------
# decidability-frontier pass
# ---------------------------------------------------------------------------

def pass_frontier(service: WebService) -> list[Diagnostic]:
    """The undecidability triggers of §3/§4, located per rule."""
    out: list[Diagnostic] = []
    schema = service.schema
    pages = service.page_names
    prev_names = {sym.name for sym in schema.prev.relations}
    heads = _rule_heads(service)

    prev_pages: list[str] = []
    for page, kind, formula in service.all_rule_formulas():
        head = heads.get((page.name, kind, id(formula)))
        if kind == "input":
            rep = check_input_rule_formula(formula, schema)
            for reason in rep.reasons:
                out.append(diag(
                    "F403",
                    f"{reason} — outside the input-rule fragment of §3, for "
                    "which verification is undecidable",
                    page=page.name, rule_kind="input", rule_head=head,
                ))
        else:
            rep = check_input_bounded(formula, schema, pages)
            for reason in rep.reasons:
                out.append(diag(
                    "F401",
                    f"{reason} — outside the input-bounded class, for which "
                    "LTL-FO verification is undecidable",
                    page=page.name, rule_kind=kind, rule_head=head,
                ))
        if relation_names(formula) & prev_names and page.name not in prev_pages:
            prev_pages.append(page.name)

    for site in find_state_projections(service):
        out.append(diag(
            "F402",
            f"state rule {site.rule} projects the state atom {site.atom}: "
            "the state-projection extension is undecidable",
            page=site.page, rule_kind="state", rule_head=site.head,
        ))

    non_prop = sorted(
        str(sym)
        for part in (schema.state, schema.action)
        for sym in part.relations
        if sym.arity != 0
    )
    if non_prop:
        out.append(diag(
            "F404",
            "state/action relations "
            f"{non_prop} have arity > 0: the service is outside the "
            "propositional classes of §4 (Theorems 4.4/4.6), and CTL(*) "
            "verification is undecidable in general",
            rule_kind="schema",
        ))

    for page_name in prev_pages:
        out.append(diag(
            "F405",
            f"rules of page {page_name} read prev inputs, which the "
            "propositional class of Theorem 4.4 does not allow",
            page=page_name, rule_kind="page",
        ))
    return out


# ---------------------------------------------------------------------------
# whole-service dataflow pass
# ---------------------------------------------------------------------------

def pass_dataflow(service: WebService) -> list[Diagnostic]:
    """The ``D5xx`` family: findings only a whole-service analysis sees.

    Every code here *refines* an existing syntactic check and stays
    silent where the syntactic code already fires: ``D501`` flags pages
    the navigation graph reaches (so ``P101`` is quiet) but no
    executable path does; ``D502``/``D504`` flag rules refuted only
    once statically-empty state relations are substituted (plain folds
    stay ``R302``/``P104``); ``D503`` flags relations that *are* read
    somewhere (``U201`` quiet) but only by dead rules; ``D505`` flags
    definitely-unset constant reads the per-edge protocol audit
    (``P105``/``P106``) cannot prove.
    """
    from repro.analysis.dataflow import static_facts

    facts = static_facts(service)
    out: list[Diagnostic] = []

    for name in sorted(facts.unreachable_refined):
        out.append(diag(
            "D501",
            f"page {name!r} is reachable in the navigation graph, but no "
            "executable path from the home page enters it (every chain of "
            "target rules leading here is statically dead)",
            page=name, rule_kind="page", witness_path=facts.witness(name),
        ))

    empty = ", ".join(sorted(facts.empty_state_relations)) or "none"
    for fact in facts.dead_rules:
        if fact.reason == "unreachable-page" or fact.plain:
            # whole-page deadness is D501/P101's finding; plain folds
            # are already R302/R301/P104
            continue
        witness = facts.witness(fact.page)
        if fact.reason == "always-error-page":
            out.append(diag(
                "D502",
                f"{fact.kind} rule for {fact.head!r} can never fire: page "
                f"{fact.page} re-requests an input constant that every "
                "executable path has already provided, so error condition "
                "(ii) fires before this rule is evaluated",
                page=fact.page, rule_kind=fact.kind, rule_head=fact.head,
                witness_path=witness,
            ))
        elif fact.kind == "target":
            out.append(diag(
                "D504",
                f"target rule {fact.head} <- ... is always false: its "
                "condition is unsatisfiable once the statically-empty "
                f"state relations ({empty}) are substituted away",
                page=fact.page, rule_kind="target", rule_head=fact.head,
                witness_path=witness,
            ))
        else:
            out.append(diag(
                "D502",
                f"{fact.kind} rule for {fact.head!r} can never fire: its "
                "condition is unsatisfiable once the statically-empty "
                f"state relations ({empty}) are substituted away",
                page=fact.page, rule_kind=fact.kind, rule_head=fact.head,
                witness_path=witness,
            ))

    for rel in sorted(facts.write_only):
        info = facts.write_only[rel]
        writers = list(info["writers"])
        readers = ", ".join(info["readers"]) or "nowhere"
        out.append(diag(
            "D503",
            f"state relation {rel!r} is written on an executable path but "
            f"only ever read by dead rules (readers: {readers}) — the "
            "writes can never influence a run",
            page=writers[0] if writers else None, rule_kind="state",
            rule_head=rel,
            witness_path=facts.witness(writers[0]) if writers else None,
        ))

    for read in facts.unset_reads:
        out.append(diag(
            "D505",
            f"{read.kind} rule for {read.head!r} reads input constant "
            f"{read.constant!r}, which no executable path to page "
            f"{read.page} ever provides: evaluating the read fires error "
            "condition (i)",
            page=read.page, rule_kind=read.kind, rule_head=read.head,
            witness_path=facts.witness(read.page),
        ))
    return out


def _rule_heads(service: WebService) -> dict[tuple[str, str, int], str]:
    """Map (page, kind, id(formula)) -> rule head for locating findings."""
    out: dict[tuple[str, str, int], str] = {}
    for page in service.pages.values():
        for rule in page.input_rules:
            out[(page.name, "input", id(rule.formula))] = rule.input
        for rule in page.state_rules:
            out[(page.name, "state", id(rule.formula))] = rule.state
        for rule in page.action_rules:
            out[(page.name, "action", id(rule.formula))] = rule.action
        for rule in page.target_rules:
            out[(page.name, "target", id(rule.formula))] = rule.target
    return out
