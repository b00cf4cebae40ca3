"""Error-freeness checking (Theorem 3.5(i), Lemma A.5).

A Web service is *error free* when no run reaches the error page
(Definition 2.3's conditions (i)-(iii)).  Two procedures are provided:

- :func:`error_page_reachable` / :func:`verify_error_free` with
  ``method="direct"`` — breadth-first reachability of the error page in
  the configuration graph, per enumerated (database, sigma) pair.  This
  is the fast path and yields a shortest error trace.
- ``method="reduction"`` — the paper's Lemma A.5: transform the service
  into an error-free service ``W'`` with a trap page reached exactly
  when the original would err, then check the input-bounded LTL-FO
  sentence ``G ¬trap`` with the Theorem 3.5 verifier.  Slower, but it is
  the construction the theorem uses; the test suite checks both methods
  agree.

The pipeline around the reachability search lives in
:mod:`repro.verifier.engine`; this module declares the direct
procedure and contributes its per-unit checker and the Lemma A.5
transformation.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable, Iterable

from repro.fol.analysis import input_constants_of
from repro.fol.formulas import And, Atom, Formula, Not, Or, TRUE
from repro.fol.transforms import simplify
from repro.ltl.ltlfo import G, LTLFOSentence
from repro.obs import Tracer
from repro.schema.database import Database
from repro.schema.schema import RelationalSchema, ServiceSchema
from repro.schema.symbols import state_relation
from repro.service.page import WebPageSchema
from repro.service.rules import StateRule, TargetRule
from repro.service.runs import (
    Run,
    RunContext,
    initial_snapshots,
    successors,
)
from repro.service.webservice import WebService
from repro.verifier.budget import Budget, Checkpoint
from repro.verifier.engine import (
    DEFAULT_SNAPSHOT_BUDGET,
    EF,
    LTL,
    Procedure,
    RunConfig,
    accepted_options,
    run_procedure,
)
from repro.verifier.linear import verify_ltlfo
from repro.verifier.parallel import (
    CLEAN,
    VIOLATED,
    TaskSpec,
    UnitOutcome,
    WorkUnit,
)
from repro.verifier.results import (
    VerificationBudgetExceeded,
    VerificationResult,
)

Value = Hashable

#: Name of the trap page introduced by the Lemma A.5 reduction.
TRAP_PAGE = "__TRAP__"
_PROVIDED_PREFIX = "__provided_"


def error_page_reachable(
    ctx: RunContext,
    max_snapshots: int = DEFAULT_SNAPSHOT_BUDGET,
    budget: Budget | None = None,
) -> Run | None:
    """Shortest run reaching the error page for one (database, sigma).

    Returns the error trace as a lasso (looping on the error page), or
    None when the error page is unreachable.  The BFS runs over the
    snapshot ids of the database's explored graph, reading successor-id
    tuples through the service's exploration cache; snapshots are
    charged on discovery either way.  A blown budget raises
    :class:`VerificationBudgetExceeded` with the partial BFS stats
    attached.
    """
    gov = Budget.ensure(budget, max_snapshots=max_snapshots)
    gov.begin_pair()
    exploration = ctx.compiled.exploration
    graph = exploration.open(ctx.database, ctx.extra_domain)
    snapshots = graph.snapshots
    parent: dict[int, int | None] = {}
    queue: deque[int] = deque()
    for sid in exploration.number(graph, initial_snapshots(ctx)):
        parent.setdefault(sid, None)
        queue.append(sid)
    gov.charge_snapshot(len(parent))

    try:
        while queue:
            sid = queue.popleft()
            if snapshots[sid].is_error:
                trace = [sid]
                while parent[trace[0]] is not None:
                    trace.insert(0, parent[trace[0]])
                return Run(
                    ctx.database, dict(ctx.sigma),
                    [snapshots[i] for i in trace], loop_index=len(trace) - 1,
                )
            for nxt in exploration.successor_ids(graph, ctx, sid, successors):
                if nxt not in parent:
                    gov.charge_snapshot()
                    parent[nxt] = sid
                    queue.append(nxt)
    except VerificationBudgetExceeded as exc:
        exc.stats.setdefault("snapshots_explored", len(parent))
        raise
    return None


def _check_errorfree_unit(
    spec: TaskSpec, unit: WorkUnit, gov: Budget
) -> UnitOutcome:
    """Error-page BFS over one (database, sigma) pair."""
    ((_sigma_index, sigma),) = unit.sigmas
    snap_base = gov.snapshots_total
    ctx = RunContext(spec.service, unit.database, sigma=sigma)
    trace = error_page_reachable(ctx, budget=gov)
    stats = {
        "sigmas_checked": 1,
        "snapshots_explored": gov.snapshots_total - snap_base,
    }
    if trace is not None:
        return UnitOutcome(
            *unit.cursor, VIOLATED, stats=stats,
            detail={"run": trace, "database": unit.database},
        )
    return UnitOutcome(*unit.cursor, CLEAN, stats=stats)


class _ErrorFreeProcedure(Procedure):
    """The direct error-page-reachability procedure."""

    name = "verify_error_free"
    has_sigmas = True
    checker = staticmethod(_check_errorfree_unit)
    checkpoint_extra = {"method": "direct"}

    def property_name(self) -> str:
        return f"error-free({self.service.name})"

    def method(self) -> str:
        return "error-page reachability (direct)"

    def counters(self) -> dict:
        return {"sigmas_checked": 0, "snapshots_explored": 0}

    def interrupt_phase(self, exc) -> str:
        return "error-page reachability"


def verify_error_free(
    service: WebService,
    databases: Iterable[Database] | None = None,
    domain_size: int | None = None,
    method: str = "direct",
    max_snapshots: int = DEFAULT_SNAPSHOT_BUDGET,
    sigmas: Iterable[dict] | None = None,
    budget: Budget | None = None,
    timeout_s: float | None = None,
    strict: bool = False,
    resume: Checkpoint | None = None,
    workers: int | None = None,
    tracer: Tracer | None = None,
    retry: int | None = None,
    unit_timeout_s: float | None = None,
    faults: Any = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int | None = None,
    **unsupported: Any,
) -> VerificationResult:
    """Decide error-freeness over the small-model database space.

    ``sigmas`` restricts the input-constant interpretations checked
    (session scoping, Remark 3.6); the default enumerates generically.
    A blown budget returns ``Verdict.INCONCLUSIVE`` with a resumable
    checkpoint unless ``strict=True`` (see :mod:`repro.verifier.budget`).
    ``workers`` fans the (database, sigma) pairs out to a process pool
    with deterministic verdicts (see :mod:`repro.verifier.parallel`);
    ``tracer`` receives the structured event stream (see
    :mod:`repro.obs`).  ``retry``/``unit_timeout_s``/``faults``/
    ``checkpoint_path``/``checkpoint_every`` configure worker
    supervision, fault injection and crash-safe periodic checkpoints —
    see :func:`repro.verifier.linear.verify_ltlfo` for the semantics.
    """
    cfg = RunConfig.build("verify_error_free", locals())
    property_name = f"error-free({service.name})"
    if cfg.method == "reduction":
        transformed, sentence = errorfree_reduction(service)
        # every option both procedures take, as this call received it
        result = verify_ltlfo(
            transformed, sentence, check_restrictions=False,
            **{name: getattr(cfg, name)
               for name in accepted_options(EF) & accepted_options(LTL)},
        )
        result.method = "error-freeness via Lemma A.5 reduction + Theorem 3.5"
        result.property_name = property_name
        result.procedure = "verify_error_free"
        if "config" in result.stats:
            result.stats["config"]["procedure"] = "verify_error_free"
        if result.checkpoint is not None:
            result.checkpoint.procedure = "verify_error_free"
            result.checkpoint.property_name = property_name
            result.checkpoint.extra["method"] = "reduction"
        return result
    if cfg.method != "direct":
        raise ValueError(
            f"unknown method {cfg.method!r}; use 'direct' or 'reduction'"
        )
    return run_procedure(_ErrorFreeProcedure(service, cfg))


# ---------------------------------------------------------------------------
# Lemma A.5 reduction
# ---------------------------------------------------------------------------

def errorfree_reduction(service: WebService) -> tuple[WebService, LTLFOSentence]:
    """The Lemma A.5 transformation.

    Builds an error-free service ``W'`` containing a fresh trap page that
    is reached exactly when the original service would reach its error
    page, plus the input-bounded LTL-FO sentence ``G ¬trap``.  The
    construction:

    - a propositional state ``__provided_c`` records each input constant
      ``c`` once provided;
    - every target rule ``V ← φ`` becomes ``V ← φ ∧ ¬χ ∧ ¬ψ`` where χ
      collects the other target rules (ambiguity, condition (iii)) and ψ
      the constant-protocol violations (conditions (i) and (ii));
    - the trap page is targeted by ``trap ← ξ ∨ ψ`` with ξ the pairwise
      ambiguity disjunction, and loops on itself.
    """
    schema = service.schema
    constants = sorted(schema.input_constants)
    provided = {c: _PROVIDED_PREFIX + c for c in constants}

    new_state = RelationalSchema(
        list(schema.state.relations)
        + [state_relation(p) for p in provided.values()],
        schema.state.constants,
    )
    new_schema = ServiceSchema(
        database=schema.database,
        state=new_state,
        input=schema.input,
        action=schema.action,
    )

    def needs(page: WebPageSchema) -> frozenset[str]:
        """Input constants read by any rule formula of the page."""
        out: set[str] = set()
        for rule in page.all_rules():
            out |= input_constants_of(rule.formula)
        return frozenset(out)

    new_pages: list[WebPageSchema] = []
    for page in service.pages.values():
        own = frozenset(page.input_constants)
        target_formulas = {rule.target: rule.formula for rule in page.target_rules}

        # ψ — constant-protocol violations triggered from this page.
        psi_parts: list[Formula] = []
        for target, phi in target_formulas.items():
            tpage = service.page(target)
            t_reads = needs(tpage)
            t_requests = frozenset(tpage.input_constants)
            for c in sorted(t_reads - t_requests - own):
                # condition (i): the next page reads c, which is neither
                # provided already, being provided now, nor requested there.
                psi_parts.append(And(phi, Not(Atom(provided[c]))))
            for c in sorted(t_requests):
                # condition (ii): the next page re-requests c.
                if c in own:
                    psi_parts.append(phi)
                else:
                    psi_parts.append(And(phi, Atom(provided[c])))
        if own:
            # Staying on a constant-requesting page re-requests (ii).
            no_target = And([Not(phi) for phi in target_formulas.values()])
            psi_parts.append(no_target)

        # ξ — ambiguity among the original target rules (condition (iii)).
        xi_parts: list[Formula] = []
        targets = sorted(target_formulas)
        for i, v1 in enumerate(targets):
            for v2 in targets[i + 1:]:
                xi_parts.append(And(target_formulas[v1], target_formulas[v2]))

        trap_trigger = simplify(Or(xi_parts + psi_parts))

        new_target_rules: list[TargetRule] = []
        for target, phi in target_formulas.items():
            others = [f for v, f in target_formulas.items() if v != target]
            guard = And([phi] + [Not(f) for f in others] + [Not(trap_trigger)])
            new_target_rules.append(TargetRule(target, simplify(guard)))
        new_target_rules.append(TargetRule(TRAP_PAGE, trap_trigger))

        new_state_rules = list(page.state_rules)
        for c in sorted(own):
            new_state_rules.append(StateRule(provided[c], (), TRUE, insert=True))

        new_pages.append(
            WebPageSchema(
                name=page.name,
                inputs=page.inputs,
                input_constants=page.input_constants,
                actions=page.actions,
                targets=tuple(
                    dict.fromkeys(list(page.targets) + [TRAP_PAGE])
                ),
                input_rules=page.input_rules,
                state_rules=tuple(new_state_rules),
                action_rules=page.action_rules,
                target_rules=tuple(new_target_rules),
            )
        )

    trap = WebPageSchema(
        name=TRAP_PAGE,
        targets=(TRAP_PAGE,),
        target_rules=(TargetRule(TRAP_PAGE, TRUE),),
    )
    new_pages.append(trap)

    # Home-page special case (Lemma A.5): if the home page itself reads
    # constants it does not request, the original errs immediately — the
    # transformed home page then just falls through to the trap.
    home = service.page(service.home)
    home_bad = needs(home) - frozenset(home.input_constants)
    if home_bad:
        new_pages = [p for p in new_pages if p.name != service.home] + []
        new_pages.insert(
            0,
            WebPageSchema(
                name=service.home,
                targets=(TRAP_PAGE,),
                target_rules=(TargetRule(TRAP_PAGE, TRUE),),
            ),
        )

    transformed = WebService(
        new_schema,
        new_pages,
        home=service.home,
        error_page=service.error_page,
        name=f"{service.name}+errorfree",
    )
    sentence = LTLFOSentence(
        (),
        G(Not(Atom(TRAP_PAGE))),
        name=f"G ¬{TRAP_PAGE}",
    )
    return transformed, sentence
