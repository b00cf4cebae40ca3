"""Branching-time verification (Theorems 4.4, 4.6; Corollary 4.5).

``W ⊨ φ`` for a CTL(*) formula means: for **every** database ``D``, the
tree of runs ``T_{W,D}`` satisfies φ (Definition in Appendix A.2).  CTL(*)
is bisimulation-invariant, so the tree can be replaced by the finite
Kripke structure of reachable configurations (the paper's Lemma A.12);
Lemma A.11 bounds the databases that need to be checked.  The procedure
here therefore is: enumerate small databases, build the configuration
Kripke structure for each, and model check.

Unlike the linear-time case, user-supplied input constants *branch
inside one structure*: two continuations of the same run may provide
different values.  The Kripke states are therefore (snapshot, sigma)
pairs, with sigma growing as pages request constants.  The snapshot is
an id of the explored graph the service's exploration cache keeps for
the database (:class:`~repro.service.compiled.ExploredGraph`), the
graph the LTL-FO search and the error-freeness BFS read and fill: the
builder reads every successor set there, or steps it and stores it
there, so a spec checked under several logics steps each snapshot and
scoped sigma once.

Propositional labels on a configuration follow §4: the current page
symbol; every true propositional state/action/input symbol; and a ground
pair ``(name, tuple)`` for every chosen input tuple and every state or
action tuple, so properties like ``button("login")`` from Example 4.3
are expressible as ``CAtom(("button", ("login",)))``.

Theorems 4.4, 4.6 and 4.9 share that per-database check and differ
only in the service class they require and in whether the database
matters, so one procedure, :class:`_KripkeProcedure`, serves all three,
driven by a row of :data:`_KRIPKE_ROWS`.  The pipeline around the model
checking lives in :mod:`repro.verifier.engine`; this module contributes
that procedure, the Kripke construction and the per-unit checker.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Hashable, Iterable

from repro.ctl.kripke import KripkeStructure
from repro.obs import Tracer
from repro.ctl.modelcheck import satisfying_states
from repro.ctl.syntax import StateFormula, ctl_size, is_ctl
from repro.schema.database import Database
from repro.service.classify import ServiceClass, classify
from repro.service.runs import (
    RunContext,
    Snapshot,
    deterministic_step,
    initial_snapshots,
    successors,
)
from repro.service.compiled import (
    ExploredGraph,
    SnapshotInterner,
    compiled_service,
)
from repro.service.webservice import WebService
from repro.verifier.budget import Budget, Checkpoint
from repro.verifier.engine import (  # noqa: F401 - historical home, re-exported
    DEFAULT_KRIPKE_BUDGET,
    FP_HINT,
    Procedure,
    RunConfig,
    fresh_value_pool,
    run_procedure,
)
from repro.verifier.parallel import (
    CLEAN,
    VIOLATED,
    TaskSpec,
    UnitOutcome,
    WorkUnit,
)
from repro.verifier.results import (
    UndecidableInstanceError,
    VerificationBudgetExceeded,
    VerificationResult,
)

Value = Hashable
SigmaItems = tuple  # sorted tuple of (constant, value) pairs

#: The run-tree root (the empty prefix of Appendix A.2): CTL(*) sentences
#: are evaluated here, one step above the first configurations.
ROOT_STATE = ("__ROOT__",)


def build_snapshot_kripke(
    service: WebService,
    database: Database,
    extra_domain: Iterable[Value] = (),
    max_states: int = DEFAULT_KRIPKE_BUDGET,
    budget: Budget | None = None,
) -> KripkeStructure:
    """The configuration Kripke structure of one database (Lemma A.12).

    State 0 is :data:`ROOT_STATE`; every other state is a pair ``(sid,
    sigma)``: ``sid`` numbers a snapshot in the service's explored graph
    of ``(database, extra domain)``, and ``sigma`` is the sorted tuple of
    the ``(constant, value)`` pairs provided on the way there.  While
    the exploration cache holds that graph, the state's configuration is
    ``graph.snapshots[sid]`` under ``sigma``, with ``graph`` the result
    of ``compiled.exploration.open(database,
    compiled.extra_domain(extra_domain))`` for ``compiled =
    compiled_service(service)``.

    The structure depends only on the service, the database and the
    extra domain, so a completed one is kept in the graph and served to
    later calls.  A served structure replays the construction's state
    charges in construction order, so a budget strikes at the same state
    either way.  A blown state budget or deadline raises
    :class:`VerificationBudgetExceeded` with the partial exploration
    stats attached; the graph then keeps the successor sets the build
    stored, and no structure.
    """
    gov = Budget.ensure(budget, max_states=max_states)
    gov.begin_structure()
    build_started = time.monotonic()
    compiled = compiled_service(service)
    exploration = compiled.exploration
    graph = exploration.open(database, compiled.extra_domain(extra_domain))
    stored = exploration.kripke(graph)
    if stored is None:
        kripke, n_initial = _construct_kripke(service, database, graph, gov)
        exploration.store_kripke(graph, kripke, n_initial)
    else:
        kripke, n_initial = stored
        _replay_charges(gov, n_initial, kripke.n_states - 1)
    if gov.tracer.active:
        gov.tracer.emit(
            "kripke.built",
            dur=time.monotonic() - build_started, n_states=kripke.n_states,
            cached=stored is not None,
        )
    return kripke


def _replay_charges(gov: Budget, n_initial: int, n_states: int) -> None:
    """Charge ``gov`` as constructing ``n_states`` states does: the
    ``n_initial`` initial states at once, then the rest one at a time.
    Every state up to the state cap is charged in one call and the next
    one alone, so a cap strikes at the state construction strikes at."""
    seen = n_initial
    try:
        gov.charge_state(n_initial)
        rest = n_states - seen
        if gov.max_states is not None:
            rest = min(rest, gov.max_states - gov.structure_states)
        if rest > 0:
            gov.charge_state(rest)
            seen += rest
        if seen < n_states:
            gov.charge_state()  # one state past the cap: strikes
    except VerificationBudgetExceeded as exc:
        exc.stats.setdefault("kripke_states", seen)
        raise


class _Branch:
    """One sigma of a build: its run context, the constants it provides,
    and the ids of its states by snapshot id."""

    __slots__ = ("sigma", "ctx", "provided", "ids")

    def __init__(self, sigma: SigmaItems, ctx: RunContext) -> None:
        self.sigma = sigma
        self.ctx = ctx
        self.provided = frozenset(ctx.sigma)
        self.ids: dict[int, int] = {}


def _construct_kripke(
    service: WebService, database: Database, graph: ExploredGraph,
    gov: Budget,
) -> tuple[KripkeStructure, int]:
    """Build the structure over ``graph``'s snapshot ids, charging
    ``gov`` per state; the structure and its number of initial states.

    A depth-first search over states ``(sid, sigma)``, numbered in
    discovery order after the root.  Every successor set is read from,
    or stepped into, the graph through
    :meth:`~repro.service.compiled.ExplorationCache.successor_ids`, the
    store the LTL-FO search and the error-freeness BFS read and fill.
    Sigma grows only where a step enters a page requesting a constant
    sigma lacks: that step is taken once under sigma, and the page is
    entered under each extension of sigma by a value per new constant,
    whose successor key (the snapshot and the extension within the
    step's scope) it shares with any sigma agreeing there.
    """
    compiled = compiled_service(service)
    exploration = compiled.exploration
    extra_domain = graph.key[1]
    snapshots = graph.snapshots
    step_constants = {
        name: page.step_constants for name, page in compiled.pages.items()
    }
    # One interner for the build: the sigmas' run contexts step into
    # the same instances and snapshots.
    interner = SnapshotInterner()
    branches: dict[SigmaItems, _Branch] = {}

    def branch(sig: SigmaItems) -> _Branch:
        found = branches.get(sig)
        if found is None:
            found = branches[sig] = _Branch(sig, RunContext(
                service, database, sigma=dict(sig),
                extra_domain=extra_domain, interner=interner,
            ))
        return found

    n_constants = len(service.schema.input_constants)
    # Fresh values must be disjoint from the database domain: a domain
    # value colliding with a fresh name would both duplicate candidate
    # assignments and stop the "fresh" value being outside the database.
    fresh, _prefix = fresh_value_pool(database, n_constants)
    candidates = sorted(database.domain, key=repr) + fresh

    def extensions(br: _Branch, page_constants: Iterable[str]) -> list[_Branch]:
        """``br`` extended by a value for each constant of the page it
        lacks, in every way."""
        new = [c for c in page_constants if c not in br.provided]
        if not new:
            return [br]
        out = []
        for combo in itertools.product(candidates, repeat=len(new)):
            merged = dict(br.sigma)
            merged.update(zip(new, combo))
            out.append(branch(tuple(sorted(merged.items()))))
        return out

    successor_ids = exploration.successor_ids

    def entered(sid: int, snap: Snapshot, br: _Branch) -> list[tuple]:
        """The successor sets of ``(sid, br)`` by extension of ``br``,
        for a snapshot whose step may enter a page requesting a constant
        ``br`` lacks: the step is taken once, under ``br``."""
        step = deterministic_step(br.ctx, snap)
        if step.error:
            return [(br, successor_ids(graph, br.ctx, sid, successors))]

        def enter(ctx: RunContext, _snap: Snapshot) -> list[Snapshot]:
            return list(ctx.next_snapshots(
                step.next_page, step.next_state, step.next_prev,
                step.next_actions, step.gamma,
            ))

        return [
            (br2, successor_ids(graph, br2.ctx, sid, enter))
            for br2 in extensions(
                br, service.page(step.next_page).input_constants
            )
        ]

    states: list = [ROOT_STATE]
    branch_of: list[_Branch | None] = [None]  # each state's sigma
    initial: list[int] = []
    for br in extensions(branch(()), service.page(service.home).input_constants):
        ids = br.ids
        for sid in exploration.number(graph, initial_snapshots(br.ctx)):
            if sid not in ids:
                ids[sid] = len(states)
                initial.append(len(states))
                states.append((sid, br.sigma))
                branch_of.append(br)
    n_initial = len(initial)
    succ_ids: list = [tuple(initial)] + [None] * n_initial
    stack = list(initial)
    try:
        gov.charge_state(n_initial)
        while stack:
            state = stack.pop()
            br = branch_of[state]
            sid = states[state][0]
            snap = snapshots[sid]
            if (snap.is_error or snap.pending_error
                    or step_constants[snap.page] <= br.provided):
                groups = ((br, successor_ids(graph, br.ctx, sid, successors)),)
            else:
                groups = entered(sid, snap, br)
            out = []
            for to, sids in groups:
                ids = to.ids
                for nsid in sids:
                    nxt = ids.get(nsid)
                    if nxt is None:
                        gov.charge_state()
                        nxt = ids[nsid] = len(states)
                        states.append((nsid, to.sigma))
                        branch_of.append(to)
                        succ_ids.append(None)
                        stack.append(nxt)
                    out.append(nxt)
            # a successor set holds distinct snapshots, and distinct
            # sigmas make distinct states: ``out`` has no duplicate
            succ_ids[state] = tuple(out)
    except VerificationBudgetExceeded as exc:
        exc.stats.setdefault("kripke_states", len(states) - 1)
        raise

    # §4 labelling depends only on the snapshot: label each sid once.
    by_sid: dict[int, frozenset] = {}
    labels: list[frozenset] = [frozenset()]
    for sid, _sig in itertools.islice(states, 1, None):
        lab = by_sid.get(sid)
        if lab is None:
            lab = by_sid[sid] = _labels(snapshots[sid])
        labels.append(lab)
    # The run tree of Appendix A.2 is rooted at the *empty prefix*; CTL(*)
    # sentences are evaluated there (the Theorem 4.2 proof's EX steps to
    # the first configuration).  State 0 models the root explicitly.
    return KripkeStructure.from_ids(states, (0,), succ_ids, labels), n_initial


def _labels(snap: Snapshot) -> frozenset:
    """§4 propositional labelling of one configuration."""
    out: set = {snap.page}
    if snap.is_error:
        return frozenset(out)
    for inst in (snap.state, snap.inputs, snap.actions):
        for sym, rel in inst:
            out.add(sym.name)
            for t in rel:
                if t:
                    out.add((sym.name, t))
    return frozenset(out)


def _check_kripke_unit(
    spec: TaskSpec, unit: WorkUnit, gov: Budget
) -> UnitOutcome:
    """Build and model check the Kripke structure of one database."""
    kripke = build_snapshot_kripke(spec.service, unit.database, budget=gov)
    stats: dict = {"kripke_states": kripke.n_states}
    sat = satisfying_states(kripke, spec.payload["formula"])
    bad = [s for s in kripke.initial if s not in sat]
    if bad:
        return UnitOutcome(
            *unit.cursor, VIOLATED, stats=stats,
            detail={"violating_initial_states": len(bad),
                    "database": unit.database},
        )
    return UnitOutcome(*unit.cursor, CLEAN, stats=stats)


#: entry point -> (required service class, refusal citation, method
#: label, interrupt phase, enumerates databases).  Theorem 4.6's
#: database plays no role, so it checks one empty-database structure:
#: no enumeration, no resume cursor, no checkpoint.
_KRIPKE_ROWS: dict[str, tuple[ServiceClass, str, str, str, bool]] = {
    "verify_ctl": (
        ServiceClass.PROPOSITIONAL,
        "Theorem 4.2 (input-bounded CTL-FO is undecidable in general)",
        "propositional {} (Theorem 4.4)",
        "Kripke construction / model checking",
        True,
    ),
    "verify_fully_propositional": (
        ServiceClass.FULLY_PROPOSITIONAL,
        "Theorem 4.6 requires a fully propositional service",
        "fully propositional {} (Theorem 4.6)",
        "Kripke construction",
        False,
    ),
    "verify_input_driven_search": (
        ServiceClass.INPUT_DRIVEN_SEARCH,
        "Theorem 4.9 requires the input-driven-search shape "
        "(Definition 4.7)",
        "input-driven search {} (Theorem 4.9)",
        "search-graph Kripke construction / model checking",
        True,
    ),
}


class _KripkeProcedure(Procedure):
    """Theorems 4.4, 4.6 and 4.9: model check the configuration Kripke
    structure of every candidate database; the entry point's row of
    :data:`_KRIPKE_ROWS` says which theorem."""

    checker = staticmethod(_check_kripke_unit)

    def __init__(
        self, name: str, service: WebService, formula: StateFormula,
        cfg: RunConfig,
    ) -> None:
        super().__init__(service, cfg)
        self.name = name
        (self.service_class, self.citation, self.label, self.phase,
         self.enumerates) = _KRIPKE_ROWS[name]
        self.formula = formula

    def preflight(self) -> None:
        if self.cfg.check_restrictions:
            report = classify(self.service)
            if not report.is_in(self.service_class):
                raise UndecidableInstanceError(
                    report.why_not(self.service_class), self.citation
                )

    def property_name(self) -> str:
        return str(self.formula)

    def method(self) -> str:
        return self.label.format("CTL" if is_ctl(self.formula) else "CTL*")

    def compile_payload(self, tracer: Tracer) -> dict:
        return {"formula": self.formula}

    def counters(self) -> dict:
        return {"kripke_states": 0, "formula_size": ctl_size(self.formula)}

    def interrupt_phase(self, exc) -> str:
        return self.phase


def verify_ctl(
    service: WebService,
    formula: StateFormula,
    databases: Iterable[Database] | None = None,
    domain_size: int | None = None,
    check_restrictions: bool = True,
    max_states: int = DEFAULT_KRIPKE_BUDGET,
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
    """Decide ``W ⊨ φ`` for propositional input-bounded services
    (Theorem 4.4; Corollary 4.5 is the fixed-parameter special case).

    A blown budget returns ``Verdict.INCONCLUSIVE`` with a resumable
    database cursor unless ``strict=True`` (see
    :mod:`repro.verifier.budget`).  Each database is one work unit;
    ``workers`` fans them out to a process pool with deterministic
    verdicts (see :mod:`repro.verifier.parallel`); ``tracer`` receives
    the structured event stream (``database.enumerated``,
    ``kripke.built``, ``unit.start/finish``, ``verdict``; see
    :mod:`repro.obs`).  ``retry``/``unit_timeout_s``/``faults``/
    ``checkpoint_path``/``checkpoint_every`` configure worker
    supervision, fault injection and crash-safe periodic checkpoints —
    see :func:`repro.verifier.linear.verify_ltlfo` for the semantics.
    """
    cfg = RunConfig.build("verify_ctl", locals())
    return run_procedure(_KripkeProcedure("verify_ctl", service, formula, cfg))


def verify_fully_propositional(
    service: WebService,
    formula: StateFormula,
    check_restrictions: bool = True,
    max_states: int = DEFAULT_KRIPKE_BUDGET,
    budget: Budget | None = None,
    timeout_s: float | None = None,
    strict: bool = False,
    workers: int | None = None,
    tracer: Tracer | None = None,
    retry: int | None = None,
    unit_timeout_s: float | None = None,
    faults: Any = None,
    **unsupported: Any,
) -> VerificationResult:
    """Decide ``W ⊨ φ`` for fully propositional services (Theorem 4.6).

    The database plays no role, so a single Kripke structure suffices;
    only its reachable part is ever constructed (the paper's PSPACE
    algorithm avoids even that via on-the-fly search — reachable-only
    construction is the practical middle ground).  There is no
    enumeration cursor to resume: a blown budget yields INCONCLUSIVE
    with partial stats but no checkpoint.  ``workers`` is accepted for
    API symmetry — the single structure is one work unit, so it buys no
    parallelism here.  ``tracer`` receives the structured event stream
    (``kripke.built``, ``unit.start/finish``, ``verdict``; see
    :mod:`repro.obs`).  ``retry``/``unit_timeout_s``/``faults``
    configure worker supervision and fault injection (see
    :func:`repro.verifier.linear.verify_ltlfo`); there is no periodic
    checkpointing here because there is no cursor to checkpoint.
    """
    cfg = RunConfig.build("verify_fully_propositional", locals(), hint=FP_HINT)
    return run_procedure(
        _KripkeProcedure("verify_fully_propositional", service, formula, cfg)
    )
