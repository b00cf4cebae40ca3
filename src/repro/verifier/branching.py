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
pairs, with sigma growing as pages request constants.

Propositional labels on a configuration follow §4: the current page
symbol; every true propositional state/action/input symbol; and a ground
pair ``(name, tuple)`` for every chosen input tuple and every state or
action tuple, so properties like ``button("login")`` from Example 4.3
are expressible as ``CAtom(("button", ("login",)))``.

The pipeline around the model checking lives in
:mod:`repro.verifier.engine`; this module contributes the Theorem 4.4
and 4.6 strategies plus the Kripke construction and per-unit checker.
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
from repro.schema.instances import Instance
from repro.service.classify import ServiceClass, classify
from repro.service.runs import (
    RunContext,
    Snapshot,
    deterministic_step,
    error_snapshot,
)
from repro.service.compiled import SnapshotInterner
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
    unit_checker,
)
from repro.verifier.results import (
    UndecidableInstanceError,
    Verdict,
    VerificationBudgetExceeded,
    VerificationResult,
)

Value = Hashable
SigmaItems = tuple  # sorted tuple of (constant, value) pairs
KripkeState = tuple  # (Snapshot, SigmaItems)

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

    A blown state budget or deadline raises
    :class:`VerificationBudgetExceeded` with the partial exploration
    stats attached.
    """
    gov = Budget.ensure(budget, max_states=max_states)
    gov.begin_structure()
    build_started = time.monotonic()
    contexts: dict[SigmaItems, RunContext] = {}
    # One interner for the whole structure: Kripke states of different
    # sigmas frequently share snapshots, and interning across the run
    # contexts collapses them to one object (hash once, compare by
    # identity) — which also makes the per-snapshot label cache below a
    # near-pure identity lookup.
    interner = SnapshotInterner()

    def ctx_for(sig: SigmaItems) -> RunContext:
        ctx = contexts.get(sig)
        if ctx is None:
            ctx = RunContext(
                service, database, sigma=dict(sig),
                extra_domain=extra_domain, interner=interner,
            )
            contexts[sig] = ctx
        return ctx

    n_constants = len(service.schema.input_constants)
    # Fresh values must be disjoint from the database domain: a domain
    # value colliding with a fresh name would both duplicate candidate
    # assignments and stop the "fresh" value being outside the database.
    fresh, _prefix = fresh_value_pool(database, n_constants)
    candidates = sorted(database.domain, key=repr) + fresh

    def constant_assignments(
        sig: SigmaItems, page_constants: Iterable[str]
    ) -> list[SigmaItems]:
        have = dict(sig)
        new = [c for c in page_constants if c not in have]
        if not new:
            return [sig]
        out = []
        for combo in itertools.product(candidates, repeat=len(new)):
            merged = dict(have)
            merged.update(zip(new, combo))
            out.append(tuple(sorted(merged.items())))
        return out

    # The (snapshot, σ₂) pairs entered per step outcome and σ, for this
    # build: equal outcomes share one tuple of pairs and its pair objects.
    pairs: dict[tuple, tuple[KripkeState, ...]] = {}

    def entries_for(
        page_name: str,
        state,
        prev,
        actions,
        provided_before: frozenset[str],
        sig: SigmaItems,
    ) -> tuple[KripkeState, ...]:
        key = (page_name, state, prev, actions, provided_before, sig)
        found = pairs.get(key)
        if found is None:
            assignments = constant_assignments(
                sig, service.page(page_name).input_constants
            )
            found = pairs[key] = tuple(
                (snap, sig2)
                for sig2 in assignments
                for snap in ctx_for(sig2).next_snapshots(
                    page_name, state, prev, actions, provided_before
                )
            )
        return found

    def branch_successors(node: KripkeState) -> tuple[KripkeState, ...]:
        snap, sig = node
        if snap.is_error:
            return (node,)
        ctx = ctx_for(sig)
        if snap.pending_error:
            return ((ctx.interner.snapshot(error_snapshot(service)), sig),)
        step = deterministic_step(ctx, snap)
        if step.error:
            return ((ctx.interner.snapshot(error_snapshot(service)), sig),)
        return entries_for(
            step.next_page, step.next_state, step.next_prev, step.next_actions,
            step.gamma, sig,
        )

    empty = Instance.empty()
    initial = entries_for(service.home, empty, empty, empty, frozenset(), ())

    states: list[KripkeState] = []
    edges: dict[KripkeState, tuple[KripkeState, ...]] = {}
    seen: set[KripkeState] = set(initial)
    frontier = list(initial)
    states.extend(initial)
    try:
        gov.charge_state(len(seen))
        while frontier:
            node = frontier.pop()
            nexts = branch_successors(node)
            edges[node] = nexts
            for nxt in nexts:
                if nxt not in seen:
                    gov.charge_state()
                    seen.add(nxt)
                    states.append(nxt)
                    frontier.append(nxt)
    except VerificationBudgetExceeded as exc:
        exc.stats.setdefault("kripke_states", len(seen))
        raise

    # §4 labelling depends only on the snapshot component, and the
    # shared interner collapsed equal snapshots across sigmas — label
    # each distinct snapshot once instead of once per Kripke state.
    label_cache: dict[Snapshot, frozenset] = {}
    labels: dict[KripkeState, frozenset] = {}
    for node in states:
        snap = node[0]
        lab = label_cache.get(snap)
        if lab is None:
            lab = _labels(service, node)
            label_cache[snap] = lab
        labels[node] = lab
    # The run tree of Appendix A.2 is rooted at the *empty prefix*; CTL(*)
    # sentences are evaluated there (the Theorem 4.2 proof's EX steps to
    # the first configuration).  Model the root explicitly.
    states.insert(0, ROOT_STATE)
    edges[ROOT_STATE] = list(initial)
    labels[ROOT_STATE] = frozenset()
    if gov.tracer.active:
        gov.tracer.emit(
            "kripke.built",
            dur=time.monotonic() - build_started, n_states=len(states),
        )
    return KripkeStructure(states, [ROOT_STATE], edges, labels)


def _labels(service: WebService, node: KripkeState) -> frozenset:
    """§4 propositional labelling of one configuration."""
    snap, _sig = node
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


@unit_checker("verify_ctl")
def _check_ctl_unit(
    spec: TaskSpec, unit: WorkUnit, gov: Budget, cache: dict
) -> UnitOutcome:
    """Build and model check the Kripke structure of one database."""
    formula: StateFormula = spec.payload["formula"]
    kripke = build_snapshot_kripke(spec.service, unit.database, budget=gov)
    stats: dict = {"kripke_states": kripke.n_states}
    sat = satisfying_states(kripke, formula)
    bad = [s for s in kripke.initial if s not in sat]
    if bad:
        return UnitOutcome(
            unit.db_index, unit.sigma_index, VIOLATED,
            stats=stats,
            detail={"violating_initial_states": len(bad),
                    "database": unit.database},
        )
    return UnitOutcome(unit.db_index, unit.sigma_index, CLEAN, stats=stats)


class _CtlProcedure(Procedure):
    """The Theorem 4.4 strategy behind :func:`verify_ctl`."""

    name = "verify_ctl"
    unit_procedure = "verify_ctl"

    def __init__(
        self, service: WebService, formula: StateFormula, cfg: RunConfig
    ) -> None:
        super().__init__(service, cfg)
        self.formula = formula

    def preflight(self) -> None:
        if self.cfg.check_restrictions:
            report = classify(self.service)
            if not report.is_in(ServiceClass.PROPOSITIONAL):
                raise UndecidableInstanceError(
                    report.why_not(ServiceClass.PROPOSITIONAL),
                    "Theorem 4.2 (input-bounded CTL-FO is undecidable "
                    "in general)",
                )

    def property_name(self) -> str:
        return str(self.formula)

    def method(self) -> str:
        fragment = "CTL" if is_ctl(self.formula) else "CTL*"
        return f"propositional {fragment} (Theorem 4.4)"

    def compile_payload(self, tracer: Tracer) -> dict:
        return {"formula": self.formula}

    def init_stats(self, used_size: int | None, n_workers: int) -> dict:
        return {
            "databases_checked": 0,
            "databases_skipped": 0,
            "kripke_states": 0,
            "formula_size": ctl_size(self.formula),
            "domain_size": used_size,
            "workers": n_workers,
        }

    def fold_violation(
        self, outcome, stats: dict, property_name: str, method: str
    ) -> VerificationResult:
        detail = outcome.violation.detail
        stats["counterexample_db_index"] = outcome.violation.db_index
        return VerificationResult(
            verdict=Verdict.VIOLATED,
            property_name=property_name,
            method=method,
            counterexample_database=detail["database"],
            stats={
                **stats,
                "violating_initial_states": detail["violating_initial_states"],
            },
            procedure=self.name,
        )

    def interrupt_phase(self, exc) -> str:
        return "Kripke construction / model checking"


class _FullyPropositionalProcedure(Procedure):
    """The Theorem 4.6 strategy behind :func:`verify_fully_propositional`.

    The database plays no role, so there is no enumeration, no resume
    cursor and no checkpoint — a single empty-database structure is the
    whole space.
    """

    name = "verify_fully_propositional"
    unit_procedure = "verify_ctl"
    enumerates = False

    def __init__(
        self, service: WebService, formula: StateFormula, cfg: RunConfig
    ) -> None:
        super().__init__(service, cfg)
        self.formula = formula

    def preflight(self) -> None:
        if self.cfg.check_restrictions:
            report = classify(self.service)
            if not report.is_in(ServiceClass.FULLY_PROPOSITIONAL):
                raise UndecidableInstanceError(
                    report.why_not(ServiceClass.FULLY_PROPOSITIONAL),
                    "Theorem 4.6 requires a fully propositional service",
                )

    def property_name(self) -> str:
        return str(self.formula)

    def method(self) -> str:
        fragment = "CTL" if is_ctl(self.formula) else "CTL*"
        return f"fully propositional {fragment} (Theorem 4.6)"

    def compile_payload(self, tracer: Tracer) -> dict:
        return {"formula": self.formula}

    def init_stats(self, used_size: int | None, n_workers: int) -> dict:
        return {
            "databases_checked": 0,
            "databases_skipped": 0,
            "kripke_states": 0,
            "formula_size": ctl_size(self.formula),
            "workers": n_workers,
        }

    def fold_violation(
        self, outcome, stats: dict, property_name: str, method: str
    ) -> VerificationResult:
        stats["violating_initial_states"] = (
            outcome.violation.detail["violating_initial_states"]
        )
        return VerificationResult(
            verdict=Verdict.VIOLATED,
            property_name=property_name,
            method=method,
            stats=stats,
            procedure=self.name,
        )

    def interrupt_phase(self, exc) -> str:
        return "Kripke construction"


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
    cfg = RunConfig.build("verify_ctl", dict(
        databases=databases,
        domain_size=domain_size,
        check_restrictions=check_restrictions,
        max_states=max_states,
        budget=budget,
        timeout_s=timeout_s,
        strict=strict,
        resume=resume,
        workers=workers,
        tracer=tracer,
        retry=retry,
        unit_timeout_s=unit_timeout_s,
        faults=faults,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
    ), unsupported)
    return run_procedure(_CtlProcedure(service, formula, cfg))


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
    cfg = RunConfig.build("verify_fully_propositional", dict(
        check_restrictions=check_restrictions,
        max_states=max_states,
        budget=budget,
        timeout_s=timeout_s,
        strict=strict,
        workers=workers,
        tracer=tracer,
        retry=retry,
        unit_timeout_s=unit_timeout_s,
        faults=faults,
    ), unsupported, hint=FP_HINT)
    return run_procedure(_FullyPropositionalProcedure(service, formula, cfg))
