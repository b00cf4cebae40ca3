"""Input-bounded LTL-FO verification (Theorem 3.5).

The paper's decidability proof reduces verification to finite
satisfiability of E+TC formulas through two lemmas: violations are
witnessed by *periodic* runs (Periodic Run Lemma) over *small* local
descriptions (Local Run Lemma) whose constants are the database constants
plus witnesses for the existential variables of the negated property.
This module is the operational form of that argument — the strategy the
authors' later WAVE verifier also used:

1. enumerate databases over a domain consisting of the specification's
   and property's literal constants plus ``domain_size`` anonymous
   elements (up to isomorphism fixing the constants);
2. enumerate interpretations of the input constants over that domain
   plus fresh values (users may type values not in the database);
3. for each valuation of the universal closure, search the (finite)
   configuration graph for a lasso accepted by the Büchi automaton of
   the negated property.

The automaton is compiled **once per verification call** from the
symbolic (ungrounded) skeleton — valuations are supplied to the FO
payload evaluation as an environment instead of being substituted into
the formula, so no (database, sigma, valuation) triple ever recompiles
it.  Each (database, sigma) pair is an independent
:class:`~repro.verifier.parallel.WorkUnit`; ``workers=N`` fans the pairs
out to a process pool with deterministic (lowest-cursor) counterexample
selection — see :mod:`repro.verifier.parallel`.

A lasso found is a genuine counterexample (it is re-checked against the
reference lasso semantics before being reported).  "HOLDS" means no
violation exists over the explored bound; with the default bound derived
from the small-model lemmas this is the paper's decision procedure, and
larger bounds trade time for extra assurance.

The pipeline around the lasso search — option resolution, database
enumeration, plan warming, unit streaming, supervision, stats, verdict
folding — lives in :mod:`repro.verifier.engine`; this module declares
the Theorem 3.5 procedure (:class:`_LtlfoProcedure`) and contributes
its per-unit checker.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Hashable, Iterable, Mapping

from repro.fol.analysis import input_constants_of
from repro.fol.bitset import ValuationBlock
from repro.fol.compile import compile_formula
from repro.fol.evaluation import EvalContext
from repro.fol.terms import Var
from repro.fol.transforms import substitute
from repro.obs import Tracer
from repro.ltl.buchi import CompiledProduct, ProductSearch, ltl_to_buchi
from repro.ltl.ltlfo import LTLFOSentence, check_ltlfo_input_bounded
from repro.ltl.syntax import LNot
from repro.schema.database import Database
from repro.service.classify import ServiceClass, classify
from repro.service.compiled import SnapshotInterner, compiled_service
from repro.service.runs import (
    Run,
    RunContext,
    Snapshot,
    initial_snapshots,
    successors,
)
from repro.service.webservice import WebService
from repro.verifier.budget import Budget, Checkpoint
from repro.verifier.engine import (  # noqa: F401 - historical home, re-exported
    DEFAULT_DOMAIN_CAP,
    DEFAULT_SNAPSHOT_BUDGET,
    Procedure,
    RunConfig,
    default_domain_size,
    enumerate_sigmas,
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
    VerificationResult,
)

Value = Hashable


class _SnapshotLabeller:
    """Evaluate FO components on snapshots, with per-snapshot context cache.

    ``env`` carries the universal-closure valuation: payloads stay
    symbolic (one compiled automaton per call) and are evaluated under
    the environment instead of being grounded by substitution.

    Each distinct payload formula is analysed once — its input-constant
    set for the §3 gamma check, and a compiled check plan at scope
    ``variables`` — so the product-search hot path pays no per-call
    formula analysis.  ``variables`` must be the key set of every
    non-empty ``env`` passed to :meth:`__call__`.
    """

    def __init__(
        self, ctx: RunContext, variables: tuple[str, ...] = ()
    ) -> None:
        self.ctx = ctx
        self.variables = tuple(variables)
        self._cache: dict[Snapshot, tuple[EvalContext, frozenset[str]]] = {}
        # id-keyed with a strong payload reference, so ids stay valid.
        self._plans: dict[int, tuple[object, frozenset[str], object]] = {}

    def _context(self, snap: Snapshot) -> tuple[EvalContext, frozenset[str]]:
        entry = self._cache.get(snap)
        if entry is None:
            gamma = snap.provided_here(self.ctx.service)
            ectx = self.ctx.make_eval_context(
                snap.state, snap.inputs, snap.prev, snap.actions,
                gamma=gamma, page=snap.page,
            )
            entry = (ectx, gamma)
            self._cache[snap] = entry
        return entry

    def _plan(self, payload) -> tuple[object, frozenset[str], object]:
        entry = self._plans.get(id(payload))
        if entry is None:
            needed = input_constants_of(payload)
            plan = compile_formula(payload, self.variables)
            entry = (payload, needed, plan)
            self._plans[id(payload)] = entry
        return entry

    def __call__(
        self, snap: Snapshot, payload, env: Mapping[str, Value] | None = None
    ) -> bool:
        ectx, gamma = self._context(snap)
        _payload, needed, plan = self._plan(payload)
        # §3: a component mentioning an unprovided constant is false.
        if not needed <= gamma:
            return False
        return plan.check(ectx, env)


class _GraphLabeller(_SnapshotLabeller):
    """Label the snapshots of an explored graph, by id, for *every*
    valuation of ``block`` in one pass, through the graph's label memo.

    Bit *i* of ``label_bits(sid, payload)`` equals ``self(snapshot,
    payload, valuation_i)``.  Beyond the snapshot, a bitset depends on
    the database and the extra domain, which key the graph, and on
    what the memo key holds (:meth:`ExplorationCache.label_memo`): the
    payload with its closure variables renamed by position to names no
    built or parsed formula contains (``#0``, ``#1``, ...), the block's
    bit layout (:meth:`~repro.fol.bitset.ValuationBlock.key`: the number
    of closure variables and the values), and sigma restricted to Γ_i,
    all the evaluation reads of sigma.  So sigmas, units, properties and calls agreeing on those
    share one bitset, and an eval context is built only on a miss.
    ``computed`` counts the bitsets evaluated, ``hits`` the memo hits.
    """

    def __init__(
        self, ctx: RunContext, exploration, graph, block: ValuationBlock
    ) -> None:
        super().__init__(ctx, block.variables)
        self.exploration = exploration
        self.graph = graph
        self.block = block
        # (payload id, page, Γ_{i-1}, is_error), which fix Γ_i, -> the
        # payload's memo at Γ_i, or None when the §3 check fails there
        self._memos: dict[tuple, dict | None] = {}
        self.computed = 0
        self.hits = 0

    def label_bits(self, sid: int, payload) -> int:
        snap = self.graph.snapshots[sid]
        key = (id(payload), snap.page, snap.provided_before, snap.is_error)
        try:
            memo = self._memos[key]
        except KeyError:
            memo = self._memos[key] = self._memo(
                payload, snap.provided_here(self.ctx.service)
            )
        if memo is None:
            return 0
        bits = memo.get(sid)
        if bits is None:
            plan = self._plan(payload)[2]
            bits = plan.bits(self._context(snap)[0], self.block)
            self.exploration.store_label(self.graph, memo, sid, bits)
            self.computed += 1
        else:
            self.hits += 1
            self.exploration.label_hits += 1
        return bits

    def _memo(self, payload, gamma: frozenset[str]) -> dict | None:
        needed = self._plan(payload)[1]
        # §3 gamma check, valuation-independent: all-false bitset.
        if not needed <= gamma:
            return None
        renamed = substitute(payload, {
            name: Var(f"#{i}") for i, name in enumerate(self.variables)
        })
        # (c, v) pairs sort by the distinct constant names alone, so
        # mixed-type sigma values never get compared.
        scoped = tuple(sorted(
            (c, v) for c, v in self.ctx.sigma.items() if c in gamma
        ))
        return self.exploration.label_memo(
            self.graph, (renamed, self.block.key(), scoped)
        )


def _search_product(search: ProductSearch, block, gov, stats):
    """Set-at-a-time lasso search over a compiled product.

    ``search`` is one request's context over the product of the
    snapshot graph with the automaton, over snapshot ids; the lasso
    found is too.  Each (id, payload) pair is labelled once for *all*
    valuations of ``block`` (a bitset; see :mod:`repro.fol.bitset`),
    and the product keeps each expanded node's enable masks across its
    searches (:class:`~repro.ltl.buchi.CompiledProduct`).  Every clean
    search returns its *dominated class*: the valuations that, at every
    node it expanded, enable only transitions the searched valuation
    enables.  A later valuation in a dominated class would walk a
    subgraph of the product the clean search walked, which holds no
    accepting lasso, and would expand no snapshot the context has not
    charged, so its search is skipped outright.  The first violating
    valuation is never in a dominated class, and a skipped search would
    charge nothing, so verdicts, witnesses, charge order and stats stay
    bit-identical with one search per valuation (the reference in
    ``tests/product_reference.py``).
    """
    covered = 0  # the union of the dominated classes found
    for i, combo in enumerate(block.combos()):
        # Charge and count every valuation — covered, not skipped.
        gov.charge_valuation()
        stats["valuations_checked"] += 1
        bit = 1 << i
        if covered & bit:
            continue
        lasso, dominated = search.search(bit)
        if lasso is not None:
            return lasso, dict(zip(block.variables, combo))
        covered |= dominated
    return None


def _check_ltlfo_unit(
    spec: TaskSpec, unit: WorkUnit, gov: Budget
) -> UnitOutcome:
    """Lasso search over the sigmas of one unit (Theorem 3.5).

    Every sigma searches the explored graph of its database in the
    service's exploration cache
    (:class:`~repro.service.compiled.ExplorationCache`) by snapshot id,
    through the compiled product the graph keeps for the property, the
    block's layout and sigma: its start ids, successor-id tuples and
    enable masks.  What the product lacks it reads from the graph's
    successor-id tuples and label bitsets (:class:`_GraphLabeller`),
    which sigmas, units, properties and calls agreeing on what a step or
    a label reads share, and a miss there steps or labels once and
    stores the result.  The sigmas of a unit share one snapshot interner
    for what they step.  Every sigma keeps its own run context, search
    context and charge order: a snapshot is charged at its first
    expansion in the sigma's search, whatever the product kept, and a
    search the product kept a clean outcome for replays those charges
    instead of walking.  A lasso is mapped back to snapshots before it
    leaves the unit, so the merged stats and the witness depend neither
    on how many sigmas a unit holds nor on what the cache held, and ids
    never cross a process boundary.
    """
    service: WebService = spec.service
    sentence: LTLFOSentence = spec.payload["sentence"]
    literals: frozenset = spec.payload["literals"]
    ba = spec.payload["automaton"]
    db = unit.database
    interner = SnapshotInterner()
    exploration = compiled_service(service).exploration
    # The negated skeleton fixes the automaton, and the closure
    # variables' order which bit is which valuation.
    property_key = (LNot(sentence.skeleton), sentence.variables)

    stats: dict = {
        "sigmas_checked": 0,
        "valuations_checked": 0,
        "snapshots_explored": 0,
        "buchi_states": ba.n_states,
    }
    bits_computed = 0
    bits_shared = 0
    searches = 0  # the product searches run
    nested = 0  # the searches whose walk handed over to the nested DFS
    replayed = 0  # the searches answered from the product's kept outcomes
    covered = 0  # the valuations a dominated class settled unsearched
    tracer = gov.tracer

    def emit_counts() -> None:
        if tracer.active:
            tracer.emit(
                "label.bits", cursor=unit.cursor,
                computed=bits_computed, shared=bits_shared,
            )
            tracer.emit(
                "product.searches", cursor=unit.cursor,
                searches=searches, covered=covered, nested=nested,
                replayed=replayed,
            )

    def charge(_sid: int) -> None:
        # Per sigma and request, whether or not the product kept the
        # successors: charges and stats stay cache-independent.
        stats["snapshots_explored"] += 1
        gov.charge_snapshot()

    try:
        for sigma_index, sigma in unit.sigmas:
            gov.begin_pair()
            stats["sigmas_checked"] += 1
            ctx = RunContext(
                service, db, sigma=sigma, extra_domain=literals,
                interner=interner,
            )
            graph = exploration.open(db, ctx.extra_domain)
            block = ValuationBlock(sentence.variables, sorted(
                set(db.domain) | set(sigma.values()) | set(ctx.extra_domain),
                key=repr,
            ))
            product = exploration.product(
                graph, (property_key, block.key(), frozenset(sigma.items())),
                lambda: CompiledProduct(
                    ba, exploration.number(graph, initial_snapshots(ctx)),
                    block.all_mask,
                ),
            )
            labeller = _GraphLabeller(ctx, exploration, graph, block)

            def succ(sid: int, _ctx=ctx, _graph=graph) -> tuple[int, ...]:
                # Asked once per snapshot the product does not keep yet.  A
                # graph miss steps through this module's ``successors``.
                return exploration.successor_ids(_graph, _ctx, sid, successors)

            search = ProductSearch(
                product, succ, labeller.label_bits, charge,
                partial(exploration.store_product, graph),
                partial(exploration.store_outcome, graph),
            )
            valuations = stats["valuations_checked"]
            try:
                found = _search_product(search, block, gov, stats)
            finally:
                # a struck search counts as a finished one does: an outcome
                # read as a product hit, and the unit's events
                exploration.outcome_hits += search.replayed
                bits_computed += labeller.computed
                bits_shared += labeller.hits
                searches += search.searches
                nested += search.nested
                replayed += search.replayed
                covered += (
                    stats["valuations_checked"] - valuations - search.searches
                )
            if found is not None:
                lasso, valuation = found
                snapshots = [graph.snapshots[sid] for sid in lasso.states]
                run = Run(db, dict(sigma), snapshots, lasso.loop_index)
                detail: dict = {"run": run, "database": db}
                if spec.payload.get("confirm", True):
                    detail["confirmed"] = not _violation_confirmed_holds(
                        sentence, run, service, ctx, valuation
                    )
                return UnitOutcome(
                    unit.db_index, sigma_index, VIOLATED, stats=stats,
                    detail=detail,
                )
        return UnitOutcome(*unit.cursor, CLEAN, stats=stats)
    finally:
        # every exit reports the unit's counts, a strike's included
        emit_counts()


class _LtlfoProcedure(Procedure):
    """The Theorem 3.5 procedure behind :func:`verify_ltlfo`."""

    name = "verify_ltlfo"
    has_sigmas = True
    checker = staticmethod(_check_ltlfo_unit)

    def __init__(
        self, service: WebService, sentence: LTLFOSentence, cfg: RunConfig
    ) -> None:
        super().__init__(service, cfg)
        self.sentence = sentence
        self.ba = None

    def preflight(self) -> None:
        if self.cfg.check_restrictions:
            _require_input_bounded(self.service, self.sentence)

    def property_name(self) -> str:
        return self.sentence.name or str(self.sentence)

    def method(self) -> str:
        return "input-bounded LTL-FO (Theorem 3.5)"

    def enum_sentence(self):
        return self.sentence

    def compile_payload(self, tracer: Tracer) -> dict:
        # One automaton per property and service: the negated *symbolic*
        # skeleton, with valuations supplied at labelling time, kept on
        # the service's compiled plans (warmed before this call).
        automata = compiled_service(self.service).automata
        compile_started = time.monotonic()
        negated = LNot(self.sentence.skeleton)
        ba = automata.get(negated)
        cached = ba is not None
        if ba is None:
            ba = automata[negated] = ltl_to_buchi(negated)
        if tracer.active:
            tracer.emit(
                "buchi.compiled",
                dur=time.monotonic() - compile_started, n_states=ba.n_states,
                cached=cached,
            )
        self.ba = ba
        return {
            "sentence": self.sentence,
            "automaton": ba,
            "literals": frozenset(self.sentence.literals()),
            "confirm": self.cfg.confirm_counterexamples,
        }

    def counters(self) -> dict:
        return {
            "sigmas_checked": 0,
            "valuations_checked": 0,
            "snapshots_explored": 0,
            "buchi_states": self.ba.n_states,
        }

    def interrupt_phase(self, exc) -> str:
        return (
            "lasso search"
            if exc.limit in ("max_snapshots", "max_valuations")
            else "database enumeration"
        )


def verify_ltlfo(
    service: WebService,
    sentence: LTLFOSentence,
    databases: Iterable[Database] | None = None,
    domain_size: int | None = None,
    check_restrictions: bool = True,
    up_to_iso: bool = True,
    max_snapshots: int = DEFAULT_SNAPSHOT_BUDGET,
    confirm_counterexamples: bool = True,
    sigmas: Iterable[Mapping[str, Value]] | None = None,
    budget: Budget | None = None,
    timeout_s: float | None = None,
    strict: bool = False,
    resume: Checkpoint | None = None,
    workers: int | None = None,
    sigma_block: int | None = None,
    tracer: Tracer | None = None,
    retry: int | None = None,
    unit_timeout_s: float | None = None,
    faults: Any = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int | None = None,
    **unsupported: Any,
) -> VerificationResult:
    """Decide ``service ⊨ sentence`` for input-bounded instances.

    Parameters
    ----------
    service, sentence:
        The instance.  With ``check_restrictions`` (default) both must be
        input-bounded (§3) — otherwise the problem is undecidable
        (Theorems 3.7-3.9) and :class:`UndecidableInstanceError` is
        raised; pass ``check_restrictions=False`` to run the bounded
        search anyway (sound for violations, no completeness claim).
    databases:
        Explicit databases to verify against; default enumerates all
        databases over the derived small-model domain, up to isomorphism.
    domain_size:
        Number of anonymous domain elements for the default enumeration.
    max_snapshots:
        Budget per (database, sigma) pair.
    sigmas:
        Explicit input-constant interpretations to verify against,
        instead of the exhaustive generic enumeration.  Restricting the
        sigmas verifies a sub-space of runs — the paper's Remark 3.6
        "session" scoping (e.g. the runs of one known user).
    confirm_counterexamples:
        Re-check any counterexample against the reference lasso
        semantics before reporting it (cheap; catches verifier bugs).
    budget, timeout_s, strict:
        Resource governor (see :mod:`repro.verifier.budget`).  A blown
        budget returns ``Verdict.INCONCLUSIVE`` with partial stats, a
        coverage summary, and a resumable checkpoint; ``strict=True``
        raises :class:`VerificationBudgetExceeded` instead (enriched
        with the same stats and checkpoint).
    resume:
        A :class:`Checkpoint` from an earlier interrupted call with the
        same enumeration parameters; databases/sigmas before its cursor
        (and out-of-order completions it records) are skipped as already
        verified.  Mismatched ``domain_size``/``up_to_iso``/``workers``
        are refused with :class:`CheckpointMismatchError`.
    workers:
        Fan the (database, sigma) pairs out to ``N`` worker processes
        (default: the ``REPRO_WORKERS`` environment variable, else
        sequential).  Verdicts and counterexamples are deterministic
        regardless of ``N`` — the lowest-cursor violation is reported,
        not the first to finish.
    sigma_block:
        Batch that many consecutive sigmas of each database into one
        work unit (default: ``REPRO_SIGMA_BLOCK``, else 1 — classic
        one-pair units).  Blocked units share the snapshot interner
        across their sigmas and cut pool dispatch overhead (successor
        sets and label bitsets are shared through the explored graph
        whatever the block); verdicts, counterexamples and stats are
        block-size-independent (resume granularity coarsens to the
        block for interrupted units).
    tracer:
        A :class:`repro.obs.Tracer` receiving the structured event
        stream (``buchi.compiled``, ``database.enumerated``,
        ``sigma.batch``, ``unit.start/finish``, ``budget.charge``,
        ``verdict``; see :mod:`repro.obs`).  Default: the ``REPRO_TRACE``
        environment variable (a JSONL path), else the zero-overhead null
        tracer.  Tracing never changes verdicts, counterexamples or
        stats; the summary lands in ``result.timings``.
    retry, unit_timeout_s:
        Worker supervision (see :mod:`repro.verifier.parallel`).  A
        failed unit is retried up to ``retry`` times with exponential
        backoff and deterministic jitter (default 2; env
        ``REPRO_RETRY``); with ``unit_timeout_s`` a pool unit exceeding
        its wall-clock allowance is killed with its pool and retried
        (env ``REPRO_UNIT_TIMEOUT_S``).  A unit that exhausts its
        retries is quarantined — recorded in
        ``stats["quarantined_units"]`` and the checkpoint — and an
        otherwise-clean verdict degrades to INCONCLUSIVE instead of the
        run aborting.
    faults:
        Deterministic fault-injection plan for testing the supervision
        paths: a :class:`repro.faults.FaultPlan`, a dict, a JSON
        string, or ``@path`` to a JSON file (env ``REPRO_FAULTS``).
    checkpoint_path, checkpoint_every:
        Crash-safe periodic checkpointing: atomically rewrite
        ``checkpoint_path`` every ``checkpoint_every`` completed units
        (env ``REPRO_CHECKPOINT_EVERY``) and on interruption, so a kill
        at any moment loses bounded work and never corrupts the file.
    """
    cfg = RunConfig.build("verify_ltlfo", locals())
    return run_procedure(_LtlfoProcedure(service, sentence, cfg))


def _violation_confirmed_holds(
    sentence: LTLFOSentence,
    run: Run,
    service: WebService,
    ctx: RunContext,
    valuation: Mapping[str, Value],
) -> bool:
    """True when the reference semantics *fails* to confirm the violation.

    The Büchi pipeline found a lasso for the negated grounded property;
    the reference lasso evaluator must agree that the grounded property
    is false on it.
    """
    from repro.ltl.lasso import eval_on_lasso

    grounded = sentence.instantiate(dict(valuation))
    label = _SnapshotLabeller(ctx)

    def atom_eval(pos: int, payload) -> bool:
        return label(run.snapshots[pos], payload)

    value = eval_on_lasso(grounded, atom_eval, len(run.snapshots), run.loop_index)
    if value:
        raise AssertionError(
            "internal error: counterexample not confirmed by the reference "
            "semantics — please report this as a verifier bug"
        )
    return False


def _require_input_bounded(service: WebService, sentence: LTLFOSentence) -> None:
    report = classify(service)
    if not report.is_in(ServiceClass.INPUT_BOUNDED):
        citation = "Theorem 3.7/3.8"
        if report.has_state_projections:
            citation = "Theorem 3.8"
        raise UndecidableInstanceError(
            report.why_not(ServiceClass.INPUT_BOUNDED), citation
        )
    prop_report = check_ltlfo_input_bounded(
        sentence, service.schema, service.page_names
    )
    if not prop_report.ok:
        raise UndecidableInstanceError(prop_report.reasons, "§3 (input-bounded LTL-FO)")
