"""Differential tests for the set-at-a-time bitset engine (repro.fol.bitset).

The bitset evaluators must agree with the scalar interpreter bit by
bit: for every plan and every block, bit *i* of ``plan.bits(ctx,
block)`` equals ``plan.check(ctx, valuation_i)`` — including the
exception-parity contract (the bitset path raises iff some valuation
raises; ``MissingInputConstantError`` timing is error condition (i) of
Definition 2.3, i.e. semantics, not an implementation detail).

Three layers of evidence:

- per-bit randomized differential over the same controlled formula
  generator as ``test_compile`` plus every rule formula of the
  ``examples/specs`` corpus (where every compiled rule plan is also
  checked against the interpreter);
- search-level differential: the compiled product search against the
  valuation-at-a-time reference search on every (database, sigma) of
  four small services — same result, stats and governor charges, also
  when a snapshot or valuation cap strikes mid-search; every lasso
  replays as a violating run — and end-to-end ``verify_ltlfo``
  fingerprints with and without sigma blocking, sequential and pooled;
- trace-level accounting: the ``label.bits`` events show the explored
  graph's label memo spanning units and calls — a cold unblocked run
  computes no more bitsets than a blocked one, and a warm repeat
  computes none.
"""

import random
from pathlib import Path

import pytest

from repro.fol import (
    And,
    Atom,
    Eq,
    InputConst,
    MissingInputConstantError,
    Not,
    Var,
    compile_formula,
    evaluate_interpreted,
    evaluate_query_interpreted,
)
from repro.fol.bitset import ValuationBlock, compile_bits
from repro.ltl import B, G, LTLAtom, LTLFOSentence, ltl_to_buchi
from repro.ltl.buchi import Lasso
from repro.ltl.syntax import LNot
from repro.obs import CollectingTracer
from repro.schema import Database
from repro.service import (
    CompiledService,
    RunContext,
    ServiceBuilder,
    initial_snapshots,
    successors,
)
from repro.service.compiled import ExplorationCache
from repro.service.runs import Run
from repro.verifier import VerificationBudgetExceeded, verify_ltlfo
from repro.verifier.budget import Budget
from repro.verifier.engine import candidate_databases, enumerate_sigmas
from repro.verifier.linear import (
    _GraphLabeller,
    _search_product,
    _SnapshotLabeller,
)

from tests.product_reference import _search_valuations
from tests.test_compile import (
    EVAL_ERRORS,
    VALUES,
    VARS,
    _gen_ctx,
    _gen_formula,
    _outcome,
    _pingpong,
    _registration,
)
from tests.witness import check_violation, replay_witness

# ---------------------------------------------------------------------------
# block layout
# ---------------------------------------------------------------------------

def test_valuation_block_layout():
    """Bit *i* of ``var_mask(v, val)`` iff ``combos()[i][j] == val``."""
    block = ValuationBlock(("x", "y"), ("a", "b", "c"))
    combos = list(block.combos())
    assert len(combos) == block.n == 9
    for j, var in enumerate(block.variables):
        for val in block.values:
            mask = block.var_mask(var, val)
            for i, combo in enumerate(combos):
                assert bool(mask & (1 << i)) == (combo[j] == val)


def test_valuation_block_unknown_value_and_all_mask():
    block = ValuationBlock(("x",), ("a", "b"))
    assert block.var_mask("x", "zzz") == 0
    assert block.all_mask == (1 << block.n) - 1


# ---------------------------------------------------------------------------
# per-bit randomized differential vs the scalar interpreter
# ---------------------------------------------------------------------------

def _bits_vs_scalar(formula, ctx, block):
    """Assert the exception-parity contract on one (formula, block)."""
    combos = list(block.combos())
    scalar = [
        _outcome(lambda c=c: evaluate_interpreted(
            formula, ctx, dict(zip(block.variables, c))
        ))
        for c in combos
    ]
    fn = compile_bits(formula, block.variables)
    try:
        bits = fn(ctx, block)
    except EVAL_ERRORS:
        assert any(kind != "ok" for kind, *_ in scalar), (
            f"bits raised but no valuation raises: {formula}"
        )
        return
    assert all(kind == "ok" for kind, *_ in scalar), (
        f"some valuation raises but bits returned {bits:#x}: {formula}"
    )
    for i, (_, value) in enumerate(scalar):
        assert bool(bits & (1 << i)) == value, (
            f"bit {i} ({dict(zip(block.variables, combos[i]))}): {formula}"
        )


def test_bits_differential_randomized():
    rng = random.Random(20260808)
    for _ in range(300):
        ctx = _gen_ctx(rng)
        k = rng.randint(1, 3)
        names = tuple(rng.sample(VARS, k=k))
        values = tuple(rng.sample(VALUES, k=rng.randint(1, 3)))
        block = ValuationBlock(names, values)
        formula = _gen_formula(rng, rng.randint(1, 4), set(names))
        _bits_vs_scalar(formula, ctx, block)


def test_bits_via_compiled_formula_plan():
    """`CompiledFormula.bits` memoises one evaluator per block layout."""
    rng = random.Random(11)
    ctx = _gen_ctx(rng)
    formula = _gen_formula(rng, 3, {"x"})
    plan = compile_formula(formula, frozenset({"x"}))
    block = ValuationBlock(("x",), ("a", "b", 1))
    try:
        bits = plan.bits(ctx, block)
    except EVAL_ERRORS:
        return
    for i, combo in enumerate(block.combos()):
        assert bool(bits & (1 << i)) == evaluate_interpreted(
            formula, ctx, {"x": combo[0]}
        )


def test_bits_missing_input_constant_parity():
    from repro.fol import And, Eq, InputConst

    ctx = _gen_ctx(random.Random(3))
    ctx.input_values.clear()
    # Every valuation reads the missing @c0, so the bitset path must
    # raise exactly as the scalar path does (error condition (i)).
    formula = Eq(Var("x"), InputConst("c0"))
    block = ValuationBlock(("x",), ("a", "b"))
    fn = compile_bits(formula, ("x",))
    with pytest.raises(MissingInputConstantError):
        fn(ctx, block)
    # Short-circuit parity: a conjunction whose first part kills every
    # valuation never reaches the constant — on either path.
    ctx.declare_empty(["S"])
    guarded = And([Atom("S", (Var("x"),)), formula])
    assert compile_bits(guarded, ("x",))(ctx, block) == 0
    assert evaluate_interpreted(guarded, ctx, {"x": "a"}) is False


# ---------------------------------------------------------------------------
# corpus: every rule formula of the example specs
# ---------------------------------------------------------------------------

SPECS = sorted(
    str(p)
    for p in (Path(__file__).resolve().parent.parent / "examples" / "specs")
    .glob("*.json")
)


CORPUS_DOMAIN = ("a", "b")


def corpus_inputs(path):
    """A corpus spec with a small database over ``CORPUS_DOMAIN`` (up to
    two rows per relation) and a sigma giving every constant ``"a"``."""
    from repro.io.json_format import load_service
    from repro.schema import Database

    service = load_service(path)
    dom = CORPUS_DOMAIN
    contents = {}
    for sym in service.schema.database:
        rows = []
        for i in range(min(2, 2 ** sym.arity)):
            rows.append(tuple(dom[(i + j) % 2] for j in range(sym.arity)))
        contents[sym.name] = rows
    db = Database(service.schema.database, contents)
    sigma = {c: dom[0] for c in service.schema.input.constants}
    return service, db, sigma


def _rule_plans(page, cpage):
    """``(formula, variables, plan)`` for every rule of ``page``, with
    ``cpage`` its unpruned compiled form (``variables`` is None for the
    target rules' check plans)."""
    out = [
        (rule.formula, rule.variables, plan)
        for rule, (_, plan) in zip(page.input_rules, cpage.input_rules)
    ]
    for sym, plans in cpage.state_updates:
        rules = [r for r in page.state_rules if r.state == sym.name]
        out += [
            (rule.formula, rule.variables, plan)
            for rule, (_, plan) in zip(rules, plans)
        ]
    out += [
        (rule.formula, rule.variables, plan)
        for rule, (_, plan) in zip(page.action_rules, cpage.action_rules)
    ]
    out += [
        (rule.formula, None, plan)
        for rule, (_, plan) in zip(page.target_rules, cpage.target_rules)
    ]
    assert len(out) == cpage.n_plans
    return out


@pytest.mark.parametrize("path", SPECS)
def test_bits_specs_corpus(path):
    """Per-bit parity on real rule formulas over reachable snapshots,
    and every compiled rule plan against the interpreter there."""
    service, db, sigma = corpus_inputs(path)
    dom = CORPUS_DOMAIN
    ctx = RunContext(service, db, sigma=sigma)

    # a short reachable prefix of the snapshot graph
    snaps, frontier, seen = [], list(initial_snapshots(ctx)), set()
    while frontier and len(snaps) < 12:
        snap = frontier.pop(0)
        if snap in seen or snap.is_error:
            continue
        seen.add(snap)
        snaps.append(snap)
        frontier.extend(successors(ctx, snap))

    full = CompiledService(service, prune=False)
    checked = 0
    for snap in snaps:
        page = service.page(snap.page)
        ectx = ctx.make_eval_context(
            snap.state, snap.inputs, snap.prev, snap.actions,
            gamma=snap.provided_here(service), page=snap.page,
        )
        for formula, variables, plan in _rule_plans(page, full.page(page.name)):
            if variables is None:
                ref = _outcome(lambda: evaluate_interpreted(formula, ectx))
                got = _outcome(lambda: plan.check(ectx))
            else:
                ref = _outcome(lambda: evaluate_query_interpreted(
                    formula, variables, ectx
                ))
                got = _outcome(lambda: plan.solve(ectx))
            assert got == ref, (snap.page, formula, ref, got)
        rules = (
            list(page.input_rules) + list(page.state_rules)
            + list(page.action_rules)
        )
        for rule in rules:
            # Propositional rules still go through the bitset path when
            # blocked over a variable the formula never mentions.
            names = tuple(rule.variables) or ("x",)
            block = ValuationBlock(names, tuple(dom))
            _bits_vs_scalar(rule.formula, ectx, block)
            checked += 1
    assert checked, f"no rules exercised for {path}"


# ---------------------------------------------------------------------------
# search level: the compiled product search vs the reference search
# ---------------------------------------------------------------------------

def _session_service():
    """Registration with an input constant: several sigmas per database."""
    b = ServiceBuilder("session")
    b.database("allowed", 1)
    b.input("record", 1)
    b.input("done")
    b.state("stored", 1)
    b.state("closed")
    b.action("ack", 1)
    b.input_constant("who")
    form = b.page("FORM", home=True)
    form.toggle("done")
    form.options("record", "allowed(x)", ("x",))
    form.insert("stored", "record(x) & !closed", ("x",))
    form.insert("closed", "done")
    form.target("CONFIRM", "done")
    confirm = b.page("CONFIRM")
    confirm.request("who")
    confirm.act("ack", "stored(x) & x = who", ("x",))
    confirm.target("FINAL", "true")
    b.page("FINAL")
    return b.build()


def _stored_prop():
    return LTLFOSentence(
        ("x",),
        B(Atom("record", (Var("x"),)), Not(Atom("stored", (Var("x"),)))),
        name="stored only after recorded",
    )


def _never_stored_prop():
    return LTLFOSentence(
        ("x",), G(Not(Atom("stored", (Var("x"),)))), name="never stored"
    )


def _owner_never_stored_prop():
    """Reads the input constant: equal snapshots label differently
    under sigmas that differ in ``who``.  (``LNot`` keeps the negation
    temporal, so the FO component is false, not true, before ``who`` is
    provided.)"""
    owner_stored = And([
        Atom("stored", (Var("x"),)), Eq(Var("x"), InputConst("who")),
    ])
    return LTLFOSentence(
        ("x",), G(LNot(LTLAtom(owner_stored))), name="owner never stored"
    )


def _result_fingerprint(result):
    # stats["config"] records the options the compared runs set
    # differently on purpose; everything else must match
    return (
        result.verdict,
        result.procedure,
        result.method,
        result.counterexample,
        {k: v for k, v in result.stats.items() if k != "config"},
    )


def _session_ring_service():
    """The shape of perfbench's ``ltl_session_block``: arity-2
    registration whose CONFIRM page requests ``who`` and acknowledges
    only the owner's rows, so sigmas that differ in ``who`` step
    differently from CONFIRM on."""
    b = ServiceBuilder("session-ring")
    b.database("allowed", 2)
    b.input("record", 2)
    b.input("done")
    b.state("stored", 2)
    b.state("closed")
    b.action("ack", 2)
    b.input_constant("who")
    form = b.page("FORM", home=True)
    form.toggle("done")
    form.options("record", "allowed(x, y)", ("x", "y"))
    form.insert("stored", "record(x, y) & !closed", ("x", "y"))
    form.insert("closed", "done")
    form.target("REVIEW", "done")
    review = b.page("REVIEW")
    review.act("ack", "stored(x, y)", ("x", "y"))
    review.toggle("done")
    review.target("CONFIRM", "done")
    confirm = b.page("CONFIRM")
    confirm.request("who")
    confirm.act("ack", "stored(x, y) & x = who", ("x", "y"))
    confirm.target("FINAL", "true")
    b.page("FINAL")
    return b.build()


def _ring_databases(service):
    """``rows`` consecutive pairs around a ring of ``size`` values, for
    (size, rows) in (3, 2) and (4, 3)."""
    databases = []
    for size, rows in ((3, 2), (4, 3)):
        dom = [f"v{i}" for i in range(size)]
        facts = [(dom[i % size], dom[(i + 1) % size]) for i in range(rows)]
        databases.append(Database(service.schema.database, {"allowed": facts}))
    return databases


def _ring_never_acked_prop():
    x, y = Var("x"), Var("y")
    return LTLFOSentence(
        ("x", "y"), G(Not(Atom("ack", (x, y)))), name="never acked"
    )


def _ring_chained_prop():
    x, y, z = Var("x"), Var("y"), Var("z")
    return LTLFOSentence(
        ("x", "y", "z"),
        B(
            Atom("record", (x, y)),
            Not(And([Atom("stored", (x, y)), Atom("stored", (y, z))])),
        ),
        name="no chained store before its record",
    )


class _ChargeLog(Budget):
    """A governor that also records the order of its charges."""

    def __init__(self, **limits) -> None:
        super().__init__(**limits)
        self.charges: list = []

    def charge_valuation(self) -> None:
        self.charges.append("valuation")
        super().charge_valuation()

    def charge_snapshot(self, n: int = 1) -> None:
        self.charges.append(("snapshot", n))
        super().charge_snapshot(n)


def _search(service, sentence, ba, db, sigma, exploration=None,
            limits=None):
    """One lasso search over one (database, sigma), wired as the
    verifier's unit checker wires it, with a fresh governor (``limits``
    are its caps) and stats.  Without ``exploration`` it is the
    valuation-at-a-time reference over snapshots; with it, the product
    search over the ids of ``exploration``'s graph of ``db``, labelled
    through that graph's label memo, its lasso mapped back to
    snapshots.  Returns ``(found, stats, governor)``; ``found`` is the
    limit's name when a cap struck."""
    literals = frozenset(sentence.literals())
    ctx = RunContext(service, db, sigma=sigma, extra_domain=literals)
    gov = _ChargeLog(**(limits or {}))
    gov.begin_pair()
    stats = {"valuations_checked": 0, "snapshots_explored": 0}
    domain = sorted(
        set(db.domain) | set(sigma.values()) | set(ctx.extra_domain),
        key=repr,
    )
    if exploration is None:
        starts = initial_snapshots(ctx)

        def step(snap):
            return successors(ctx, snap)
    else:
        graph = exploration.open(db, ctx.extra_domain)
        starts = exploration.number(graph, initial_snapshots(ctx))

        def step(sid):
            return exploration.successor_ids(graph, ctx, sid, successors)

    cache: dict = {}

    def succ(state):
        out = cache.get(state)
        if out is None:
            out = cache[state] = step(state)
            stats["snapshots_explored"] += 1
            gov.charge_snapshot()
        return out

    try:
        if exploration is None:
            labeller = _SnapshotLabeller(ctx, sentence.variables)
            found = _search_valuations(
                ba, starts, succ, labeller, sentence.variables, domain, gov,
                stats,
            )
        else:
            block = ValuationBlock(sentence.variables, domain)
            labeller = _GraphLabeller(ctx, exploration, graph, block)
            found = _search_product(
                ba, starts, succ, labeller.label_bits, block, gov, stats
            )
            if found is not None:
                lasso, valuation = found
                snapshots = [graph.snapshots[sid] for sid in lasso.states]
                found = Lasso(snapshots, lasso.loop_index), valuation
    except VerificationBudgetExceeded as exc:
        found = exc.limit
    return found, stats, gov


SEARCH_CASES = {
    "registration-stored": (_registration, _stored_prop),
    "registration-never-stored": (_registration, _never_stored_prop),
    "pingpong-never-P2": (
        _pingpong,
        lambda: LTLFOSentence((), G(Not(Atom("P2", ()))), name="never P2"),
    ),
    "session-stored": (_session_service, _stored_prop),
    "session-never-stored": (_session_service, _never_stored_prop),
    "session-owner-never-stored": (
        _session_service, _owner_never_stored_prop,
    ),
    "session-ring-never-acked": (
        _session_ring_service, _ring_never_acked_prop, _ring_databases,
    ),
    "session-ring-chained": (
        _session_ring_service, _ring_chained_prop, _ring_databases,
    ),
}

#: Every case unbudgeted (its id is the case name), and with each cap
#: set to half of what the unbudgeted reference search charges.
SEARCH_PARAMS = [pytest.param(case, None, id=case) for case in sorted(SEARCH_CASES)]
SEARCH_PARAMS += [
    pytest.param(case, limit, id=f"{case}-{limit}")
    for case in sorted(SEARCH_CASES)
    for limit in ("max_snapshots", "max_valuations")
]


def _half_cap(limit: str, charges: list) -> int:
    valuations = charges.count("valuation")
    if limit == "max_valuations":
        return valuations // 2
    return (len(charges) - valuations) // 2


@pytest.mark.parametrize(("case", "limit"), SEARCH_PARAMS)
def test_setwise_search_matches_reference(case, limit):
    """Every (database, sigma): same ``(lasso, valuation)``, same stats,
    same governor charges in the same order — and with ``limit``, the
    same cap striking after the same charges.  The product searches of
    a case share one exploration cache across its databases and sigmas,
    as the units and calls on one service do: snapshot ids, successor-id
    tuples and label bitsets.  Every violating lasso replays as a run of
    the service that violates the property under the reported
    valuation."""
    make_service, make_prop, *make_databases = SEARCH_CASES[case]
    service, sentence = make_service(), make_prop()
    ba = ltl_to_buchi(LNot(sentence.skeleton))
    if make_databases:
        dbs = make_databases[0](service)
    else:
        dbs, _ = candidate_databases(service, sentence, None, 2, True)
    literals = frozenset(sentence.literals())
    exploration = ExplorationCache()
    pairs = found_any = struck = 0
    for db in dbs:
        for sigma in enumerate_sigmas(service, db):
            ref = _search(service, sentence, ba, db, sigma)
            limits = None
            if limit is not None:
                limits = {limit: _half_cap(limit, ref[2].charges)}
                ref = _search(service, sentence, ba, db, sigma, limits=limits)
            got = _search(
                service, sentence, ba, db, sigma, exploration, limits=limits
            )
            assert got[0] == ref[0]
            assert got[1] == ref[1]
            assert got[2].charges == ref[2].charges
            assert got[2].counters() == ref[2].counters()
            pairs += 1
            struck += ref[0] == limit
            if isinstance(ref[0], tuple):
                found_any += 1
                lasso, valuation = ref[0]
                run = Run(db, dict(sigma), list(lasso.states), lasso.loop_index)
                replay_witness(service, run, extra_domain=literals)
                check_violation(
                    service, run, sentence, extra_domain=literals,
                    valuation=valuation,
                )
    assert pairs
    if limit is None:
        assert bool(found_any) == ("never" in case)
    else:
        assert struck
    if "ring" in case:  # its sigmas share labels: some are served
        assert exploration.stats()["label_hits"] > 0


class TestVerifierSetwiseIdentity:
    def test_sigma_blocked_unit_identical(self):
        """Blocked units (many sigmas at once) change nothing observable."""
        svc = _session_service()
        blocked = verify_ltlfo(
            svc, _stored_prop(), domain_size=2, sigma_block=8
        )
        plain = verify_ltlfo(
            svc, _stored_prop(), domain_size=2, sigma_block=1
        )
        assert _result_fingerprint(blocked) == _result_fingerprint(plain)

    def test_sigma_blocked_pool_identical(self):
        svc = _session_service()
        blocked = verify_ltlfo(
            svc, _stored_prop(), domain_size=2, workers=2, sigma_block=4
        )
        sequential = verify_ltlfo(svc, _stored_prop(), domain_size=2)
        assert blocked.verdict is sequential.verdict
        # stats["config"] records the differing workers/sigma_block by
        # construction; everything else must match the sequential run
        skip = {"workers", "config"}
        base = {
            k: v for k, v in sequential.stats.items() if k not in skip
        }
        pooled = {k: v for k, v in blocked.stats.items() if k not in skip}
        assert base == pooled


# ---------------------------------------------------------------------------
# the label memo spans sigmas, units and calls
# ---------------------------------------------------------------------------

def _label_counts(tracer) -> tuple[int, int]:
    events = [e for e in tracer.events if e.name == "label.bits"]
    return (
        sum(e.fields["computed"] for e in events),
        sum(e.fields["shared"] for e in events),
    )


def test_label_memo_spans_sigmas_units_and_calls():
    """On fresh services, a cold ``sigma_block=1`` run computes no more
    label bitsets than a cold ``sigma_block=8`` run: the explored
    graph's memo spans units as it spans the sigmas of one.  A warm
    repeat on the same service computes none, and every run's stats are
    equal.  In-process (``workers=1``): pool workers start with empty
    caches."""
    prop = _stored_prop()
    computed = {}
    stats = []
    for block in (1, 8):
        svc = _session_service()
        runs = []
        for _ in range(2):
            tracer = CollectingTracer()
            result = verify_ltlfo(
                svc, prop, domain_size=2, sigma_block=block, tracer=tracer,
                workers=1,
            )
            runs.append(_label_counts(tracer))
            # stats["config"] records the differing sigma_block
            stats.append(
                {k: v for k, v in result.stats.items() if k != "config"}
            )
        (cold, cold_shared), (warm, warm_shared) = runs
        assert cold > 0
        assert warm == 0 and warm_shared == cold + cold_shared
        computed[block] = cold
    assert computed[1] <= computed[8], computed
    assert all(s == stats[0] for s in stats)
