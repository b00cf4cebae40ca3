"""The memos, the step plans and the shared-base contexts of ``RunContext``.

A run context enumerates each choice set once per ``(page, state, prev,
γ)``, builds the snapshots entered at a page once per ``(page, state,
prev, actions, Γ)``, runs each step from its page's resolved step plan
and builds every step's evaluation context from one precomputed base.
None of it may change what a run does.  The checks, none of which reads
a memo or a step plan on its reference side:

- **successors**: BFS every reachable snapshot with one long-lived run
  context per (database, sigma) — the sigmas of a database sharing one
  interner, as a blocked work unit's do — and compare each snapshot's
  successors, in order, with those of a fresh run context (empty memo,
  own interner).  No key is enumerated twice on a long-lived context,
  error condition (i) included, no next snapshot is built twice, and
  the lists ``successors`` and ``initial_snapshots`` return are fresh;
- **step**: at every reachable snapshot, ``deterministic_step`` against
  a test-local step built from the page schema alone (interpreted
  rules, ``schema.input`` and ``prev_symbol``), error conditions (i),
  (ii) and (iii) included;
- **Kripke**: ``build_snapshot_kripke`` against a reference BFS that
  calls ``deterministic_step`` and ``enumerate_choices`` on a fresh run
  context per call — same states in the same order, edges and labels;
- **contexts**: at every reachable snapshot, ``make_eval_context`` and
  the ``EvalContext`` constructor (plus ``declare_empty``) give the same
  relations, page, page names, input values and domain, and the lazy
  domain is the structure's: extra domain, database domain, the four
  instances' active domains and the scoped sigma values.
"""

from __future__ import annotations

import itertools
from collections import deque

import pytest

import repro.service.runs as runs
from repro.demo import dataflow_demo_service
from repro.fol import (
    MissingInputConstantError,
    compile_formula,
    compile_query,
    evaluate_interpreted,
    evaluate_query_interpreted,
    parse_formula,
)
from repro.fol.evaluation import EvalContext
from repro.schema import Database
from repro.schema.instances import Instance
from repro.schema.symbols import prev_symbol
from repro.service import ServiceBuilder
from repro.service.compiled import SnapshotInterner, compiled_service
from repro.service.runs import (
    RunContext,
    Snapshot,
    _inputs_instance,
    deterministic_step,
    enumerate_choices,
    error_snapshot,
    initial_snapshots,
    successors,
)
from repro.verifier.branching import ROOT_STATE, build_snapshot_kripke
from repro.verifier.engine import (
    candidate_databases,
    enumerate_sigmas,
    fresh_value_pool,
)
from tests.test_bitset import SPECS, _session_service, corpus_inputs
from tests.test_compile import _outcome, _registration


# ---------------------------------------------------------------------------
# services no corpus spec covers
# ---------------------------------------------------------------------------

def _unprovided_reader():
    """A and B both enter NEXT with the same state and prev, and NEXT's
    option rule reads ``who``, which no page on the way requests: the
    memoized outcome is error condition (i), reached twice."""
    b = ServiceBuilder("unprovided-reader")
    b.database("allowed", 1)
    b.input("go")
    b.input("left")
    b.input("pick", 1)
    b.input_constant("who")
    home = b.page("HOME", home=True)
    home.toggle("go", "left")
    home.target("A", "go & left")
    home.target("B", "go & !left")
    for name in ("A", "B"):
        page = b.page(name)
        page.toggle("go")
        page.target("NEXT", "go")
    nxt = b.page("NEXT")
    nxt.options("pick", "allowed(x) & x = who", ("x",))
    nxt.target("LATE", "true")
    b.page("LATE").request("who")
    return b.build()


def _gamma_split():
    """P is entered with the same state and prev from ASK, which requests
    ``who``, and from SKIP, which does not: only γ tells the two choice
    sets apart (options over ``who``, or error condition (i)), and under
    γ ∋ who the options differ from sigma to sigma.  ASK's own options
    read ``who`` too: γ at a page includes what the page requests."""
    b = ServiceBuilder("gamma-split")
    b.database("allowed", 1)
    b.input("go")
    b.input("left")
    b.input("pick", 1)
    b.input_constant("who")
    home = b.page("HOME", home=True)
    home.toggle("go", "left")
    home.target("ASK", "go & left")
    home.target("SKIP", "go & !left")
    ask = b.page("ASK")
    ask.request("who")
    ask.toggle("go")
    ask.options("pick", "allowed(x) & x = who", ("x",))
    ask.target("P", "go")
    skip = b.page("SKIP")
    skip.toggle("go")
    skip.target("P", "go")
    b.page("P").options("pick", "allowed(x) & x = who", ("x",))
    return b.build()


def _erring():
    """Two pages that reach every step error: HOME re-requests ``who``
    once stayed on (ii), fires A and HOME together on ``go & left``
    (iii), and every step at A reads ``ghost``, which no page requests
    (i)."""
    b = ServiceBuilder("erring")
    b.input("go")
    b.input("left")
    b.input_constant("who", "ghost")
    b.action("alarm")
    home = b.page("HOME", home=True)
    home.request("who")
    home.toggle("go", "left")
    home.target("A", "go")
    home.target("HOME", "go & left")
    a = b.page("A")
    a.toggle("go")
    a.act("alarm", "ghost = who")
    a.target("HOME", "go")
    return b.build()


def _small_model_pairs(service, domain_size):
    """``(database, [sigma, ...])`` over the small-model enumeration."""
    dbs, _ = candidate_databases(service, None, None, domain_size, True)
    return [(db, list(enumerate_sigmas(service, db))) for db in dbs]


def _corpus_pairs(path):
    service, db, sigma = corpus_inputs(path)
    return service, [(db, [sigma])]


#: name -> (service factory, domain size of its small-model databases)
SERVICES = {
    "dataflow-demo": (dataflow_demo_service, 1),
    "erring": (_erring, 1),
    "registration": (_registration, 2),
    "session": (_session_service, 2),
    "unprovided-reader": (_unprovided_reader, 2),
    "gamma-split": (_gamma_split, 2),
}


def _inputs(name):
    if name in SERVICES:
        factory, domain_size = SERVICES[name]
        service = factory()
        return service, _small_model_pairs(service, domain_size)
    return _corpus_pairs(name)


CASES = SPECS + sorted(SERVICES)


def _case_id(name):
    return name.rsplit("/", 1)[-1].removesuffix(".json")


def _reachable(ctx):
    """``(order, edges)`` of the snapshots reachable in ``ctx``."""
    starts = initial_snapshots(ctx)
    order, seen, edges = list(starts), set(starts), {}
    frontier = deque(starts)
    while frontier:
        snap = frontier.popleft()
        edges[snap] = nexts = successors(ctx, snap)
        for nxt in nexts:
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                frontier.append(nxt)
    return order, edges


# ---------------------------------------------------------------------------
# successors: long-lived (memoizing) context vs a fresh one per snapshot
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CASES, ids=_case_id)
def test_successors_match_fresh_context(name, monkeypatch):
    service, pairs = _inputs(name)
    # The long-lived contexts stay alive to the end, so their ids are
    # never reused by a fresh context.
    long_lived: list[RunContext] = []
    long_ids: set[int] = set()
    enumerated: list[tuple] = []

    def recording(ctx, page, state, prev, gamma):
        if id(ctx) in long_ids:
            enumerated.append((id(ctx), page.name, state, prev, gamma))
        return enumerate_choices(ctx, page, state, prev, gamma)

    monkeypatch.setattr(runs, "enumerate_choices", recording)
    checked = pending = 0
    for db, sigmas in pairs:
        interner = SnapshotInterner()
        for sigma in sigmas:
            ctx = RunContext(service, db, sigma=sigma, interner=interner)
            long_lived.append(ctx)
            long_ids.add(id(ctx))

            def fresh():
                return RunContext(service, db, sigma=sigma)

            assert initial_snapshots(ctx) == initial_snapshots(fresh())
            order, edges = _reachable(ctx)
            for snap in order:
                assert edges[snap] == successors(fresh(), snap), (
                    sigma, snap.describe()
                )
                pending += snap.pending_error
            checked += len(order)
    assert checked
    # every key enumerated at most once per long-lived context: the
    # memo replays error condition (i) as well as choice lists
    assert len(enumerated) == len(set(enumerated))
    if name in ("unprovided-reader", "gamma-split"):
        assert pending


def test_unprovided_reader_memoizes_error_outcome(monkeypatch):
    """NEXT's error-(i) key is reached from A and from B, and enumerated
    once."""
    service = _unprovided_reader()
    db = Database(service.schema.database, {"allowed": [("a",)]})
    calls: list[str] = []

    def counting(ctx, page, state, prev, gamma):
        calls.append(page.name)
        return enumerate_choices(ctx, page, state, prev, gamma)

    monkeypatch.setattr(runs, "enumerate_choices", counting)
    order, edges = _reachable(RunContext(service, db))
    pending = [s for s in order if s.pending_error]
    assert {s.page for s in pending} == {"NEXT"}
    entering = {
        snap.page for snap, nexts in edges.items()
        if any(n.pending_error for n in nexts)
    }
    assert entering == {"A", "B"}
    assert calls.count("NEXT") == 1


@pytest.mark.parametrize("name", ["registration", "session", "erring"])
def test_returned_lists_are_fresh(name):
    """Callers keep these lists as edge lists: mutating one must not
    reach the memo, pending-error and error outcomes included."""
    service, pairs = _inputs(name)
    db, sigmas = pairs[0]
    ctx = RunContext(service, db, sigma=sigmas[0])

    def check(call):
        expected = list(call())
        for mutate in (lambda got: got.append(got[0]), list.clear):
            got = call()
            assert isinstance(got, list)
            mutate(got)
            assert call() == expected

    check(lambda: initial_snapshots(ctx))
    order, _ = _reachable(ctx)
    for snap in order:
        check(lambda: successors(ctx, snap))


@pytest.mark.parametrize("name", ["registration", "session"])
def test_next_snapshots_built_once(name, monkeypatch):
    """On a long-lived run context, every non-error next snapshot is
    built and interned once per (key, choice), not once per edge that
    reaches it."""
    service, pairs = _inputs(name)
    interned = SnapshotInterner.snapshot
    built: list[tuple] = []

    def recording(self, snap):
        if not snap.is_error:
            built.append((id(self), snap))
        return interned(self, snap)

    monkeypatch.setattr(SnapshotInterner, "snapshot", recording)
    # each context has its own interner, and stays alive so that no
    # later interner reuses its id
    contexts, edges_in = [], 0
    for db, sigmas in pairs:
        for sigma in sigmas:
            ctx = RunContext(service, db, sigma=sigma)
            contexts.append(ctx)
            order, edges = _reachable(ctx)
            edges_in += len(initial_snapshots(ctx)) + sum(
                not nxt.is_error for nexts in edges.values() for nxt in nexts
            )
    assert len(built) == len(set(built))
    # outcomes repeat, so building per edge would have built more
    assert edges_in > 2 * len(built)


# ---------------------------------------------------------------------------
# step: deterministic_step vs a reference built from the page schema
# ---------------------------------------------------------------------------

def _reference_step(ctx, snap):
    """Definition 2.3's deterministic half from the page schema alone:
    ``(error, next page, state, actions, prev, Γ_i)``, with the error
    condition that stopped the step (or None) as a second value."""
    service = ctx.service
    schema = service.schema
    page = service.page(snap.page)
    requested = frozenset(page.input_constants)
    if requested & snap.provided_before:
        return (True,), "ii"
    gamma = snap.provided_before | requested
    ectx = EvalContext(
        database=ctx.database, state=snap.state, inputs=snap.inputs,
        prev=snap.prev, input_values={
            c: v for c, v in ctx.sigma.items() if c in gamma
        },
        page=snap.page, page_names=service.page_names | {service.error_page},
        extra_domain=ctx.extra_domain,
    )
    ectx.declare_empty(_declared(service))
    try:
        fired = {
            rule.target for rule in page.target_rules
            if evaluate_interpreted(rule.formula, ectx)
        }
        if len(fired) > 1:
            return (True,), "iii"
        updates: dict = {}
        for rule in page.state_rules:
            ins, dels = updates.setdefault(rule.state, (set(), set()))
            (ins if rule.insert else dels).update(evaluate_query_interpreted(
                rule.formula, rule.variables, ectx
            ))
        actions: dict = {}
        for rule in page.action_rules:
            actions.setdefault(schema.action[rule.action], set()).update(
                evaluate_query_interpreted(rule.formula, rule.variables, ectx)
            )
    except MissingInputConstantError:
        return (True,), "i"
    state = {}
    for sym in schema.state:
        old = snap.state.tuples(sym)
        ins, dels = updates.get(sym.name, (set(), set()))
        state[sym] = (old - (dels - ins)) | (ins - dels)
    prev = {}
    for name in page.inputs:
        sym = schema.input[name]
        prev[prev_symbol(sym)] = snap.inputs.tuples(sym)
    next_page = fired.pop() if fired else page.name
    return (
        False, next_page, Instance(state), Instance(actions), Instance(prev),
        gamma,
    ), None


def _step_outcome(step):
    if step.error:
        return (True,)
    return (
        False, step.next_page, step.next_state, step.next_actions,
        step.next_prev, step.gamma,
    )


def _reference_entries(ctx, name, state, actions, prev, gamma):
    """The snapshots entered at page ``name`` after a step that provided
    ``gamma``: one per choice ``enumerate_choices`` yields on a fresh
    context at ``gamma`` plus the page's requests, or the pending-error
    snapshot."""
    service = ctx.service
    page = service.page(name)
    fresh = RunContext(service, ctx.database, sigma=ctx.sigma)
    try:
        choices = list(enumerate_choices(
            fresh, page, state, prev, gamma | set(page.input_constants)
        ))
    except MissingInputConstantError:
        return [Snapshot(
            name, state, Instance.empty(), prev, actions, gamma,
            pending_error=True,
        )]
    return [
        Snapshot(
            name, state, _inputs_instance(service, page, choice), prev,
            actions, gamma,
        )
        for choice in choices
    ]


@pytest.mark.parametrize("name", CASES, ids=_case_id)
def test_step_matches_schema_reference(name):
    service, pairs = _inputs(name)
    errors: set = set()
    steps = 0
    for db, sigmas in pairs:
        for sigma in sigmas:
            ctx = RunContext(service, db, sigma=sigma)
            empty = Instance.empty()
            assert initial_snapshots(ctx) == _reference_entries(
                ctx, service.home, empty, empty, empty, frozenset()
            )
            order, _ = _reachable(ctx)
            for snap in order:
                if snap.is_error:
                    continue
                expected, error = _reference_step(ctx, snap)
                got = _step_outcome(deterministic_step(ctx, snap))
                assert got == expected, (sigma, snap.describe(), error)
                if snap.pending_error or error:
                    entered = [error_snapshot(service)]
                else:
                    entered = _reference_entries(ctx, *expected[1:])
                assert successors(ctx, snap) == entered, snap.describe()
                errors.add(error)
                steps += 1
    assert steps
    if name == "erring":
        assert {"i", "ii", "iii"} <= errors


# ---------------------------------------------------------------------------
# Kripke: the builder vs a memo-free reference BFS
# ---------------------------------------------------------------------------

def _reference_kripke(service, database):
    """The configuration structure built without the memo: a fresh run
    context for every ``deterministic_step`` and ``enumerate_choices``
    call.  ``(states, edges, initial)`` in the builder's order."""
    fresh, _ = fresh_value_pool(database, len(service.schema.input_constants))
    candidates = sorted(database.domain, key=repr) + fresh
    empty = Instance.empty()

    def fresh_ctx(sig):
        return RunContext(service, database, sigma=dict(sig))

    def assignments(sig, constants):
        have = dict(sig)
        new = [c for c in constants if c not in have]
        if not new:
            return [sig]
        out = []
        for combo in itertools.product(candidates, repeat=len(new)):
            merged = dict(have)
            merged.update(zip(new, combo))
            out.append(tuple(sorted(merged.items())))
        return out

    def entries(page_name, state, prev, actions, before, gamma, sig):
        page = service.page(page_name)
        out = []
        for sig2 in assignments(sig, page.input_constants):
            try:
                choices = list(enumerate_choices(
                    fresh_ctx(sig2), page, state, prev, gamma
                ))
            except MissingInputConstantError:
                out.append((Snapshot(
                    page_name, state, empty, prev, actions, before,
                    pending_error=True,
                ), sig2))
                continue
            out.extend(
                (Snapshot(
                    page_name, state, _inputs_instance(service, page, choice),
                    prev, actions, before,
                ), sig2)
                for choice in choices
            )
        return out

    def succ(node):
        snap, sig = node
        if snap.is_error:
            return [node]
        if snap.pending_error:
            return [(error_snapshot(service), sig)]
        step = deterministic_step(fresh_ctx(sig), snap)
        if step.error:
            return [(error_snapshot(service), sig)]
        nxt = service.page(step.next_page)
        return entries(
            step.next_page, step.next_state, step.next_prev,
            step.next_actions, step.gamma,
            step.gamma | frozenset(nxt.input_constants), sig,
        )

    home = service.page(service.home)
    initial = entries(
        service.home, empty, empty, empty, frozenset(),
        frozenset(home.input_constants), (),
    )
    states, seen, edges = list(initial), set(initial), {}
    frontier = list(initial)
    while frontier:
        node = frontier.pop()
        edges[node] = nexts = succ(node)
        for nxt in nexts:
            if nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
                frontier.append(nxt)
    return states, edges, initial


def _reference_label(node):
    """§4 labelling: the page, every true symbol, and a ground pair per
    non-empty state, input or action tuple."""
    snap = node[0]
    out = {snap.page}
    if not snap.is_error:
        for inst in (snap.state, snap.inputs, snap.actions):
            for sym, rel in inst:
                out.add(sym.name)
                out.update((sym.name, t) for t in rel if t)
    return frozenset(out)


def _propositional():
    from repro.io.json_format import load_service
    service = load_service(next(p for p in SPECS if "propositional" in p))
    return service, Database(service.schema.database)


def _gamma_split_db():
    service = _gamma_split()
    return service, Database(
        service.schema.database, {"allowed": [("a",), ("b",)]}
    )


@pytest.mark.parametrize(
    "make", [_propositional, _gamma_split_db],
    ids=["propositional", "gamma-split"],
)
def test_kripke_matches_memo_free_reference(make):
    """State ``(sid, σ)`` is the reference's ``(snapshot, σ)`` through
    the explored graph's numbering: same states in the same order, the
    same successors in order, and the same labels."""
    service, db = make()
    kripke = build_snapshot_kripke(service, db)
    states, edges, initial = _reference_kripke(service, db)
    compiled = compiled_service(service)
    snapshots = compiled.exploration.open(db, compiled.extra_domain()).snapshots

    def config(state):
        if state == ROOT_STATE:
            return state
        sid, sig = state
        return (snapshots[sid], sig)

    assert [config(s) for s in kripke.states] == [ROOT_STATE] + states
    assert tuple(map(config, kripke.successors(ROOT_STATE))) == tuple(
        dict.fromkeys(initial)
    )
    for state, node in zip(kripke.states[1:], states):
        assert tuple(map(config, kripke.successors(state))) == tuple(
            dict.fromkeys(edges[node])
        )
        assert kripke.label(state) == _reference_label(node)
    if service.schema.input_constants:
        # the constant branches the structure, and γ splits P's choices
        sigmas = {sig for _sid, sig in kripke.states[1:]}
        assert len(sigmas) > 2
        assert any(
            snapshots[sid].pending_error for sid, _sig in kripke.states[1:]
        )


# ---------------------------------------------------------------------------
# contexts: the shared-base path vs the constructor, and the lazy domain
# ---------------------------------------------------------------------------

#: Rules evaluated on both contexts of the registration-family services:
#: a universal one, and a query whose free variable no atom guards (the
#: domain-power fallback).  The last two read the session's ``who``.
_FORALL = "forall y . (stored(y) -> allowed(y))"
_FALLBACK = "!stored(x)"
_FORALL_WHO = "forall y . (allowed(y) | y = who)"
_FALLBACK_WHO = "!stored(x) & x != who"


def _declared(service):
    schema = service.schema
    return [
        r.name
        for part in (schema.state, schema.input, schema.prev, schema.action)
        for r in part.relations
    ]


def _rule_checks(service):
    """``(formula, free variables)`` pairs meaningful for ``service``."""
    names = {r.name for r in service.schema.database.relations}
    names |= {r.name for r in service.schema.state.relations}
    if not {"stored", "allowed"} <= names:
        return []
    out = [(_FORALL, None), (_FALLBACK, ("x",))]
    if "who" in service.schema.input_constants:
        out += [(_FORALL_WHO, None), (_FALLBACK_WHO, ("x",))]
    return out


@pytest.mark.parametrize(
    "name", SPECS + ["registration", "session"], ids=_case_id,
)
def test_eval_context_paths_agree(name):
    service, pairs = _inputs(name)
    declared = _declared(service)
    page_names = service.page_names | {service.error_page}
    relations = [r.name for r in service.schema.database.relations]
    relations += declared
    checks = [
        (parse_formula(
            text, input_constants=service.schema.input_constants,
        ), free)
        for text, free in _rule_checks(service)
    ]
    seen_sigma_value = False
    contexts = 0
    for db, sigmas in pairs:
        for sigma in sigmas:
            ctx = RunContext(service, db, sigma=sigma)
            order, _ = _reachable(ctx)
            for snap in order:
                gamma = snap.provided_here(service)
                lazy = ctx.make_eval_context(
                    snap.state, snap.inputs, snap.prev, snap.actions,
                    gamma=gamma, page=snap.page,
                )
                scoped = {c: v for c, v in sigma.items() if c in gamma}
                eager = EvalContext(
                    database=db, state=snap.state, inputs=snap.inputs,
                    prev=snap.prev, actions=snap.actions,
                    input_values=scoped, page=snap.page,
                    page_names=page_names, extra_domain=ctx.extra_domain,
                )
                eager.declare_empty(declared)
                expected = set(ctx.extra_domain) | set(db.domain)
                for inst in (snap.state, snap.inputs, snap.prev,
                             snap.actions):
                    expected |= inst.active_domain()
                expected |= set(scoped.values())
                assert lazy.domain == eager.domain == expected
                seen_sigma_value |= bool(
                    set(scoped.values()) - set(db.domain) - ctx.extra_domain
                )
                for rel in relations:
                    assert lazy.relation_tuples(rel) == \
                        eager.relation_tuples(rel), rel
                    assert lazy.relation_tuples(rel) is not None
                assert lazy.relation_tuples("__undeclared__") is None
                assert eager.relation_tuples("__undeclared__") is None
                assert (lazy.page, lazy.page_names, lazy.input_values) == (
                    eager.page, eager.page_names, eager.input_values,
                )
                for formula, free in checks:
                    if free is None:
                        ref = _outcome(
                            lambda: evaluate_interpreted(formula, eager)
                        )
                        got = _outcome(
                            lambda: compile_formula(formula).check(lazy)
                        )
                    else:
                        ref = _outcome(lambda: evaluate_query_interpreted(
                            formula, free, eager
                        ))
                        got = _outcome(
                            lambda: compile_query(formula, free).solve(lazy)
                        )
                    assert got == ref, (str(formula), snap.describe())
                contexts += 1
    assert contexts
    if name == "session":
        # a fresh sigma value reaches the domain only through the scoped
        # sigma, so the comparison above really covers that component
        assert seen_sigma_value


def test_lazy_domain_reads_actions_and_scoped_sigma():
    """A value found only in the action instance or only in the scoped
    sigma is in the domain, and the fallback query ranges over it."""
    service = _session_service()
    db = Database(service.schema.database, {"allowed": [("a",)]})
    ctx = RunContext(service, db, sigma={"who": "zz"})
    ack = service.schema.action["ack"]
    actions = Instance({ack: [("qq",)]})
    empty = Instance.empty()
    scoped = ctx.make_eval_context(
        empty, empty, empty, actions, gamma=frozenset({"who"}),
    )
    unscoped = ctx.make_eval_context(empty, empty, empty)
    assert {"qq", "zz"} <= scoped.domain
    assert "zz" not in unscoped.domain and "qq" not in unscoped.domain
    query = compile_query(parse_formula(_FALLBACK), ("x",))
    assert {("qq",), ("zz",)} <= query.solve(scoped)
