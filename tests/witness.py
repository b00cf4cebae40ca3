"""Replay a counterexample as a run of the service, step by step.

:func:`replay_witness` checks that a :class:`~repro.service.runs.Run`
reported by a verifier is a run of the service in the sense of
Definition 2.3, without reading anything the verifier explored.  It
builds one fresh :class:`~repro.service.runs.RunContext` and drives it
the way :class:`~repro.service.session.Session` does, through
``deterministic_step`` and ``page_options`` alone: no choice memo, no
next-snapshot memo, no exploration cache.  For the first snapshot and
for every edge, the lasso's closing edge included, it checks

- the next page, state, prev, actions and ``Γ`` against the step;
- that the chosen inputs are among the generated options, with at most
  one tuple per input relation and a truth value per propositional one;
- the error transitions: error conditions (i)-(iii) lead to the error
  page, a page whose option generation reads an unprovided constant is
  entered as a ``pending_error`` snapshot with no inputs and leads to
  the error page, and the error page loops on itself.

:func:`check_violation` checks that such a run violates an LTL-FO
sentence, without the verifier's labeller: it grounds the sentence
itself and evaluates every FO component with the reference interpreter
on eval contexts it builds.  :func:`check_error_witness` replays an
error-freeness witness and checks that it ends on the error page.
:func:`check_ctl_counterexample` reads an ``AG p`` counterexample out
of a built Kripke structure, replays it, and checks ``p`` on the last
configuration with labels it computes itself
(:func:`configuration_label`).
"""

from __future__ import annotations

import itertools

from repro.ctl.syntax import CAnd, CAtom, CFalse, CNot, COr, CTrue
from repro.fol.analysis import input_constants_of
from repro.fol.evaluation import (
    MissingInputConstantError,
    evaluate_interpreted,
)
from repro.ltl.lasso import eval_on_lasso
from repro.schema.instances import Instance, union_active_domain
from repro.service.runs import (
    Run,
    RunContext,
    deterministic_step,
    error_snapshot,
    page_options,
)
from repro.service.compiled import compiled_service
from repro.verifier import Verdict, errorfree_reduction
from repro.verifier.branching import ROOT_STATE
from repro.verifier.errors import TRAP_PAGE


def replay_witness(service, run: Run, extra_domain=()) -> None:
    """Raise AssertionError unless ``run`` is a run of ``service``.

    ``extra_domain`` is the quantification domain the verifier added:
    the property's literal constants (the specification's are added by
    the run context).
    """
    ctx = RunContext(
        service, run.database, sigma=run.sigma, extra_domain=extra_domain
    )
    snaps = run.snapshots
    assert snaps, "a witness has at least one snapshot"
    first = snaps[0]
    empty = Instance.empty()
    assert (first.page, first.state, first.prev, first.actions,
            first.provided_before, first.is_error) == (
        service.home, empty, empty, empty, frozenset(), False,
    ), f"snapshot 0 is not an initial snapshot: {first.describe()}"
    _check_entry(service, ctx, first, 0)
    edges = list(zip(snaps, snaps[1:]))
    if run.loop_index is not None:
        edges.append((snaps[-1], snaps[run.loop_index]))
    for i, (cur, nxt) in enumerate(edges, start=1):
        _check_edge(service, ctx, cur, nxt, i)


def check_error_witness(service, result, method: str = "direct") -> None:
    """Raise AssertionError unless a VIOLATED ``verify_error_free``
    result's counterexample is a run that ends on the error page.

    A ``method="direct"`` witness is a run of ``service`` and must end
    on its error page.  A ``method="reduction"`` witness is a run of the
    Lemma A.5 transformation of ``service``, which enters its trap page
    exactly where ``service`` would err; it is replayed there and must
    end on the trap page.
    """
    assert result.verdict is Verdict.VIOLATED, result.verdict
    run = result.counterexample
    error_page = service.error_page
    if method == "reduction":
        service, _sentence = errorfree_reduction(service)
        error_page = TRAP_PAGE
    replay_witness(service, run)
    assert run.snapshots[-1].page == error_page, (
        f"the witness ends on {run.snapshots[-1].page}, not {error_page}"
    )


def check_violation(
    service, run: Run, sentence, extra_domain=(), valuation=None
) -> dict:
    """Raise AssertionError unless the lasso ``run`` violates ``sentence``.

    The closure ranges over the run's domain: the database's, sigma's
    and ``extra_domain``'s values (the specification's constants are
    added by the run context) and every value in the run's instances.
    Each grounded FO component is evaluated by
    :func:`~repro.fol.evaluation.evaluate_interpreted` on an eval
    context built here per snapshot; a component that mentions an input
    constant outside the snapshot's ``Γ`` is false (§3).  The run
    violates the sentence when :func:`~repro.ltl.lasso.eval_on_lasso`
    is false for some valuation — for ``valuation`` itself when one is
    given.  Returns the violating valuation.
    """
    assert run.loop_index is not None, "a violation witness is a lasso"
    ctx = RunContext(
        service, run.database, sigma=run.sigma, extra_domain=extra_domain
    )
    domain = set(run.database.domain) | set(run.sigma.values())
    domain |= set(ctx.extra_domain)
    contexts, gammas = [], []
    for snap in run.snapshots:
        gamma = snap.provided_here(service)
        gammas.append(gamma)
        contexts.append(ctx.make_eval_context(
            snap.state, snap.inputs, snap.prev, snap.actions,
            gamma=gamma, page=snap.page,
        ))
        domain |= union_active_domain(
            snap.state, snap.inputs, snap.prev, snap.actions
        )

    def holds(pos: int, payload) -> bool:
        if not input_constants_of(payload) <= gammas[pos]:
            return False
        return evaluate_interpreted(payload, contexts[pos])

    names = tuple(sentence.variables)
    if valuation is None:
        combos = itertools.product(sorted(domain, key=repr), repeat=len(names))
    else:
        combo = tuple(valuation[name] for name in names)
        assert set(combo) <= domain, (
            f"valuation {valuation} is outside the run's domain"
        )
        combos = [combo]
    for combo in combos:
        grounded = sentence.instantiate(dict(zip(names, combo)))
        if not eval_on_lasso(
            grounded, holds, len(run.snapshots), run.loop_index
        ):
            return dict(zip(names, combo))
    raise AssertionError(
        f"the run satisfies {sentence} under "
        f"{'every valuation' if valuation is None else valuation}"
    )


def check_ctl_counterexample(
    service, database, kripke, body, extra_domain=()
) -> Run:
    """Raise AssertionError unless ``kripke``, the structure
    :func:`~repro.verifier.branching.build_snapshot_kripke` built for
    ``(service, database, extra_domain)``, reaches a configuration that
    falsifies the propositional ``body`` of ``AG body`` along a run of
    the service.

    Walks the structure breadth-first from its root to the first state
    whose label falsifies ``body``, maps the path's states ``(sid, σ)``
    to snapshots through the explored graph's ``snapshots[sid]`` (the
    graph must still be held), replays them with :func:`replay_witness`
    under the last state's σ, and evaluates ``body`` on the last
    snapshot's :func:`configuration_label`, not on the structure's
    label.  Returns the replayed run.
    """
    compiled = compiled_service(service)
    snapshots = compiled.exploration._graphs[
        (database, compiled.extra_domain(extra_domain))
    ].snapshots
    assert kripke.states[0] == ROOT_STATE
    parent = {0: None}
    queue = [0]
    for state in queue:
        if state and not _holds(body, kripke.label(kripke.states[state])):
            break
        for nxt in kripke.succ_ids[state]:
            if nxt not in parent:
                parent[nxt] = state
                queue.append(nxt)
    else:
        raise AssertionError(f"no reachable state falsifies {body}")
    path = []
    while state:
        path.append(kripke.states[state])
        state = parent[state]
    path.reverse()
    sigma = dict(path[-1][1])
    run = Run(database, sigma, [snapshots[sid] for sid, _sig in path])
    replay_witness(service, run, extra_domain=extra_domain)
    last = run.snapshots[-1]
    assert not _holds(body, configuration_label(last)), (
        f"{last.describe()} satisfies {body}"
    )
    return run


def configuration_label(snap) -> frozenset:
    """The §4 propositional labels of a configuration, from its snapshot
    alone: its page, and every true symbol of its state, inputs and
    actions with a ground pair per non-empty tuple."""
    out = {snap.page}
    if not snap.is_error:
        for inst in (snap.state, snap.inputs, snap.actions):
            for sym, rel in inst:
                out.add(sym.name)
                out.update((sym.name, t) for t in rel if t)
    return frozenset(out)


def _holds(formula, label) -> bool:
    """A propositional CTL state formula on one label set."""
    if isinstance(formula, CTrue):
        return True
    if isinstance(formula, CFalse):
        return False
    if isinstance(formula, CAtom):
        return formula.payload in label
    if isinstance(formula, CNot):
        return not _holds(formula.body, label)
    if isinstance(formula, CAnd):
        return _holds(formula.left, label) and _holds(formula.right, label)
    if isinstance(formula, COr):
        return _holds(formula.left, label) or _holds(formula.right, label)
    raise TypeError(f"{formula} is not propositional")


def _check_edge(service, ctx, cur, nxt, i: int) -> None:
    where = f"edge into position {i}: {cur.describe()} -> {nxt.describe()}"
    if cur.is_error:
        assert nxt == cur, f"the error page must loop; {where}"
        return
    if cur.pending_error:
        assert nxt == error_snapshot(service), (
            f"a pending error must lead to the error page; {where}"
        )
        return
    step = deterministic_step(ctx, cur)
    if step.error:
        assert nxt == error_snapshot(service), (
            f"the step errs, so the run must enter the error page; {where}"
        )
        return
    assert not nxt.is_error, f"the step does not err; {where}"
    got = (nxt.page, nxt.state, nxt.prev, nxt.actions, nxt.provided_before)
    want = (step.next_page, step.next_state, step.next_prev,
            step.next_actions, step.gamma)
    assert got == want, f"the step's outcome differs; {where}"
    _check_entry(service, ctx, nxt, i)


def _check_entry(service, ctx, snap, i: int) -> None:
    """The user's choice at ``snap``, against the generated options."""
    page = service.page(snap.page)
    gamma = snap.provided_before | frozenset(page.input_constants)
    where = f"position {i}: {snap.describe()}"
    try:
        options = page_options(ctx, page, snap.state, snap.prev, gamma)
    except MissingInputConstantError:
        assert snap.pending_error and not snap.inputs, (
            f"option generation reads an unprovided constant, so the "
            f"page is entered as a pending error; {where}"
        )
        return
    assert not snap.pending_error, f"options are generated fine; {where}"
    for sym, rel in snap.inputs:
        assert sym.name in page.inputs, f"{sym.name} is not an input; {where}"
        assert len(rel) == 1, f"more than one {sym.name} tuple; {where}"
        (chosen,) = rel
        if sym.arity == 0:
            assert chosen == (), where
        else:
            assert chosen in options.get(sym.name, ()), (
                f"{sym.name}{chosen} is not among the options; {where}"
            )
