"""The exploration cache: explore once per service, not once per call.

``CompiledService.exploration`` keeps, per (database, extra domain),
the successor sets the LTL-FO and error-freeness searches ask for and
each completed Kripke structure, and later calls over the same service
object read them.  A hit serves a graph that was explored for another
property, another sigma or another budget, so the checks compare warm
calls with cold ones, never the cache with itself:

- **cached vs fresh**: on one service object, a sequence of calls with
  different properties, literal constants, explicit sigmas and budgets
  (INCONCLUSIVE cases included) fingerprints exactly as each call does
  on a fresh service object with a cold cache — over ``examples/specs``
  and over services shaped like the benchmark workloads and built here,
  plus services where the extra domain, a constant a later page
  requests, or a constant provided earlier decides the successors;
- **witnesses**: every VIOLATED LTL-FO and error-freeness result of
  that differential, cold and warm, replays as a run of the service
  (:func:`tests.witness.replay_witness`);
- **the engine oracle, warm**: every recorded case, re-run on a service
  object that has served another case, reproduces its oracle
  fingerprint, sequentially and pooled;
- **threads**: four threads verifying on one cold service object get the
  sequential fingerprints, and the entry count matches what is held;
  every write waits for the lock, and eight threads storing at once
  lose no count;
- **the cap**: it holds after every call, eviction drops the least
  recently used database first, and a graph larger than the cap serves
  its call without being retained;
- **lifetime**: a discarded service takes its cache with it, freed by
  reference counting alone;
- **counts**: hits, misses and evictions are exact in a single-threaded
  run.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable

import pytest

import repro.verifier as verifier
from repro.ctl.modelcheck import satisfying_states
from repro.ctl.parser import parse_ctl
from repro.ltl import LTLAtom, ltl_to_buchi
from repro.ltl.buchi import CompiledProduct
from repro.ltl.parser import parse_ltlfo
from repro.schema import Database
from repro.service import ServiceBuilder
from repro.service.compiled import ExplorationCache, compiled_service
from repro.verifier import Budget, Verdict
from repro.verifier.branching import ROOT_STATE, build_snapshot_kripke
from repro.verifier.errors import errorfree_reduction
from tests.engine_cases import (
    CASES,
    ORACLE_PATH,
    _build_property,
    build_options,
    fingerprint,
    load_spec,
)
from tests.witness import check_ctl_counterexample, replay_witness


# ---------------------------------------------------------------------------
# services
# ---------------------------------------------------------------------------

def _declare_registration(b: ServiceBuilder) -> tuple:
    b.database("allowed", 2)
    b.input("record", 2)
    b.input("done")
    b.state("stored", 2)
    b.state("closed")
    b.action("ack", 2)
    return ("x0", "x1")


def _form_and_review(b: ServiceBuilder, xs, review_exit: str) -> None:
    form = b.page("FORM", home=True)
    form.toggle("done")
    form.options("record", "allowed(x0, x1)", xs)
    form.insert("stored", "record(x0, x1) & !closed", xs)
    form.insert("closed", "done")
    form.target("REVIEW", "done")
    review = b.page("REVIEW")
    review.act("ack", "stored(x0, x1)", xs)
    review.toggle("done")
    review.target(review_exit, "done")


def registration() -> object:
    """The ``ltl_registration`` shape: rows of ``allowed`` are recorded
    on FORM, stored, and acknowledged on REVIEW."""
    b = ServiceBuilder("registration-2")
    _form_and_review(b, _declare_registration(b), review_exit="FORM")
    return b.build()


def session_registration() -> object:
    """The ``ltl_session_block`` shape: REVIEW leads once to CONFIRM,
    which requests ``who`` and acknowledges only the owner's rows."""
    b = ServiceBuilder("session-registration-2")
    xs = _declare_registration(b)
    b.input_constant("who")
    _form_and_review(b, xs, review_exit="CONFIRM")
    confirm = b.page("CONFIRM")
    confirm.request("who")
    confirm.act("ack", "stored(x0, x1) & x0 = who", xs)
    confirm.target("FINAL", "true")
    b.page("FINAL")
    return b.build()


def ring(service, domain_size: int, rows: int) -> Database:
    dom = [f"v{i}" for i in range(domain_size)]
    facts = [(dom[i % domain_size], dom[(i + 1) % domain_size])
             for i in range(rows)]
    return Database(service.schema.database, {"allowed": facts})


def store() -> object:
    """The ``ctl_store`` shape, smaller: a fully propositional shop."""
    b = ServiceBuilder("store")
    for name in ("login", "ok", "search", "add", "buy", "back", "logout"):
        b.input(name)
    for name in ("logged_in", "has_cart", "has_order"):
        b.state(name)
    hp = b.page("HP", home=True)
    hp.toggle("login", "ok")
    hp.insert("logged_in", "login & ok")
    hp.target("CP", "login & ok")
    hp.target("MP", "login & !ok")
    mp = b.page("MP")
    mp.toggle("back")
    mp.target("HP", "back")
    cp = b.page("CP")
    cp.toggle("search", "logout")
    cp.delete("logged_in", "logout")
    cp.target("PIP", "search & !logout")
    cp.target("HP", "logout & !search")
    pip = b.page("PIP")
    pip.toggle("add", "back")
    pip.insert("has_cart", "add")
    pip.target("CC", "add & !back")
    pip.target("CP", "back & !add")
    cc = b.page("CC")
    cc.toggle("buy", "back")
    cc.target("UPP", "has_cart & buy & !back")
    cc.target("CP", "back & !buy")
    upp = b.page("UPP")
    upp.toggle("buy", "back")
    upp.insert("has_order", "buy")
    upp.delete("has_cart", "buy")
    upp.target("CP", "buy & !back")
    upp.target("CC", "back & !buy")
    return b.build()


def domain_sensitive() -> object:
    """HOME offers every value it has not seen yet: the options range
    over the whole quantification domain, property literals included."""
    b = ServiceBuilder("domain-sensitive")
    b.database("known", 1)
    b.input("pick", 1)
    b.state("seen", 1)
    home = b.page("HOME", home=True)
    home.options("pick", "!seen(x)", ("x",))
    home.insert("seen", "pick(x)", ("x",))
    return b.build()


def next_page_reader() -> object:
    """HOME's successors depend on ``who`` only through ASK, the next
    page, which requests it and offers the rows it allows, once."""
    b = ServiceBuilder("next-page-reader")
    b.database("allowed", 1)
    b.input("go")
    b.input("pick", 1)
    b.input_constant("who")
    home = b.page("HOME", home=True)
    home.toggle("go")
    home.target("ASK", "go")
    ask = b.page("ASK")
    ask.request("who")
    ask.options("pick", "allowed(x) & x = who", ("x",))
    ask.target("DONE", "true")
    b.page("DONE")
    return b.build()


def late_reader() -> object:
    """ASK requests ``who``; READ, two steps later, reads it without
    requesting it: MID's successors depend on ``who`` only through Γ."""
    b = ServiceBuilder("late-reader")
    b.database("allowed", 1)
    b.input("go")
    b.input("pick", 1)
    b.input_constant("who")
    home = b.page("HOME", home=True)
    home.toggle("go")
    home.target("ASK", "go")
    ask = b.page("ASK")
    ask.request("who")
    ask.toggle("go")
    ask.target("MID", "go")
    mid = b.page("MID")
    mid.toggle("go")
    mid.target("READ", "go")
    b.page("READ").options("pick", "allowed(x) & x = who", ("x",))
    return b.build()


def _allowed_ab(service) -> list[Database]:
    return [Database(service.schema.database,
                     {"allowed": [("a",), ("b",)]})]


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Call:
    """One verification call, rebuilt per run: ``options`` may hold
    ``databases`` as a function of the service and ``budget`` as
    ``Budget`` keyword arguments."""

    entry: str
    prop: str = ""
    options: dict = field(default_factory=dict)
    #: the verdict the call reaches cold, where a stale entry served
    #: warm would reach another
    expect: str | None = None

    @property
    def label(self) -> str:
        opts = {k: v for k, v in self.options.items() if k != "databases"}
        return f"{self.entry}({self.prop}) {opts}"


def _materialize(call: Call, service) -> dict:
    # in-process: pool workers are fresh processes with caches of their own
    options = {"workers": 1, **call.options}
    if callable(options.get("databases")):
        options["databases"] = options["databases"](service)
    if "budget" in options:
        options["budget"] = Budget(**options["budget"])
    return options


def _sentence(call: Call, service):
    return parse_ltlfo(
        call.prop,
        input_constants=service.schema.input_constants,
        db_constants=service.schema.database.constants,
    )


def run_call(call: Call, service):
    """``(result, witness replay arguments or None)``."""
    options = _materialize(call, service)
    entry = getattr(verifier, call.entry)
    if call.entry == "verify_error_free":
        result = entry(service, **options)
        replayed = service
        if options.get("method") == "reduction":
            replayed = errorfree_reduction(service)[0]
        return result, (replayed, frozenset())
    if call.entry == "verify_ltlfo":
        # several corpus specs lie outside the input-bounded class; the
        # bounded search still runs, and that is what is compared here
        options.setdefault("check_restrictions", False)
        sentence = _sentence(call, service)
        return entry(service, sentence, **options), (
            service, sentence.literals(),
        )
    return entry(service, parse_ctl(call.prop), **options), None


def _kripke_fingerprint(kripke) -> dict:
    return {
        "states": [repr(s) for s in kripke.states],
        "edges": [[repr(t) for t in kripke.successors(s)]
                  for s in kripke.states],
        "labels": [sorted(map(repr, kripke.label(s))) for s in kripke.states],
    }


def _structure_fingerprint(service, database, kripke, extra=()) -> dict:
    """:func:`_kripke_fingerprint` with each state ``(sid, σ)`` read as
    its snapshot in ``service``'s explored graph of ``(database,
    extra)``, which must still be held: equal for structures that differ
    only in how their graphs numbered snapshots."""
    compiled = compiled_service(service)
    snapshots = compiled.exploration._graphs[
        (database, compiled.extra_domain(extra))
    ].snapshots

    def config(state) -> str:
        if state == ROOT_STATE:
            return repr(state)
        sid, sigma = state
        return repr((snapshots[sid], sigma))

    return {
        "states": [config(s) for s in kripke.states],
        "initial": sorted(map(config, kripke.initial)),
        "edges": [[config(t) for t in kripke.successors(s)]
                  for s in kripke.states],
        "labels": [sorted(map(repr, kripke.label(s))) for s in kripke.states],
    }


def _check_witness(result, replay) -> None:
    if result.verdict is Verdict.VIOLATED and replay is not None:
        service, extra = replay
        replay_witness(service, result.counterexample, extra_domain=extra)


_G_ERR = "G !ERROR"
_G_ERR_ZZ = 'G !(ERROR & "zz" = "zz")'
_ALICE = [{"name": "alice", "password": "pw-alice"}]
_BOB = [{"name": "bob", "password": "pw-bob"}]


_ECOM = [{"name": "alice", "password": "pw1", "repassword": "pw1",
          "ccno": "c"}]


def _ecom_db(service):
    from repro.demo.ecommerce import ecommerce_database
    return ecommerce_database(service)


def _core_db(service):
    from repro.demo.core import core_database
    return [core_database(service)]


def _figure1(service):
    from repro.demo.search_site import figure1_database
    return [figure1_database(service)]


def _rings(service):
    return [ring(service, 4, 3), ring(service, 5, 4)]


def _one_ring(service):
    return [ring(service, 3, 2)]


def _known_k(service):
    return [Database(service.schema.database, {"known": [("k",)]})]


#: scenario -> (service factory, calls run in order on one object)
SCENARIOS: dict[str, tuple[Callable, list[Call]]] = {
    "core": (lambda: load_spec("core.json"), [
        Call("verify_ltlfo", _G_ERR,
             {"databases": _core_db, "sigmas": _ALICE}),
        Call("verify_ltlfo", "G !MP",
             {"databases": _core_db, "sigmas": _ALICE}),
        Call("verify_error_free", options={
            "databases": _core_db, "sigmas": _ALICE}),
        Call("verify_ltlfo", _G_ERR_ZZ,
             {"databases": _core_db, "sigmas": _ALICE}),
        Call("verify_ltlfo", _G_ERR,
             {"databases": _core_db, "sigmas": _BOB}),
        Call("verify_ltlfo", _G_ERR, {
            "databases": _core_db, "sigmas": _ALICE + _BOB,
            "budget": {"max_snapshots": 7}}),
        Call("verify_error_free", options={
            "databases": _core_db, "sigmas": _BOB,
            "budget": {"max_snapshots": 5}}),
        Call("verify_ltlfo", "G !MP", {
            "databases": _core_db, "sigmas": _ALICE + _BOB,
            "sigma_block": 2}),
        Call("verify_ltlfo", _G_ERR, {
            "domain_size": 1, "budget": {"max_databases": 2}}),
    ]),
    "ecommerce": (lambda: load_spec("ecommerce.json"), [
        Call("verify_error_free", options={
            "databases": lambda s: [_ecom_db(s)], "sigmas": _ECOM}),
        Call("verify_ltlfo", _G_ERR,
             {"databases": lambda s: [_ecom_db(s)], "sigmas": _ECOM}),
        Call("verify_error_free", options={
            "databases": lambda s: [_ecom_db(s)], "sigmas": _ECOM,
            "budget": {"max_snapshots": 40}}),
    ]),
    "dataflow_demo": (lambda: load_spec("dataflow_demo.json"), [
        Call("verify_error_free", options={"domain_size": 1}),
        Call("verify_ltlfo", _G_ERR, {"domain_size": 1}),
        Call("verify_ltlfo", _G_ERR_ZZ, {"domain_size": 1}),
        Call("verify_error_free", options={
            "domain_size": 1, "method": "reduction"}),
    ]),
    "propositional": (lambda: load_spec("propositional.json"), [
        Call("verify_fully_propositional", "AG EF HP"),
        Call("verify_fully_propositional", "AG !RP"),
        Call("verify_fully_propositional", "AG EF HP",
             {"max_states": 5}),
        Call("verify_ctl", "AG EF HP", {"domain_size": 1}),
        Call("verify_error_free", options={"domain_size": 1}),
        Call("verify_ltlfo", "G !RP", {"domain_size": 1}),
        Call("verify_ltlfo", _G_ERR, {"domain_size": 1}),
        Call("verify_fully_propositional", "AG !RP", {"max_states": 40}),
    ]),
    "search_site": (lambda: load_spec("search_site.json"), [
        Call("verify_input_driven_search", "AG EF SEARCH",
             {"databases": _figure1}),
        Call("verify_input_driven_search", "AG EF HP",
             {"databases": _figure1}),
        Call("verify_input_driven_search", "AG EF SEARCH",
             {"databases": _figure1, "max_states": 2}),
        Call("verify_input_driven_search", "AG EF HP", {"domain_size": 1}),
    ]),
    "registration": (registration, [
        Call("verify_ltlfo",
             "forall x0, x1: record(x0, x1) B !stored(x0, x1)",
             {"domain_size": 1}),
        Call("verify_ltlfo", "forall x0, x1: G !stored(x0, x1)",
             {"domain_size": 1}),
        Call("verify_ltlfo", 'forall x0: G !stored(x0, "zz")',
             {"domain_size": 1}),
        Call("verify_ltlfo", "forall y0, y1: G !ack(y0, y1)",
             {"domain_size": 1, "budget": {"max_snapshots": 6}}),
        Call("verify_error_free", options={"domain_size": 1}),
        Call("verify_ltlfo",
             "forall x0, x1: record(x0, x1) B !stored(x0, x1)",
             {"domain_size": 1, "budget": {"max_valuations": 3}}),
    ]),
    "session_registration": (session_registration, [
        Call("verify_ltlfo",
             "forall x0, x1, x2: record(x0, x1) B "
             "!(stored(x0, x1) & stored(x1, x2))",
             {"databases": _rings, "sigma_block": 64}),
        Call("verify_ltlfo", "forall x0, x1: G !ack(x0, x1)",
             {"databases": _rings, "sigma_block": 64}),
        Call("verify_ltlfo", "forall x0, x1: G !ack(x0, x1)",
             {"databases": _rings}),
        Call("verify_ltlfo", "forall x0, x1: G !ack(x0, x1)",
             {"databases": _one_ring, "sigmas": [{"who": "v1"}]}),
        Call("verify_ltlfo", 'forall x0: G !ack(x0, "v1")',
             {"databases": _one_ring, "sigmas": [{"who": "v2"}]}),
        Call("verify_error_free", options={"databases": _rings}),
        Call("verify_ltlfo", "forall x0, x1: G !ack(x0, x1)", {
            "databases": _rings, "sigma_block": 64,
            "budget": {"max_snapshots": 9}}),
    ]),
    "store": (store, [
        Call("verify_fully_propositional", "AG !has_order",
             {"max_states": 12}),
        Call("verify_fully_propositional", "AG EF HP"),
        Call("verify_fully_propositional", "AG ((HP & login) -> EF buy)"),
        Call("verify_fully_propositional", "AG !has_order"),
        Call("verify_fully_propositional", "AG EF HP", {"max_states": 3}),
        Call("verify_fully_propositional", "AG !has_order",
             {"max_states": 30}),
        Call("verify_ltlfo", "G !UPP", {"domain_size": 1}),
    ]),
    "domain_sensitive": (domain_sensitive, [
        Call("verify_ltlfo", 'forall x: G !(pick(x) & x = "k")',
             {"databases": _known_k}),
        Call("verify_ltlfo", 'forall x: G !(pick(x) & x = "zz")',
             {"databases": _known_k}, expect="violated"),
        Call("verify_error_free", options={"databases": _known_k}),
        Call("verify_ltlfo", 'forall x: G !(seen(x) & x = "zz")',
             {"databases": _known_k}, expect="violated"),
    ]),
    "next_page_reader": (next_page_reader, [
        Call("verify_ltlfo", 'forall x: G !(pick(x) & x = "b")',
             {"databases": _allowed_ab, "sigmas": [{"who": "a"}]},
             expect="holds"),
        Call("verify_ltlfo", 'forall x: G !(pick(x) & x = "b")',
             {"databases": _allowed_ab, "sigmas": [{"who": "b"}]},
             expect="violated"),
        Call("verify_ltlfo", "forall x: G !pick(x)",
             {"databases": _allowed_ab,
              "sigmas": [{"who": "b"}, {"who": "a"}]}),
        Call("verify_ltlfo", 'forall x: G !(pick(x) & x = "b")',
             {"databases": _allowed_ab,
              "sigmas": [{"who": "a"}, {"who": "b"}], "sigma_block": 2},
             expect="violated"),
    ]),
    "late_reader": (late_reader, [
        Call("verify_ltlfo", 'forall x: G !(pick(x) & x = "b")',
             {"databases": _allowed_ab, "sigmas": [{"who": "a"}]},
             expect="holds"),
        Call("verify_ltlfo", 'forall x: G !(pick(x) & x = "b")',
             {"databases": _allowed_ab, "sigmas": [{"who": "b"}]},
             expect="violated"),
        Call("verify_ltlfo", "forall x: G !pick(x)",
             {"databases": _allowed_ab,
              "sigmas": [{"who": "a"}, {"who": "b"}], "sigma_block": 2}),
    ]),
}


# Pairs of calls on one service where one field of the label memo's key
# alone separates the second call's bitsets from the first's: the
# payload up to renaming its closure variables by position, the number
# of closure variables, the block's values, and sigma restricted to
# Γ_i.  (The graph's extra domain, the remaining field, separates the
# domain_sensitive scenario above.)

def _allowed(*rows):
    return lambda service: [
        Database(service.schema.database, {"allowed": list(rows)})
    ]


#: scenario -> whether its second call reads every label bitset the
#: first call stored (the field is renamed away) or must compute its own
LABEL_KEY_CASES: dict[str, bool] = {
    # the closure variables renamed: one payload, one bitset, and the
    # first call explored and labelled every snapshot
    "label_renamed_closure": True,
    # stored(x1, x0) is not stored(x0, x1): only (v0, v1) is allowed,
    # so the first violating valuation moves
    "label_swapped_order": False,
    # a third closure variable triples the block: same renamed payload,
    # same values, another bit layout
    "label_closure_arity": False,
    # the payload reads who once CONFIRM requested it: stored(x0, x1)
    # with x0 = who comes true for who = v0 and never for who = v2
    "label_scoped_who": False,
    # a fresh who value joins the valuation domain and, sorting first,
    # moves every valuation's bit
    "label_fresh_sigma_value": False,
    # exists x1 binds its own x1: stored(x0, _) is not stored(x0, y)
    "label_bound_like_closure": False,
}

_V01 = _allowed(("v0", "v1"))

SCENARIOS.update({
    "label_renamed_closure": (registration, [
        Call("verify_ltlfo",
             "forall x0, x1: record(x0, x1) B !stored(x0, x1)",
             {"databases": _V01}, expect="holds"),
        Call("verify_ltlfo", "forall y0, y1: G !stored(y0, y1)",
             {"databases": _V01}, expect="violated"),
    ]),
    "label_swapped_order": (registration, [
        Call("verify_ltlfo", "forall x0, x1: G !stored(x0, x1)",
             {"databases": _V01}, expect="violated"),
        Call("verify_ltlfo", "forall x0, x1: G !stored(x1, x0)",
             {"databases": _V01}, expect="violated"),
    ]),
    "label_closure_arity": (registration, [
        Call("verify_ltlfo", "forall x0, x1: G !stored(x0, x1)",
             {"databases": _V01}, expect="violated"),
        Call("verify_ltlfo", "forall x0, x1, x2: G !stored(x0, x1)",
             {"databases": _V01}, expect="violated"),
    ]),
    "label_scoped_who": (session_registration, [
        Call("verify_ltlfo", "forall x0, x1: !F (stored(x0, x1) & x0 = who)",
             {"databases": _one_ring, "sigmas": [{"who": "v0"}]},
             expect="violated"),
        Call("verify_ltlfo", "forall x0, x1: !F (stored(x0, x1) & x0 = who)",
             {"databases": _one_ring, "sigmas": [{"who": "v2"}]},
             expect="holds"),
    ]),
    "label_fresh_sigma_value": (session_registration, [
        Call("verify_ltlfo", "forall x0, x1: G !stored(x0, x1)",
             {"databases": _one_ring, "sigmas": [{"who": "v1"}]},
             expect="violated"),
        Call("verify_ltlfo", "forall x0, x1: G !stored(x0, x1)",
             {"databases": _one_ring, "sigmas": [{"who": "a"}]},
             expect="violated"),
    ]),
    "label_bound_like_closure": (registration, [
        Call("verify_ltlfo",
             "forall x0, x1: G !(exists x1. stored(x0, x1))",
             {"databases": _V01}, expect="violated"),
        Call("verify_ltlfo",
             "forall x0, y: G !(exists x1. stored(x0, y))",
             {"databases": _V01}, expect="violated"),
    ]),
})


# Pairs of calls on one database where one field of the compiled
# product's key alone separates the second call's product from the
# first's: the negated skeleton, the closure variables in order, and
# sigma.  (The block's layout, the remaining field, is a function of
# the graph's key, sigma and the number of closure variables, so no
# pair of calls on one graph differs in it alone.)

#: scenario -> the product-key field its two calls differ in
PRODUCT_KEY_CASES: dict[str, str] = {
    # one skeleton, its closure variables listed in the other order:
    # another bit layout, so the first violating valuation moves
    "product_variable_order": "variables",
    # CONFIRM acknowledges the owner's rows only: who = v0 reaches FINAL
    # with ack(v0, v1), who = v2 never acknowledges there; both values
    # lie in the ring, so the block is the same
    "product_sigma_who": "sigma",
    # same closure variables, block and sigma, another property
    "product_two_skeletons": "skeleton",
}

_FINAL_ACK = "forall x0, x1: G !(FINAL & ack(x0, x1))"
_STORED_B = "forall x0, x1: record(x0, x1) B !stored(x0, x1)"

SCENARIOS.update({
    "product_variable_order": (registration, [
        Call("verify_ltlfo", "forall x0, x1: G !stored(x0, x1)",
             {"databases": _V01}, expect="violated"),
        Call("verify_ltlfo", "forall x1, x0: G !stored(x0, x1)",
             {"databases": _V01}, expect="violated"),
    ]),
    "product_sigma_who": (session_registration, [
        Call("verify_ltlfo", _FINAL_ACK,
             {"databases": _one_ring, "sigmas": [{"who": "v0"}]},
             expect="violated"),
        Call("verify_ltlfo", _FINAL_ACK,
             {"databases": _one_ring, "sigmas": [{"who": "v2"}]},
             expect="holds"),
    ]),
    "product_two_skeletons": (registration, [
        Call("verify_ltlfo", _STORED_B, {"databases": _V01},
             expect="holds"),
        Call("verify_ltlfo", "forall x0, x1: G !stored(x0, x1)",
             {"databases": _V01}, expect="violated"),
    ]),
    # caps below what the full search charges (48 snapshots, 4
    # valuations): struck on a product a struck call started, on one a
    # full call completed, and full calls completing on either
    "product_budget": (registration, [
        Call("verify_ltlfo", _STORED_B, {
            "databases": _V01, "budget": {"max_snapshots": 20}},
            expect="inconclusive"),
        Call("verify_ltlfo", _STORED_B, {"databases": _V01},
             expect="holds"),
        Call("verify_ltlfo", _STORED_B, {
            "databases": _V01, "budget": {"max_snapshots": 20}},
            expect="inconclusive"),
        Call("verify_ltlfo", _STORED_B, {
            "databases": _V01, "budget": {"max_valuations": 2}},
            expect="inconclusive"),
        Call("verify_ltlfo", _STORED_B, {"databases": _V01},
             expect="holds"),
        Call("verify_ltlfo", "forall x0, x1: G !stored(x0, x1)", {
            "databases": _V01, "budget": {"max_valuations": 1}},
            expect="inconclusive"),
        Call("verify_ltlfo", "forall x0, x1: G !stored(x0, x1)",
             {"databases": _V01}, expect="violated"),
    ]),
})


@pytest.fixture(scope="module")
def cold():
    """Each call of each scenario on a fresh service object."""
    out = {}
    for name, (factory, calls) in SCENARIOS.items():
        out[name] = [run_call(call, factory()) for call in calls]
    return out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_warm_calls_fingerprint_as_cold(name, cold):
    factory, calls = SCENARIOS[name]
    service = factory()
    for call, (cold_result, cold_replay) in zip(calls, cold[name]):
        if call.expect is not None:
            assert cold_result.verdict.value == call.expect, call.label
        result, replay = run_call(call, service)
        assert fingerprint(result) == fingerprint(cold_result), call.label
        _check_witness(cold_result, cold_replay)
        _check_witness(result, replay)
        stats = compiled_service(service).exploration.stats()
        assert stats["entries"] <= compiled_service(service).exploration.cap
    stats = compiled_service(service).exploration.stats()
    reused = ("successor_hits", "product_hits", "kripke_hits")
    assert sum(stats[key] for key in reused) > 0, (
        "the sequence never reused a graph: it tests nothing"
    )


@pytest.mark.parametrize("name", sorted(LABEL_KEY_CASES))
def test_one_label_key_field_separates_two_calls(name, cold):
    """Warm, the second call of each pair fingerprints as it does cold
    (its witness replayed by the test above), and it computes no label
    bitset exactly when the field separating it from the first call is
    one the key renames away.  Where it must compute its own, the two
    calls differ cold in the verdict or the stats, so a second call
    served the first call's bitsets would show."""
    factory, (first, second) = SCENARIOS[name]
    service = factory()
    run_call(first, service)
    cache = compiled_service(service).exploration
    before = cache.stats()
    result, _replay = run_call(second, service)
    after = cache.stats()
    assert fingerprint(result) == fingerprint(cold[name][1][0])
    computed = after["label_misses"] - before["label_misses"]
    if LABEL_KEY_CASES[name]:
        assert computed == 0
        assert after["label_hits"] > before["label_hits"]
    else:
        assert computed > 0
        cold_first, cold_second = (fingerprint(r) for r, _ in cold[name])
        assert (cold_first["verdict"], cold_first["stats"]) != (
            cold_second["verdict"], cold_second["stats"]
        )


@pytest.mark.parametrize("name", sorted(PRODUCT_KEY_CASES))
def test_one_product_key_field_separates_two_calls(name, cold):
    """Warm, the second call of each pair builds a compiled product of
    its own, no successor set is stepped again, and it fingerprints as
    it does cold.  The two calls differ cold in the verdict or the
    stats, so a second call served the first call's product would
    show."""
    factory, (first, second) = SCENARIOS[name]
    service = factory()
    run_call(first, service)
    cache = compiled_service(service).exploration
    before = cache.stats()
    result, _replay = run_call(second, service)
    after = cache.stats()
    assert fingerprint(result) == fingerprint(cold[name][1][0])
    assert after["product_hits"] == before["product_hits"]
    assert after["product_misses"] == before["product_misses"] + 1
    assert after["successor_hits"] > before["successor_hits"]
    cold_first, cold_second = (fingerprint(r) for r, _ in cold[name])
    assert (cold_first["verdict"], cold_first["stats"]) != (
        cold_second["verdict"], cold_second["stats"]
    )


def test_warm_budget_strikes_as_cold(cold):
    """A call capped below what the full search charges strikes at the
    cold call's point, with its checkpoint, on a product a struck call
    started and on one a full call completed; full calls then complete
    on it."""
    factory, calls = SCENARIOS["product_budget"]
    service = factory()
    cache = compiled_service(service).exploration
    for i, (call, (cold_result, _)) in enumerate(
        zip(calls, cold["product_budget"])
    ):
        result, _replay = run_call(call, service)
        assert fingerprint(result) == fingerprint(cold_result), call.label
        if result.verdict is Verdict.INCONCLUSIVE:
            assert result.checkpoint is not None
        # one (database, sigma): a property's first call builds its
        # product, every later one reads it
        built = len({c.prop for c in calls[:i + 1]})
        stats = cache.stats()
        assert stats["product_misses"] == built, call.label
        assert stats["product_hits"] == i + 1 - built, call.label


def test_replayed_searches_strike_as_cold():
    """On E12's registration service with one database, warmed by one
    full call, every search replays a kept outcome: the first charges
    48 sids, the second 128 of the 176 it recorded.  A snapshot cap at
    every charge of the pair and a valuation cap at every valuation
    strike as on a fresh service (verdict, stats, the strike's limit
    and the checkpoint's cursor), and after each strike a full call
    still equals the cold one and keeps no new outcome.  A third
    service takes the caps in rising order from cold: each call replays
    what an earlier call completed and walks what a strike cut off, and
    strikes as on a fresh service too."""
    sentence = parse_ltlfo(_STORED_B)

    def call(service, **limits):
        db = Database(service.schema.database,
                      {"allowed": [("d0", "d0"), ("d1", "d1")]})
        return verifier.verify_ltlfo(
            service, sentence, databases=[db], workers=1,
            budget=Budget(**limits),
        )

    full = call(registration())
    charges = full.stats["snapshots_explored"]
    valuations = full.stats["valuations_checked"]
    assert full.verdict is Verdict.HOLDS
    assert (charges, valuations) == (176, 4)
    service, rising = registration(), registration()
    assert fingerprint(call(service)) == fingerprint(full)
    cache = compiled_service(service).exploration
    kept = cache.stats()
    assert kept["outcome_entries"] == 3
    caps = [("max_snapshots", cap) for cap in range(1, charges + 1)]
    caps += [("max_valuations", cap) for cap in range(1, valuations + 1)]
    for limit, cap in caps:
        cold = call(registration(), **{limit: cap})
        for warm in (call(service, **{limit: cap}),
                     call(rising, **{limit: cap})):
            assert fingerprint(warm) == fingerprint(cold), (limit, cap)
        # the fingerprint holds the strike's limit and the checkpoint
        if cap < (charges if limit == "max_snapshots" else valuations):
            assert cold.verdict is Verdict.INCONCLUSIVE, (limit, cap)
            assert cold.stats["interrupted_by"] == limit
            assert (cold.checkpoint.db_index,
                    cold.checkpoint.sigma_index) == (0, 0)
        else:
            assert cold.verdict is Verdict.HOLDS, (limit, cap)
        hits = cache.stats()["outcome_hits"]
        assert fingerprint(call(service)) == fingerprint(full), (limit, cap)
        after = cache.stats()
        assert after["outcome_hits"] == hits + 3
        assert after["outcome_entries"] == kept["outcome_entries"]
        assert after["entries"] == kept["entries"]
    assert compiled_service(rising).exploration.stats()["outcome_hits"] > 0


@pytest.mark.parametrize("sigma_block", [1, 8])
def test_warm_repeat_builds_no_start_or_eval_context(
    sigma_block, monkeypatch
):
    """A cold call numbers each sigma's initial snapshots once; a warm
    repeat of it on the same service reads the start ids its products
    kept and, on a property that holds, builds no eval context at all:
    every enable mask was kept, so no label is asked for."""
    import repro.verifier.linear as linear
    from repro.service.runs import RunContext

    calls = {"initial_snapshots": 0, "make_eval_context": 0}
    starts, contexts = linear.initial_snapshots, RunContext.make_eval_context

    def counted_starts(ctx):
        calls["initial_snapshots"] += 1
        return starts(ctx)

    def counted_contexts(self, *args, **kwargs):
        calls["make_eval_context"] += 1
        return contexts(self, *args, **kwargs)

    monkeypatch.setattr(linear, "initial_snapshots", counted_starts)
    monkeypatch.setattr(RunContext, "make_eval_context", counted_contexts)
    service = session_registration()
    sentence = parse_ltlfo(
        "forall x0, x1, x2: record(x0, x1) B "
        "!(stored(x0, x1) & stored(x1, x2))"
    )
    results = []
    for _ in range(2):
        before = dict(calls)
        results.append(verifier.verify_ltlfo(
            service, sentence, databases=_rings(service), workers=1,
            sigma_block=sigma_block,
        ))
        results[-1].calls = {k: calls[k] - before[k] for k in calls}
    cold_result, warm = results
    assert cold_result.verdict is Verdict.HOLDS
    assert fingerprint(warm) == fingerprint(cold_result)
    assert cold_result.calls["initial_snapshots"] == (
        cold_result.stats["sigmas_checked"]
    ) > 1
    assert cold_result.calls["make_eval_context"] > 0
    assert warm.calls == {"initial_snapshots": 0, "make_eval_context": 0}


def test_every_scenario_reaches_a_violation(cold):
    for name, results in cold.items():
        assert any(r.verdict is Verdict.VIOLATED for r, _ in results), name


def test_every_verdict_kind_is_covered(cold):
    verdicts = {r.verdict for results in cold.values() for r, _ in results}
    assert verdicts == {Verdict.HOLDS, Verdict.VIOLATED, Verdict.INCONCLUSIVE}


@pytest.mark.parametrize("factory, facts", [
    (domain_sensitive, {"known": [("k",)]}),
    (next_page_reader, {"allowed": [("a",), ("b",)]}),
])
def test_kripke_extra_domain_is_part_of_the_key(factory, facts):
    """Direct builds with different extra domains match fresh builds."""
    service = factory()
    db = Database(service.schema.database, facts)
    for extra in ((), ("zz",), (), ("zz", "yy")):
        warm = build_snapshot_kripke(service, db, extra_domain=extra)
        fresh = build_snapshot_kripke(factory(), db, extra_domain=extra)
        assert _kripke_fingerprint(warm) == _kripke_fingerprint(fresh), extra
    assert compiled_service(service).exploration.stats()["kripke_hits"] == 1


# ---------------------------------------------------------------------------
# the engine oracle, warm
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle():
    return json.loads(ORACLE_PATH.read_text())


def _previous_case(case):
    """The case before ``case`` among those over the same spec,
    cyclically: another case, or ``case`` itself when it is alone."""
    same = [c for c in CASES if c["spec"] == case["spec"]]
    return same[same.index(case) - 1]


def _run_case_on(case, service, workers):
    options = build_options(case, service, workers)
    entry = getattr(verifier, case["entry"])
    if case["entry"] == "verify_error_free":
        return entry(service, **options)
    return entry(service, _build_property(case), **options)


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
@pytest.mark.parametrize("workers", [1, 2], ids=["seq", "pool"])
def test_oracle_case_on_a_warm_service(case, workers, oracle):
    service = load_spec(case["spec"])
    _run_case_on(_previous_case(case), service, 1)
    _run_case_on(case, service, 1)
    result = _run_case_on(case, service, workers)
    got = json.loads(json.dumps(fingerprint(result)))
    assert got == oracle[case["id"]][f"workers={workers}"]


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------

_THREADED = [
    ("registration", 0, 1),
    ("registration", 1, 1),
    ("session_registration", 0, 1),
    ("store", 0, 2),
]


@pytest.mark.parametrize("name, first, second", _THREADED)
def test_threads_on_one_cold_service(name, first, second, cold):
    """Four threads, more than the two cores CI runs on, alternate two
    calls on one cold service; a short switch interval makes them
    interleave inside the cache's lookups and stores."""
    factory, calls = SCENARIOS[name]
    service = factory()
    compiled_service(service)  # every thread then shares one cache
    order = (first, second, first, second)
    barrier = threading.Barrier(len(order))
    results: dict[int, object] = {}
    errors: list[BaseException] = []

    def work(slot: int, index: int) -> None:
        try:
            barrier.wait(timeout=60)
            results[slot] = run_call(calls[index], service)[0]
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=pair)
               for pair in enumerate(order)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for slot, index in enumerate(order):
        assert fingerprint(results[slot]) == fingerprint(
            cold[name][index][0]
        ), calls[index].label
    cache = compiled_service(service).exploration
    stats = cache.stats()
    assert stats["entries"] == sum(
        graph_size(cache, key) for key in cache._graphs
    )


def _one_state_product():
    return CompiledProduct(ltl_to_buchi(LTLAtom("p")), [0], 1)


def test_concurrent_stores_lose_no_update():
    """Eight threads number the same snapshots and store the same keys,
    label bitsets and compiled-product entries into two graphs at once;
    every count a lost read-modify-write would corrupt stays exact,
    every snapshot gets one id and every product slot one value."""
    n_threads, n_keys, n_snaps = 8, 20000, 500
    cache = ExplorationCache()
    cache.cap = 8 * n_keys  # room for every store: nothing is evicted
    graphs = [cache.open(name, frozenset()) for name in "ab"]
    memos = [cache.label_memo(graph, "p") for graph in graphs]
    products = [cache.product(graph, "k", _one_state_product)
                for graph in graphs]
    barrier = threading.Barrier(n_threads)
    errors: list[BaseException] = []

    def work() -> None:
        try:
            barrier.wait(timeout=60)
            for i in range(n_keys):
                # () is one shared object: a store must not mistake
                # another thread's () for its own
                graph, product = graphs[i % 2], products[i % 2]
                cache._store_successors(graph, i, ())
                cache.store_label(graph, memos[i % 2], i, i)
                cache.number(graph, [i // 2 % n_snaps])
                # slots past the end grow the lists under the lock
                cache.store_product(
                    graph, product, {i // 2: (i,)}, {i // 2: ()}
                )
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    stats = cache.stats()
    assert stats["successor_misses"] == n_threads * n_keys
    assert stats["label_misses"] == n_threads * n_keys
    # per graph: n_keys / 2 successor tuples and label bitsets, and a
    # product keeping n_keys / 2 successor tuples and mask tuples
    assert [g.size for g in graphs] == [2 * n_keys + 1] * 2
    assert stats["entries"] == 2 * (2 * n_keys + 1)
    assert stats["product_entries"] == 2 * (n_keys + 1)
    assert sum(len(g.successor_ids) for g in graphs) == n_keys
    assert stats["label_entries"] == n_keys
    for graph, product in zip(graphs, products):
        assert len(product.succ) == len(product.masks) == n_keys // 2
        assert product.succ == [()] * (n_keys // 2)
        side = graphs.index(graph)
        assert product.masks == [(2 * j + side,) for j in range(n_keys // 2)]
    assert stats["evicted_databases"] == 0
    for graph in graphs:
        assert sorted(graph.snapshots) == list(range(n_snaps))
        assert all(graph.snapshots[sid] == s for s, sid in graph.ids.items())


def _label_concurrently(shop, database, formulas) -> tuple[list, object]:
    """One thread per formula labels the structure ``shop``'s cache
    serves with it, three times; the sets each got and the structure."""
    cached = build_snapshot_kripke(shop, database)
    assert not cached._masks
    barrier = threading.Barrier(len(formulas))
    got: list = [None] * len(formulas)
    errors: list[BaseException] = []

    def work(i: int) -> None:
        try:
            kripke = build_snapshot_kripke(shop, database)
            assert kripke is cached
            barrier.wait(timeout=60)
            for _ in range(3):
                sat = satisfying_states(kripke, formulas[i])
                assert got[i] is None or sat == got[i]
                got[i] = sat
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(formulas))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    return got, cached


def test_concurrent_labelling_of_one_cached_structure():
    """Eight threads label one structure served from the exploration
    cache with different CTL formulas that share atoms: each gets the
    sets a sequential run gets, and the proposition masks the threads
    built lazily equal those of a fresh structure.  Eight races, each on
    a new service, since only the first request for an atom builds
    its mask."""
    database = Database(store().schema.database)
    formulas = [parse_ctl(text) for text in (
        "AG EF HP", "EF (HP & has_order)", "AG (HP -> EF has_order)",
        "EG (HP | !logged_in)", "AG (HP -> AF logged_in)",
        "A ((HP | !has_cart) U logged_in)", "EX EX (HP & has_cart)",
        "E (F HP & F CC)",
    )]
    fresh = build_snapshot_kripke(store(), database)
    expected = [satisfying_states(fresh, f) for f in formulas]
    for _race in range(8):
        got, cached = _label_concurrently(store(), database, formulas)
        assert got == expected
        assert cached._masks == fresh._masks


def test_stores_wait_for_the_lock():
    """Opening a graph, numbering a snapshot, making a label memo and
    every store change shared state, so each waits while another thread
    holds the lock."""
    cache = ExplorationCache()
    graph = cache.open("a", frozenset())
    shop = store()
    kripke = build_snapshot_kripke(shop, Database(shop.schema.database))
    memo = cache.label_memo(graph, "p")
    product = _one_state_product()
    writes = [
        lambda: cache.open("b", frozenset()),
        lambda: cache.number(graph, ["s"]),
        lambda: cache.label_memo(graph, "q"),
        lambda: cache._store_successors(graph, 0, ()),
        lambda: cache.store_label(graph, memo, 0, 5),
        lambda: cache.store_kripke(graph, kripke, 1),
        lambda: cache.product(graph, "k", lambda: product),
        lambda: cache.store_product(graph, product, {1: (3,)}, {}),
    ]
    for write in writes:
        done = threading.Event()

        def work(write=write, done=done) -> None:
            write()
            done.set()

        thread = threading.Thread(target=work)
        with cache._lock:
            thread.start()
            assert not done.wait(0.2)
        assert done.wait(60)
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert list(cache._graphs) == [("a", frozenset()), ("b", frozenset())]
    # one entry per store, a completed structure's included
    assert cache.stats()["entries"] == 5
    assert (graph.snapshots, graph.ids, memo) == (["s"], {"s": 0}, {0: 5})
    assert graph.products == {"k": product}
    assert product.masks == [None, (3,)]


def label_entries(graph) -> int:
    return sum(len(memo) for memo in graph.labels.values())


def product_entries(graph) -> int:
    """One per compiled product the graph keeps, and one per successor
    tuple and enable-mask tuple each product holds."""
    return sum(
        1 + sum(ids is not None for ids in product.succ)
        + sum(masks is not None for masks in product.masks)
        for product in graph.products.values()
    )


def graph_size(cache: ExplorationCache, key) -> int:
    """The entries ``key``'s graph is charged: one per successor-id
    tuple and label bitset it holds, whoever stored it, one for a
    completed Kripke structure (its build charged the successor tuples
    it stored), its products' entries, and one per clean-search outcome
    its products keep."""
    graph = cache._graphs[key]
    kripke = 1 if graph.structure else 0
    assert graph.product_entries == product_entries(graph)
    assert graph.outcome_entries == sum(
        len(product.outcomes) for product in graph.products.values()
    )
    assert graph.size == (
        len(graph.successor_ids) + label_entries(graph) + kripke
        + graph.product_entries + graph.outcome_entries
    )
    return graph.size


# ---------------------------------------------------------------------------
# the cap
# ---------------------------------------------------------------------------

def _registration_dbs(service, n: int) -> list[Database]:
    rows = [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")]
    return [Database(service.schema.database, {"allowed": rows[:i + 1]})
            for i in range(n)]


_STORED = "forall x0, x1: record(x0, x1) B !stored(x0, x1)"


def _verify_registration(service, db, prop=_STORED):
    sentence = parse_ltlfo(prop)
    return verifier.verify_ltlfo(service, sentence, databases=[db], workers=1)


def test_cap_holds_and_results_stay_exact():
    service = registration()
    cache = compiled_service(service).exploration
    dbs = _registration_dbs(service, 4)
    sizes = []
    for db in dbs:  # the size of each database's graph, uncapped
        _verify_registration(service, db)
        sizes.append(cache._graphs[(db, frozenset())].size)
    cap = max(sizes) + 1
    assert sum(sizes) > cap
    capped = registration()
    capped_cache = compiled_service(capped).exploration
    capped_cache.cap = cap
    for db in dbs + dbs[::-1] + dbs:
        got = _verify_registration(capped, db)
        want = _verify_registration(registration(), db)
        assert fingerprint(got) == fingerprint(want)
        stats = capped_cache.stats()
        assert stats["entries"] <= cap
        assert stats["entries"] == sum(
            graph_size(capped_cache, key) for key in capped_cache._graphs
        )
    assert capped_cache.stats()["evicted_databases"] > 0


def test_eviction_drops_least_recently_used_first():
    cache = ExplorationCache()
    cache.cap = 6

    def store(name: str, *indices: int) -> None:
        graph = cache.open(name, frozenset())
        for i in indices:
            cache._store_successors(graph, (name, i), ())

    for name in "abc":
        store(name, 0, 1)
    assert list(cache._graphs) == [(n, frozenset()) for n in "abc"]
    cache.open("a", frozenset())  # a becomes the most recently used
    store("d", 0)
    assert list(cache._graphs) == [(n, frozenset()) for n in "cad"]
    store("d", 1, 2)
    assert list(cache._graphs) == [(n, frozenset()) for n in "ad"]
    stats = cache.stats()
    assert (stats["entries"], stats["evicted_databases"]) == (5, 2)
    # the graph being grown is never the victim while others are held
    store("a", 2, 3)
    assert list(cache._graphs) == [("a", frozenset())]
    assert cache.stats()["entries"] == 4


def test_oversized_graph_serves_its_call_and_is_not_retained():
    service = registration()
    db = _registration_dbs(service, 2)[1]
    want = _verify_registration(registration(), db)
    cache = compiled_service(service).exploration
    cache.cap = 10
    got = _verify_registration(service, db)
    assert fingerprint(got) == fingerprint(want)
    stats = cache.stats()
    assert stats["entries"] == 0 and stats["databases"] == 0
    assert stats["evicted_databases"] == 1
    assert stats["successor_misses"] > cache.cap

    prop = store()
    cache = compiled_service(prop).exploration
    cache.cap = 10
    formula = parse_ctl("AG EF HP")
    first = verifier.verify_fully_propositional(prop, formula, workers=1)
    second = verifier.verify_fully_propositional(prop, formula, workers=1)
    assert fingerprint(first) == fingerprint(second)
    assert first.stats["kripke_states"] > cache.cap
    stats = cache.stats()
    assert (stats["kripke_hits"], stats["kripke_misses"]) == (0, 2)
    assert stats["entries"] == 0


# ---------------------------------------------------------------------------
# lifetime
# ---------------------------------------------------------------------------

def test_cache_dies_with_its_service():
    """Nothing the compiled service holds refers back to the service, so
    a discarded service takes its plans and explored graphs with it."""
    import gc
    import weakref

    from repro.service import compiled as compiled_module

    def explore(service) -> ExplorationCache:
        _verify_registration(service, _registration_dbs(service, 2)[1])
        verifier.verify_error_free(service, domain_size=1, workers=1)
        return compiled_service(service).exploration

    def explore_store(service) -> ExplorationCache:
        verifier.verify_fully_propositional(
            service, parse_ctl("AG EF HP"), workers=1
        )
        return compiled_service(service).exploration

    for factory, run in ((registration, explore), (store, explore_store)):
        service = factory()
        cache = run(service)
        assert cache.stats()["entries"] > 0
        refs = (weakref.ref(service), weakref.ref(cache))
        held = len(compiled_module._CACHE)
        # reference counting alone frees the explored graphs: a cache
        # left to the cycle collector could hold a dead service's
        # graphs through many later requests
        gc.disable()
        try:
            del service, cache
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
        assert len(compiled_module._CACHE) == held - 1


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

def _label_events(tracer) -> tuple[int, int]:
    """The ``computed`` and ``shared`` sums of a run's ``label.bits``."""
    events = [e for e in tracer.events if e.name == "label.bits"]
    return (
        sum(e.fields["computed"] for e in events),
        sum(e.fields["shared"] for e in events),
    )


def test_counts_are_exact():
    from repro.obs import CollectingTracer

    service = session_registration()
    dbs = [ring(service, 3, 2), ring(service, 4, 3)]
    text = (  # holds: both databases are explored in full
        "forall x0, x1, x2: record(x0, x1) B "
        "!(stored(x0, x1) & stored(x1, x2))"
    )
    sentence = parse_ltlfo(text)
    cache = compiled_service(service).exploration

    tracer = CollectingTracer()
    cold_result = verifier.verify_ltlfo(
        service, sentence, databases=dbs, workers=1, tracer=tracer
    )
    explored = cold_result.stats["snapshots_explored"]
    pairs = cold_result.stats["sigmas_checked"]
    stats = cache.stats()
    assert stats["successor_hits"] + stats["successor_misses"] == explored
    assert stats["label_misses"] == stats["label_entries"]
    assert stats["successor_misses"] + stats["label_misses"] + (
        stats["product_entries"] + stats["outcome_entries"]
    ) == stats["entries"]
    # one product per (database, sigma), each keeping the successors of
    # every snapshot its search charged and some enable masks
    assert (stats["product_misses"], stats["product_hits"]) == (pairs, 0)
    assert stats["product_entries"] > pairs + explored
    # and the outcome of every search it served, all clean, none replayed
    searched = sum(
        e.fields["searches"] for e in tracer.events
        if e.name == "product.searches"
    )
    assert (stats["outcome_entries"], stats["outcome_hits"]) == (searched, 0)
    assert searched >= pairs
    assert stats["databases"] == len(dbs)
    assert stats["successor_hits"] > 0  # sigmas share scoped keys
    assert stats["label_hits"] > 0  # and label keys
    # the label.bits events count what the cache counts
    assert _label_events(tracer) == (
        stats["label_misses"], stats["label_hits"]
    )
    labelled = stats["label_hits"] + stats["label_misses"]

    # the same property: every pair's search runs on its kept product,
    # which asks the graph for no successor set and no label, and
    # replays every search from its kept outcome
    tracer = CollectingTracer()
    warm = verifier.verify_ltlfo(
        service, sentence, databases=dbs, workers=1, tracer=tracer
    )
    assert warm.stats["snapshots_explored"] == explored
    after = cache.stats()
    assert after["product_hits"] == pairs
    assert after["product_misses"] == pairs
    assert after["outcome_hits"] == searched
    for key in ("successor_hits", "successor_misses", "label_hits",
                "label_misses", "product_entries", "outcome_entries",
                "entries"):
        assert after[key] == stats[key], key
    assert _label_events(tracer) == (0, 0)
    # each database's graph as one property leaves it, for the cap below
    sizes = [cache._graphs[(db, frozenset())].size for db in dbs]
    products = [
        cache._graphs[(db, frozenset())].product_entries for db in dbs
    ]
    outcomes = [
        cache._graphs[(db, frozenset())].outcome_entries for db in dbs
    ]

    # the closure variables renamed: another product, which reads every
    # successor set and label bitset the first stored
    tracer = CollectingTracer()
    renamed = verifier.verify_ltlfo(
        service, parse_ltlfo(text.replace("x", "y")), databases=dbs,
        workers=1, tracer=tracer,
    )
    assert renamed.stats["snapshots_explored"] == explored
    last = cache.stats()
    assert last["product_misses"] == 2 * pairs
    assert last["product_entries"] == 2 * stats["product_entries"]
    assert last["outcome_entries"] == 2 * stats["outcome_entries"]
    assert last["outcome_hits"] == after["outcome_hits"]
    assert last["successor_misses"] == stats["successor_misses"]
    assert last["successor_hits"] == stats["successor_hits"] + explored
    assert last["label_misses"] == stats["label_misses"]
    assert last["label_hits"] == stats["label_hits"] + labelled
    assert last["entries"] == stats["entries"] + stats["product_entries"] + (
        stats["outcome_entries"]
    )
    assert _label_events(tracer) == (0, labelled)

    prop = store()
    pcache = compiled_service(prop).exploration
    formula = parse_ctl("AG EF HP")
    for _ in range(3):
        result = verifier.verify_fully_propositional(prop, formula, workers=1)
    pstats = pcache.stats()
    assert (pstats["kripke_hits"], pstats["kripke_misses"]) == (2, 1)
    # the build stepped the successors of every state but the root once,
    # into the graph (the store has no constant, so one sigma), and the
    # kept structure counts one entry more
    n_states = result.stats["kripke_states"]
    assert (pstats["successor_hits"], pstats["successor_misses"]) == (
        0, n_states - 1
    )
    assert pstats["entries"] == pstats["successor_misses"] + 1 == n_states
    assert (pstats["label_hits"], pstats["label_misses"]) == (0, 0)
    assert (pstats["product_hits"], pstats["product_misses"]) == (0, 0)
    assert (pstats["outcome_hits"], pstats["outcome_entries"]) == (0, 0)

    # a cap that holds either database's graph but not both: from cold,
    # each call after the first evicts the other database, once
    capped = session_registration()
    ccache = compiled_service(capped).exploration
    ccache.cap = max(sizes)
    for db in dbs + dbs:
        verifier.verify_ltlfo(capped, sentence, databases=[db], workers=1)
    cstats = ccache.stats()
    assert cstats["evicted_databases"] == 3
    assert cstats["entries"] == sizes[1]
    assert cstats["label_entries"] == label_entries(
        ccache._graphs[(dbs[1], frozenset())]
    )
    assert cstats["product_entries"] == products[1]
    assert cstats["outcome_entries"] == outcomes[1]
    assert cstats["successor_misses"] + cstats["label_misses"] == (
        2 * (sum(sizes) - sum(products) - sum(outcomes))
    )


def test_kripke_hit_replays_the_budget_strike():
    """A state cap strikes at the same state on a served structure: in
    the initial batch, just past it, mid-way, and at the last state."""
    prop = store()
    ag = parse_ctl("AG EF HP")
    full = verifier.verify_fully_propositional(prop, ag, workers=1)
    n = full.stats["kripke_states"]  # the root is never charged
    kripke = build_snapshot_kripke(prop, Database(prop.schema.database))
    n_initial = len(kripke.successors(ROOT_STATE))
    assert 1 < n_initial < n // 2
    caps = (1, 2, n // 2, n - 2, n_initial - 1, n_initial, n_initial + 1,
            n - 1)
    for cap in caps:
        warm = verifier.verify_fully_propositional(
            prop, ag, max_states=cap, workers=1
        )
        cold = verifier.verify_fully_propositional(
            store(), ag, max_states=cap, workers=1
        )
        expected = Verdict.HOLDS if cap == n - 1 else Verdict.INCONCLUSIVE
        assert warm.verdict is cold.verdict is expected, cap
        assert fingerprint(warm) == fingerprint(cold), cap
        assert warm.stats["kripke_states"] == cold.stats["kripke_states"]


def test_struck_build_is_not_kept():
    """A struck build keeps the successor sets it stepped and no
    structure; the next build reads every one of them, steps the rest,
    and fingerprints as a cold build, state for state."""
    prop = store()
    ag = parse_ctl("AG EF HP")
    struck = verifier.verify_fully_propositional(
        prop, ag, max_states=5, workers=1
    )
    assert struck.verdict is Verdict.INCONCLUSIVE
    cache = compiled_service(prop).exploration
    database = Database(prop.schema.database)
    graph = cache._graphs[(database, frozenset())]
    assert graph.structure is None
    stepped = len(graph.successor_ids)
    assert stepped > 0
    stats = cache.stats()
    assert stats["entries"] == stats["successor_misses"] == stepped
    full = verifier.verify_fully_propositional(prop, ag, workers=1)
    fresh = verifier.verify_fully_propositional(store(), ag, workers=1)
    assert fingerprint(full) == fingerprint(fresh)
    after = cache.stats()
    assert after["kripke_misses"] == 2
    assert after["successor_hits"] == stepped
    assert after["successor_misses"] == full.stats["kripke_states"] - 1
    cold = store()
    assert _structure_fingerprint(
        prop, database, build_snapshot_kripke(prop, database)
    ) == _structure_fingerprint(
        cold, database, build_snapshot_kripke(cold, database)
    )


# ---------------------------------------------------------------------------
# one graph across logics
# ---------------------------------------------------------------------------

_ORDERS = pytest.mark.parametrize(
    "ltl_first", [True, False], ids=["ltl-first", "kripke-first"]
)


@_ORDERS
def test_logics_share_the_store_graph(ltl_first):
    """LTL-FO and Theorem 4.6 over the store's empty database read and
    fill one explored graph: in either order, the second call reads
    successor sets the first stored and fingerprints as it does on a
    fresh service."""
    def ltl(service):
        return verifier.verify_ltlfo(
            service, parse_ltlfo("G !has_order"),
            databases=[Database(service.schema.database)], workers=1,
        )

    def ctl(service):
        return verifier.verify_fully_propositional(
            service, parse_ctl("AG !has_order"), workers=1
        )

    first, second = (ltl, ctl) if ltl_first else (ctl, ltl)
    service = store()
    cache = compiled_service(service).exploration
    first(service)
    hits = cache.stats()["successor_hits"]
    result = second(service)
    assert cache.stats()["successor_hits"] > hits
    assert result.verdict is Verdict.VIOLATED
    assert fingerprint(result) == fingerprint(second(store()))
    if second is ltl:
        _check_witness(result, (service, frozenset()))
    else:
        database = Database(service.schema.database)
        check_ctl_counterexample(
            service, database, build_snapshot_kripke(service, database),
            parse_ctl("!has_order"),
        )


@_ORDERS
def test_logics_share_a_graph_a_constant_branches(ltl_first):
    """On a service whose constant is requested mid-run, so that its
    values branch the structure, a Kripke build after an LTL-FO run over
    the same database and extra domain, and an LTL-FO run after a build,
    read successor sets the other stored and equal a fresh run: the
    structure state for state, the LTL-FO result in verdict, witness and
    stats."""
    from tests.test_choice_memo import _gamma_split

    database = Database(
        _gamma_split().schema.database, {"allowed": [("a",), ("b",)]}
    )
    sentence = parse_ltlfo("forall x: G !pick(x)")

    def ltl(service):
        return verifier.verify_ltlfo(
            service, sentence, databases=[database], workers=1
        )

    service = _gamma_split()
    cache = compiled_service(service).exploration
    if ltl_first:
        result = ltl(service)
        hits = cache.stats()["successor_hits"]
        kripke = build_snapshot_kripke(service, database)
    else:
        kripke = build_snapshot_kripke(service, database)
        hits = cache.stats()["successor_hits"]
        result = ltl(service)
    assert cache.stats()["successor_hits"] > hits
    assert len({sigma for _sid, sigma in kripke.states[1:]}) > 2
    assert result.verdict is Verdict.VIOLATED
    assert fingerprint(result) == fingerprint(ltl(_gamma_split()))
    _check_witness(result, (service, frozenset()))
    cold = _gamma_split()
    assert _structure_fingerprint(service, database, kripke) == (
        _structure_fingerprint(
            cold, database, build_snapshot_kripke(cold, database)
        )
    )


def test_a_structure_the_cap_holds_is_kept():
    """A completed build is charged one entry per successor tuple it
    stored and one for the structure.  With the cap at exactly that, the
    structure is kept and the repeat is a Kripke hit; one entry less,
    and the structure's entry drops the graph, so the repeat builds
    again."""
    database = Database(store().schema.database)
    sizing = store()
    build_snapshot_kripke(sizing, database)
    charged = compiled_service(sizing).exploration.stats()["entries"]
    for cap, kept in ((charged, True), (charged - 1, False)):
        service = store()
        cache = compiled_service(service).exploration
        cache.cap = cap
        first = build_snapshot_kripke(service, database)
        second = build_snapshot_kripke(service, database)
        stats = cache.stats()
        assert (second is first) is kept, cap
        assert (stats["kripke_hits"], stats["kripke_misses"]) == (
            (1, 1) if kept else (0, 2)
        ), cap
        assert stats["entries"] == (charged if kept else 0), cap
        assert stats["evicted_databases"] == (0 if kept else 2), cap


def test_replay_rejects_forged_witnesses():
    """The replay is a check: a run the service cannot take fails it."""
    import dataclasses

    from repro.schema.instances import Instance
    from repro.service.runs import Run

    service = registration()
    sentence = parse_ltlfo("forall x0, x1: G !stored(x0, x1)")
    result = verifier.verify_ltlfo(service, sentence, domain_size=1,
                                   workers=1)
    run = result.counterexample
    replay_witness(service, run)
    snaps = run.snapshots
    record = service.schema.input["record"]
    forged_input = dataclasses.replace(
        snaps[0], inputs=Instance({record: [("zz", "zz")]})
    )
    done = next(i for i, snap in enumerate(snaps) if snap.state)
    forged_state = dataclasses.replace(snaps[done], state=Instance.empty())
    forgeries = [
        Run(run.database, run.sigma, [forged_input] + snaps[1:],
            run.loop_index),
        Run(run.database, run.sigma,
            snaps[:done] + [forged_state] + snaps[done + 1:], run.loop_index),
        Run(run.database, run.sigma, snaps[done:], None),
        Run(run.database, run.sigma, snaps + [snaps[0]], run.loop_index),
    ]
    for forged in forgeries:
        with pytest.raises(AssertionError):
            replay_witness(service, forged)


def test_cached_values_are_immutable():
    """Successor sets are tuples of snapshot ids and label entries are
    ints, each naming a numbered snapshot."""
    service = registration()
    db = _registration_dbs(service, 1)[0]
    _verify_registration(service, db)
    graph = compiled_service(service).exploration._graphs[(db, frozenset())]
    n = len(graph.snapshots)
    assert graph.successor_ids and graph.labels
    assert len(graph.ids) == n
    for (sid, _scoped), succ in graph.successor_ids.items():
        assert type(succ) is tuple and 0 <= sid < n
        assert all(type(i) is int and 0 <= i < n for i in succ)
    for memo in graph.labels.values():
        assert all(
            type(sid) is int and 0 <= sid < n and type(bits) is int
            for sid, bits in memo.items()
        )


def test_trace_marks_cached_kripke_builds():
    from repro.obs import CollectingTracer

    prop = store()
    ag = parse_ctl("AG EF HP")
    flags = []
    for _ in range(2):
        tracer = CollectingTracer()
        verifier.verify_fully_propositional(
            prop, ag, tracer=tracer, workers=1
        )
        flags += [e.fields["cached"] for e in tracer.events
                  if e.name == "kripke.built"]
    assert flags == [False, True]
