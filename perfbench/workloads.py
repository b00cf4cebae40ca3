"""The benchmark's four workloads: inputs, property templates, verdicts.

Every input is rebuilt here through the public builder API instead of being
imported from the program's demos or the older ``benchmarks/`` scripts, so
edits there cannot silently change what this benchmark measures.  The seed
orders each request list and instantiates its property templates: it picks
the names of the universally closed variables and the order of a
commutative conjunction, neither of which changes what a request costs.

Each request carries its expected verdict, written by hand from how the
service is built (see the template comments) — never taken from a verifier
run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.ctl import AG, EF, CAnd, CAtom, CImplies, CNot
from repro.fol import And, Atom, Not, Var
from repro.ltl import B, G, LTLFOSentence
from repro.schema import Database
from repro.service import ServiceBuilder, WebService
from repro.verifier import verify_fully_propositional, verify_ltlfo

HOLDS = "holds"
VIOLATED = "violated"

#: ``ltl_pool`` runs on its own too, but its calibrated times spread 7-9%
#: between runs (the parent's kernel samples compete with two workers for
#: two cores), so BENCHMARK.json leaves it out; ltl_registration runs its
#: requests once per run as an untimed pool twin instead.
WORKLOADS = ("ltl_registration", "ltl_session_block", "ctl_store", "ltl_pool")

#: HOLDS requests per VIOLATED one in the LTL request lists.  A VIOLATED
#: request stops at its first lasso (15-60 ms instead of ~1 s), so keeping
#: it a minority keeps the latency median in the full-exploration mode.
HOLDS_PER_VIOLATED = 4

#: E14's ring databases: (domain size, rows).
RING_DATABASES = ((4, 3), (5, 4))


@dataclass(frozen=True)
class Request:
    label: str
    prop: Any
    expected: str
    #: explores the whole state space (no early stop at a counterexample)
    full: bool


@dataclass(frozen=True)
class Workload:
    name: str
    #: "ltl" calls verify_ltlfo, "fp" calls verify_fully_propositional
    entry: str
    service: WebService
    options: dict
    requests: tuple
    #: the same requests at workers=2: one untimed pass of it per run must
    #: reproduce this workload's results request by request, and a traced
    #: run takes the ``verifier.parallel`` layer from it
    pool_twin: str | None = None

    @property
    def workers(self) -> int:
        return self.options["workers"]

    def verify(self, request: Request, tracer=None):
        entry = verify_ltlfo if self.entry == "ltl" else (
            verify_fully_propositional
        )
        return entry(self.service, request.prop, tracer=tracer, **self.options)

    def first_full(self) -> Request:
        return next(r for r in self.requests if r.full)

    def check(self, request: Request, result) -> str | None:
        """Why ``result`` fails the request's oracle; None when it passes."""
        got = result.verdict.value
        if got != request.expected:
            return f"{request.label}: expected {request.expected}, got {got}"
        if got != VIOLATED:
            return None
        if self.entry == "ltl":
            run = result.counterexample
            if run is None or not run.snapshots:
                return f"{request.label}: violated without a counterexample"
        elif not result.stats.get("violating_initial_states"):
            # Theorem 4.6 reports no run; its witness is the count of
            # initial states that falsify the formula.
            return f"{request.label}: violated without a violating state"
        return None


# -- services ------------------------------------------------------------------

def _declare_registration(b: ServiceBuilder) -> tuple[tuple, str]:
    b.database("allowed", 2)
    b.input("record", 2)
    b.input("done")
    b.state("stored", 2)
    b.state("closed")
    b.action("ack", 2)
    return ("x0", "x1"), "x0, x1"


def _form_and_review(b: ServiceBuilder, xs, args, review_exit: str) -> None:
    form = b.page("FORM", home=True)
    form.toggle("done")
    form.options("record", f"allowed({args})", xs)
    form.insert("stored", f"record({args}) & !closed", xs)
    form.insert("closed", "done")
    form.target("REVIEW", "done")
    review = b.page("REVIEW")
    review.act("ack", f"stored({args})", xs)
    review.toggle("done")
    review.target(review_exit, "done")


def registration_service() -> WebService:
    """E12's registration service (arity 2): rows of ``allowed`` are
    recorded on FORM, stored, and acknowledged on REVIEW."""
    b = ServiceBuilder("registration-2")
    xs, args = _declare_registration(b)
    _form_and_review(b, xs, args, review_exit="FORM")
    return b.build()


def session_registration_service() -> WebService:
    """E14's variant: REVIEW leads once to CONFIRM, which requests the
    input constant ``who`` and acknowledges only the owner's rows."""
    b = ServiceBuilder("session-registration-2")
    xs, args = _declare_registration(b)
    b.input_constant("who")
    _form_and_review(b, xs, args, review_exit="CONFIRM")
    confirm = b.page("CONFIRM")
    confirm.request("who")
    confirm.act("ack", f"stored({args}) & x0 = who", xs)
    confirm.target("FINAL", "true")
    b.page("FINAL")
    return b.build()


def ring_database(service: WebService, domain_size: int, rows: int) -> Database:
    """``rows`` consecutive pairs ``(v_i, v_i+1)`` around a ring of
    ``domain_size`` values."""
    dom = [f"v{i}" for i in range(domain_size)]
    facts = [(dom[i % domain_size], dom[(i + 1) % domain_size])
             for i in range(rows)]
    return Database(service.schema.database, {"allowed": facts})


def store_service() -> WebService:
    """The propositional abstraction of the Example 4.3 store."""
    b = ServiceBuilder("ecommerce-propositional")
    for name in (
        "btn_login", "btn_register", "btn_clear", "btn_search",
        "btn_view_cart", "btn_logout", "btn_add_to_cart", "btn_buy",
        "btn_authorize", "btn_back", "btn_continue", "login_ok",
    ):
        b.input(name)
    for name in ("logged_in", "has_cart", "has_order"):
        b.state(name)

    hp = b.page("HP", home=True)
    hp.toggle("btn_login", "btn_register", "btn_clear", "login_ok")
    hp.insert("logged_in", "btn_login & login_ok")
    hp.target("HP", "btn_clear & !btn_login & !btn_register")
    hp.target("RP", "btn_register & !btn_login & !btn_clear")
    hp.target("CP", "btn_login & login_ok & !btn_register & !btn_clear")
    hp.target("MP", "btn_login & !login_ok & !btn_register & !btn_clear")

    rp = b.page("RP")
    rp.toggle("btn_continue", "btn_back")
    rp.insert("logged_in", "btn_continue")
    rp.target("CP", "btn_continue & !btn_back")
    rp.target("HP", "btn_back & !btn_continue")

    mp = b.page("MP")
    mp.toggle("btn_back")
    mp.target("HP", "btn_back")

    cp = b.page("CP")
    cp.toggle("btn_search", "btn_view_cart", "btn_logout")
    cp.delete("logged_in", "btn_logout")
    cp.target("LSP", "btn_search & !btn_view_cart & !btn_logout")
    cp.target("CC", "btn_view_cart & !btn_search & !btn_logout")
    cp.target("HP", "btn_logout & !btn_search & !btn_view_cart")

    lsp = b.page("LSP")
    lsp.toggle("btn_search", "btn_back", "btn_logout")
    lsp.delete("logged_in", "btn_logout")
    lsp.target("PIP", "btn_search & !btn_back & !btn_logout")
    lsp.target("CP", "btn_back & !btn_search & !btn_logout")
    lsp.target("HP", "btn_logout & !btn_search & !btn_back")

    pip = b.page("PIP")
    pip.toggle("btn_add_to_cart", "btn_back", "btn_logout")
    pip.insert("has_cart", "btn_add_to_cart")
    pip.delete("logged_in", "btn_logout")
    pip.target("CC", "btn_add_to_cart & !btn_back & !btn_logout")
    pip.target("LSP", "btn_back & !btn_add_to_cart & !btn_logout")
    pip.target("HP", "btn_logout & !btn_add_to_cart & !btn_back")

    cc = b.page("CC")
    cc.toggle("btn_buy", "btn_continue", "btn_logout")
    cc.delete("logged_in", "btn_logout")
    cc.target("UPP", "has_cart & btn_buy & !btn_continue & !btn_logout")
    cc.target("CP", "btn_continue & !btn_buy & !btn_logout")
    cc.target("HP", "btn_logout & !btn_buy & !btn_continue")

    upp = b.page("UPP")
    upp.toggle("btn_authorize", "btn_back")
    upp.insert("has_order", "btn_authorize")
    upp.delete("has_cart", "btn_authorize")
    upp.target("COP", "btn_authorize & !btn_back")
    upp.target("CC", "btn_back & !btn_authorize")

    cop = b.page("COP")
    cop.toggle("btn_continue", "btn_logout")
    cop.delete("logged_in", "btn_logout")
    cop.target("CP", "btn_continue & !btn_logout")
    cop.target("HP", "btn_logout & !btn_continue")
    return b.build()


# -- property templates ----------------------------------------------------------

_VARIABLE_PREFIXES = "xyzuvw"


def _variables(rng: random.Random, n: int) -> tuple[str, ...]:
    # One prefix for all variables keeps their relative order, and with it
    # the valuation order, the same for every seed.
    prefix = rng.choice(_VARIABLE_PREFIXES)
    return tuple(f"{prefix}{i}" for i in range(n))


def _terms(*names: str) -> tuple:
    return tuple(Var(v) for v in names)


def stored_only_after_recorded(rng: random.Random) -> Request:
    # HOLDS: `stored` is inserted only by FORM's rule `record(x̄) ∧ ¬closed`,
    # so no row is stored before it was recorded.
    a, b = _variables(rng, 2)
    t = _terms(a, b)
    prop = LTLFOSentence(
        (a, b), B(Atom("record", t), Not(Atom("stored", t))),
        name="stored only after recorded",
    )
    return Request(prop.name, prop, HOLDS, full=True)


def never_stored(rng: random.Random) -> Request:
    # VIOLATED: any `allowed` row can be recorded on FORM, and the same
    # step's rule stores it.
    a, b = _variables(rng, 2)
    prop = LTLFOSentence(
        (a, b), G(Not(Atom("stored", _terms(a, b)))), name="never stored",
    )
    return Request(prop.name, prop, VIOLATED, full=False)


def no_chained_store_before_record(rng: random.Random) -> Request:
    # HOLDS: the conjunction needs stored(x0, x1), which, as above, needs
    # an earlier record(x0, x1).
    a, b, c = _variables(rng, 3)
    prop = LTLFOSentence(
        (a, b, c),
        B(
            Atom("record", _terms(a, b)),
            Not(And(Atom("stored", _terms(a, b)),
                    Atom("stored", _terms(b, c)))),
        ),
        name="no chained store before its record",
    )
    return Request(prop.name, prop, HOLDS, full=True)


def never_acked(rng: random.Random) -> Request:
    # VIOLATED: a recorded `allowed` row is stored, and REVIEW acks every
    # stored row as soon as the user presses `done`.
    a, b = _variables(rng, 2)
    prop = LTLFOSentence(
        (a, b), G(Not(Atom("ack", _terms(a, b)))), name="never acked",
    )
    return Request(prop.name, prop, VIOLATED, full=False)


def home_reachable(rng: random.Random) -> Request:
    # HOLDS: every page offers a `btn_logout` or `btn_back` path to HP.
    return Request("AG EF HP", AG(EF(CAtom("HP"))), HOLDS, full=True)


def login_to_payment(rng: random.Random) -> Request:
    # HOLDS: from HP a successful login reaches CP, then search (LSP),
    # the product page (PIP), add to cart (CC), buy (UPP), where
    # `btn_authorize` is offered.
    conjuncts = [CAtom("HP"), CAtom("btn_login")]
    rng.shuffle(conjuncts)
    prop = AG(CImplies(CAnd(*conjuncts), EF(CAtom("btn_authorize"))))
    return Request("AG((HP & btn_login) -> EF btn_authorize)", prop, HOLDS,
                   full=True)


def no_order(rng: random.Random) -> Request:
    # VIOLATED: UPP inserts `has_order` when `btn_authorize` is pressed,
    # and UPP is reachable as above.  Theorem 4.6 builds the whole Kripke
    # structure first, so this request costs as much as the others.
    return Request("AG !has_order", AG(CNot(CAtom("has_order"))), VIOLATED,
                   full=True)


def _ltl_requests(
    rng: random.Random,
    holds: Callable[[random.Random], Request],
    violated: Callable[[random.Random], Request],
) -> tuple:
    requests = [holds(rng) for _ in range(HOLDS_PER_VIOLATED)]
    requests.append(violated(rng))
    rng.shuffle(requests)
    return tuple(requests)


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with its inputs made from ``seed``."""
    rng = random.Random(seed)
    if name in ("ltl_registration", "ltl_pool"):
        pool = name == "ltl_pool"
        return Workload(
            name, "ltl", registration_service(),
            {"domain_size": 2, "workers": 2 if pool else 1, "sigma_block": 1},
            _ltl_requests(rng, stored_only_after_recorded, never_stored),
            pool_twin=None if pool else "ltl_pool",
        )
    if name == "ltl_session_block":
        service = session_registration_service()
        databases = [ring_database(service, d, rows)
                     for d, rows in RING_DATABASES]
        return Workload(
            name, "ltl", service,
            {"databases": databases, "workers": 1, "sigma_block": 64},
            _ltl_requests(rng, no_chained_store_before_record, never_acked),
        )
    if name == "ctl_store":
        requests = [home_reachable(rng), login_to_payment(rng), no_order(rng)]
        rng.shuffle(requests)
        return Workload(name, "fp", store_service(), {"workers": 1},
                        tuple(requests))
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
