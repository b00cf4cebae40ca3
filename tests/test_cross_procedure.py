"""Cross-procedure equivalences between the paper's procedures.

The paper's procedures overlap, so one can check another.  On the
propositional store (Example 4.3):

- an LTL formula ψ holds of every run (Theorem 3.5, ``verify_ltlfo``)
  exactly when ``A X ψ`` holds at the run-tree root (Theorem 4.4,
  ``verify_ctl``): the root is the empty prefix, and its ``X`` steps to
  a run's first configuration;
- on a fully propositional service, Theorem 4.4 and Theorem 4.6
  (``verify_fully_propositional``) decide the same CTL(*) properties.

On the Figure 1 search service (Example 4.8):

- Theorem 4.9 (``verify_input_driven_search``) and Theorem 4.4's
  enumeration (``verify_ctl`` with ``check_restrictions=False``: the
  service has a unary input, so it is not propositional) decide the
  same CTL(*) properties over the same databases, with the same stats
  and the same resume cursor.

On the direct error-freeness cases of the engine oracle:

- a service is error free (``verify_error_free``, a reachability
  search) exactly when ``G !ERROR`` holds of every run (Theorem 3.5's
  lasso search): the error page is absorbing, so a run errs exactly
  when it reaches it.

The LTL side never builds a Kripke structure, so the first equivalence
checks the CTL labeller against an independent search; the last checks
the lasso search against a plain breadth-first one.  Every verdict
below is written by hand, with the reason it holds or fails.
"""

from __future__ import annotations

import pytest

from repro.ctl.parser import parse_ctl
from repro.demo.propositional import propositional_service
from repro.demo.search_site import (
    figure1_database,
    scaled_hierarchy_database,
    search_service,
)
from repro.ltl.parser import parse_ltlfo
from repro.schema import Database
from repro.verifier import (
    Budget,
    Verdict,
    verify_ctl,
    verify_error_free,
    verify_fully_propositional,
    verify_input_driven_search,
    verify_ltlfo,
)

from tests.engine_cases import CASES, build_options, load_spec
from tests.witness import replay_witness

HOLDS, VIOLATED = Verdict.HOLDS, Verdict.VIOLATED
INCONCLUSIVE = Verdict.INCONCLUSIVE

#: LTL formula over page and propositional atoms -> its verdict on the store
LTL_CASES = [
    # every page's targets exclude each other, so no run reaches ERROR
    ("G !ERROR", HOLDS),
    # the first configuration is the home page
    ("HP", HOLDS),
    ("F HP", HOLDS),
    # HP leads to RP, CP or MP, or stays at HP
    ("X (HP | RP | CP | MP)", HOLDS),
    # COP is entered only by authorizing at UPP, which inserts has_order,
    # and nothing deletes has_order
    ("G (COP -> has_order)", HOLDS),
    # log in, search, add to cart, buy, authorize: an order is placed
    ("G !has_order", VIOLATED),
    # a run can log in and stay at CP, pressing nothing
    ("G F HP", VIOLATED),
    # a run can stay at HP without logging in
    ("(!has_order) U logged_in", VIOLATED),
    ("F logged_in", VIOLATED),
    # authorize and back together at UPP clear has_cart, and neither
    # target fires, so the run stays at UPP
    ("G (UPP -> has_cart)", VIOLATED),
    # at MP without pressing back the run stays at MP
    ("G (MP -> X HP)", VIOLATED),
]

#: CTL(*) property -> its verdict on the store, under both theorems
CTL_CASES = [
    ("AG EF HP", HOLDS),                                   # Example 4.3
    ("AG ((HP & btn_login) -> EF btn_authorize)", HOLDS),  # Example 4.3
    ("AG (has_order -> EF HP)", HOLDS),
    ("EF has_order", HOLDS),
    ("A (G !ERROR)", HOLDS),
    ("E (F COP & F HP)", HOLDS),
    ("AG !has_order", VIOLATED),
    ("AG AF HP", VIOLATED),  # a run can stay at CP forever
]

#: direct error-freeness case of ``tests/engine_cases.py`` -> its verdict
ERROR_FREE_CASES = [
    # HP's two targets are complementary, so HP, the one page that
    # requests constants, is left at once and never entered again; the
    # other pages' targets read distinct values of one button
    ("ef-core-direct", HOLDS),
    # no input constants, and every page's targets exclude each other
    ("ef-prop-direct-d1", HOLDS),
    # a run that presses nothing stays at HP, which then requests @name
    # and @password a second time: error condition (ii)
    ("ef-ecommerce-violated", VIOLATED),
    # likewise at HOME, which requests @token a second time
    ("ef-dataflow-violated-d1", VIOLATED),
]


#: database space of the Figure 1 service -> the options that select it
IDS_SPACES = {
    "figure1": lambda svc: {"databases": [figure1_database(svc)]},
    # complete binary category trees, all in stock / half the leaves
    "tree-2": lambda svc: {
        "databases": [scaled_hierarchy_database(2, service=svc)]},
    "tree-3-half": lambda svc: {
        "databases": [scaled_hierarchy_database(
            3, service=svc, stock_ratio=0.5)]},
    # the default enumeration, capped: uncapped it checks thousands of
    # databases, seconds per call
    "enumerated-50": lambda svc: {"budget": Budget(max_databases=50)},
}

#: (CTL(*) property, database space) -> its verdict on the search service
IDS_CASES = [
    # SEARCH is the only page: every state can stay on it
    ("AG EF SEARCH", "figure1", HOLDS),
    ("AG EF SEARCH", "tree-2", HOLDS),
    ("AG EF SEARCH", "tree-3-half", HOLDS),
    ("AG EF SEARCH", "enumerated-50", INCONCLUSIVE),
    # the user can pick the in-stock category "new" below the root
    ("AG !new", "figure1", VIOLATED),
    ("EF new", "figure1", HOLDS),
    # no category of the generated trees is named "new"
    ("AG !new", "tree-2", HOLDS),
    ("AG !new", "tree-3-half", HOLDS),
    ("EF new", "tree-2", VIOLATED),
    ("EF new", "tree-3-half", VIOLATED),
    # the first 50 enumerated databases all interpret i0 as the literal
    # "new", and the first input is always i0: new is set at step one
    ("AG !new", "enumerated-50", VIOLATED),
    ("EF new", "enumerated-50", INCONCLUSIVE),
]

#: stats that name the procedure that ran, like ``result.procedure``
_PROCEDURE_LABELS = ("config", "interrupted_phase")


@pytest.fixture(scope="module")
def store():
    service = propositional_service()
    return service, [Database(service.schema.database)]


@pytest.mark.parametrize("text,verdict", LTL_CASES,
                         ids=[text for text, _v in LTL_CASES])
def test_ctl_a_x_agrees_with_ltl(store, text, verdict):
    service, databases = store
    ltl = verify_ltlfo(service, parse_ltlfo(text), databases=databases,
                       workers=1)
    ctl = verify_ctl(service, parse_ctl(f"A X ({text})"),
                     databases=databases, workers=1)
    assert ltl.verdict is verdict
    assert ctl.verdict is verdict


@pytest.mark.parametrize("text,verdict", CTL_CASES,
                         ids=[text for text, _v in CTL_CASES])
def test_theorem_4_4_agrees_with_theorem_4_6(store, text, verdict):
    service, databases = store
    formula = parse_ctl(text)
    general = verify_ctl(service, formula, databases=databases, workers=1)
    fully = verify_fully_propositional(service, formula, workers=1)
    assert general.verdict is fully.verdict is verdict
    assert general.stats["kripke_states"] == fully.stats["kripke_states"]


@pytest.mark.parametrize("case_id,verdict", ERROR_FREE_CASES,
                         ids=[case_id for case_id, _v in ERROR_FREE_CASES])
def test_error_free_agrees_with_ltl_never_error(case_id, verdict):
    case = next(c for c in CASES if c["id"] == case_id)
    # a fresh service per side: neither reads the other's exploration cache
    service = load_spec(case["spec"])
    sides = [(service, verify_error_free(
        service, **build_options(case, service, workers=1)
    ))]
    service = load_spec(case["spec"])
    options = build_options(case, service, workers=1)
    options.pop("method", None)
    # The violated services are not input-bounded, but on the same
    # databases and sigmas both searches are exhaustive.
    sides.append((service, verify_ltlfo(
        service, parse_ltlfo("G !ERROR"), check_restrictions=False,
        **options,
    )))
    for service, result in sides:
        assert result.verdict is verdict
        if verdict is VIOLATED:
            run = result.counterexample
            replay_witness(service, run)
            assert run.snapshots[-1].page == service.error_page


@pytest.mark.parametrize("text,space,verdict", IDS_CASES,
                         ids=[f"{t}-{sp}" for t, sp, _v in IDS_CASES])
def test_theorem_4_9_agrees_with_theorem_4_4(text, space, verdict):
    formula = parse_ctl(text)
    sides = []
    for verify_side, options in (
        (verify_input_driven_search, {}),
        (verify_ctl, {"check_restrictions": False}),
    ):
        # a fresh service per side: neither reads the other's cache
        service = search_service()
        sides.append(verify_side(
            service, formula, workers=1, **options,
            **IDS_SPACES[space](service),
        ))
    ids, ctl = sides
    assert ids.verdict is ctl.verdict is verdict
    assert ids.stats.keys() == ctl.stats.keys()
    assert _without(ids.stats, _PROCEDURE_LABELS) == _without(
        ctl.stats, _PROCEDURE_LABELS
    )
    assert _cursor(ids) == _cursor(ctl)
    assert (_cursor(ids) is None) == (verdict is not INCONCLUSIVE)


def _without(stats, keys):
    return {k: v for k, v in stats.items() if k not in keys}


def _cursor(result):
    ck = result.checkpoint
    return None if ck is None else (ck.db_index, ck.sigma_index)
