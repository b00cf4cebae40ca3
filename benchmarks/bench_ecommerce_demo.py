"""E7 — Figure 2 / Examples 2.2-3.4: the running example, end to end.

The paper's "practically appealing" claim made measurable on the
reconstructed demo store:

- run-simulation throughput on the full 19-page site (the interactive
  demo experience);
- error-freeness and property (4) verification on the input-bounded
  core within a user session (Remark 3.6 scoping);
- the static audit of the full site.

Expected shape: interactive operations in microseconds-to-milliseconds,
session-scoped verification in seconds.  Every verification round
checks a fresh core service (the ``cold`` fixture).
"""

import pytest

from repro.analysis import audit_service
from repro.demo import (
    core_database,
    core_service,
    ecommerce_database,
    ecommerce_service,
    property_4_paid_before_ship,
)
from repro.service import RunContext, Session, random_run
from repro.verifier import verify_error_free, verify_ltlfo

SESSION = [{"name": "alice", "password": "pw1"}]


@pytest.fixture(scope="module")
def demo():
    service = ecommerce_service()
    return service, ecommerce_database(service)


def _core():
    service = core_service()
    return service, core_database(service)


@pytest.mark.benchmark(group="E7 interactive simulation (full 19-page site)")
def test_random_run_throughput(benchmark, demo):
    service, db = demo
    ctx = RunContext(
        service, db,
        sigma={"name": "alice", "password": "pw1",
               "repassword": "pw1", "ccno": "cc"},
    )
    run = benchmark(lambda: random_run(ctx, 20, rng=7))
    assert len(run.snapshots) == 20


@pytest.mark.benchmark(group="E7 interactive simulation (full 19-page site)")
def test_scripted_purchase(benchmark, demo):
    service, db = demo

    def purchase():
        s = Session(service, db)
        s.submit(picks={"button": ("login",)},
                 constants={"name": "alice", "password": "pw1"})
        s.submit(picks={"button": ("laptop",)})
        s.submit(picks={"laptopsearch": ("8G", "512G", "14in"),
                        "button": ("search",)})
        s.submit(picks={"select": ("l1", "999"), "button": ("view",)})
        s.submit(picks={"button": ("add to cart",)})
        s.submit(picks={"button": ("buy",)})
        s.submit(picks={"pay": ("999",),
                        "button": ("authorize payment",)},
                 constants={"ccno": "4111"})
        return s.page

    assert benchmark(purchase) == "COP"


@pytest.mark.benchmark(group="E7 session-scoped verification (core)")
def test_error_freeness(cold):
    result = cold(_core, lambda service, db: verify_error_free(
        service, databases=[db], sigmas=SESSION
    ))
    assert result.holds


@pytest.mark.benchmark(group="E7 session-scoped verification (core)")
def test_property_4(cold):
    prop = property_4_paid_before_ship()
    result = cold(_core, lambda service, db: verify_ltlfo(
        service, prop, databases=[db], sigmas=SESSION
    ))
    assert result.holds


@pytest.mark.benchmark(group="E7 static analysis (full site)")
def test_static_audit(benchmark, demo):
    service, _db = demo
    text = benchmark(lambda: audit_service(service))
    assert "navigation audit" in text
