"""E11 — resource-governed verification: verdict quality vs budget size.

The governor (:mod:`repro.verifier.budget`) trades completeness for
boundedness: a run with a snapshot budget below what the instance needs
returns INCONCLUSIVE instead of a verdict.  This experiment measures
that trade directly — for each workload, the unbounded run's snapshot
count is the 100% baseline, and the series re-verifies at 1%, 10% and
100% of it.  Observable shape: the resolved fraction climbs with the
budget (reaching 1.0 at 100% by construction), while wall-clock time is
capped roughly proportionally to the budget at the low end.

Series: time and resolution (1 = verdict reached, 0 = INCONCLUSIVE) vs
budget fraction, on the registration workload at two domain sizes.
Every round verifies a fresh service (the ``cold`` fixture).
"""

import pytest

from repro.fol import Atom, Not, Var
from repro.ltl import B, LTLFOSentence
from repro.verifier import Budget, verify_ltlfo

from workloads import registration_database, registration_service


def _property() -> LTLFOSentence:
    return LTLFOSentence(
        ("x0",),
        B(Atom("record", (Var("x0"),)), Not(Atom("stored", (Var("x0"),)))),
        name="stored only after recorded",
    )


_BASELINE: dict[int, int] = {}


def _baseline_snapshots(domain_size: int) -> int:
    """Snapshot count of the unbounded run (the 100% budget)."""
    if domain_size not in _BASELINE:
        service = registration_service(1)
        db = registration_database(service, domain_size)
        result = verify_ltlfo(service, _property(), databases=[db])
        assert result.holds
        _BASELINE[domain_size] = result.stats["snapshots_explored"]
    return _BASELINE[domain_size]


@pytest.mark.parametrize("fraction", [0.01, 0.10, 1.00])
@pytest.mark.parametrize("domain_size", [1, 2])
@pytest.mark.benchmark(group="E11 budgeted degradation")
def test_budget_sweep(benchmark, cold, domain_size, fraction):
    prop = _property()
    cap = max(1, int(_baseline_snapshots(domain_size) * fraction))

    def make():
        service = registration_service(1)
        return service, registration_database(service, domain_size)

    def bounded(service, db):
        return verify_ltlfo(service, prop, databases=[db],
                            budget=Budget(max_snapshots=cap))

    result = cold(make, bounded)
    resolved = 0 if result.inconclusive else 1
    benchmark.extra_info["snapshot_cap"] = cap
    benchmark.extra_info["resolved"] = resolved
    benchmark.extra_info["verdict"] = result.verdict.value
    if fraction == 1.00:
        # the full budget must resolve, and agree with the unbounded run
        assert result.holds
    if result.inconclusive:
        # degradation is graceful: partial stats + resumable checkpoint
        assert result.checkpoint is not None
        assert result.coverage
