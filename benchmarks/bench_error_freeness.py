"""E3 — Theorem 3.5(i): error-freeness, direct vs Lemma A.5 (ablation).

Two implementations of the same decision: direct error-page
reachability in the configuration graph, and the paper's Lemma A.5
service transformation followed by an LTL check of ``G ¬trap``.  The
ablation quantifies the cost of the reduction route (which the theorem
uses for uniformity) over the dedicated reachability search.

Workloads: the error-free e-commerce core and a mutated variant whose
logout button returns to HP, re-requesting the constants (the bug class
the paper's own Figure 2 demo contains).  Every round verifies a fresh service (the ``cold`` fixture).
"""

import pytest

from repro.demo import core_database, core_service
from repro.verifier import verify_error_free

SESSION = [{"name": "alice", "password": "pw1"}]


def _mutated_core():
    """The core with a logout-to-HP edge: re-requests @name/@password."""
    from repro.io import service_from_dict, service_to_dict

    data = service_to_dict(core_service())
    data["name"] = "ecommerce-core-mutated"
    for page in data["pages"]:
        if page["name"] == "CP":
            for rule in page["target_rules"]:
                if rule["target"] == "MP":
                    rule["target"] = "HP"
            page["targets"] = ["LSP", "HP"]
    return service_from_dict(data)


def _time_error_free(cold, factory, method):
    def make():
        service = factory()
        return service, core_database(service)

    return cold(make, lambda service, db: verify_error_free(
        service, databases=[db], method=method, sigmas=SESSION
    ))


@pytest.mark.parametrize("method", ["direct", "reduction"])
@pytest.mark.benchmark(group="E3 error-freeness on the clean core")
def test_clean_core(cold, method):
    result = _time_error_free(cold, core_service, method)
    assert result.holds


@pytest.mark.parametrize("method", ["direct", "reduction"])
@pytest.mark.benchmark(group="E3 error-freeness on the mutated core")
def test_mutated_core(cold, method):
    result = _time_error_free(cold, _mutated_core, method)
    assert not result.holds
