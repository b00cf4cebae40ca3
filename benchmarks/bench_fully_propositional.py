"""E5 — Theorem 4.6: fully propositional services, construction vs
checking (ablation).

The paper's PSPACE algorithm avoids materialising the exponential
Kripke structure (on-the-fly product a la Kupferman-Vardi-Wolper).
Our implementation materialises only the *reachable* part; this
experiment separates where the time goes:

- building the reachable configuration Kripke structure;
- the CTL labelling pass on a prebuilt structure;
- a CTL* check (Büchi product route) on the same structure.

Expected shape: construction dominates as services grow — which is why
on-the-fly matters asymptotically — while checking stays cheap.

A completed structure is kept in its service's exploration cache, so
the construction rounds each build a fresh service (the ``cold``
fixture) and time one cold build; ``test_build_kripke_warm`` times what
a later call over the same service pays: the cache hit.
"""

import pytest

from repro.ctl import A, AG, CAtom, EF, PF, POr, PNot
from repro.ctl.modelcheck import satisfying_states
from repro.schema import Database
from repro.verifier.branching import build_snapshot_kripke

from workloads import chain_service

N_PAGES = 12


@pytest.fixture(scope="module")
def service():
    return chain_service(N_PAGES)


@pytest.fixture(scope="module")
def prebuilt(service):
    return build_snapshot_kripke(service, Database(service.schema.database))


def _service_and_database():
    fresh = chain_service(N_PAGES)
    return fresh, Database(fresh.schema.database)


@pytest.mark.benchmark(group="E5 construction vs checking")
def test_build_kripke(cold):
    kripke = cold(_service_and_database, build_snapshot_kripke)
    assert kripke.n_states > N_PAGES


@pytest.mark.benchmark(group="E5 construction vs checking")
def test_build_kripke_warm(benchmark, service, prebuilt):
    empty_db = Database(service.schema.database)
    kripke = benchmark(lambda: build_snapshot_kripke(service, empty_db))
    assert kripke is prebuilt


@pytest.mark.benchmark(group="E5 construction vs checking")
def test_ctl_check_on_prebuilt(benchmark, prebuilt):
    prop = AG(EF(CAtom("P0")))
    sat = benchmark(lambda: satisfying_states(prebuilt, prop))
    assert prebuilt.initial <= sat


@pytest.mark.benchmark(group="E5 construction vs checking")
def test_ctl_star_check_on_prebuilt(benchmark, prebuilt):
    # A(G !moved or F P3): genuine path formula, forces the Büchi route
    prop = A(POr(PNot(PF(CAtom("moved"))), PF(CAtom("P3"))))
    benchmark(lambda: satisfying_states(prebuilt, prop))
