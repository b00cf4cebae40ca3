"""E4 — Theorem 4.4: propositional CTL verification scaling.

Series: CTL verification time vs number of pages (chain workload) and
vs structure density (grid workload), and vs formula size on a fixed
structure.  Expected shape: growth tracks the configuration-graph size
(states x formula), the practical face of the co-NEXPTIME bound whose
exponential part comes from the database — absent here, so scaling is
benign.  Every round verifies a fresh service (the ``cold`` fixture),
so the structure is built each time, never served from the cache.
"""

import pytest

from repro.ctl import AG, AF, CAtom, CNot, EF, EX
from repro.verifier import verify_fully_propositional

from workloads import chain_service, grid_service


@pytest.mark.parametrize("n_pages", [4, 8, 16, 32])
@pytest.mark.benchmark(group="E4 CTL vs number of pages (chain)")
def test_chain_home_reachability(cold, n_pages):
    prop = AG(EF(CAtom("P0")))
    result = cold(
        lambda: (chain_service(n_pages),),
        lambda service: verify_fully_propositional(service, prop),
    )
    assert result.holds


@pytest.mark.parametrize("width", [2, 3, 4])
@pytest.mark.benchmark(group="E4 CTL vs structure density (grid)")
def test_grid_corner_reachability(cold, width):
    prop = AG(EF(CAtom(f"G{width - 1}_{width - 1}")))
    result = cold(
        lambda: (grid_service(width),),
        lambda service: verify_fully_propositional(service, prop),
    )
    assert result.holds


def _nested(depth):
    f = CAtom("P0")
    for _ in range(depth):
        f = AG(EF(EX(f)))
    return f


@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.benchmark(group="E4 CTL vs formula size (chain of 8)")
def test_formula_size_sweep(cold, depth):
    prop = _nested(depth)
    cold(
        lambda: (chain_service(8),),
        lambda service: verify_fully_propositional(service, prop),
    )
