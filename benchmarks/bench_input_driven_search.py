"""E6 — Theorem 4.9 / Figure 1: input-driven-search verification scaling.

Series: CTL verification time over the Figure 1 hierarchy and over
complete binary category trees of growing depth (8, 16, 32 leaf
products).  Expected shape: time tracks the search-graph size — benign
growth on concrete graphs, in line with the EXPTIME bound applying to
the *formula and schema*, not to a fixed database.  Every round verifies a fresh service (the ``cold`` fixture).
"""

import pytest

from repro.ctl import AG, CAtom, CNot, EF
from repro.demo import figure1_database, scaled_hierarchy_database, search_service
from repro.verifier import verify_input_driven_search


def _time_search(cold, prop, database):
    def make():
        service = search_service()
        return service, database(service)

    return cold(make, lambda service, db: verify_input_driven_search(
        service, prop, databases=[db]
    ))


@pytest.mark.benchmark(group="E6 Figure 1 hierarchy")
def test_figure1_reachability(cold):
    prop = EF(CAtom(("I", ("ul1",))))
    result = _time_search(cold, prop, figure1_database)
    assert result.holds


@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.benchmark(group="E6 hierarchy depth sweep (binary tree)")
def test_depth_sweep(cold, depth):
    leaf = "n" + "0" * depth
    prop = EF(CAtom(("I", (leaf,))))
    result = _time_search(cold, prop, lambda service: (
        scaled_hierarchy_database(depth, branching=2, service=service)
    ))
    assert result.holds


@pytest.mark.parametrize("stock_ratio", [1.0, 0.5])
@pytest.mark.benchmark(group="E6 stock filtering")
def test_stock_filter(cold, stock_ratio):
    # safety: never offer an out-of-stock node — trivially true at 1.0,
    # needs the filter at 0.5; the checker pays for the whole graph.
    prop = AG(CNot(CAtom(("I", ("n111",)))) | CAtom("not_start"))
    _time_search(cold, prop, lambda service: scaled_hierarchy_database(
        3, branching=2, service=service, stock_ratio=stock_ratio
    ))
