"""Benchmark suite configuration.

Each experiment file (E1..E9, see DESIGN.md and EXPERIMENTS.md) uses
pytest-benchmark groups so ``pytest benchmarks/ --benchmark-only``
prints one comparison table per experiment, with parameters in the test
ids forming the series the experiment reports.
"""

import sys
from pathlib import Path

import pytest

from repro.service.compiled import warm_service_plans

# make `workloads` importable as a plain module from the benchmark files
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def cold(benchmark):
    """``cold(make, run)``: time ``run(*make())`` on a cold service.

    A verification keeps the graph it explored in its service's
    exploration cache, so rounds that reuse one service time cache hits
    after the first.  Here every round's untimed setup calls ``make()``
    for a fresh service (the first element) and the other arguments of
    ``run``, and warms the service's plans; the round times one
    verification that explores from scratch.
    """
    def time_cold(make, run, rounds=20):
        def setup():
            args = make()
            warm_service_plans(args[0])
            return args, {}

        return benchmark.pedantic(
            run, setup=setup, rounds=rounds, iterations=1
        )

    return time_cold
