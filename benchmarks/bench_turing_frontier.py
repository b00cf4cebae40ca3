"""E8 — Theorem 3.7: the verifier as a halting semi-decider.

The TM encoding is outside the decidable class; bounded verification of
the fixed sentence ``G ¬∃ T(x,y,u,halt)`` nevertheless *finds* halting
computations whose tape fits the explored domain.  Series: verification
time vs tape-domain size for a 1-step halting machine and the looper
(which must come back HOLDS — the expensive full exploration).

Expected shape: cost grows steeply with the domain (the tape-choice
state space), and "HOLDS" (loopers) costs more than finding a halting
witness early.  Every round verifies a fresh service (the ``cold`` fixture).
"""

import pytest

from repro.reductions import LOOPER, TuringMachine, halting_sentence, tm_to_service
from repro.reductions.turing import BLANK
from repro.schema import Database
from repro.verifier import verify_ltlfo

ONE_STEP = TuringMachine(
    states=frozenset({"q0", "halt"}),
    alphabet=frozenset({BLANK, "1"}),
    transitions={("q0", BLANK): ("halt", "1", "S")},
)

TWO_STEP = TuringMachine(
    states=frozenset({"q0", "q1", "halt"}),
    alphabet=frozenset({BLANK, "1"}),
    transitions={
        ("q0", BLANK): ("q1", "1", "R"),
        ("q1", BLANK): ("halt", "1", "S"),
    },
)


def _db(service, n):
    dom = [f"e{i}" for i in range(n)]
    return Database(
        service.schema.database,
        {"D": [(d,) for d in dom] + [("m0",)]},
        {"min": "m0"},
    )


def _time_halting(cold, tm, n):
    def make():
        service = tm_to_service(tm)
        return service, _db(service, n)

    prop = halting_sentence(tm)
    return cold(make, lambda service, db: verify_ltlfo(
        service, prop, databases=[db], check_restrictions=False,
        max_snapshots=500_000,
    ))


@pytest.mark.parametrize("tm,n,finds_halt", [
    (ONE_STEP, 1, True),
    (ONE_STEP, 2, True),
    (TWO_STEP, 2, True),
], ids=["1step-dom1", "1step-dom2", "2step-dom2"])
@pytest.mark.benchmark(group="E8 halting machines (witness search)")
def test_halting_detection(cold, tm, n, finds_halt):
    result = _time_halting(cold, tm, n)
    assert (not result.holds) == finds_halt


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.benchmark(group="E8 looper (exhaustive HOLDS)")
def test_looper_domain_sweep(cold, n):
    result = _time_halting(cold, LOOPER, n)
    assert result.holds
