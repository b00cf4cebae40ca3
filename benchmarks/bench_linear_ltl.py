"""E1 — Theorem 3.5: input-bounded LTL-FO verification scaling.

Paper claim: verification is PSPACE-complete for *fixed* schema arity
and jumps to EXPSPACE when the arity is unbounded.  Observable shape:
time grows polynomially-moderately with the database domain at fixed
arity, and much faster when the arity grows (the state space is
``2^(domain^arity)``-ish).

Series: verification time of the stored-implies-recorded property on
the registration workload, vs domain size (arity fixed at 1) and vs
arity (domain fixed at 2).  Every round verifies a fresh service (the ``cold`` fixture).
"""

import pytest

from repro.fol import Atom, Not, Var
from repro.ltl import B, G, LTLFOSentence
from repro.verifier import verify_ltlfo

from workloads import registration_database, registration_service


def _property(arity: int) -> LTLFOSentence:
    variables = tuple(f"x{i}" for i in range(arity))
    terms = tuple(Var(v) for v in variables)
    return LTLFOSentence(
        variables,
        B(Atom("record", terms), Not(Atom("stored", terms))),
        name="stored only after recorded",
    )


def _service_and_database(arity: int, domain_size: int) -> tuple:
    service = registration_service(arity)
    return service, registration_database(service, domain_size)


@pytest.mark.parametrize("domain_size", [1, 2, 3])
@pytest.mark.benchmark(group="E1 domain sweep (arity 1)")
def test_domain_sweep(cold, domain_size):
    prop = _property(1)
    result = cold(
        lambda: _service_and_database(1, domain_size),
        lambda service, db: verify_ltlfo(service, prop, databases=[db]),
    )
    assert result.holds


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.benchmark(group="E1 arity sweep (domain 2)")
def test_arity_sweep(cold, arity):
    prop = _property(arity)
    result = cold(
        lambda: _service_and_database(arity, 2),
        lambda service, db: verify_ltlfo(service, prop, databases=[db]),
    )
    assert result.holds


@pytest.mark.parametrize("domain_size", [1, 2])
@pytest.mark.benchmark(group="E1 violated property (counterexample search)")
def test_violation_search(cold, domain_size):
    # false property: nothing is ever stored
    prop = LTLFOSentence(
        ("x0",),
        G(Not(Atom("stored", (Var("x0"),)))),
        name="nothing stored (false)",
    )
    result = cold(
        lambda: _service_and_database(1, domain_size),
        lambda service, db: verify_ltlfo(service, prop, databases=[db]),
    )
    assert not result.holds
