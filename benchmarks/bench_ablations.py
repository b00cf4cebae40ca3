"""E10 — design-choice ablations called out in DESIGN.md.

- **isomorphism pruning**: the small-model enumeration prunes databases
  isomorphic over anonymous elements; off, the sweep repeats ~k! of the
  work for k anonymous elements;
- **sigma genericity**: restricting input-constant interpretations to
  one session (Remark 3.6) vs the exhaustive generic enumeration;
- **counterexample confirmation**: the (cheap) re-check of every lasso
  against the reference semantics.

Every round verifies a fresh service (the ``cold`` fixture).
"""

import pytest

from repro.fol import Atom, Not
from repro.ltl import G, LTLFOSentence
from repro.verifier import verify_error_free, verify_ltlfo

from workloads import registration_database, registration_service


@pytest.mark.parametrize("up_to_iso", [True, False],
                         ids=["iso-pruned", "no-pruning"])
@pytest.mark.benchmark(group="E10 isomorphism pruning (domain sweep)")
def test_iso_pruning(cold, up_to_iso):
    prop = LTLFOSentence((), G(Not(Atom("ERROR", ()))))
    result = cold(
        lambda: (registration_service(1),),
        lambda service: verify_ltlfo(
            service, prop, domain_size=3, up_to_iso=up_to_iso
        ),
    )
    assert result.holds


@pytest.mark.parametrize("scoped", [True, False],
                         ids=["session-sigma", "generic-sigmas"])
@pytest.mark.benchmark(group="E10 sigma scoping (core error-freeness)")
def test_sigma_scoping(cold, scoped):
    from repro.demo import core_database, core_service

    def make():
        service = core_service()
        return service, core_database(service)

    sigmas = [{"name": "alice", "password": "pw1"}] if scoped else None
    result = cold(make, lambda service, db: verify_error_free(
        service, databases=[db], sigmas=sigmas
    ))
    assert result.holds


@pytest.mark.parametrize("confirm", [True, False],
                         ids=["confirmed", "unconfirmed"])
@pytest.mark.benchmark(group="E10 counterexample confirmation")
def test_confirmation_cost(cold, confirm):
    from repro.fol import Var

    def make():
        service = registration_service(1)
        return service, registration_database(service, 2)

    prop = LTLFOSentence(
        ("x0",),
        G(Not(Atom("stored", (Var("x0"),)))),
        name="nothing stored (false)",
    )
    result = cold(make, lambda service, db: verify_ltlfo(
        service, prop, databases=[db], confirm_counterexamples=confirm
    ))
    assert not result.holds


@pytest.mark.parametrize("extra_untils", [0, 1])
@pytest.mark.benchmark(group="E10 CTL satisfiability tableau (Theorem 4.9 target)")
def test_ctl_satisfiability(benchmark, extra_untils):
    from repro.ctl import AG, AU, CAtom, CImplies, EF, ctl_satisfiable

    f = AG(CImplies(CAtom("p"), EF(CAtom("q"))))
    for i in range(extra_untils):
        f = f & AU(CAtom("p"), CAtom("q"))
    # one round: the tableau is exponential in the closure by design
    result = benchmark.pedantic(
        lambda: ctl_satisfiable(f, max_closure=40), rounds=1, iterations=1
    )
    assert result
