"""E2 — Lemma A.6: the PSPACE lower bound, observed.

Error-freeness checking decides QBF, so its cost must grow
exponentially with the number of quantified boolean variables (unless
PSPACE collapses).  Series: error-freeness time on ``qbf_to_service``
encodings of random alternating QBFs vs the variable count, plus a
valid/invalid fixed pair.  Each verdict is asserted against brute-force
QBF evaluation — the benchmark doubles as a correctness check.
Every round verifies a fresh service (the ``cold`` fixture).
"""

import pytest

from repro.reductions import (
    QForall,
    QNot,
    QOr,
    QVar,
    qbf_evaluate,
    qbf_to_service,
    random_qbf,
)
from repro.verifier import verify_error_free


def _time_error_free(cold, formula):
    return cold(
        lambda: (qbf_to_service(formula),),
        lambda service: verify_error_free(service, domain_size=2),
    )


@pytest.mark.parametrize("n_vars", [2, 3, 4])
@pytest.mark.benchmark(group="E2 QBF hardness (variables sweep)")
def test_qbf_variable_sweep(cold, n_vars):
    formula = random_qbf(n_vars, n_clauses=3, rng=n_vars)
    expected = qbf_evaluate(formula)
    result = _time_error_free(cold, formula)
    assert (not result.holds) == expected


@pytest.mark.benchmark(group="E2 QBF hardness (fixed instances)")
def test_qbf_tautology(cold):
    formula = QForall("x", QOr(QVar("x"), QNot(QVar("x"))))
    result = _time_error_free(cold, formula)
    assert not result.holds  # the QBF is true, so the service errs


@pytest.mark.benchmark(group="E2 QBF hardness (fixed instances)")
def test_qbf_contradiction(cold):
    formula = QForall("x", QVar("x"))
    result = _time_error_free(cold, formula)
    assert result.holds
