"""Verification of Web services with input-driven search (Theorem 4.9).

Definition 4.7 services model staged refinement search: a single unary
input whose next options are the ``R_I``-successors of the previous
input, filtered by a quantifier-free condition over the database and the
propositional states.  The paper decides CTL(*) properties by reducing
to CTL(*) satisfiability; operationally, the input type abstraction in
that proof means small search graphs suffice, so the procedure enumerates
databases (search graph + unary type relations + ``i0``) over a bounded
domain and model checks each configuration Kripke structure — the same
small-model schema as the rest of the verifier, specialised with the
IDS shape check.  Each database is one work unit of
:mod:`repro.verifier.parallel` (the same unit as :func:`verify_ctl`),
so ``workers=N`` parallelises the enumeration deterministically.

The per-database check is the one :func:`verify_ctl` runs, so the
Theorem 4.9 procedure is a row of
:data:`repro.verifier.branching._KRIPKE_ROWS`: this module holds only
the entry point.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.ctl.syntax import StateFormula
from repro.obs import Tracer
from repro.schema.database import Database
from repro.service.webservice import WebService
from repro.verifier.branching import _KripkeProcedure
from repro.verifier.budget import Budget, Checkpoint
from repro.verifier.engine import (
    DEFAULT_KRIPKE_BUDGET,
    RunConfig,
    run_procedure,
)
from repro.verifier.results import VerificationResult


def verify_input_driven_search(
    service: WebService,
    formula: StateFormula,
    databases: Iterable[Database] | None = None,
    domain_size: int | None = None,
    check_restrictions: bool = True,
    max_states: int = DEFAULT_KRIPKE_BUDGET,
    budget: Budget | None = None,
    timeout_s: float | None = None,
    strict: bool = False,
    resume: Checkpoint | None = None,
    workers: int | None = None,
    tracer: Tracer | None = None,
    retry: int | None = None,
    unit_timeout_s: float | None = None,
    faults: Any = None,
    checkpoint_path: str | None = None,
    checkpoint_every: int | None = None,
    **unsupported: Any,
) -> VerificationResult:
    """Decide ``W ⊨ φ`` for input-driven-search services (Theorem 4.9).

    ``databases`` would normally be the concrete search graphs of
    interest (e.g. the Figure 1 hierarchy); the default enumeration over
    ``domain_size`` anonymous nodes is exhaustive but grows quickly with
    the number of unary relations.  A blown budget returns
    ``Verdict.INCONCLUSIVE`` with a resumable database cursor unless
    ``strict=True`` (see :mod:`repro.verifier.budget`); ``workers``
    fans the databases out to a process pool with deterministic
    verdicts (see :mod:`repro.verifier.parallel`); ``tracer`` receives
    the structured event stream (see :mod:`repro.obs`).
    ``retry``/``unit_timeout_s``/``faults``/``checkpoint_path``/
    ``checkpoint_every`` configure worker supervision, fault injection
    and crash-safe periodic checkpoints — see
    :func:`repro.verifier.linear.verify_ltlfo` for the semantics.
    """
    cfg = RunConfig.build("verify_input_driven_search", dict(
        databases=databases,
        domain_size=domain_size,
        check_restrictions=check_restrictions,
        max_states=max_states,
        budget=budget,
        timeout_s=timeout_s,
        strict=strict,
        resume=resume,
        workers=workers,
        tracer=tracer,
        retry=retry,
        unit_timeout_s=unit_timeout_s,
        faults=faults,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
    ), unsupported)
    return run_procedure(
        _KripkeProcedure("verify_input_driven_search", service, formula, cfg)
    )
