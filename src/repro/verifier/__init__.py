"""The verifier — decision procedures for the paper's theorems.

- :mod:`repro.verifier.engine` — the run engine behind every entry
  point: the shared option table (one source of truth for kwargs, CLI
  flags, server wire options and ``REPRO_*`` variables), the frozen
  :class:`~repro.verifier.engine.RunConfig` with coded validation
  errors, the :class:`~repro.verifier.engine.Procedure` declaration
  each entry point makes, and the one driver pipeline
  (:func:`~repro.verifier.engine.run_procedure`);
- :mod:`repro.verifier.linear` — input-bounded LTL-FO verification
  (Theorem 3.5) by small-model database enumeration + Büchi products;
- :mod:`repro.verifier.errors` — error-freeness (Theorem 3.5(i)), both
  by direct error-page reachability and via the Lemma A.5 reduction;
- :mod:`repro.verifier.branching` — CTL/CTL* for propositional services
  (Theorem 4.4, Corollary 4.5) and fully propositional services
  (Theorem 4.6), by one Kripke procedure that also serves Theorem 4.9;
- :mod:`repro.verifier.search` — the entry point for Web services with
  input-driven search (Theorem 4.9);
- :mod:`repro.verifier.statics` — the front door :func:`verify`, which
  classifies the (service, property) pair against the paper's
  decidability map and dispatches or refuses with the relevant theorem;
- :mod:`repro.verifier.parallel` — the work-unit execution layer: a
  database and one or more of its sigmas per unit, run in-process or on a
  ``ProcessPoolExecutor`` (``workers=N``) with deterministic verdicts,
  early cancellation on the first confirmed counterexample, and merged
  frontier checkpoints;
- :mod:`repro.verifier.budget` — the resource governor: snapshot,
  database, valuation and Kripke-state caps plus a wall-clock deadline,
  graceful degradation to ``Verdict.INCONCLUSIVE``, and resumable
  checkpoints;
- :mod:`repro.verifier.results` — verdicts and counterexamples.

Fault tolerance: the parallel layer supervises its workers — failed
units are retried with exponential backoff, crashed pools are rebuilt,
hung units are timed out, and poison units are quarantined (the verdict
degrades to INCONCLUSIVE rather than the run aborting).  Crash-safe
periodic checkpoints survive a kill at any instant, and deterministic
fault injection for testing all of it lives in :mod:`repro.faults`.
"""

from repro.verifier.results import (
    Verdict,
    VerificationResult,
    UndecidableInstanceError,
    VerificationBudgetExceeded,
)
from repro.verifier.budget import (
    Budget,
    Checkpoint,
    CheckpointFormatError,
    CheckpointMismatchError,
    coverage_summary,
)
from repro.verifier.engine import (
    OPTION_TABLE,
    Procedure,
    RunConfig,
    RunConfigError,
    accepted_options,
    default_domain_size,
    enumerate_sigmas,
    fresh_value_pool,
    run_procedure,
)
from repro.verifier.linear import verify_ltlfo
from repro.verifier.parallel import (
    GLOBAL_STOP,
    RunInterrupted,
    StopToken,
    Supervisor,
)
from repro.verifier.errors import (
    verify_error_free,
    error_page_reachable,
    errorfree_reduction,
)
from repro.verifier.branching import (
    build_snapshot_kripke,
    verify_ctl,
    verify_fully_propositional,
)
from repro.verifier.search import verify_input_driven_search
from repro.verifier.statics import verify, decidability_report, lint_preflight

__all__ = [
    "Verdict",
    "VerificationResult",
    "UndecidableInstanceError",
    "VerificationBudgetExceeded",
    "Budget",
    "Checkpoint",
    "CheckpointFormatError",
    "CheckpointMismatchError",
    "coverage_summary",
    "RunInterrupted",
    "StopToken",
    "GLOBAL_STOP",
    "Supervisor",
    "OPTION_TABLE",
    "Procedure",
    "RunConfig",
    "RunConfigError",
    "accepted_options",
    "run_procedure",
    "verify_ltlfo",
    "default_domain_size",
    "enumerate_sigmas",
    "fresh_value_pool",
    "verify_error_free",
    "error_page_reachable",
    "errorfree_reduction",
    "build_snapshot_kripke",
    "verify_ctl",
    "verify_fully_propositional",
    "verify_input_driven_search",
    "verify",
    "lint_preflight",
    "decidability_report",
]
