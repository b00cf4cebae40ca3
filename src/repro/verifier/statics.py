"""The verifier's front door.

:func:`verify` takes a Web service and a property — an
:class:`~repro.ltl.ltlfo.LTLFOSentence` or a CTL(*)
:class:`~repro.ctl.syntax.StateFormula` — classifies the pair against
the paper's decidability map, and dispatches to the right decision
procedure.  Instances outside every decidable class are refused with an
:class:`~repro.verifier.results.UndecidableInstanceError` citing the
relevant undecidability theorem; pass ``force=True`` to run the bounded
search anyway (sound for violations found, no completeness claim).
"""

from __future__ import annotations

from typing import Any

from repro.ctl.syntax import StateFormula
from repro.ltl.ltlfo import LTLFOSentence, check_ltlfo_input_bounded
from repro.service.classify import ServiceClass, classify
from repro.service.webservice import WebService
from repro.verifier.branching import verify_ctl, verify_fully_propositional
from repro.verifier.engine import resolve_option
from repro.verifier.linear import verify_ltlfo
from repro.verifier.results import UndecidableInstanceError, VerificationResult
from repro.verifier.search import verify_input_driven_search

#: accepted values of verify()'s ``lint=`` option
_LINT_MODES = ("off", "warn", "strict")


def verify(
    service: WebService,
    prop: "LTLFOSentence | StateFormula",
    force: bool = False,
    **options: Any,
) -> VerificationResult:
    """Verify a temporal property of a Web service.

    Dispatch:

    - LTL-FO sentence + input-bounded service → Theorem 3.5 procedure;
    - CTL(*) formula + fully propositional service → Theorem 4.6;
    - CTL(*) formula + propositional service → Theorem 4.4;
    - CTL(*) formula + input-driven-search service → Theorem 4.9;
    - anything else → refusal citing Theorem 3.7/3.8/3.9/4.2, unless
      ``force=True``.

    ``options`` are forwarded to the underlying procedure
    (``databases=``, ``domain_size=``, ``budget=``, ``timeout_s=``,
    ``strict=``, ``resume=``, ``workers=``, ``tracer=``, ...).  Every
    procedure shares the
    resource-governor semantics of :mod:`repro.verifier.budget`: with
    the default non-strict settings a blown budget never raises — it
    returns a ``Verdict.INCONCLUSIVE`` result with partial stats, a
    coverage summary, and (where the enumeration has a cursor) a
    resumable checkpoint.

    An option the dispatched procedure does not accept raises
    ``TypeError`` naming it — nothing is silently dropped.  For a fully
    propositional service the default route is the single-structure
    Theorem 4.6 procedure; passing ``databases=`` or ``domain_size=``
    explicitly requests the Theorem 4.4 enumeration instead, and the
    returned result's ``procedure`` field records which one actually ran.

    ``lint=`` controls the static pre-flight (:mod:`repro.lint`), which
    runs *before* any decision procedure — in particular before any
    database is enumerated:

    - ``"warn"`` (default) — run the linter, emit one ``lint.finding``
      trace event per diagnostic, attach the findings to
      ``result.diagnostics``, and proceed;
    - ``"strict"`` — additionally refuse with
      :class:`~repro.lint.diagnostics.SpecLintError` when the linter
      finds error-severity diagnostics (a statically empty input rule,
      a protocol violation that always fires, ...) instead of spending
      the verification budget on a broken spec;
    - ``"off"`` — skip the pre-flight entirely.
    """
    diagnostics = lint_preflight(service, options)
    result = _dispatch(service, prop, force, options)
    if diagnostics:
        result.diagnostics = list(diagnostics)
    return result


def lint_preflight(service: WebService, options: dict[str, Any]) -> list:
    """Pop ``lint=`` from ``options`` and run the static pre-flight.

    Shared by :func:`verify` and the CLI's ``--error-free`` path (which
    calls :func:`~repro.verifier.errors.verify_error_free` directly):
    the pre-flight runs before *any* decision procedure, whichever door
    the caller came through.  Returns the diagnostics to attach to the
    result; raises :class:`~repro.lint.diagnostics.SpecLintError` under
    ``lint="strict"`` when error-severity findings exist.
    """
    lint_mode = options.pop("lint", "warn")
    if lint_mode not in _LINT_MODES:
        raise ValueError(
            f"lint={lint_mode!r} is not one of {', '.join(_LINT_MODES)}"
        )
    diagnostics = []
    if lint_mode != "off":
        from repro.lint import SpecLintError, lint_service

        report = lint_service(service)
        diagnostics = report.diagnostics
        tracer = resolve_option("tracer", options.get("tracer"))
        if tracer.active:
            for d in diagnostics:
                tracer.emit(
                    "lint.finding",
                    code=d.code,
                    severity=d.severity.value,
                    location=d.location,
                    message=d.message,
                )
            _emit_analysis_facts(tracer, service)
        if lint_mode == "strict" and report.has_errors:
            raise SpecLintError(report)
    return diagnostics


def _emit_analysis_facts(tracer, service: WebService) -> None:
    """Emit one ``analysis.fact`` event per whole-service dataflow fact
    family (see :mod:`repro.analysis.dataflow`), so traced verifications
    record what the fixpoint concluded about the instance they ran on."""
    from repro.analysis.dataflow import static_facts

    facts = static_facts(service)
    tracer.emit(
        "analysis.fact",
        fact="reachability",
        reachable=len(facts.reachable),
        syntactic=len(facts.syntactic_reachable),
        pages=len(facts.pages),
        unreachable=sorted(facts.dead_pages),
    )
    tracer.emit(
        "analysis.fact",
        fact="input_constants",
        always_error_pages=sorted(facts.always_error),
        unset_reads=len(facts.unset_reads),
    )
    tracer.emit(
        "analysis.fact",
        fact="relation_liveness",
        empty_state_relations=sorted(facts.empty_state_relations),
        write_only=sorted(facts.write_only),
    )
    tracer.emit(
        "analysis.fact",
        fact="rule_firability",
        dead_rules=facts.dead_rule_count(),
        iterations=facts.iterations,
    )


def takes_fast_path(
    service: WebService,
    prop: "LTLFOSentence | StateFormula",
    options: dict[str, Any],
) -> bool:
    """Whether :func:`verify` sends ``prop`` with ``options`` to the
    Theorem 4.6 procedure, which enumerates no database and so has no
    frontier to checkpoint: a CTL(*) formula on a fully propositional
    service, with neither ``databases=`` nor ``domain_size=``."""
    return (
        isinstance(prop, StateFormula)
        and "databases" not in options and "domain_size" not in options
        and classify(service).is_in(ServiceClass.FULLY_PROPOSITIONAL)
    )


def _dispatch(
    service: WebService,
    prop: "LTLFOSentence | StateFormula",
    force: bool,
    options: dict[str, Any],
) -> VerificationResult:
    if isinstance(prop, LTLFOSentence):
        return verify_ltlfo(
            service, prop, check_restrictions=not force, **options
        )
    if isinstance(prop, StateFormula):
        if takes_fast_path(service, prop, options):
            # Options the Theorem 4.6 fast path does not accept raise a
            # coded RunConfigError inside the procedure (with the
            # enumeration hint appended) — nothing is silently dropped.
            return verify_fully_propositional(
                service, prop, check_restrictions=not force, **options
            )
        report = classify(service)
        if report.is_in(ServiceClass.PROPOSITIONAL):
            return verify_ctl(
                service, prop, check_restrictions=not force, **options
            )
        if report.is_in(ServiceClass.INPUT_DRIVEN_SEARCH):
            return verify_input_driven_search(
                service, prop, check_restrictions=not force, **options
            )
        if force:
            return verify_ctl(service, prop, check_restrictions=False, **options)
        raise UndecidableInstanceError(
            report.why_not(ServiceClass.PROPOSITIONAL)
            + report.why_not(ServiceClass.INPUT_DRIVEN_SEARCH),
            "Theorem 4.2 (input-bounded CTL-FO verification is undecidable)",
        )
    raise TypeError(
        f"unsupported property type {type(prop).__name__}: pass an "
        "LTLFOSentence or a CTL(*) StateFormula"
    )


def decidability_report(
    service: WebService,
    prop: "LTLFOSentence | StateFormula | None" = None,
) -> str:
    """Human-readable report of which theorems apply to the instance."""
    report = classify(service)
    lines = [report.describe()]
    if isinstance(prop, LTLFOSentence):
        ib = check_ltlfo_input_bounded(prop, service.schema, service.page_names)
        mark = "yes" if ib.ok else "no "
        lines.append("property classification:")
        lines.append(f"  [{mark}] input-bounded LTL-FO sentence")
        for reason in ib.reasons[:4]:
            lines.append(f"        - {reason}")
        if ib.ok and report.is_in(ServiceClass.INPUT_BOUNDED):
            lines.append(
                "=> decidable: Theorem 3.5 (PSPACE-complete for fixed arity)"
            )
        else:
            lines.append("=> outside Theorem 3.5; undecidable in general (§3)")
    elif isinstance(prop, StateFormula):
        from repro.ctl.syntax import is_ctl

        fragment = "CTL" if is_ctl(prop) else "CTL*"
        lines.append(f"property: a {fragment} state formula")
        if report.is_in(ServiceClass.FULLY_PROPOSITIONAL):
            lines.append("=> decidable: Theorem 4.6 (PSPACE)")
        elif report.is_in(ServiceClass.PROPOSITIONAL):
            bound = "co-NEXPTIME" if fragment == "CTL" else "EXPSPACE"
            lines.append(f"=> decidable: Theorem 4.4 ({bound})")
        elif report.is_in(ServiceClass.INPUT_DRIVEN_SEARCH):
            bound = "EXPTIME" if fragment == "CTL" else "2-EXPTIME"
            lines.append(f"=> decidable: Theorem 4.9 ({bound})")
        else:
            lines.append(
                "=> undecidable in general: Theorem 4.2 (even one path "
                "quantifier alternation encodes ∃*∀* FO validity)"
            )
    return "\n".join(lines)
