"""Command-line interface.

Specifications and databases travel as JSON (see :mod:`repro.io`);
properties are written in the temporal text syntaxes of
:mod:`repro.ltl.parser` and :mod:`repro.ctl.parser`.

::

    python -m repro show spec.json
    python -m repro classify spec.json
    python -m repro audit spec.json
    python -m repro lint spec.json
    python -m repro lint spec.json --format sarif -o report.sarif
    python -m repro lint spec.json --fail-on warning
    python -m repro verify spec.json --ltl 'G !ERROR' --db catalog.json
    python -m repro verify spec.json --ctl 'AG EF HP'
    python -m repro verify spec.json --error-free --db catalog.json
    python -m repro verify spec.json --ltl 'G !ERROR' --timeout-s 2 \
        --checkpoint ck.json          # bounded run, resumable
    python -m repro verify spec.json --ltl 'G !ERROR' --resume ck.json
    python -m repro verify spec.json --ltl 'G !ERROR' --workers 4
    python -m repro verify spec.json --ltl 'G !ERROR' --workers 4 \
        --retry 3 --unit-timeout-s 30 \
        --checkpoint ck.json --checkpoint-every 50   # fault-tolerant run
    python -m repro verify spec.json --ltl 'G !ERROR' \
        --faults '{"faults": [{"kind": "error", "db_index": 0}]}'
    python -m repro verify spec.json --ltl 'G !ERROR' \
        --trace trace.jsonl --progress
    python -m repro simulate spec.json --db catalog.json --steps 12 --seed 7

Exit codes (verify): 0 property holds, 1 property violated, 2 usage
error, 3 undecidable instance, 4 budget exceeded under ``--strict``,
5 inconclusive (budget exhausted, non-strict), 6 refused by the lint
pre-flight under ``--lint strict``, 130 interrupted by SIGINT/SIGTERM
(the final checkpoint is flushed first when ``--checkpoint`` is set).  For ``lint``: 0 clean (below the
``--fail-on`` threshold), 1 findings at/above the threshold, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from repro.analysis import audit_service
from repro.ctl.parser import parse_ctl
from repro.io import (
    SpecFormatError,
    database_from_dict,
    load_checkpoint,
    load_service,
    save_checkpoint,
    service_to_text,
)
from repro.faults import FaultPlanError
from repro.lint import LintReport, Severity, SpecLintError, render
from repro.ltl.parser import parse_ltlfo
from repro.obs import JsonlTracer, ProgressTracer, TeeTracer
from repro.service.classify import classify
from repro.service.webservice import SpecificationError
from repro.service.runs import RunContext, random_run
from repro.verifier import (
    GLOBAL_STOP,
    CheckpointFormatError,
    CheckpointMismatchError,
    UndecidableInstanceError,
    VerificationBudgetExceeded,
    decidability_report,
    lint_preflight,
    verify,
    verify_error_free,
)
from repro.verifier.engine import OPTION_TABLE, add_cli_option, fold_budget
from repro.verifier.statics import takes_fast_path

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_UNDECIDABLE = 3
EXIT_BUDGET_STRICT = 4
EXIT_INCONCLUSIVE = 5
EXIT_LINT = 6
#: the conventional 128+SIGINT code: the run was interrupted by a signal
#: (checkpoint flushed first when --checkpoint is set)
EXIT_INTERRUPTED = 130

# repro lint exit codes
EXIT_LINT_CLEAN = 0
EXIT_LINT_FINDINGS = 1


class _CliError(Exception):
    """A usage-level failure: ``main`` prints one line and exits 2."""


def _load_spec(path):
    """Load a spec file, turning malformed payloads into one-line exits.

    A raw ``KeyError`` traceback out of :func:`service_from_dict` used
    to be the CLI's answer to a typo'd spec; every load error is now a
    coded one-liner (exit 2).
    """
    try:
        return load_service(path)
    except SpecFormatError as exc:
        raise _CliError(f"error: {path}: [{exc.code}] {exc}") from exc
    except SpecificationError as exc:
        problems = "; ".join(exc.problems[:3])
        raise _CliError(
            f"error: {path}: invalid specification: {problems} "
            "(run `repro lint` for the full report)"
        ) from exc
    except OSError as exc:
        raise _CliError(f"error: cannot read {path}: {exc}") from exc


def _load_databases(service, paths):
    databases = []
    for path in paths or []:
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise _CliError(
                f"error: {path}: [bad-json] not valid JSON: {exc}"
            ) from exc
        except OSError as exc:
            raise _CliError(f"error: cannot read {path}: {exc}") from exc
        try:
            databases.append(database_from_dict(data, service.schema.database))
        except SpecFormatError as exc:
            raise _CliError(f"error: {path}: [{exc.code}] {exc}") from exc
    return databases or None


def _cmd_show(args) -> int:
    service = _load_spec(args.spec)
    print(service_to_text(service))
    return 0


def _cmd_classify(args) -> int:
    service = _load_spec(args.spec)
    print(classify(service).describe())
    return 0


def _cmd_audit(args) -> int:
    service = _load_spec(args.spec)
    print(audit_service(service))
    return 0


def _emit_lint_report(report: LintReport, args, facts=None) -> None:
    rendered = render(report, args.format, facts=facts)
    if args.output:
        Path(args.output).write_text(rendered + "\n")
        print(f"lint report written to {args.output}", file=sys.stderr)
    else:
        print(rendered)


def _cmd_lint(args) -> int:
    try:
        service = load_service(args.spec)
    except SpecificationError as exc:
        # Structurally invalid spec: render its S0xx diagnostics as the
        # report.  Structural problems are always errors, so any
        # --fail-on threshold is met.
        report = LintReport(
            service_name=Path(args.spec).stem, diagnostics=exc.diagnostics
        )
        _emit_lint_report(report, args)
        return EXIT_LINT_FINDINGS
    except SpecFormatError as exc:
        print(f"error: {args.spec}: [{exc.code}] {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load {args.spec}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    from repro.lint import lint_service

    report = lint_service(service)
    if args.baseline:
        from repro.lint import apply_baseline, load_baseline
        from repro.lint.baseline import BaselineFormatError

        try:
            known = load_baseline(args.baseline)
        except BaselineFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except OSError as exc:
            print(f"error: cannot load baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
        report, suppressed = apply_baseline(report, known)
        if suppressed:
            print(
                f"baseline {args.baseline}: suppressed {suppressed} known "
                f"finding{'s' if suppressed != 1 else ''}",
                file=sys.stderr,
            )
    facts = None
    if args.analyze:
        from repro.analysis.dataflow import static_facts

        facts = static_facts(service)
    _emit_lint_report(report, args, facts=facts)
    threshold = Severity(args.fail_on)
    return (
        EXIT_LINT_FINDINGS if report.at_least(threshold) else EXIT_LINT_CLEAN
    )


def _explain_budget_exceeded(exc: VerificationBudgetExceeded) -> str:
    lines = [
        f"verification stopped: {exc} (limit: {exc.limit or 'budget'}).",
        "The search space of these decision procedures is worst-case "
        "exponential; the configured budget ran out before it was "
        "exhausted.  The work already done is not lost — partial stats:",
    ]
    shown = {k: v for k, v in sorted(exc.stats.items()) if v}
    lines.append("  " + ", ".join(f"{k}={v}" for k, v in shown.items()))
    lines.append(
        "Raise --max-snapshots/--max-databases/--timeout-s, or drop "
        "--strict to get an INCONCLUSIVE verdict with a resumable "
        "checkpoint instead of this error."
    )
    return "\n".join(lines)


def _make_tracer(args):
    """Build the tracer requested by --trace/--progress (None = default)."""
    children = []
    if args.trace:
        children.append(JsonlTracer(args.trace))
    if args.progress:
        children.append(ProgressTracer())
    if not children:
        return None
    return children[0] if len(children) == 1 else TeeTracer(children)


def _install_stop_handlers():
    """Route SIGINT/SIGTERM through the engine's cooperative stop token.

    The handler only sets the token; the supervision loop observes it at
    its next scheduling step, emits ``run.interrupted``, flushes the
    final checkpoint, and winds down with an INCONCLUSIVE result —
    instead of a ``KeyboardInterrupt`` traceback mid-pool.  Returns the
    previous handlers for restoration.
    """

    def handler(signum, frame):
        GLOBAL_STOP.set(signal.Signals(signum).name)

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    return previous


def _restore_stop_handlers(previous) -> None:
    for sig, old in previous.items():
        try:
            signal.signal(sig, old)
        except (ValueError, OSError):  # pragma: no cover
            pass
    GLOBAL_STOP.clear()


def _cmd_verify(args) -> int:
    if args.checkpoint_every is not None and not args.checkpoint:
        raise _CliError(
            "error: --checkpoint-every needs --checkpoint: it names the "
            "file the periodic checkpoint is written to"
        )
    service = _load_spec(args.spec)
    # every flag generated from the shared option table forwards under
    # its row's name; the budget-shaped ones then fold into one governor
    # (always: the CLI's defaults must win over the procedures' own)
    options = {
        name: getattr(args, name)
        for name, spec in OPTION_TABLE.items()
        if spec.cli is not None and getattr(args, name) is not None
    }
    fold_budget(options, always=True)
    databases = _load_databases(service, args.db)
    if databases is not None:
        options["databases"] = databases
    if args.checkpoint:
        # the engine rewrites the checkpoint file every --checkpoint-every
        # (or $REPRO_CHECKPOINT_EVERY) units and on interruption; the CLI
        # still writes the final one below
        options["checkpoint_path"] = args.checkpoint
    tracer = _make_tracer(args)
    if tracer is not None:
        options["tracer"] = tracer
    handlers = _install_stop_handlers()
    try:
        return _run_verify(args, service, options)
    finally:
        _restore_stop_handlers(handlers)
        if tracer is not None:
            tracer.close()
            if args.trace:
                print(f"trace written to {args.trace}", file=sys.stderr)


def _run_verify(args, service, options) -> int:
    checkpoint = None
    if args.resume:
        try:
            checkpoint = load_checkpoint(args.resume)
        except CheckpointFormatError as exc:
            field = f" (field: {exc.field})" if exc.field else ""
            print(f"error: checkpoint {args.resume} is malformed{field}: "
                  f"{exc}", file=sys.stderr)
            return EXIT_USAGE
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot read checkpoint {args.resume}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
        options["resume"] = checkpoint
        if args.domain_size is None and checkpoint.domain_size is not None:
            options["domain_size"] = checkpoint.domain_size
        if args.workers is None and checkpoint.workers is not None:
            options["workers"] = checkpoint.workers

    try:
        if args.error_free:
            if checkpoint is not None and checkpoint.procedure not in (
                    "", "verify_error_free"):
                print(
                    f"error: checkpoint {args.resume} was written by "
                    f"{checkpoint.procedure}, not verify_error_free — its "
                    "skipped databases were never checked for error-freeness",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            # the same static pre-flight verify() runs — before any
            # database is enumerated, with strict-mode refusal (exit 6)
            diagnostics = lint_preflight(service, options)
            result = verify_error_free(service, **options)
            if diagnostics:
                result.diagnostics = list(diagnostics)
        else:
            if args.ltl:
                prop = parse_ltlfo(
                    args.ltl,
                    input_constants=service.schema.input_constants,
                    db_constants=service.schema.database.constants,
                )
            elif args.ctl:
                prop = parse_ctl(args.ctl)
            else:
                print(
                    "error: pass --ltl/--ctl with a property, or --error-free",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            # the same label the verifiers store in their checkpoints
            prop_label = getattr(prop, "name", "") or str(prop)
            if (checkpoint is not None and checkpoint.property_name
                    and checkpoint.property_name != prop_label):
                print(
                    f"error: checkpoint {args.resume} was written for "
                    f"property {checkpoint.property_name!r}, not "
                    f"{prop_label!r} — its skipped databases were only "
                    "checked for that property",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            if args.explain:
                print(decidability_report(service, prop))
                print()
            if args.checkpoint_every is None and takes_fast_path(
                    service, prop, options):
                # Theorem 4.6 enumerates nothing: a plain --checkpoint
                # has no frontier to write there (--checkpoint-every is
                # refused by the procedure)
                options.pop("checkpoint_path", None)
            result = verify(service, prop, force=args.force, **options)
    except CheckpointMismatchError as exc:
        print(f"error: cannot resume from {args.resume}: {exc}",
              file=sys.stderr)
        print(
            "hint: rerun with the original parameters, or start a fresh "
            "run without --resume",
            file=sys.stderr,
        )
        return EXIT_USAGE
    except UndecidableInstanceError as exc:
        print(str(exc), file=sys.stderr)
        print(
            "hint: --force runs the bounded search anyway "
            "(sound for violations found)",
            file=sys.stderr,
        )
        return EXIT_UNDECIDABLE
    except VerificationBudgetExceeded as exc:
        print(_explain_budget_exceeded(exc), file=sys.stderr)
        if args.checkpoint and exc.checkpoint is not None:
            save_checkpoint(exc.checkpoint, args.checkpoint)
            print(f"checkpoint written to {args.checkpoint}", file=sys.stderr)
        return EXIT_BUDGET_STRICT
    except SpecLintError as exc:
        print(str(exc), file=sys.stderr)
        print(
            "hint: `repro lint` prints the full report; --lint warn "
            "proceeds anyway, attaching the findings to the result",
            file=sys.stderr,
        )
        return EXIT_LINT
    except FaultPlanError as exc:
        print(f"error: invalid fault plan: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        # an option out of range, given as a flag or by its REPRO_*
        # variable (e.g. --workers 0, REPRO_RETRY=zap)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TypeError as exc:
        # e.g. checkpointing options on the fully propositional fast
        # path, which has no enumeration cursor to checkpoint
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    print(result.describe(service))
    if result.inconclusive:
        if args.checkpoint and result.checkpoint is not None:
            save_checkpoint(result.checkpoint, args.checkpoint)
            print(f"checkpoint written to {args.checkpoint}")
            print(f"resume with: --resume {args.checkpoint}")
        if result.stats.get("interrupted_by") == "interrupted":
            return EXIT_INTERRUPTED
        return EXIT_INCONCLUSIVE
    return EXIT_HOLDS if result.holds else EXIT_VIOLATED


def _cmd_simulate(args) -> int:
    service = _load_spec(args.spec)
    databases = _load_databases(service, args.db)
    if not databases:
        print("error: simulate needs --db", file=sys.stderr)
        return 2
    sigma = dict(pair.split("=", 1) for pair in args.constant or [])
    ctx = RunContext(service, databases[0], sigma=sigma)
    run = random_run(ctx, args.steps, rng=args.seed)
    print(run.describe(service, limit=args.steps))
    return 0


def _cmd_serve(args) -> int:
    # imported here so plain CLI verification never pays for the server
    # stack (and vice versa: the daemon has no argparse dependency)
    from repro.io import SpecFormatError as _SFE
    from repro.server import create_server, serve

    server = create_server(
        args.host, args.port,
        job_workers=args.job_workers,
        spool_dir=args.spool_dir,
        quiet=args.quiet,
    )
    spec_files: list[Path] = []
    for raw in args.specs:
        p = Path(raw)
        if p.is_dir():
            spec_files.extend(sorted(p.glob("*.json")))
        else:
            spec_files.append(p)
    for path in spec_files:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            entry, _created = server.registry.register(data)
        except json.JSONDecodeError as exc:
            raise _CliError(
                f"error: {path}: [bad-json] not valid JSON: {exc}"
            ) from exc
        except _SFE as exc:
            raise _CliError(f"error: {path}: [{exc.code}] {exc}") from exc
        except OSError as exc:
            raise _CliError(f"error: cannot read {path}: {exc}") from exc
        print(f"registered {entry.spec_id}  {entry.summary()['name']} "
              f"({entry.n_plans} plans)  [{path}]", file=sys.stderr)
    host, port = server.server_address[:2]
    print(f"repro serve: listening on http://{host}:{port} "
          f"({len(server.registry)} specs registered, "
          f"{args.job_workers} job workers)", file=sys.stderr)
    serve(server)
    return EXIT_HOLDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Verifier for data-driven Web services (PODS 2004).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="pretty-print a specification")
    show.add_argument("spec")
    show.set_defaults(func=_cmd_show)

    cls = sub.add_parser("classify", help="decidable-class report")
    cls.add_argument("spec")
    cls.set_defaults(func=_cmd_classify)

    audit = sub.add_parser("audit", help="static navigation/protocol audit")
    audit.add_argument("spec")
    audit.set_defaults(func=_cmd_audit)

    lint = sub.add_parser(
        "lint", help="static analysis with coded, located diagnostics"
    )
    lint.add_argument("spec")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text",
                      help="report format (default: text)")
    lint.add_argument("--fail-on", choices=("error", "warning", "note"),
                      default="error", dest="fail_on",
                      help="exit 1 when findings at or above this severity "
                           "exist; note < warning < error (default: error)")
    lint.add_argument("--output", "-o", metavar="FILE",
                      help="write the report to FILE instead of stdout")
    lint.add_argument("--analyze", action="store_true",
                      help="include the whole-service dataflow facts "
                           "(reachability, input-constant propagation, "
                           "relation liveness, dead rules) in the report")
    lint.add_argument("--baseline", metavar="FILE",
                      help="suppress findings whose fingerprints appear in "
                           "FILE (a baseline, lint JSON, or SARIF report)")
    lint.set_defaults(func=_cmd_lint)

    ver = sub.add_parser("verify", help="verify a temporal property")
    ver.add_argument("spec")
    ver.add_argument("--ltl", help="LTL-FO sentence (text syntax)")
    ver.add_argument("--ctl", help="CTL/CTL* formula (text syntax)")
    ver.add_argument("--error-free", action="store_true",
                     help="check error-freeness instead of a property")
    ver.add_argument("--db", action="append",
                     help="database JSON (repeatable); default: enumerate")
    ver.add_argument("--force", action="store_true",
                     help="run the bounded search on undecidable instances")
    ver.add_argument("--explain", action="store_true",
                     help="print the decidability report first")
    ver.add_argument("--resume", metavar="CHECKPOINT",
                     help="resume from a checkpoint JSON written by a "
                          "previous interrupted run")
    ver.add_argument("--checkpoint", metavar="PATH",
                     help="where to write the resume checkpoint when the "
                          "budget runs out or the run is interrupted")
    ver.add_argument("--trace", metavar="FILE",
                     help="stream structured trace events (JSONL) to FILE; "
                          "see the repro.obs event taxonomy")
    ver.add_argument("--progress", action="store_true",
                     help="print coarse progress events to stderr while "
                          "the verification runs")
    # the option-table flags are generated from repro.verifier.engine's
    # shared OPTION_TABLE, so the CLI, the server wire schema and the
    # entry-point signatures can never drift apart
    for name, spec in OPTION_TABLE.items():
        if spec.cli is not None:
            add_cli_option(ver, name)
    ver.set_defaults(func=_cmd_verify)

    sim = sub.add_parser("simulate", help="random run over a database")
    sim.add_argument("spec")
    sim.add_argument("--db", action="append", required=False)
    sim.add_argument("--steps", type=int, default=10)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--constant", action="append",
                     help="input constant value, e.g. name=alice (repeatable)")
    sim.set_defaults(func=_cmd_simulate)

    srv = sub.add_parser(
        "serve",
        help="run the verification daemon (HTTP, compiled-spec registry)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8080,
                     help="TCP port (0 picks a free one)")
    srv.add_argument("--specs", action="append", default=[],
                     help="spec file or directory of *.json to preregister "
                          "(repeatable)")
    srv.add_argument("--job-workers", type=int, default=2,
                     help="verification worker threads (default 2)")
    srv.add_argument("--spool-dir", default=None,
                     help="directory for per-job event/checkpoint files "
                          "(default: a fresh temp dir)")
    srv.add_argument("--quiet", action="store_true",
                     help="suppress per-request access logging")
    srv.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); exit quietly the
        # way POSIX filters do instead of dumping a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
