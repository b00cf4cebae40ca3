"""The verification daemon: stdlib HTTP front-end over the registry.

Zero-dependency by design — :class:`http.server.ThreadingHTTPServer`
carries the traffic, the :mod:`repro.server.registry` carries the
amortization, and the :mod:`repro.server.jobs` queue keeps exponential
verification work off the HTTP threads.  Endpoints (all bodies JSON):

====== ======================  ==============================================
POST   ``/specs``              register a spec (strict parse, compile once)
GET    ``/specs``              list registered specs + registry counters
GET    ``/specs/<id>``         one registered spec's summary/counters
POST   ``/verify``             verify a property (sync by default; job-backed)
POST   ``/lint``               static analysis report
POST   ``/classify``           decidable-class report
POST   ``/simulate``           one random run over a database
GET    ``/jobs/<id>``          job status + result
GET    ``/jobs/<id>/events``   the job's trace events as NDJSON
GET    ``/healthz``            liveness + registry/job counters
====== ======================  ==============================================

Request payloads name their spec either as ``{"spec_id": ...}``
(registered: the parsed service, compiled plans and Büchi automata are
reused — the fast path) or ``{"spec": {...}}`` (inline, parsed strictly
per request).  ``POST /verify`` accepts ``{"ltl": "..."}``,
``{"ctl": "..."}`` or ``{"error_free": true}``, optional ``databases``
(wire-format database objects), ``force``, and an ``options`` object
(``domain_size``, ``max_snapshots``, ``max_databases``, ``timeout_s``,
``strict``, ``workers``, ``sigma_block``, ``retry``,
``unit_timeout_s``, ``checkpoint_every``, ``lint``, ...) mirroring the
CLI flags; unknown options are a 400, never silently dropped.  With
``"wait": false`` the response is an immediate 202 with the job id.

Every handled failure produces the structured error body of
:mod:`repro.server.wire` — a malformed payload is a 400 with a
``SpecFormatError`` code and key path, never a traceback.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.ctl.parser import parse_ctl
from repro.io.json_format import database_from_dict
from repro.lint import LintReport, render
from repro.ltl.parser import parse_ltlfo
from repro.verifier.engine import budget_options, fold_budget, wire_options
from repro.obs import Tracer
from repro.server.jobs import Job, JobManager
from repro.server.registry import SpecRegistry
from repro.server.wire import WireError, result_to_dict, wire_error_from
from repro.service.classify import classify
from repro.service.runs import RunContext, random_run
from repro.service.webservice import SpecificationError, WebService
from repro.verifier import verify, verify_error_free
from repro.verifier.statics import lint_preflight

__all__ = ["VerifierHTTPHandler", "create_server", "serve",
           "server_in_thread"]

#: refuse request bodies larger than this (64 MiB) with a 413
MAX_BODY_BYTES = 64 * 1024 * 1024

#: verify-request options forwarded to the procedures, with the JSON
#: types each accepts.  Generated from the run engine's shared option
#: table — the same table the CLI flags come from, so the two front
#: doors can never drift apart; anything else is a 400.
_VERIFY_OPTIONS: dict[str, tuple[type, ...]] = wire_options()

#: options that feed the :class:`Budget` governor, not the procedures
_BUDGET_OPTIONS = budget_options()


def _fold_budget(options: dict[str, Any]) -> dict[str, Any]:
    """Replace the budget-shaped options with one ``budget=`` governor,
    exactly as the CLI's ``--max-*``/``--timeout-s``/``--strict`` flags
    do (the shared :func:`repro.verifier.engine.fold_budget`, built only
    when the payload actually named a budget option).  The remaining
    keys forward to the dispatched procedure, which raises the coded
    ``RunConfigError`` (→ 400 ``bad-option``) for any it does not
    accept — nothing is silently dropped."""
    return fold_budget(options, always=False)

#: top-level keys of a /verify payload
_VERIFY_KEYS = frozenset({
    "spec_id", "spec", "ltl", "ctl", "error_free", "databases", "force",
    "options", "wait", "wait_timeout_s",
})


def _check_options(payload: dict) -> dict[str, Any]:
    raw = payload.get("options", {})
    if not isinstance(raw, dict):
        raise WireError(400, "not-an-object", "options must be a JSON object",
                        path="options")
    options: dict[str, Any] = {}
    for key, value in raw.items():
        accepted = _VERIFY_OPTIONS.get(key)
        if accepted is None:
            raise WireError(
                400, "bad-option",
                f"unknown option {key!r} (accepted: "
                f"{', '.join(sorted(_VERIFY_OPTIONS))})",
                path=f"options.{key}",
            )
        if not isinstance(value, accepted) or (
            isinstance(value, bool) and bool not in accepted
        ):
            raise WireError(
                400, "bad-type",
                f"option {key!r} expects "
                f"{'/'.join(t.__name__ for t in accepted)}, "
                f"got {type(value).__name__}",
                path=f"options.{key}",
            )
        options[key] = value
    return options


def _parse_property(payload: dict, service: WebService):
    """The (kind, parsed property) of a /verify payload; exactly one of
    ``ltl``/``ctl``/``error_free`` must be given."""
    given = [k for k in ("ltl", "ctl", "error_free") if payload.get(k)]
    if len(given) != 1:
        raise WireError(
            400, "missing-property",
            "pass exactly one of ltl (LTL-FO text), ctl (CTL/CTL* text) "
            f"or error_free (true); got {given or 'none'}",
        )
    kind = given[0]
    if kind == "error_free":
        return kind, None
    text = payload[kind]
    if not isinstance(text, str):
        raise WireError(400, "bad-type", f"{kind} must be a string",
                        path=kind)
    if kind == "ltl":
        return kind, parse_ltlfo(
            text,
            input_constants=service.schema.input_constants,
            db_constants=service.schema.database.constants,
        )
    return kind, parse_ctl(text)


def _parse_databases(payload: dict, service: WebService):
    raw = payload.get("databases")
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise WireError(400, "bad-type", "databases must be a list",
                        path="databases")
    out = []
    for i, data in enumerate(raw):
        if not isinstance(data, dict):
            raise WireError(400, "not-an-object",
                            "each database must be a JSON object",
                            path=f"databases[{i}]")
        out.append(database_from_dict(data, service.schema.database))
    return out


class VerifierHTTPHandler(BaseHTTPRequestHandler):
    """Routes requests to the registry/job layer; all responses JSON."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------

    @property
    def registry(self) -> SpecRegistry:
        return self.server.registry  # type: ignore[attr-defined]

    @property
    def jobs(self) -> JobManager:
        return self.server.jobs  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        if getattr(self.server, "quiet", False):
            return
        super().log_message(fmt, *args)

    def _send_json(self, status: int, body: dict) -> None:
        data = json.dumps(body, ensure_ascii=False,
                          default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _send_error_body(self, err: WireError) -> None:
        self._send_json(err.status, err.body())

    def _read_payload(self) -> dict:
        length = self.headers.get("Content-Length")
        if length is None:
            raise WireError(411, "length-required",
                            "POST bodies need a Content-Length header")
        try:
            n = int(length)
        except ValueError:
            raise WireError(400, "bad-request",
                            "unparseable Content-Length") from None
        if n > MAX_BODY_BYTES:
            raise WireError(413, "payload-too-large",
                            f"body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(n)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(
                400, "bad-json", f"body is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise WireError(400, "not-an-object",
                            "body must be a JSON object")
        return payload

    def _dispatch(self, routes) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            for pattern, handler in routes.items():
                parts = path.strip("/").split("/")
                want = pattern.strip("/").split("/")
                if len(parts) != len(want):
                    continue
                args = []
                for got, expected in zip(parts, want):
                    if expected == "*":
                        args.append(got)
                    elif got != expected:
                        break
                else:
                    handler(*args)
                    return
            raise WireError(404, "not-found", f"no route for {path}")
        except WireError as err:
            self._send_error_body(err)
        except BrokenPipeError:  # client went away mid-response
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - wire boundary
            self._send_error_body(wire_error_from(exc))

    # -- routing ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch({
            "/healthz": self._get_health,
            "/specs": self._get_specs,
            "/specs/*": self._get_spec,
            "/jobs/*": self._get_job,
            "/jobs/*/events": self._get_job_events,
        })

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch({
            "/specs": self._post_specs,
            "/verify": self._post_verify,
            "/lint": self._post_lint,
            "/classify": self._post_classify,
            "/simulate": self._post_simulate,
        })

    # -- GET handlers ----------------------------------------------------

    def _get_health(self) -> None:
        self._send_json(200, {
            "status": "ok",
            "uptime_s": round(
                time.monotonic() - self.server.started, 3  # type: ignore
            ),
            "registry": self.registry.stats(),
            "jobs": len(self.jobs.jobs()),
        })

    def _get_specs(self) -> None:
        self._send_json(200, {
            "specs": [e.summary() for e in self.registry.entries()],
            "stats": self.registry.stats(),
        })

    def _get_spec(self, spec_id: str) -> None:
        self._send_json(200, self.registry.get(spec_id).summary())

    def _get_job(self, job_id: str) -> None:
        self._send_json(200, self.jobs.get(job_id).to_dict())

    def _get_job_events(self, job_id: str) -> None:
        """Stream the job's trace events as NDJSON.

        ``?follow=1`` keeps the response open, flushing events as the
        job emits them, until the job reaches a terminal state — the
        progress feed for a long verification.  Without it the events
        recorded so far are returned and the stream closes.
        """
        job = self.jobs.get(job_id)
        follow = "follow=1" in (self.path.split("?", 1) + [""])[1]
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        sent = 0
        while True:
            with job.cond:
                if follow:
                    while len(job.events.events) <= sent and not job.terminal:
                        job.cond.wait(0.2)
                batch = list(job.events.events[sent:])
            for event in batch:
                line = json.dumps(event.to_dict(), default=str) + "\n"
                self.wfile.write(line.encode("utf-8"))
            if batch:
                self.wfile.flush()
            sent += len(batch)
            if not follow or (job.terminal and
                              sent >= len(job.events.events)):
                return

    # -- POST handlers ---------------------------------------------------

    def _post_specs(self) -> None:
        payload = self._read_payload()
        # accept both the bare wire-format spec and a {"spec": ...} wrap
        data = payload.get("spec", payload) if "spec" in payload else payload
        if not isinstance(data, dict):
            raise WireError(400, "not-an-object",
                            "spec must be a JSON object", path="spec")
        entry, created = self.registry.register(data)
        body = entry.summary()
        body["created"] = created
        self._send_json(201 if created else 200, body)

    def _post_verify(self) -> None:
        payload = self._read_payload()
        unknown = sorted(set(payload) - _VERIFY_KEYS)
        if unknown:
            raise WireError(
                400, "bad-request",
                f"unknown key{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(map(repr, unknown))}",
                path=unknown[0],
            )
        service, entry = self.registry.resolve(payload)
        kind, prop = _parse_property(payload, service)
        databases = _parse_databases(payload, service)
        options = _check_options(payload)
        force = bool(payload.get("force", False))
        spec_id = entry.spec_id if entry is not None else None

        def run(job: Job, tracer: Tracer) -> dict:
            opts = _fold_budget(dict(options))
            opts["tracer"] = tracer
            if databases is not None:
                opts["databases"] = databases
            if opts.pop("checkpoint_every", None) is not None:
                ck = self.jobs.job_path(job, ".ck.json")
                if ck is not None:
                    opts["checkpoint_path"] = str(ck)
                    opts["checkpoint_every"] = options["checkpoint_every"]
            if tracer.active:
                tracer.emit(
                    "registry.hit" if entry is not None else "registry.miss",
                    spec_id=spec_id,
                    n_plans=entry.n_plans if entry is not None else 0,
                )
            if kind == "error_free":
                diagnostics = lint_preflight(service, opts)
                result = verify_error_free(service, **opts)
                if diagnostics:
                    result.diagnostics = list(diagnostics)
            else:
                result = verify(service, prop, force=force, **opts)
            if entry is not None:
                entry.verifications += 1
            return result_to_dict(result, service)

        job = self.jobs.submit("verify", run, spec_id=spec_id)
        wait = payload.get("wait", True)
        if not wait:
            self._send_json(202, job.to_dict(include_result=False))
            return
        timeout = payload.get("wait_timeout_s", 300)
        if not job.wait(timeout):
            self._send_json(202, job.to_dict(include_result=False))
            return
        status = 200 if job.status == "done" else job.error_status
        self._send_json(status, job.to_dict())

    def _post_lint(self) -> None:
        payload = self._read_payload()
        facts = None
        try:
            service, _ = self.registry.resolve(payload)
            from repro.lint import lint_service

            report = lint_service(service)
            analyze = payload.get("analyze", False)
            if not isinstance(analyze, bool):
                raise WireError(400, "bad-type", "analyze must be a boolean",
                                path="analyze")
            if analyze:
                from repro.analysis.dataflow import static_facts

                facts = static_facts(service)
        except SpecificationError as exc:
            # structurally invalid: the S0xx diagnostics ARE the report,
            # exactly as `repro lint` renders them
            report = LintReport(
                service_name="(invalid)", diagnostics=exc.diagnostics
            )
        self._send_json(200, json.loads(render(report, "json", facts=facts)))

    def _post_classify(self) -> None:
        payload = self._read_payload()
        service, _ = self.registry.resolve(payload)
        report = classify(service)
        facts = report.static_facts
        self._send_json(200, {
            "name": service.name,
            "classes": sorted(c.value for c in report.classes),
            "has_state_projections": report.has_state_projections,
            "uses_prev": report.uses_prev,
            "state_projections": [str(s) for s in report.state_projections],
            "describe": report.describe(),
            "static_facts": facts.to_dict() if facts is not None else None,
        })

    def _post_simulate(self) -> None:
        payload = self._read_payload()
        service, _ = self.registry.resolve(payload)
        db_data = payload.get("database")
        if not isinstance(db_data, dict):
            raise WireError(
                400, "missing-key",
                "simulate needs a database (wire-format object)",
                path="database",
            )
        database = database_from_dict(db_data, service.schema.database)
        steps = payload.get("steps", 10)
        seed = payload.get("seed", 0)
        constants = payload.get("constants", {})
        if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
            raise WireError(400, "bad-type", "steps must be a positive int",
                            path="steps")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise WireError(400, "bad-type", "seed must be an int",
                            path="seed")
        if not isinstance(constants, dict):
            raise WireError(400, "not-an-object",
                            "constants must be an object", path="constants")
        ctx = RunContext(service, database, sigma=dict(constants))
        run = random_run(ctx, steps, rng=seed)
        self._send_json(200, {
            "steps": len(run),
            "pages": [snap.page for snap in run.snapshots],
            "run": run.describe(service, limit=steps),
        })


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    job_workers: int = 2,
    spool_dir: str | None = None,
    quiet: bool = False,
) -> ThreadingHTTPServer:
    """Build (but do not start) the daemon; ``port=0`` picks a free port.

    The returned server carries the app state: ``server.registry`` (the
    compiled-spec registry), ``server.jobs`` (the job queue; its spool
    directory holds per-job event and checkpoint files), ``server.started``.
    """
    server = ThreadingHTTPServer((host, port), VerifierHTTPHandler)
    server.registry = SpecRegistry()  # type: ignore[attr-defined]
    server.jobs = JobManager(  # type: ignore[attr-defined]
        workers=job_workers,
        spool_dir=spool_dir or tempfile.mkdtemp(prefix="repro-serve-"),
    )
    server.started = time.monotonic()  # type: ignore[attr-defined]
    server.quiet = quiet  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server


def serve(server: ThreadingHTTPServer) -> None:
    """Run the daemon until interrupted; SIGINT shuts it down cleanly."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.jobs.shutdown()  # type: ignore[attr-defined]
        server.server_close()


def server_in_thread(server: ThreadingHTTPServer) -> threading.Thread:
    """Start ``server`` on a daemon thread (tests and embedders)."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return thread
