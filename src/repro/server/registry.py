"""The compiled-spec registry: parse and compile once, serve thousands.

This is the daemon's reason for existing.  A one-shot CLI run pays the
whole pipeline per invocation — JSON parse, formula parse, lint,
plan compilation (:class:`~repro.service.compiled.CompiledService`),
Büchi construction — before the first database is enumerated.  The
registry amortizes all of it: ``POST /specs`` parses a spec **strictly**
(unknown keys rejected — a typo'd payload must fail loudly at
registration, not silently verify something else) and pins the parsed
:class:`~repro.service.webservice.WebService` plus its compiled plans;
every later request that names the ``spec_id`` reuses them.

Keying: the ``spec_id`` is the SHA-256 of the payload's canonical JSON
(sorted keys, no whitespace) — registration is idempotent and two
textually different but semantically identical submissions of the same
spec dict collapse to one entry.  Holding a strong reference to the
``WebService`` object is what makes the compile-once guarantee work:
:func:`~repro.service.compiled.compiled_service` is weak-keyed per
*object*, so as long as the entry lives, every verification against it
hits the same :class:`CompiledService` instance (the ``compiled_is``
check below observes exactly that identity, and ``recompiles`` counts
the times it ever broke — it stays 0 unless someone calls
``clear_compile_cache`` mid-flight).

The pinned :class:`CompiledService` completes the picture for the LTL
path: :func:`~repro.verifier.linear.verify_ltlfo` keeps the negated
skeleton's Büchi automaton on it, so repeated verifications of the same
property skip the automaton construction too (``buchi.compiled`` events
then carry ``cached=True``; ``GET /specs/<id>`` counts them under
``buchi_cached``).

Exploration is amortized the same way.  The pinned
:class:`CompiledService` carries the service's exploration cache
(:class:`~repro.service.compiled.ExplorationCache`): the numbered
snapshots, successor-id tuples, atom label bitsets and Kripke
structures explored per (database, extra domain), bounded by
:data:`~repro.service.compiled.EXPLORATION_CACHE_ENTRIES` entries with
least-recently-used databases evicted first.  A repeated request over
the same databases reads the explored graph instead of stepping and
labelling again, whatever its property (``kripke.built`` events then carry
``cached=True``).  Requests run in-process share it; a request with
``workers`` > 1 runs its units in fresh worker processes, which see only
what their own call explored.  ``GET /specs/<id>`` reports the cache's
hits, misses and evicted databases under ``exploration``.  A request
with an inline ``spec`` parses a service of its own and pins nothing:
its plans and explored graphs are freed with the service once the
request is done, so inline requests never accumulate caches.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Any

from repro.io.json_format import service_from_dict
from repro.server.wire import WireError
from repro.service.compiled import compiled_service, warm_service_plans
from repro.service.webservice import WebService

__all__ = ["RegistryEntry", "SpecRegistry", "spec_id_of"]


def spec_id_of(data: dict) -> str:
    """Content hash of a spec payload: canonical JSON, SHA-256."""
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"),
                       ensure_ascii=False)
    return "sha256:" + hashlib.sha256(canon.encode("utf-8")).hexdigest()[:32]


class RegistryEntry:
    """One registered spec with its amortized artefacts and counters."""

    __slots__ = (
        "spec_id", "service", "data", "n_plans", "compiled",
        "registered_at", "hits", "verifications", "recompiles",
    )

    def __init__(self, spec_id: str, service: WebService, data: dict) -> None:
        self.spec_id = spec_id
        self.service = service
        self.data = data
        # Warm the plans at registration time so the first request is as
        # fast as the thousandth.
        self.n_plans = warm_service_plans(service)
        self.compiled = compiled_service(service)
        self.registered_at = time.time()
        self.hits = 0
        self.verifications = 0
        self.recompiles = 0

    def compiled_is_current(self) -> bool:
        """True while the pinned CompiledService is still the cached one."""
        return compiled_service(self.service) is self.compiled

    def touch(self) -> None:
        """Count one registry hit, re-pinning plans if the cache was
        cleared under us (counted — it should never happen in steady
        state)."""
        self.hits += 1
        if not self.compiled_is_current():
            self.n_plans = warm_service_plans(self.service)
            self.compiled = compiled_service(self.service)
            self.recompiles += 1

    def summary(self) -> dict[str, Any]:
        return {
            "spec_id": self.spec_id,
            "name": self.service.name,
            "pages": len(self.service.pages),
            "n_plans": self.n_plans,
            "buchi_cached": len(self.compiled.automata),
            "exploration": self.compiled.exploration.stats(),
            "registered_at": self.registered_at,
            "hits": self.hits,
            "verifications": self.verifications,
            "recompiles": self.recompiles,
        }


class SpecRegistry:
    """Thread-safe registry of compiled specs, keyed by content hash."""

    def __init__(self) -> None:
        self._entries: dict[str, RegistryEntry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def register(self, data: dict) -> tuple[RegistryEntry, bool]:
        """Register a spec payload; ``(entry, created)``.

        Strict parse: unknown keys and malformed values raise
        :class:`~repro.io.json_format.SpecFormatError` (HTTP 400) before
        anything is stored.  Re-registering the same payload is
        idempotent and returns the existing entry.
        """
        spec_id = spec_id_of(data)
        with self._lock:
            entry = self._entries.get(spec_id)
            if entry is not None:
                return entry, False
        # parse/compile outside the lock: registration of a large spec
        # must not stall concurrent lookups
        service = service_from_dict(data, strict=True)
        entry = RegistryEntry(spec_id, service, data)
        with self._lock:
            return self._entries.setdefault(spec_id, entry), True

    def get(self, spec_id: str) -> RegistryEntry:
        with self._lock:
            entry = self._entries.get(spec_id)
        if entry is None:
            raise WireError(
                404, "unknown-spec",
                f"no registered spec with id {spec_id!r} "
                "(register it with POST /specs first)",
            )
        return entry

    def resolve(self, payload: dict) -> tuple[WebService, RegistryEntry | None]:
        """The service a request payload refers to.

        ``{"spec_id": ...}`` resolves through the registry (a *hit*:
        parsed spec, compiled plans and Büchi cache all reused);
        ``{"spec": {...}}`` parses inline per-request (a *miss* — the
        pay-per-call path, still strict).
        """
        has_id = "spec_id" in payload
        has_inline = "spec" in payload
        if has_id and has_inline:
            raise WireError(
                400, "ambiguous-spec",
                "pass either spec_id or spec, not both",
            )
        if has_id:
            spec_id = payload["spec_id"]
            if not isinstance(spec_id, str):
                raise WireError(
                    400, "bad-type", "spec_id must be a string",
                    path="spec_id",
                )
            entry = self.get(spec_id)
            with self._lock:
                self.hits += 1
                entry.touch()
            return entry.service, entry
        if has_inline:
            spec = payload["spec"]
            if not isinstance(spec, dict):
                raise WireError(
                    400, "not-an-object", "spec must be a JSON object",
                    path="spec",
                )
            service = service_from_dict(spec, strict=True)
            with self._lock:
                self.misses += 1
            return service, None
        raise WireError(
            400, "missing-spec",
            "payload needs a spec_id (registered) or an inline spec object",
        )

    def entries(self) -> list[RegistryEntry]:
        with self._lock:
            return list(self._entries.values())

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "specs": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "recompiles": sum(
                    e.recompiles for e in self._entries.values()
                ),
            }
