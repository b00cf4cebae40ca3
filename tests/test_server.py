"""The verification daemon end to end, over real HTTP.

A single in-process server (module scope) carries all tests: the specs
registered once at the top double as the amortization fixture — later
tests assert the registry hit counters and the ``cached=True`` Büchi
events that prove the second request recompiled nothing.

The parity tests are the acceptance criterion of the daemon: for every
shipped example spec the served verdict, holds flag and counterexample
rendering must be **identical** to a direct in-process
:func:`repro.verifier.verify` call with the same options.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.io import load_service
from repro.ltl.parser import parse_ltlfo
from repro.server import create_server, server_in_thread, spec_id_of
from repro.server.app import _fold_budget
from repro.server.wire import result_to_dict
from repro.verifier import verify

from tests.test_wire_format import CORPUS_IDS, EXAMPLES, MALFORMED_SPECS

SPEC_DIR = Path(__file__).resolve().parent.parent / "examples" / "specs"


# ---------------------------------------------------------------------------
# fixtures and plumbing
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def server(tmp_path_factory):
    srv = create_server(
        port=0, quiet=True, job_workers=2,
        spool_dir=str(tmp_path_factory.mktemp("spool")),
    )
    server_in_thread(srv)
    yield srv
    srv.shutdown()
    srv.server_close()
    srv.jobs.shutdown()


@pytest.fixture(scope="module")
def base(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def request(base, method, path, body=None, timeout=120):
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def registered(server, base):
    """All example specs registered once; ``{name: spec_id}``."""
    ids = {}
    for path in EXAMPLES:
        data = json.loads(path.read_text(encoding="utf-8"))
        status, body = request(base, "POST", "/specs", data)
        assert status in (200, 201)
        ids[path.name] = body["spec_id"]
    return ids


VERIFY_OPTIONS = {"max_databases": 1, "max_snapshots": 5000}


def direct_verify_dict(spec_path: Path) -> dict:
    """The daemon-shaped result of a direct in-process verify call."""
    service = load_service(spec_path)
    prop = parse_ltlfo(
        "G !ERROR",
        input_constants=service.schema.input_constants,
        db_constants=service.schema.database.constants,
    )
    opts = _fold_budget(dict(VERIFY_OPTIONS))
    result = verify(service, prop, force=True, **opts)
    return result_to_dict(result, service)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_register_is_idempotent(self, base, registered):
        data = json.loads(
            (SPEC_DIR / "core.json").read_text(encoding="utf-8")
        )
        status, body = request(base, "POST", "/specs", data)
        assert status == 200  # already there: not created again
        assert body["created"] is False
        assert body["spec_id"] == registered["core.json"]
        assert body["spec_id"] == spec_id_of(data)

    def test_listing_and_lookup(self, base, registered):
        status, body = request(base, "GET", "/specs")
        assert status == 200
        listed = {e["spec_id"] for e in body["specs"]}
        assert set(registered.values()) <= listed
        sid = registered["core.json"]
        status, body = request(base, "GET", f"/specs/{sid}")
        assert status == 200
        assert body["n_plans"] > 0

    def test_unknown_spec_404(self, base):
        status, body = request(
            base, "POST", "/verify",
            {"spec_id": "sha256:feedfeed", "ltl": "G !ERROR"},
        )
        assert status == 404
        assert body["error"]["code"] == "unknown-spec"

    def test_ambiguous_spec_400(self, base, registered):
        status, body = request(
            base, "POST", "/verify",
            {"spec_id": registered["core.json"], "spec": {},
             "ltl": "G !ERROR"},
        )
        assert status == 400
        assert body["error"]["code"] == "ambiguous-spec"

    def test_missing_spec_400(self, base):
        status, body = request(base, "POST", "/verify", {"ltl": "G !ERROR"})
        assert status == 400
        assert body["error"]["code"] == "missing-spec"

    def test_invalid_spec_rejected_before_storing(self, base):
        status, body = request(
            base, "POST", "/specs", {"format": "repro.webservice/1"}
        )
        assert status == 400
        assert body["error"]["code"] == "missing-key"
        status, listing = request(base, "GET", "/specs")
        assert all(e["spec_id"] != spec_id_of(
            {"format": "repro.webservice/1"}) for e in listing["specs"])


# ---------------------------------------------------------------------------
# parity: served verdicts == direct in-process verdicts
# ---------------------------------------------------------------------------

class TestParity:
    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.name for p in EXAMPLES]
    )
    def test_served_verdict_matches_direct(self, base, registered, path):
        expected = direct_verify_dict(path)
        status, body = request(base, "POST", "/verify", {
            "spec_id": registered[path.name],
            "ltl": "G !ERROR",
            "options": dict(VERIFY_OPTIONS),
            "force": True,
        })
        assert status == 200, body
        served = body["result"]
        assert served["verdict"] == expected["verdict"]
        assert served["holds"] == expected["holds"]
        assert served["procedure"] == expected["procedure"]
        # the witness run renders bit-identically
        assert served.get("counterexample") == expected.get("counterexample")
        assert (served.get("counterexample_database")
                == expected.get("counterexample_database"))


# ---------------------------------------------------------------------------
# amortization: the second request recompiles nothing
# ---------------------------------------------------------------------------

class TestAmortization:
    def test_repeat_verify_hits_registry_and_buchi_cache(
        self, server, base, registered
    ):
        sid = registered["core.json"]
        payload = {
            "spec_id": sid, "ltl": "G !ERROR",
            "options": dict(VERIFY_OPTIONS), "force": True,
        }
        entry = server.registry.get(sid)
        hits_before = entry.hits

        status1, body1 = request(base, "POST", "/verify", payload)
        status2, body2 = request(base, "POST", "/verify", payload)
        assert status1 == status2 == 200
        assert body1["result"]["verdict"] == body2["result"]["verdict"]

        # registry: both requests resolved through the cached entry,
        # and the pinned CompiledService never had to be rebuilt
        assert entry.hits >= hits_before + 2
        assert entry.recompiles == 0
        assert entry.compiled_is_current()
        assert entry.verifications >= 2

        # the second job's trace: a registry.hit and a Büchi automaton
        # served from the per-spec cache (no reconstruction)
        status, text = self._events(base, body2["job_id"])
        assert status == 200
        events = [json.loads(line) for line in text.splitlines()]
        names = [e["name"] for e in events]
        assert "registry.hit" in names
        buchi = [e for e in events if e["name"] == "buchi.compiled"]
        assert buchi and buchi[0]["cached"] is True
        assert events[-1]["name"] == "verdict"

    def test_repeat_verify_reads_the_explored_graph(
        self, server, base, registered
    ):
        """The second request steps, labels and expands nothing: it
        searches the compiled products the first kept, which hold every
        successor set and enable mask it reads, so it does not even look
        one up in the graph (in-process, so ``workers`` 1).  It returns
        what the first returned."""
        sid = registered["core.json"]
        payload = {
            "spec_id": sid, "ltl": "G !ERROR", "force": True,
            "options": {**VERIFY_OPTIONS, "workers": 1},
        }
        status, first_body = request(base, "POST", "/verify", payload)
        assert status == 200, first_body
        status, first = request(base, "GET", f"/specs/{sid}")
        assert status == 200
        status, body = request(base, "POST", "/verify", payload)
        assert status == 200, body
        status, second = request(base, "GET", f"/specs/{sid}")
        before, after = first["exploration"], second["exploration"]
        assert after["product_hits"] > before["product_hits"]
        assert after["product_misses"] == before["product_misses"] > 0
        assert after["product_entries"] == before["product_entries"] > 0
        for key in ("successor_hits", "successor_misses", "label_hits",
                    "label_misses"):
            assert after[key] == before[key], key
        assert after["label_entries"] == before["label_entries"] > 0
        assert after["entries"] == before["entries"] <= server.registry.get(
            sid
        ).compiled.exploration.cap
        for field in ("verdict", "counterexample", "stats"):
            assert body["result"].get(field) == (
                first_body["result"].get(field)
            ), field

    def test_inline_requests_do_not_pin_their_graphs(self, server, base):
        """An inline spec is parsed per request; once the request is
        done, its service and the graph it explored are collectable.
        Each job thread may still hold the task it ran last."""
        import gc

        from repro.service import compiled as compiled_module

        spec = json.loads(EXAMPLES[0].read_text(encoding="utf-8"))
        payload = {
            "spec": spec, "ltl": "G !ERROR", "force": True,
            "options": {**VERIFY_OPTIONS, "workers": 1},
        }
        gc.collect()
        held = len(compiled_module._CACHE)
        for _ in range(6):
            status, body = request(base, "POST", "/verify", payload)
            assert status == 200, body
        gc.collect()
        assert len(compiled_module._CACHE) <= held + len(server.jobs._threads)

    @staticmethod
    def _events(base, job_id):
        with urllib.request.urlopen(
            f"{base}/jobs/{job_id}/events", timeout=30
        ) as resp:
            return resp.status, resp.read().decode("utf-8")

    def test_first_compile_is_at_registration(self, server, registered):
        # plans were warmed when the spec was registered, so even the
        # FIRST request runs against compiled plans
        for sid in registered.values():
            entry = server.registry.get(sid)
            assert entry.n_plans > 0
            assert entry.compiled_is_current()


# ---------------------------------------------------------------------------
# jobs: async lifecycle + NDJSON event stream
# ---------------------------------------------------------------------------

class TestJobs:
    def test_async_submit_poll_and_stream(self, base, registered):
        status, body = request(base, "POST", "/verify", {
            "spec_id": registered["propositional.json"],
            "ltl": "G !ERROR",
            "options": dict(VERIFY_OPTIONS),
            "force": True,
            "wait": False,
        })
        assert status == 202
        assert body["status"] in ("queued", "running")
        assert "result" not in body
        job_id = body["job_id"]

        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, body = request(base, "GET", f"/jobs/{job_id}")
            assert status == 200
            if body["status"] in ("done", "failed"):
                break
            time.sleep(0.1)
        assert body["status"] == "done", body
        assert body["result"]["verdict"]
        assert body["duration_s"] >= 0

        with urllib.request.urlopen(
            f"{base}/jobs/{job_id}/events", timeout=30
        ) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            lines = resp.read().decode("utf-8").splitlines()
        events = [json.loads(line) for line in lines]
        assert events, "a finished verify job must have trace events"
        assert events[-1]["name"] == "verdict"

    def test_job_failure_carries_wire_error(self, base, registered):
        # an option the CTL procedure rejects fails the job as a
        # structured bad-option, not an opaque 500
        status, body = request(base, "POST", "/verify", {
            "spec_id": registered["propositional.json"],
            "ctl": "AG !ERROR",
            "options": {"up_to_iso": True},
        })
        assert status == 400, body
        assert body["status"] == "failed"
        assert body["error"]["code"] == "bad-option"

    def test_unknown_job_404(self, base):
        status, body = request(base, "GET", "/jobs/job-424242")
        assert status == 404
        assert body["error"]["code"] == "unknown-job"

    def test_job_spool_file_written(self, server, base, registered):
        status, body = request(base, "POST", "/verify", {
            "spec_id": registered["propositional.json"],
            "ltl": "G !ERROR", "options": dict(VERIFY_OPTIONS),
            "force": True,
        })
        assert status == 200
        spool = server.jobs.spool_dir / f"{body['job_id']}.events.jsonl"
        assert spool.exists()
        lines = spool.read_text(encoding="utf-8").splitlines()
        assert [json.loads(l)["name"] for l in lines][-1] == "verdict"


# ---------------------------------------------------------------------------
# HTTP error mapping: malformed payloads are 400s, never 500s
# ---------------------------------------------------------------------------

class TestErrorMapping:
    @pytest.mark.parametrize(
        "label,build,code,path_part", MALFORMED_SPECS, ids=CORPUS_IDS
    )
    def test_malformed_spec_is_structured_400(self, base, label, build,
                                              code, path_part):
        status, body = request(
            base, "POST", "/verify",
            {"spec": build(), "ltl": "G !ERROR"},
        )
        assert status == 400, body
        assert body["error"]["code"] == code
        assert "message" in body["error"]

    @pytest.mark.parametrize(
        "label,build,code,path_part", MALFORMED_SPECS, ids=CORPUS_IDS
    )
    def test_malformed_registration_is_structured_400(self, base, label,
                                                      build, code,
                                                      path_part):
        status, body = request(base, "POST", "/specs", build())
        assert status == 400, body
        assert body["error"]["code"] == code

    def test_unparseable_body_400(self, base):
        req = urllib.request.Request(
            base + "/verify", data=b'{"spec": tru', method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=10)
        body = json.loads(exc_info.value.read())
        assert exc_info.value.code == 400
        assert body["error"]["code"] == "bad-json"

    def test_bad_property_400(self, base, registered):
        status, body = request(base, "POST", "/verify", {
            "spec_id": registered["core.json"], "ltl": "G (("})
        assert status == 400
        assert body["error"]["code"] == "bad-property"

    def test_unknown_option_400(self, base, registered):
        status, body = request(base, "POST", "/verify", {
            "spec_id": registered["core.json"], "ltl": "G !ERROR",
            "options": {"max_database": 1}})
        assert status == 400
        assert body["error"]["code"] == "bad-option"
        assert "max_database" in body["error"]["message"]

    def test_unknown_payload_key_400(self, base, registered):
        status, body = request(base, "POST", "/verify", {
            "spec_id": registered["core.json"], "ltl": "G !ERROR",
            "databses": []})
        assert status == 400
        assert "databses" in body["error"]["message"]

    def test_undecidable_maps_to_422(self, base, registered):
        status, body = request(base, "POST", "/verify", {
            "spec_id": registered["core.json"], "ctl": "AG !ERROR"})
        assert status == 422
        assert body["error"]["code"] == "undecidable"
        assert body["error"]["citation"]

    def test_missing_property_400(self, base, registered):
        status, body = request(base, "POST", "/verify", {
            "spec_id": registered["core.json"]})
        assert status == 400
        assert body["error"]["code"] == "missing-property"

    def test_unknown_route_404(self, base):
        status, body = request(base, "GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "not-found"


# ---------------------------------------------------------------------------
# the analysis endpoints
# ---------------------------------------------------------------------------

class TestAnalysisEndpoints:
    def test_health(self, base, registered):
        status, body = request(base, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["registry"]["specs"] >= len(registered)

    def test_lint(self, base, registered):
        status, body = request(
            base, "POST", "/lint", {"spec_id": registered["core.json"]})
        assert status == 200
        assert "diagnostics" in body and "summary" in body

    def test_classify(self, base, registered):
        status, body = request(
            base, "POST", "/classify", {"spec_id": registered["core.json"]})
        assert status == 200
        assert any("input-bounded" in c for c in body["classes"])
        assert "describe" in body

    def test_simulate_deterministic(self, base, registered):
        db = {"format": "repro.database/1",
              "facts": {"user": [["alice", "pw"]]},
              "constants": {}}
        payload = {"spec_id": registered["core.json"], "database": db,
                   "steps": 6, "seed": 7}
        status1, body1 = request(base, "POST", "/simulate", payload)
        status2, body2 = request(base, "POST", "/simulate", payload)
        assert status1 == status2 == 200
        assert body1["steps"] == 6
        assert body1["pages"] == body2["pages"]
        assert body1["run"] == body2["run"]

    def test_simulate_needs_database(self, base, registered):
        status, body = request(
            base, "POST", "/simulate",
            {"spec_id": registered["core.json"]})
        assert status == 400
        assert body["error"]["code"] == "missing-key"

    def test_simulate_rejects_bad_steps(self, base, registered):
        db = {"format": "repro.database/1", "facts": {}, "constants": {}}
        status, body = request(base, "POST", "/simulate", {
            "spec_id": registered["core.json"], "database": db, "steps": 0})
        assert status == 400
        assert body["error"]["code"] == "bad-type"
