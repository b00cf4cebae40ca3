"""Smoke-test the verification daemon against a direct in-process run.

Boots ``python -m repro serve`` as a real subprocess on a free port,
registers every spec under ``examples/specs/``, then for each one:

1. POSTs ``/verify`` (``G !ERROR``, database cap 1, forced) and waits;
2. runs the *same* verification directly in this process;
3. diffs verdict, holds flag, procedure and counterexample rendering —
   they must be identical (the daemon adds transport, not semantics);
4. repeats the request and checks the registry amortization: the
   second job's trace must show ``registry.hit`` and a Büchi automaton
   served from cache, and the spec's exploration cache must report
   replayed searches or successor-set hits for it and no successor set
   or label stepped again (``GET /specs/<id>``): the repeat reads the
   graph the first request explored instead of exploring again.  It
   must replay every clean lasso search the first request kept an
   outcome for, and keep no new one (``outcome_hits``,
   ``outcome_entries``); at least one spec's repeat must replay.  The
   repeat's verdict, counterexample and stats must equal the first
   request's;
5. POSTs ``ctl: "AG !ERROR"`` with the same options (their
   ``max_snapshots`` also caps the Kripke structure's states) and diffs
   verdict, holds flag and procedure with a direct run on a fresh
   service; the Kripke builder steps through the explored graph the
   LTL-FO requests filled, so at least one spec's CTL request must read
   successor sets they stored (``successor_hits``).  Its repeat must
   step and label nothing and build no structure again (no successor,
   label or Kripke miss; a build the state cap struck keeps no
   structure, so its repeat misses once and reads every successor set
   the first stepped) and return the same result.

Exit code 0 when everything matches; 1 with a diff otherwise.  This is
what CI's ``server-smoke`` job runs.

Usage::

    PYTHONPATH=src python examples/server_smoke.py
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_DIR = ROOT / "examples" / "specs"
# workers=1: the exploration cache lives in the daemon process; pool
# workers are fresh processes that see no earlier request's graph
VERIFY_OPTIONS = {"max_databases": 1, "max_snapshots": 5000, "workers": 1}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def request(base: str, method: str, path: str, body=None, timeout=180):
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def wait_for_boot(base: str, proc, deadline_s: float = 30.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(f"daemon exited early with {proc.returncode}")
        try:
            status, _ = request(base, "GET", "/healthz", timeout=2)
            if status == 200:
                return
        except (urllib.error.URLError, OSError):
            time.sleep(0.2)
    raise SystemExit("daemon did not come up in time")


def direct_verify(spec_path: Path, ctl: str | None = None) -> dict:
    """The result of ``G !ERROR``, or of the CTL formula ``ctl``, on a
    fresh service, as the daemon renders it."""
    from repro.ctl.parser import parse_ctl
    from repro.io import load_service
    from repro.ltl.parser import parse_ltlfo
    from repro.server.app import _fold_budget
    from repro.server.wire import result_to_dict
    from repro.verifier import verify

    service = load_service(spec_path)
    if ctl is not None:
        prop = parse_ctl(ctl)
    else:
        prop = parse_ltlfo(
            "G !ERROR",
            input_constants=service.schema.input_constants,
            db_constants=service.schema.database.constants,
        )
    opts = _fold_budget(dict(VERIFY_OPTIONS))
    result = verify(service, prop, force=True, **opts)
    return result_to_dict(result, service)


def check_ctl(
    base: str, spec_path: Path, sid: str, payload: dict
) -> tuple[int, int]:
    """``AG !ERROR`` over the graph the spec's LTL-FO requests explored:
    parity with a direct run, and a repeat that explores nothing.  The
    number of failures, and the successor sets the first CTL request
    read from the graph."""
    ctl_payload = {key: value for key, value in payload.items()
                   if key != "ltl"}
    ctl_payload.update(ctl="AG !ERROR", wait=True)
    results, stats = [], []
    for _ in range(2):
        status, before = request(base, "GET", f"/specs/{sid}")
        assert status == 200, before
        status, body = request(base, "POST", "/verify", ctl_payload)
        assert status == 200, body
        status, after = request(base, "GET", f"/specs/{sid}")
        assert status == 200, after
        results.append(body["result"])
        stats.append({
            key: after["exploration"][key] - before["exploration"][key]
            for key in ("successor_hits", "successor_misses",
                        "label_misses", "kripke_misses")
        })
    served, repeat = results
    first, again = stats
    expected = direct_verify(spec_path, ctl="AG !ERROR")
    diffs = [field for field in ("verdict", "holds", "procedure")
             if served.get(field) != expected.get(field)]
    if diffs:
        print(f"FAIL {spec_path.name}: CTL served != direct on {diffs}")
        print("  served:  ", {d: served.get(d) for d in diffs})
        print("  expected:", {d: expected.get(d) for d in diffs})
        return 1, 0
    shared = first["successor_hits"]
    # a build the state cap struck keeps no structure: its repeat
    # builds again, reading every successor set the first stepped
    struck = served["stats"].get("interrupted_by") == "max_states"
    rebuilt = again["kripke_misses"] != (1 if struck else 0)
    if again["successor_misses"] or again["label_misses"] or rebuilt:
        print(f"FAIL {spec_path.name}: CTL repeat explored again ({again})")
        return 1, shared
    changed = [field for field in ("verdict", "holds", "procedure", "stats")
               if repeat.get(field) != served.get(field)]
    if changed:
        print(f"FAIL {spec_path.name}: CTL repeat returned another "
              f"{changed}")
        return 1, shared
    print(f"ok   {spec_path.name}: AG !ERROR verdict={served['verdict']} "
          f"(parity; read {shared} of "
          f"{shared + first['successor_misses']} successor sets from the "
          "LTL-FO requests' graph; repeat "
          f"{'rebuilt from the graph' if struck else 'cached'})")
    return 0, shared


def main() -> int:
    port = free_port()
    base = f"http://127.0.0.1:{port}"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--specs", str(SPEC_DIR), "--quiet"],
        env=env,
    )
    failures = 0
    replays = 0
    shared = 0  # successor sets CTL requests read from LTL-FO's graphs
    try:
        wait_for_boot(base, proc)

        status, listing = request(base, "GET", "/specs")
        assert status == 200, listing
        by_name = {e["name"]: e["spec_id"] for e in listing["specs"]}
        print(f"daemon up on {base}; {len(by_name)} specs registered")

        spec_files = sorted(SPEC_DIR.glob("*.json"))
        assert len(spec_files) == len(by_name), "preregistration incomplete"

        for spec_path in spec_files:
            data = json.loads(spec_path.read_text(encoding="utf-8"))
            sid = by_name[data["name"]]
            payload = {
                "spec_id": sid, "ltl": "G !ERROR",
                "options": dict(VERIFY_OPTIONS), "force": True,
                "wait": False,
            }
            status, body = request(base, "POST", "/verify", payload)
            assert status == 202, body
            job_id = body["job_id"]
            deadline = time.monotonic() + 180
            while time.monotonic() < deadline:
                status, body = request(base, "GET", f"/jobs/{job_id}")
                if body["status"] in ("done", "failed"):
                    break
                time.sleep(0.3)
            if body["status"] != "done":
                print(f"FAIL {spec_path.name}: job {body['status']}: "
                      f"{body.get('error')}")
                failures += 1
                continue

            served = body["result"]
            expected = direct_verify(spec_path)
            diffs = [
                field for field in ("verdict", "holds", "procedure",
                                    "counterexample",
                                    "counterexample_database")
                if served.get(field) != expected.get(field)
            ]
            if diffs:
                print(f"FAIL {spec_path.name}: served != direct on {diffs}")
                print("  served:  ", {d: served.get(d) for d in diffs})
                print("  expected:", {d: expected.get(d) for d in diffs})
                failures += 1
            else:
                print(f"ok   {spec_path.name}: verdict="
                      f"{served['verdict']} (parity)")

            # amortization check: the repeat request hits every cache
            status, before = request(base, "GET", f"/specs/{sid}")
            assert status == 200, before
            status, body = request(base, "POST", "/verify",
                                   {**payload, "wait": True})
            assert status == 200, body
            status, after = request(base, "GET", f"/specs/{sid}")
            assert status == 200, after
            delta = {
                key: after["exploration"][key] - before["exploration"][key]
                for key in ("successor_hits", "successor_misses",
                            "label_misses", "outcome_hits",
                            "outcome_entries")
            }
            hits = delta["outcome_hits"] + delta["successor_hits"]
            explored = delta["successor_misses"] + delta["label_misses"]
            # the first request kept the outcome of each clean search
            kept = before["exploration"]["outcome_entries"]
            replays += delta["outcome_hits"]
            changed = [
                field for field in ("verdict", "counterexample", "stats")
                if body["result"].get(field) != served.get(field)
            ]
            with urllib.request.urlopen(
                f"{base}/jobs/{body['job_id']}/events", timeout=30
            ) as resp:
                events = [json.loads(line)
                          for line in resp.read().decode().splitlines()]
            names = [e["name"] for e in events]
            buchi = [e for e in events if e["name"] == "buchi.compiled"]
            if "registry.hit" not in names or not all(
                e.get("cached") for e in buchi
            ):
                print(f"FAIL {spec_path.name}: repeat request recompiled "
                      f"(events: {names})")
                failures += 1
            elif hits <= 0 or explored:
                print(f"FAIL {spec_path.name}: repeat request explored "
                      f"again (exploration: {after['exploration']})")
                failures += 1
            elif delta["outcome_hits"] != kept or delta["outcome_entries"]:
                print(f"FAIL {spec_path.name}: repeat request replayed "
                      f"{delta['outcome_hits']} of the {kept} searches the "
                      f"first kept (exploration: {after['exploration']})")
                failures += 1
            elif changed:
                print(f"FAIL {spec_path.name}: repeat request returned "
                      f"another {changed}")
                failures += 1
            else:
                print(f"ok   {spec_path.name}: repeat request cached "
                      f"(registry.hit, buchi cached, "
                      f"{delta['outcome_hits']} searches replayed and "
                      f"{delta['successor_hits']} successor sets read "
                      f"from the exploration cache, same result)")

            failed, read = check_ctl(base, spec_path, sid, payload)
            failures += failed
            shared += read

        if not replays:
            print("FAIL: no repeat request replayed a kept search")
            failures += 1
        if not shared:
            print("FAIL: no CTL request read a successor set an LTL-FO "
                  "request stored")
            failures += 1
        status, stats = request(base, "GET", "/healthz")
        print("registry stats:", stats["registry"])
        if stats["registry"]["recompiles"]:
            print("FAIL: registry reports recompiles")
            failures += 1
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()

    print("smoke:", "FAILED" if failures else "PASSED")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
