"""Tests for the structured observability layer (repro.obs).

The headline contract: tracing is observationally invisible — with the
default null tracer, with a collecting tracer, and under the process
pool, every procedure returns the identical verdict, counterexample and
stats.  The satellites: JSONL traces parse and keep per-process
timestamps monotone, unit events arrive in cursor order, budget
exhaustion is traced, and the CLI flags produce a trace file and
progress lines.
"""

import json

import pytest

from repro.ctl import AG, CAtom, EF
from repro.fol import Atom, Not
from repro.ltl import G, LTLFOSentence
from repro.obs import (
    NULL_TRACER,
    CollectingTracer,
    JsonlTracer,
    NullTracer,
    ProgressTracer,
    TeeTracer,
    TraceEvent,
    resolve_tracer,
)
from repro.service import ServiceBuilder
from repro.verifier import (
    Budget,
    Verdict,
    verify_ctl,
    verify_error_free,
    verify_fully_propositional,
    verify_input_driven_search,
    verify_ltlfo,
)

POOL = 2


# ---------------------------------------------------------------------------
# helper services (same shapes as test_parallel)
# ---------------------------------------------------------------------------

def _pingpong():
    b = ServiceBuilder("pingpong")
    b.input("go")
    p1 = b.page("P1", home=True)
    p1.toggle("go")
    p1.target("P2", "go")
    p2 = b.page("P2")
    p2.toggle("go")
    p2.target("P1", "go")
    return b.build()


def _search_site():
    from repro.demo.search_site import search_service
    return search_service()


def _no_error():
    return LTLFOSentence((), G(Not(Atom("ERROR", ()))))


def _never_p2():
    return LTLFOSentence((), G(Not(Atom("P2", ()))), name="never P2")


def _stats_match(a, b, *, ignore=("workers", "config")):
    # stats["config"] records the resolved options (traced, workers, …)
    # and so differs between the compared runs by construction
    keys = (set(a) | set(b)) - set(ignore)
    diff = {k: (a.get(k), b.get(k)) for k in keys if a.get(k) != b.get(k)}
    assert not diff, f"stats diverge: {diff}"


def _result_match(a, b, *, ignore=("workers", "config")):
    assert a.verdict is b.verdict
    assert a.procedure == b.procedure
    assert a.method == b.method
    assert (a.counterexample is None) == (b.counterexample is None)
    if a.counterexample is not None:
        assert a.counterexample == b.counterexample
    _stats_match(a.stats, b.stats, ignore=ignore)


# ---------------------------------------------------------------------------
# tracing never changes the answer
# ---------------------------------------------------------------------------

class TestTracedUntracedEquivalence:
    """Null tracer, collecting tracer, and workers=POOL with a tracer
    all agree with the plain sequential run, per procedure."""

    @pytest.fixture(autouse=True)
    def _monkeypatch(self, monkeypatch):
        self.monkeypatch = monkeypatch

    def _check(self, call):
        with self.monkeypatch.context() as env:
            # untraced means no tracer at all, not the REPRO_TRACE one
            env.delenv("REPRO_TRACE", raising=False)
            base = call()
        null = call(tracer=NullTracer())
        traced = call(tracer=CollectingTracer())
        pooled = call(tracer=CollectingTracer(), workers=POOL)
        _result_match(base, null)
        _result_match(base, traced)
        _result_match(base, pooled)
        assert base.timings == {} and null.timings == {}
        assert traced.timings and pooled.timings
        return base

    def test_ltlfo(self):
        svc = _pingpong()
        base = self._check(
            lambda **kw: verify_ltlfo(svc, _never_p2(), domain_size=2, **kw))
        assert base.verdict is Verdict.VIOLATED

    def test_ctl(self):
        svc = _pingpong()
        prop = AG(EF(CAtom("P1")))
        base = self._check(
            lambda **kw: verify_ctl(svc, prop, domain_size=2, **kw))
        assert base.verdict is Verdict.HOLDS

    def test_fully_propositional(self):
        svc = _pingpong()
        prop = AG(EF(CAtom("P1")))
        base = self._check(
            lambda **kw: verify_fully_propositional(svc, prop, **kw))
        assert base.verdict is Verdict.HOLDS
        assert base.procedure == "verify_fully_propositional"

    def test_input_driven_search(self):
        svc = _search_site()
        prop = AG(EF(CAtom("HP")))
        base = self._check(
            lambda **kw: verify_input_driven_search(
                svc, prop, domain_size=2, **kw))
        assert base.procedure == "verify_input_driven_search"

    def test_error_free(self):
        svc = _pingpong()
        base = self._check(
            lambda **kw: verify_error_free(svc, domain_size=2, **kw))
        assert base.verdict is Verdict.HOLDS
        assert base.procedure == "verify_error_free"


# ---------------------------------------------------------------------------
# event stream shape
# ---------------------------------------------------------------------------

class TestEventStream:
    def test_expected_events_ltlfo(self):
        tr = CollectingTracer()
        verify_ltlfo(_pingpong(), _no_error(), domain_size=2, tracer=tr)
        names = {e.name for e in tr.events}
        assert {"buchi.compiled", "database.enumerated", "unit.start",
                "unit.finish", "budget.charge", "verdict"} <= names

    def test_expected_events_ctl(self):
        tr = CollectingTracer()
        verify_ctl(_pingpong(), AG(EF(CAtom("P1"))), domain_size=1, tracer=tr)
        names = {e.name for e in tr.events}
        assert {"database.enumerated", "kripke.built", "unit.start",
                "unit.finish", "verdict"} <= names

    def test_unit_events_in_cursor_order(self, toy_service):
        for workers in (1, POOL):
            tr = CollectingTracer()
            verify_ltlfo(toy_service, _no_error(), domain_size=2,
                         tracer=tr, workers=workers)
            cursors = [e.cursor for e in tr.events if e.name == "unit.finish"]
            assert cursors == sorted(cursors), workers
            assert len(cursors) >= 2

    def test_traced_unit_set_worker_independent(self, toy_service):
        seq = CollectingTracer()
        par = CollectingTracer()
        verify_ltlfo(toy_service, _no_error(), domain_size=2, tracer=seq)
        verify_ltlfo(toy_service, _no_error(), domain_size=2,
                     tracer=par, workers=POOL)
        seq_units = [e.cursor for e in seq.events if e.name == "unit.finish"]
        par_units = [e.cursor for e in par.events if e.name == "unit.finish"]
        assert seq_units == par_units

    def test_verdict_event_is_last_and_labelled(self):
        tr = CollectingTracer()
        result = verify_ctl(_pingpong(), AG(EF(CAtom("P1"))),
                            domain_size=1, tracer=tr)
        last = tr.events[-1]
        assert last.name == "verdict"
        assert last.fields["verdict"] == result.verdict.value
        assert last.fields["procedure"] == "verify_ctl"

    def test_timings_aggregate_durations(self):
        tr = CollectingTracer()
        result = verify_ctl(_pingpong(), AG(EF(CAtom("P1"))),
                            domain_size=1, tracer=tr)
        assert result.timings["kripke.built"]["count"] >= 1
        assert result.timings["kripke.built"]["total_s"] >= 0.0
        assert result.timings["verdict"]["count"] == 1

    def test_budget_exhausted_traced(self, toy_service):
        tr = CollectingTracer()
        result = verify_ltlfo(
            toy_service, _no_error(), domain_size=2,
            budget=Budget(max_databases=1), tracer=tr,
        )
        assert result.verdict is Verdict.INCONCLUSIVE
        exhausted = [e for e in tr.events if e.name == "budget.exhausted"]
        assert exhausted and exhausted[0].fields["limit"] == "max_databases"
        assert tr.events[-1].name == "verdict"
        assert tr.events[-1].fields["verdict"] == "inconclusive"


# ---------------------------------------------------------------------------
# tracers themselves
# ---------------------------------------------------------------------------

class TestTracers:
    def test_null_tracer_inactive(self):
        assert not NULL_TRACER.active
        NULL_TRACER.emit("anything", foo=1)  # no-op, no error
        assert NULL_TRACER.timings() == {}

    def test_jsonl_valid_and_monotone_per_pid(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tr = JsonlTracer(str(path))
        verify_ltlfo(_pingpong(), _no_error(), domain_size=2,
                     tracer=tr, workers=POOL)
        tr.close()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events, "trace file is empty"
        assert all("name" in e and "t" in e and "pid" in e for e in events)
        last_t: dict = {}
        for e in events:
            assert e["t"] >= last_t.get(e["pid"], 0.0), (
                f"timestamps regressed for pid {e['pid']}")
            last_t[e["pid"]] = e["t"]
        assert events[-1]["name"] == "verdict"

    def test_jsonl_append_mode(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tr = JsonlTracer(str(path), append=True)
        tr.emit("one")
        tr.close()
        tr2 = JsonlTracer(str(path), append=True)
        tr2.emit("two")
        tr2.close()
        names = [json.loads(l)["name"] for l in path.read_text().splitlines()]
        assert names == ["one", "two"]

    def test_tee_forwards_to_children(self):
        a, b = CollectingTracer(), CollectingTracer()
        tee = TeeTracer([a, b])
        tee.emit("x", cursor=(0, 0), v=1)
        assert len(a.events) == len(b.events) == 1
        assert a.events[0].fields["v"] == 1

    def test_progress_prints_shown_events(self, capsys):
        import io
        buf = io.StringIO()
        tr = ProgressTracer(stream=buf)
        verify_ctl(_pingpong(), AG(EF(CAtom("P1"))), domain_size=1, tracer=tr)
        out = buf.getvalue()
        assert "[kripke.built]" in out
        assert "[verdict]" in out
        assert "[unit.start]" not in out  # not in SHOWN

    def test_resolve_tracer_env(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        tr = resolve_tracer(None)
        assert isinstance(tr, JsonlTracer) and tr.path == str(path)
        assert resolve_tracer(None) is tr  # cached singleton per path
        explicit = CollectingTracer()
        assert resolve_tracer(explicit) is explicit
        monkeypatch.delenv("REPRO_TRACE")
        assert resolve_tracer(None) is NULL_TRACER

    def test_trace_event_roundtrip(self):
        e = TraceEvent("x", 1.25, 42, (3, 4), {"dur": 0.5})
        d = e.to_dict()
        assert d == {"name": "x", "t": 1.25, "pid": 42,
                     "cursor": [3, 4], "dur": 0.5}


class TestTracerContextManager:
    """Tracers are context managers; close() is idempotent.

    Pinned because the server's per-job event capture relies on both:
    a handler raising mid-stream must release the spool file handle via
    ``__exit__``, and the worker may close an already-closed tee.
    """

    def test_enter_returns_self_and_exit_closes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tr = JsonlTracer(str(path))
        with tr as inside:
            assert inside is tr
            tr.emit("one")
        # the handle is released: the file is complete and reopenable
        names = [json.loads(l)["name"] for l in path.read_text().splitlines()]
        assert names == ["one"]

    def test_exit_does_not_swallow_exceptions(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError, match="mid-stream"):
            with JsonlTracer(str(path)) as tr:
                tr.emit("before-crash")
                raise RuntimeError("mid-stream")
        # ... yet the events emitted before the crash were flushed
        names = [json.loads(l)["name"] for l in path.read_text().splitlines()]
        assert names == ["before-crash"]

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tr = JsonlTracer(str(path))
        tr.emit("one")
        tr.close()
        tr.close()  # second close: no error, file untouched
        with tr:    # reuse as a context manager: also fine
            pass
        names = [json.loads(l)["name"] for l in path.read_text().splitlines()]
        assert names == ["one"]

    def test_emit_after_close_appends_not_clobbers(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tr = JsonlTracer(str(path))
        tr.emit("one")
        tr.close()
        tr.emit("straggler")  # e.g. a late worker event
        tr.close()
        names = [json.loads(l)["name"] for l in path.read_text().splitlines()]
        assert names == ["one", "straggler"]

    def test_tee_context_manager_closes_children(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        child = JsonlTracer(str(path))
        with TeeTracer([CollectingTracer(), child]) as tee:
            tee.emit("x")
        assert path.exists()
        # child handle closed: a fresh append-mode tracer sees the line
        names = [json.loads(l)["name"] for l in path.read_text().splitlines()]
        assert names == ["x"]

    def test_collecting_tracer_context_manager(self):
        with CollectingTracer() as tr:
            tr.emit("x")
        assert [e.name for e in tr.events] == ["x"]


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------

class TestCLITracing:
    @pytest.fixture()
    def spec_path(self, toy_service, tmp_path):
        from repro.io import save_service
        path = tmp_path / "toy.json"
        save_service(toy_service, path)
        return str(path)

    def _run(self, argv, capsys):
        from repro.cli import main
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_trace_flag_writes_jsonl(self, spec_path, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code, out, err = self._run(
            ["verify", spec_path, "--ltl", "G !ERROR", "--domain-size", "1",
             "--trace", str(trace)], capsys)
        assert code == 0
        assert "timings" in out
        assert f"trace written to {trace}" in err
        events = [json.loads(l) for l in trace.read_text().splitlines()]
        assert events[-1]["name"] == "verdict"

    def test_progress_flag_prints(self, spec_path, capsys):
        code, _, err = self._run(
            ["verify", spec_path, "--ltl", "G !ERROR", "--domain-size", "1",
             "--progress"], capsys)
        assert code == 0
        assert "[verdict]" in err

    def test_trace_and_progress_tee(self, spec_path, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code, _, err = self._run(
            ["verify", spec_path, "--ltl", "G !ERROR", "--domain-size", "1",
             "--trace", str(trace), "--progress"], capsys)
        assert code == 0
        assert "[verdict]" in err
        assert trace.exists()
