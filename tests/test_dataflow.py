"""Whole-service dataflow analysis, D5xx lint family, and plan pruning.

Three layers under test:

- the fixpoint analysis itself (:mod:`repro.analysis.dataflow`) on
  hand-built services with known facts;
- the D5xx diagnostics it powers, including witness paths in all three
  report formats, stable fingerprints, and baseline suppression;
- the pruning seam in :mod:`repro.service.compiled`: a step-level
  differential — every snapshot reachable under the pruned plans lies on
  a kept page and has the same successors under the unpruned plans —
  plus pool-vs-sequential identity of verification over pruned services.
"""

import json
import random
from collections import deque
from pathlib import Path

import pytest

from repro.analysis.dataflow import Tri, analyze_service, static_facts
from repro.demo import dataflow_demo_service
from repro.fol.formulas import Atom, Not
from repro.lint import (
    apply_baseline,
    lint_service,
    parse_baseline,
    render,
    report_to_json,
    report_to_sarif,
    write_baseline,
)
from repro.lint.baseline import BaselineFormatError
from repro.ltl import G, LTLFOSentence
from repro.schema.database import Database
from repro.service import ServiceBuilder
from repro.service.compiled import CompiledService, pruning_stats
from repro.service.runs import (
    RunContext,
    initial_snapshots,
    random_run,
    successors,
)
from repro.verifier import Verdict
from repro.verifier.engine import candidate_databases, enumerate_sigmas
from repro.verifier.linear import verify_ltlfo

from tests.test_bitset import SPECS, corpus_inputs


# ---------------------------------------------------------------------------
# hand-built services with known facts
# ---------------------------------------------------------------------------

def _constant_dead_service():
    """MID re-requests @c, so its rules are dead *only* through
    input-constant propagation (no formula folds to false anywhere)."""
    b = ServiceBuilder("const-dead")
    b.input_constant("c")
    b.input("go")
    b.state("mark")
    home = b.page("HOME", home=True)
    home.request("c")
    home.toggle("go")
    home.target("MID", "go")
    mid = b.page("MID")
    mid.request("c")  # always provided by HOME: condition (ii) fires
    mid.toggle("go")
    mid.insert("mark", "go")
    mid.target("DEEP", "go")
    deep = b.page("DEEP")
    deep.toggle("go")
    deep.target("HOME", "go")
    return b.build()


def _cascading_empty_service():
    """Emptiness propagates: ghost has no insert rule, so the only
    insert into chain is dead, so chain is empty too — round two."""
    b = ServiceBuilder("cascade")
    b.input("go")
    b.input("item", 1)
    b.database("allowed", 1)
    b.state("ghost", 1)
    b.state("chain", 1)
    p = b.page("P", home=True)
    p.toggle("go")
    p.options("item", "allowed(x)", ("x",))
    p.insert("chain", "item(x) & ghost(x)", ("x",))   # dead: ghost empty
    p.target("Q", "exists x . item(x) & chain(x)")    # dead: chain empty
    p.target("P", "go")
    b.page("Q").toggle("go")
    return b.build()


def _refuted_reader_service():
    """A rule the dataflow refutes (ghost is never inserted) that still
    reads the unprovided @c before failing: evaluating it is error
    condition (i), so pruning must keep it."""
    b = ServiceBuilder("refuted-reader")
    b.input_constant("c")
    b.input("go")
    b.state("ghost")
    b.state("mark")
    home = b.page("HOME", home=True)
    home.toggle("go")
    home.insert("mark", 'c = "v" & ghost')
    home.target("NEXT", "go")
    b.page("NEXT").request("c")
    return b.build()


def _random_dead_rule_service(seed: int):
    """Seeded service in the input-bounded class with a sprinkling of
    statically-dead rules (all guarded by the never-inserted ghost)."""
    rng = random.Random(seed)
    b = ServiceBuilder(f"rnd-{seed}")
    b.input("go")
    b.input("alt")
    b.input("item", 1)
    b.database("allowed", 1)
    b.state("ghost")  # no insert rule anywhere: statically false
    b.state("mark")
    b.action("ack", 1)
    names = [f"P{i}" for i in range(rng.randint(3, 5))]
    for i, name in enumerate(names):
        p = b.page(name, home=(i == 0))
        p.toggle("go", "alt")
        p.options("item", "allowed(x)", ("x",))
        p.target(names[(i + 1) % len(names)], "go & !alt")
        if rng.random() < 0.7:
            # dead edge: ghost is false on every reachable snapshot
            p.target(
                names[rng.randrange(len(names) - 1)],
                "ghost & alt & !go",
            )
        if rng.random() < 0.6:
            p.insert("mark", "alt & ghost")
        if rng.random() < 0.4:
            p.act("ack", "item(x) & ghost", ("x",))
    return b.build()


@pytest.fixture(scope="module")
def demo_facts():
    return static_facts(dataflow_demo_service())


@pytest.fixture(scope="module")
def demo_report():
    return lint_service(dataflow_demo_service())


# ---------------------------------------------------------------------------
# the analysis itself
# ---------------------------------------------------------------------------

class TestAnalysis:
    def test_refined_reachability(self, demo_facts):
        assert demo_facts.reachable == {"HOME", "MID", "STAGE", "VIEW"}
        assert demo_facts.unreachable_refined == {"DEEP", "GHOSTLAND"}
        assert demo_facts.syntactic_reachable == demo_facts.pages

    def test_always_error_page(self, demo_facts):
        assert demo_facts.always_error == {"MID"}

    def test_constant_propagation(self, demo_facts):
        # HOME's self-loop re-enters with token provided: MAYBE at entry
        assert demo_facts.constants_at["HOME"]["token"] is Tri.MAYBE
        assert demo_facts.constants_at["MID"]["token"] is Tri.SET
        assert demo_facts.constants_at["VIEW"]["key"] is Tri.UNSET

    def test_relation_liveness(self, demo_facts):
        assert demo_facts.empty_state_relations == {"ghost"}
        assert set(demo_facts.write_only) == {"audit"}
        assert demo_facts.write_only["audit"]["readers"] == ("DEEP",)

    def test_unset_reads(self, demo_facts):
        assert [(r.page, r.kind, r.head, r.constant)
                for r in demo_facts.unset_reads] == [
            ("VIEW", "action", "log", "key"),
        ]

    def test_witness_paths(self, demo_facts):
        assert demo_facts.witness("VIEW") == ("HOME", "STAGE", "VIEW")
        # dead pages get a syntactic witness (the refuted chain)
        assert demo_facts.witness("DEEP") == ("HOME", "MID", "DEEP")
        assert demo_facts.witness("GHOSTLAND") == ("HOME", "STAGE", "GHOSTLAND")

    def test_dead_rule_reasons(self, demo_facts):
        reasons = {f.key: f.reason for f in demo_facts.dead_rules}
        assert reasons[("MID", "target", 0)] == "always-error-page"
        assert reasons[("STAGE", "action", 0)] == "refuted"
        assert reasons[("STAGE", "target", 0)] == "refuted"
        assert all(not f.plain for f in demo_facts.dead_rules)

    def test_prunable_keys_exclude_dead_pages(self, demo_facts):
        keys = demo_facts.prunable_keys()
        assert ("MID", "target", 0) in keys
        assert all(page in demo_facts.reachable for page, _, _ in keys)

    def test_cascading_emptiness_needs_second_round(self):
        facts = analyze_service(_cascading_empty_service())
        assert facts.iterations >= 2
        assert facts.empty_state_relations == {"ghost", "chain"}
        assert "Q" in facts.pages - facts.reachable

    def test_constant_only_deadness(self):
        facts = static_facts(_constant_dead_service())
        assert facts.always_error == {"MID"}
        assert facts.reachable == {"HOME", "MID"}
        # the deadness is invisible to constant folding alone
        assert all(not f.plain for f in facts.dead_rules)
        assert ("MID", "state", 0) in {f.key for f in facts.dead_rules}

    def test_facts_cached_per_service(self):
        svc = dataflow_demo_service()
        assert static_facts(svc) is static_facts(svc)

    def test_to_dict_is_json_safe(self, demo_facts):
        blob = json.dumps(demo_facts.to_dict())
        data = json.loads(blob)
        assert data["unreachable_refined"] == ["DEEP", "GHOSTLAND"]
        assert data["constants_at"]["MID"]["token"] == "set"


# ---------------------------------------------------------------------------
# the D5xx lint family
# ---------------------------------------------------------------------------

class TestDataflowLint:
    def test_all_five_codes_fire(self, demo_report):
        codes = {d.code for d in demo_report.diagnostics}
        assert {"D501", "D502", "D503", "D504", "D505"} <= codes

    def test_d505_is_an_error_with_witness(self, demo_report):
        d = next(d for d in demo_report.diagnostics if d.code == "D505")
        assert d.severity.value == "error"
        assert d.witness_path == ("HOME", "STAGE", "VIEW")
        assert "via HOME -> STAGE -> VIEW" in str(d)

    def test_d501_names_only_refined_unreachable(self, demo_report):
        pages = {d.page for d in demo_report.diagnostics if d.code == "D501"}
        assert pages == {"DEEP", "GHOSTLAND"}

    def test_witness_paths_in_json(self, demo_report):
        data = json.loads(render(demo_report, "json"))
        d501 = [d for d in data["diagnostics"] if d["code"] == "D501"]
        assert all(d["witness_path"] for d in d501)
        assert all("fingerprint" in d for d in data["diagnostics"])

    def test_witness_paths_in_sarif(self, demo_report):
        sarif = json.loads(render(demo_report, "sarif"))
        results = sarif["runs"][0]["results"]
        assert all("reproLint/v1" in r["partialFingerprints"]
                   for r in results)
        d505 = next(r for r in results if r["ruleId"] == "D505")
        assert d505["properties"]["witness_path"] == [
            "HOME", "STAGE", "VIEW",
        ]

    def test_static_facts_in_json_report(self, demo_report):
        facts = static_facts(dataflow_demo_service())
        data = json.loads(render(demo_report, "json", facts=facts))
        assert data["static_facts"]["always_error"] == ["MID"]
        sarif = json.loads(render(demo_report, "sarif", facts=facts))
        props = sarif["runs"][0]["properties"]
        assert props["static_facts"]["empty_state_relations"] == ["ghost"]

    def test_clean_service_stays_clean(self):
        from repro.demo import ecommerce_service

        report = lint_service(ecommerce_service())
        assert not any(d.code.startswith("D5") for d in report.diagnostics)


# ---------------------------------------------------------------------------
# fingerprints and baselines
# ---------------------------------------------------------------------------

class TestBaseline:
    def test_fingerprints_stable_across_runs(self):
        a = lint_service(dataflow_demo_service())
        b = lint_service(dataflow_demo_service())
        assert ([d.fingerprint for d in a.diagnostics]
                == [d.fingerprint for d in b.diagnostics])

    def test_fingerprint_ignores_message_wording(self, demo_report):
        # fingerprints hash the location facts, never the prose
        d = demo_report.diagnostics[0]
        assert len(d.fingerprint) == 16
        int(d.fingerprint, 16)  # hex

    def test_apply_baseline_suppresses(self, demo_report):
        errors = {d.fingerprint for d in demo_report.diagnostics
                  if d.severity.value == "error"}
        filtered, suppressed = apply_baseline(demo_report, errors)
        assert suppressed == len(errors) > 0
        assert not filtered.has_errors
        assert filtered.service_name == demo_report.service_name

    def test_parse_native_and_report_formats(self, demo_report):
        native = parse_baseline(
            {"format": "repro.lint-baseline/1",
             "fingerprints": ["ab", "cd"]}, "x")
        assert native == {"ab", "cd"}
        from_json = parse_baseline(json.loads(render(demo_report, "json")),
                                   "r.json")
        from_sarif = parse_baseline(json.loads(render(demo_report, "sarif")),
                                    "r.sarif")
        all_fps = {d.fingerprint for d in demo_report.diagnostics}
        assert from_json == all_fps
        assert from_sarif == all_fps

    def test_parse_rejects_garbage(self):
        with pytest.raises(BaselineFormatError):
            parse_baseline({"what": "ever"}, "bad.json")

    def test_write_roundtrip(self, tmp_path, demo_report):
        path = tmp_path / "base.json"
        count = write_baseline([demo_report], path)
        assert count == len({d.fingerprint for d in demo_report.diagnostics})
        data = json.loads(path.read_text())
        assert data["format"] == "repro.lint-baseline/1"
        assert data["fingerprints"] == sorted(data["fingerprints"])

    def test_checked_in_baseline_covers_demo_errors(self):
        """CI contract: examples/lint-baseline.json suppresses exactly
        the intentional error findings of the shipped specs."""
        from pathlib import Path

        from repro.lint import load_baseline

        path = Path(__file__).parent.parent / "examples/lint-baseline.json"
        known = load_baseline(path)
        report = lint_service(dataflow_demo_service())
        filtered, _ = apply_baseline(report, known)
        assert report.has_errors and not filtered.has_errors


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestDataflowCLI:
    @pytest.fixture()
    def demo_path(self, tmp_path):
        from repro.io import save_service

        path = tmp_path / "dataflow.json"
        save_service(dataflow_demo_service(), path)
        return str(path)

    def main(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_fail_on_ordering(self, demo_path, tmp_path, capsys):
        from repro.io import save_service

        clean = tmp_path / "clean.json"
        save_service(_constant_only_note_service(), clean)
        # note < warning < error: the same spec trips progressively
        assert self.main("lint", str(clean), "--fail-on", "error") == 0
        assert self.main("lint", str(clean), "--fail-on", "warning") == 0
        assert self.main("lint", str(clean), "--fail-on", "note") == 1

    def test_analyze_appends_facts(self, demo_path, capsys):
        self.main("lint", demo_path, "--analyze")
        out = capsys.readouterr().out
        assert "dataflow facts for" in out
        assert "always-error (condition (ii)): MID" in out

    def test_baseline_flag_suppresses_and_gates(self, demo_path, tmp_path,
                                                capsys):
        assert self.main("lint", demo_path, "--fail-on", "error") == 1
        base = tmp_path / "base.json"
        report = lint_service(dataflow_demo_service())
        errors = [d.fingerprint for d in report.diagnostics
                  if d.severity.value == "error"]
        base.write_text(json.dumps(
            {"format": "repro.lint-baseline/1", "fingerprints": errors}
        ))
        code = self.main("lint", demo_path, "--fail-on", "error",
                         "--baseline", str(base))
        assert code == 0
        assert "suppressed" in capsys.readouterr().err

    def test_bad_baseline_is_usage_error(self, demo_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"what": "ever"}')
        assert self.main("lint", demo_path, "--baseline", str(bad)) == 2


def _constant_only_note_service():
    """A spec whose worst finding is note-severity (for --fail-on note)."""
    b = ServiceBuilder("noteworthy")
    b.input("go")
    b.state("flag")
    p = b.page("P", home=True)
    p.toggle("go")
    p.insert("flag", "go")     # inserted, never deleted: R304 note
    p.target("Q", "go & flag")
    q = b.page("Q")
    q.toggle("go")
    q.target("P", "go")
    return b.build()


# ---------------------------------------------------------------------------
# pruning: stats, and the step-level differential against unpruned plans
# ---------------------------------------------------------------------------

def _fingerprint(result):
    # stats["workers"] and stats["config"] record the worker count the
    # compared runs differ in on purpose; everything else must match
    return (
        result.verdict,
        result.procedure,
        result.method,
        result.counterexample,
        {
            k: v for k, v in result.stats.items()
            if k not in ("workers", "config")
        },
    )


def _all_pairs(svc, domain_size):
    """Every (database, sigma) of the small-model enumeration."""
    dbs, _ = candidate_databases(svc, None, None, domain_size, True)
    return [(db, sigma) for db in dbs for sigma in enumerate_sigmas(svc, db)]


def _assert_steps_match_unpruned(svc, db, sigma):
    """BFS the snapshots reachable under the pruned plans: none lies on
    a page pruning dropped, and each has the same successors under the
    unpruned plans.  Returns the number of snapshots checked."""
    ctx = RunContext(svc, db, sigma=sigma)
    full = RunContext(svc, db, sigma=sigma)
    full.compiled = CompiledService(svc, prune=False)
    dropped = set(full.compiled.pages) - set(ctx.compiled.pages)
    starts = initial_snapshots(ctx)
    assert initial_snapshots(full) == starts
    seen = set(starts)
    frontier = deque(starts)
    while frontier:
        snap = frontier.popleft()
        assert snap.page not in dropped, snap.describe()
        nexts = successors(ctx, snap)
        assert successors(full, snap) == nexts, snap.describe()
        for nxt in nexts:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


@pytest.mark.parametrize("path", SPECS, ids=lambda p: Path(p).stem)
def test_steps_match_unpruned_on_corpus(path):
    svc, db, sigma = corpus_inputs(path)
    assert _assert_steps_match_unpruned(svc, db, sigma) > 1


def test_steps_match_unpruned_on_demo():
    svc = dataflow_demo_service()
    assert pruning_stats(svc)[1] == 2
    for db, sigma in _all_pairs(svc, 1):
        _assert_steps_match_unpruned(svc, db, sigma)


def test_steps_match_unpruned_with_refuted_constant_reader():
    svc = _refuted_reader_service()
    facts = static_facts(svc)
    assert [(f.key, f.prunable) for f in facts.dead_rules] == [
        (("HOME", "state", 0), False)
    ]
    for db, sigma in _all_pairs(svc, 1):
        _assert_steps_match_unpruned(svc, db, sigma)


class TestPruning:
    def test_demo_prunes_rules_and_pages(self):
        rules, pages = pruning_stats(dataflow_demo_service())
        assert pages == 2          # DEEP, GHOSTLAND
        assert rules >= 3 + 4      # 3 prunable + the dead pages' rules

    def test_pruning_off_is_zero(self):
        full = CompiledService(dataflow_demo_service(), prune=False)
        assert (full.pruned_rules, full.pruned_pages) == (0, 0)
        assert "DEEP" in full.pages

    def test_pruned_page_lookup_raises(self):
        """No fallback: no run enters a dropped page, so a lookup is a
        dataflow bug and fails loudly."""
        svc = dataflow_demo_service()
        ctx = RunContext(svc, Database(svc.schema.database))
        with pytest.raises(KeyError, match="DEEP"):
            ctx.compiled_page("DEEP")

    def test_run_level_differential_on_demo(self):
        """Random runs over the demo service are the same under the
        pruned and the unpruned plans."""
        svc = dataflow_demo_service()
        db = Database(svc.schema.database)

        def traces(compiled=None, steps=10, seeds=range(6)):
            out = []
            for seed in seeds:
                ctx = RunContext(
                    svc, db, sigma={"token": "t", "key": "k"}
                )
                if compiled is not None:
                    ctx.compiled = compiled
                out.append(random_run(ctx, steps, rng=seed).snapshots)
            return out

        assert traces() == traces(CompiledService(svc, prune=False))

    def test_constant_dead_regression_sequential_and_workers(self):
        """Pinned regression: rules dead *only* via input-constant
        propagation are pruned, every reachable step matches the
        unpruned plans, and verification agrees sequentially and under
        workers=2."""
        svc = _constant_dead_service()
        rules, pages = pruning_stats(svc)
        assert pages == 1  # DEEP is only reachable through dead MID
        assert rules >= 2  # MID's state + target rules at minimum
        for db, sigma in _all_pairs(svc, 1):
            _assert_steps_match_unpruned(svc, db, sigma)

        prop = LTLFOSentence((), G(Not(Atom("DEEP", ()))), name="never DEEP")
        result = verify_ltlfo(svc, prop, domain_size=1)
        assert result.verdict is Verdict.HOLDS
        parallel = verify_ltlfo(svc, prop, domain_size=1, workers=2)
        assert _fingerprint(parallel) == _fingerprint(result)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_seeded_differential(self, seed):
        svc = _random_dead_rule_service(seed)
        rules, _pages = pruning_stats(svc)
        assert rules > 0, "seeded service should carry dead rules"
        for db, sigma in _all_pairs(svc, 2):
            _assert_steps_match_unpruned(svc, db, sigma)

    def test_seeded_differential_with_workers(self):
        svc = _random_dead_rule_service(1)
        prop = LTLFOSentence((), G(Not(Atom("P1", ()))), name="never P1")
        sequential = verify_ltlfo(svc, prop, domain_size=2)
        parallel = verify_ltlfo(svc, prop, domain_size=2, workers=2)
        assert _fingerprint(parallel) == _fingerprint(sequential)

    def test_plan_pruned_trace_event(self):
        from repro.obs import CollectingTracer

        svc = _constant_dead_service()
        prop = LTLFOSentence((), G(Not(Atom("DEEP", ()))), name="never DEEP")
        tr = CollectingTracer()
        verify_ltlfo(svc, prop, domain_size=1, tracer=tr)
        names = [e.name for e in tr.events]
        assert "plan.pruned" in names
        ev = next(e for e in tr.events if e.name == "plan.pruned")
        assert ev.fields["pruned_pages"] == 1
        assert ev.fields["pruned_rules"] >= 2
        # emitted right after plan.compiled
        assert names.index("plan.pruned") == names.index("plan.compiled") + 1


# ---------------------------------------------------------------------------
# classification integration (facts field + projection dedupe)
# ---------------------------------------------------------------------------

class TestClassifyIntegration:
    def test_classification_carries_facts(self):
        from repro.service import classify

        report = classify(dataflow_demo_service())
        assert report.static_facts is not None
        assert report.static_facts.always_error == {"MID"}

    def test_projection_sites_deduplicated(self):
        """Regression: a projected state atom repeated across branches
        was reported once per occurrence."""
        from repro.service.classify import find_state_projections

        b = ServiceBuilder("proj")
        b.input("record", 1)
        b.input("done")
        b.state("stored", 2)
        b.state("flat", 1)
        p = b.page("P", home=True)
        p.toggle("done")
        p.options("record", "exists y . stored(x, y)", ("x",))
        p.insert(
            "flat",
            "record(x) & (exists y . (stored(x, y) | (stored(x, y) & done)))",
            ("x",),
        )
        sites = find_state_projections(b.build())
        keys = [(s.page, s.head, s.atom) for s in sites]
        assert len(keys) == len(set(keys))
        assert len([s for s in sites if s.head == "flat"]) == 1
