"""Tests for the static analyzer: passes, emitters, the verify()
pre-flight, the CLI subcommand, and the classifier fixes that ride
along (constant folding, state-projection location, why_not reasons)."""

import json

import pytest

from repro.fol import parse_formula
from repro.fol.transforms import constant_fold
from repro.lint import (
    CODES,
    LintReport,
    Severity,
    SpecLintError,
    lint_service,
    render,
    render_text,
    report_to_json,
    report_to_sarif,
)
from repro.lint.engine import PASSES, pass_of
from repro.ltl.parser import parse_ltlfo
from repro.obs import CollectingTracer
from repro.service import ServiceBuilder, ServiceClass, SpecificationError, classify
from repro.service.classify import find_state_projections
from repro.verifier import verify

from tests.conftest import build_toy_service


# ---------------------------------------------------------------------------
# hand-built specs
# ---------------------------------------------------------------------------

def build_contradictory_service():
    """One page whose only input rule folds to FALSE (an R301 error)."""
    b = ServiceBuilder("broken-options")
    b.input("choice", 1)
    p = b.page("P", home=True)
    p.options("choice", 'x = "a" & x != "a"', ("x",))
    p.target("P", 'choice("a")')
    return b.build()


def build_projection_service():
    """A state rule projecting a binary state relation (Theorem 3.8)."""
    b = ServiceBuilder("projector")
    b.input("go", 1)
    b.state("pair", 2)
    b.state("mark", 1)
    p = b.page("P", home=True)
    p.options("go", 'x = "on"', ("x",))
    # nested under a conjunction AND a multi-variable block: the old
    # top-level Exists(Atom) matcher saw neither
    p.insert("mark", 'go(x) & (exists y, z . (pair(x, y) & pair(z, x)))',
             ("x",))
    p.target("P", 'go("on")')
    return b.build()


def build_unguarded_service():
    """A state rule with an unguarded quantified variable (Theorem 3.7)."""
    b = ServiceBuilder("unguarded")
    b.database("item", 1)
    b.input("go", 1)
    b.state("seen", 0)
    p = b.page("P", home=True)
    p.options("go", "item(x)", ("x",))
    p.insert("seen", "exists y . (!item(y))")
    p.target("P", "true")
    return b.build()


# ---------------------------------------------------------------------------
# constant folding (fol.transforms)
# ---------------------------------------------------------------------------

class TestConstantFold:
    def fold(self, src: str) -> str:
        return type(constant_fold(parse_formula(src))).__name__

    def test_complementary_conjunction_folds_false(self):
        assert self.fold('p(x) & !p(x)') == "Bottom"

    def test_complementary_disjunction_folds_true(self):
        assert self.fold('p(x) | !p(x)') == "Top"

    def test_conflicting_equality_bindings_fold_false(self):
        assert self.fold('x = "a" & x = "b"') == "Bottom"

    def test_inequality_contradiction_folds_false(self):
        assert self.fold('x = "a" & x != "a"') == "Bottom"

    def test_quantifier_over_constant_body_collapses(self):
        assert self.fold('exists x . (p(x) & !p(x))') == "Bottom"
        assert self.fold('forall x . (p(x) | !p(x))') == "Top"

    def test_satisfiable_formula_survives(self):
        f = constant_fold(parse_formula('p(x) & q(x)'))
        assert type(f).__name__ not in ("Top", "Bottom")

    def test_distinct_variables_not_confused(self):
        # x = "a" & y = "b" is satisfiable; only same-variable conflicts fold
        assert self.fold('x = "a" & y = "b"') not in ("Top", "Bottom")


# ---------------------------------------------------------------------------
# state-projection location (Theorem 3.8 satellite)
# ---------------------------------------------------------------------------

class TestFindStateProjections:
    def test_nested_projection_found(self):
        svc = build_projection_service()
        sites = find_state_projections(svc)
        assert sites, "nested projection should be located"
        site = sites[0]
        assert site.page == "P"
        assert site.head == "mark"
        assert "pair" in site.atom
        assert "page P" in str(site)

    def test_classification_report_carries_sites(self):
        report = classify(build_projection_service())
        assert report.has_state_projections
        assert report.state_projections
        assert "Thm 3.8" in report.describe()

    def test_toy_service_has_no_projections(self, toy_service):
        assert find_state_projections(toy_service) == []

    def test_quantified_variable_must_touch_state_atom(self):
        # ∃y item(y) next to a ground state atom is NOT a projection
        b = ServiceBuilder("no-proj")
        b.database("item", 1)
        b.input("go", 0)
        b.state("flag", 0)
        p = b.page("P", home=True)
        p.toggle("go")
        p.insert("flag", "exists y . item(y)")
        p.target("P", "go")
        assert find_state_projections(b.build()) == []


# ---------------------------------------------------------------------------
# classifier negatives (why_not reasons per demo)
# ---------------------------------------------------------------------------

class TestClassifierNegatives:
    def test_ecommerce_why_not_names_the_page(self, demo_service):
        report = classify(demo_service)
        for cls in (ServiceClass.PROPOSITIONAL,
                    ServiceClass.FULLY_PROPOSITIONAL,
                    ServiceClass.INPUT_DRIVEN_SEARCH):
            reasons = report.why_not(cls)
            assert reasons, f"ecommerce should not be {cls}"
            assert any("page " in r for r in reasons)

    def test_search_site_blocked_by_prev(self):
        from repro.demo.search_site import search_service

        report = classify(search_service())
        assert report.is_in(ServiceClass.INPUT_DRIVEN_SEARCH)
        reasons = report.why_not(ServiceClass.PROPOSITIONAL)
        assert any("prev" in r for r in reasons)

    def test_propositional_demo_membership(self):
        from repro.demo.propositional import propositional_service

        report = classify(propositional_service())
        assert report.is_in(ServiceClass.FULLY_PROPOSITIONAL)
        assert report.why_not(ServiceClass.FULLY_PROPOSITIONAL) == []

    def test_unguarded_quantifier_blocks_input_bounded(self):
        report = classify(build_unguarded_service())
        reasons = report.why_not(ServiceClass.INPUT_BOUNDED)
        assert reasons
        assert any("guard" in r or "quantif" in r for r in reasons)

    def test_shared_input_bounded_reasons_are_consistent(self, demo_service):
        # the shared computation must give every dependent class the
        # same underlying input-boundedness reasons
        report = classify(demo_service)
        ib = set(report.why_not(ServiceClass.INPUT_BOUNDED))
        assert ib <= set(report.why_not(ServiceClass.PROPOSITIONAL))


# ---------------------------------------------------------------------------
# lint passes
# ---------------------------------------------------------------------------

class TestLintPasses:
    @pytest.fixture(scope="class")
    def demo_report(self, demo_service):
        return lint_service(demo_service)

    def test_every_pass_fires_on_demo_corpus(self, demo_report):
        # the dataflow pass needs whole-service defects the (clean)
        # ecommerce demo doesn't have; the dataflow demo supplies them
        from repro.demo import dataflow_demo_service

        diagnostics = list(demo_report.diagnostics)
        diagnostics += lint_service(dataflow_demo_service()).diagnostics
        owners = {pass_of(d.code) for d in diagnostics}
        assert {p.name for p in PASSES} <= owners

    def test_all_codes_catalogued(self, demo_report):
        for d in demo_report.diagnostics:
            assert d.code in CODES
            assert CODES[d.code].title

    def test_ecommerce_is_error_free(self, demo_report):
        # CI's self-lint gate: the shipped demos must carry no errors
        assert not demo_report.has_errors

    def test_contradictory_options_is_an_error(self):
        report = lint_service(build_contradictory_service())
        assert any(d.code == "R301" and d.severity is Severity.ERROR
                   for d in report.diagnostics)
        r301 = next(d for d in report.diagnostics if d.code == "R301")
        assert r301.page == "P"
        assert "page P" in r301.location

    def test_identical_target_rules_are_an_error(self):
        report = lint_service(build_toy_service(broken_target=True))
        errors = [d for d in report.errors if d.code == "P103"]
        assert errors and errors[0].page == "HP"

    def test_projection_surfaces_as_frontier_note(self):
        report = lint_service(build_projection_service())
        assert any(d.code == "F402" for d in report.diagnostics)

    def test_report_counts_and_summary(self, demo_report):
        counts = demo_report.counts()
        assert counts["warning"] == len(demo_report.warnings)
        assert "warning" in demo_report.summary()

    def test_severity_threshold(self, demo_report):
        assert demo_report.at_least(Severity.WARNING)
        assert not demo_report.at_least(Severity.ERROR)


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

class TestEmitters:
    @pytest.fixture(scope="class")
    def report(self, demo_service):
        return lint_service(demo_service)

    def test_text_lines_carry_code_and_location(self, report):
        text = render_text(report)
        d = report.diagnostics[0]
        assert d.code in text
        assert report.summary() in text

    def test_json_roundtrip(self, report):
        data = json.loads(render(report, "json"))
        assert data == report_to_json(report)
        assert data["service"] == report.service_name
        assert len(data["diagnostics"]) == len(report.diagnostics)
        assert set(data["summary"]) == {"error", "warning", "note"}

    def test_sarif_structure(self, report):
        sarif = report_to_sarif(report)
        assert sarif["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in sarif["$schema"]
        run = sarif["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        rule_ids = [r["id"] for r in rules]
        assert len(rule_ids) == len(set(rule_ids))
        for result in run["results"]:
            assert result["ruleId"] in rule_ids
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            assert result["level"] in ("error", "warning", "note")
            loc = result["locations"][0]["logicalLocations"][0]
            assert loc["fullyQualifiedName"]

    def test_sarif_rules_carry_default_level(self, report):
        run = report_to_sarif(report)["runs"][0]
        for rule in run["tool"]["driver"]["rules"]:
            assert rule["defaultConfiguration"]["level"] in (
                "error", "warning", "note")

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ValueError):
            render(report, "xml")


# ---------------------------------------------------------------------------
# validation migrated onto diagnostics
# ---------------------------------------------------------------------------

class TestValidationDiagnostics:
    def test_specification_error_carries_coded_diagnostics(self):
        b = ServiceBuilder("bad")
        b.input("go", 0)
        p = b.page("P", home=True)
        p.toggle("go")
        p.target("MISSING", "go")
        with pytest.raises(SpecificationError) as exc_info:
            b.build()
        diags = exc_info.value.diagnostics
        assert diags
        assert all(d.code.startswith("S0") for d in diags)
        # the legacy string API is the diagnostics' messages, verbatim
        assert exc_info.value.problems == [d.message for d in diags]

    def test_duplicate_page_diagnostic(self):
        from repro.service.webservice import WebService

        b = ServiceBuilder("dup")
        b.input("go", 0)
        p = b.page("P", home=True)
        p.toggle("go")
        p.target("P", "go")
        svc = b.build()
        page = svc.pages["P"]
        with pytest.raises(SpecificationError) as exc_info:
            WebService(svc.schema, [page, page], "P", svc.error_page)
        assert any(d.code == "S001" for d in exc_info.value.diagnostics)


# ---------------------------------------------------------------------------
# verify() pre-flight
# ---------------------------------------------------------------------------

class TestVerifyPreflight:
    @pytest.fixture()
    def broken(self):
        svc = build_contradictory_service()
        prop = parse_ltlfo(
            "G !ERROR",
            input_constants=svc.schema.input_constants,
            db_constants=svc.schema.database.constants,
        )
        return svc, prop

    def test_strict_refuses_before_any_enumeration(self, broken):
        svc, prop = broken
        tracer = CollectingTracer()
        with pytest.raises(SpecLintError) as exc_info:
            verify(svc, prop, lint="strict", tracer=tracer)
        names = [e.name for e in tracer.events]
        assert "lint.finding" in names
        assert "database.enumerated" not in names
        assert exc_info.value.report.has_errors

    def test_warn_findings_precede_enumeration(self, broken):
        svc, prop = broken
        tracer = CollectingTracer()
        result = verify(svc, prop, lint="warn", tracer=tracer, domain_size=1)
        names = [e.name for e in tracer.events]
        assert names.index("lint.finding") < names.index("database.enumerated")
        assert any(d.code == "R301" for d in result.diagnostics)
        assert "lint" in result.describe()

    def test_off_skips_the_preflight(self, broken):
        svc, prop = broken
        tracer = CollectingTracer()
        result = verify(svc, prop, lint="off", tracer=tracer, domain_size=1)
        assert "lint.finding" not in [e.name for e in tracer.events]
        assert result.diagnostics == []

    def test_clean_spec_attaches_nothing_extra(self, toy_service, toy_db):
        prop = parse_ltlfo(
            "G !ERROR",
            input_constants=toy_service.schema.input_constants,
            db_constants=toy_service.schema.database.constants,
        )
        result = verify(toy_service, prop, databases=[toy_db])
        # toy service lints clean of errors; warnings/notes still attach
        assert all(d.severity is not Severity.ERROR
                   for d in result.diagnostics)

    def test_invalid_mode_rejected(self, broken):
        svc, prop = broken
        with pytest.raises(ValueError, match="lint="):
            verify(svc, prop, lint="loud")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestLintCLI:
    @pytest.fixture()
    def spec_path(self, tmp_path, demo_service):
        from repro.io import save_service

        path = tmp_path / "demo.json"
        save_service(demo_service, path)
        return str(path)

    @pytest.fixture()
    def broken_path(self, tmp_path):
        from repro.io import save_service

        path = tmp_path / "broken.json"
        save_service(build_contradictory_service(), path)
        return str(path)

    def main(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_fail_on_error_passes_clean_demo(self, spec_path, capsys):
        assert self.main("lint", spec_path, "--fail-on", "error") == 0
        assert "warning" in capsys.readouterr().out

    def test_fail_on_warning_trips(self, spec_path, capsys):
        assert self.main("lint", spec_path, "--fail-on", "warning") == 1

    def test_error_spec_fails_default_threshold(self, broken_path, capsys):
        assert self.main("lint", broken_path) == 1
        assert "R301" in capsys.readouterr().out

    def test_json_format(self, spec_path, capsys):
        self.main("lint", spec_path, "--format", "json")
        data = json.loads(capsys.readouterr().out)
        assert data["diagnostics"]

    def test_sarif_output_file(self, spec_path, tmp_path, capsys):
        out = tmp_path / "report.sarif"
        self.main("lint", spec_path, "--format", "sarif", "-o", str(out))
        sarif = json.loads(out.read_text())
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"]

    def test_missing_spec_is_usage_error(self, tmp_path, capsys):
        assert self.main("lint", str(tmp_path / "nope.json")) == 2

    def test_verify_strict_exits_6(self, broken_path, capsys):
        code = self.main("verify", broken_path, "--ltl", "G !ERROR",
                         "--lint", "strict")
        assert code == 6
        assert "lint" in capsys.readouterr().err

    def test_verify_warn_still_runs(self, broken_path, capsys):
        code = self.main("verify", broken_path, "--ltl", "G !ERROR",
                         "--domain-size", "1")
        assert code in (0, 1)

    def test_error_free_runs_lint_preflight(self, spec_path, capsys):
        # Regression: --error-free used to forward the CLI's lint option
        # verbatim to verify_error_free(), which crashed with a TypeError
        # instead of running the pre-flight.
        code = self.main("verify", spec_path, "--error-free",
                         "--domain-size", "1")
        assert code in (0, 1)
        assert "lint" in capsys.readouterr().out

    def test_error_free_lint_off_suppresses(
        self, spec_path, capsys, monkeypatch
    ):
        # a REPRO_TRACE tracer would print the lint events of earlier
        # tests in its timings
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        code = self.main("verify", spec_path, "--error-free",
                         "--domain-size", "1", "--lint", "off")
        assert code in (0, 1)
        assert "lint" not in capsys.readouterr().out

    def test_error_free_strict_exits_6(self, broken_path, capsys):
        code = self.main("verify", broken_path, "--error-free",
                         "--lint", "strict")
        assert code == 6
        assert "lint" in capsys.readouterr().err
