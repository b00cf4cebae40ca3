"""Tests for the io (JSON, pretty printing) and analysis (navigation,
protocol, ambiguity audits) subpackages."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    ambiguity_audit,
    audit_service,
    constant_protocol_audit,
    dead_target_rules,
    navigation_report,
    page_graph,
    reachable_pages,
    unreachable_pages,
)
from repro.fol import FALSE, parse_formula
from repro.io import (
    database_from_dict,
    database_to_dict,
    load_service,
    page_to_text,
    save_service,
    service_from_dict,
    service_to_dict,
    service_to_text,
)
from repro.service import ServiceBuilder


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

class TestJsonFormat:
    def test_service_round_trip(self, core):
        data = service_to_dict(core)
        rebuilt = service_from_dict(data)
        assert service_to_dict(rebuilt) == data
        for p1, p2 in zip(core.pages.values(), rebuilt.pages.values()):
            assert tuple(p1.input_rules) == tuple(p2.input_rules)
            assert tuple(p1.state_rules) == tuple(p2.state_rules)
            assert tuple(p1.action_rules) == tuple(p2.action_rules)
            assert tuple(p1.target_rules) == tuple(p2.target_rules)

    def test_full_demo_round_trip(self, demo_service):
        data = service_to_dict(demo_service)
        rebuilt = service_from_dict(data)
        assert service_to_dict(rebuilt) == data

    def test_json_serializable(self, core):
        text = json.dumps(service_to_dict(core))
        assert "ecommerce-core" in text

    def test_file_round_trip(self, core, tmp_path):
        path = tmp_path / "svc.json"
        save_service(core, path)
        rebuilt = load_service(path)
        assert rebuilt.page_names == core.page_names
        assert rebuilt.home == core.home

    def test_format_tag_required(self):
        with pytest.raises(ValueError, match="format"):
            service_from_dict({"pages": []})

    def test_database_round_trip(self, core, core_db):
        data = database_to_dict(core_db)
        rebuilt = database_from_dict(data, core.schema.database)
        assert rebuilt == core_db

    def test_database_format_tag(self, core):
        with pytest.raises(ValueError, match="format"):
            database_from_dict({}, core.schema.database)


class TestFormulaTextRoundTrip:
    """str(formula) parses back to an equal formula — the invariant the
    JSON format relies on."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    @pytest.mark.slow
    def test_random_formulas_round_trip(self, data):
        from repro.fol import (
            And, Atom, Eq, Exists, Forall, Iff, Implies, Not, Or,
            parse_formula,
        )
        from repro.fol.terms import DbConst, InputConst, Lit, Var

        def terms(variables):
            pool = [Lit("a"), Lit(7), InputConst("name"), DbConst("kmin")]
            pool += [Var(v) for v in variables]
            return st.sampled_from(pool)

        def formulas(variables, depth):
            base = st.one_of(
                st.builds(lambda t: Atom("p", (t,)), terms(variables)),
                st.builds(Eq, terms(variables), terms(variables)),
                st.just(Atom("flag", ())),
            )
            if depth == 0:
                return base
            sub = formulas(variables, depth - 1)
            fresh = f"v{depth}"
            subq = formulas(variables + (fresh,), depth - 1)
            return st.one_of(
                base,
                st.builds(Not, sub),
                st.builds(lambda l, r: And(l, r), sub, sub),
                st.builds(lambda l, r: Or(l, r), sub, sub),
                st.builds(Implies, sub, sub),
                st.builds(Iff, sub, sub),
                st.builds(lambda b: Exists(fresh, b), subq),
                st.builds(lambda b: Forall(fresh, b), subq),
            )

        f = data.draw(formulas((), 3))
        assert parse_formula(str(f)) == f


class TestPretty:
    def test_page_layout(self, core):
        text = page_to_text(core, core.page("HP"))
        assert text.startswith("Page HP")
        assert text.rstrip().endswith("End Page HP")
        assert "Input Rules:" in text and "Target Rules:" in text

    def test_service_layout(self, core):
        text = service_to_text(core)
        assert "database schema" in text
        assert "input constants: name, password" in text
        for page in core.pages:
            assert f"Page {page}" in text


# ---------------------------------------------------------------------------
# navigation analyses
# ---------------------------------------------------------------------------

class TestNavigation:
    def test_page_graph_edges(self, core):
        graph = page_graph(core)
        assert "CP" in graph["HP"]
        assert "HP" in graph["HP"]  # implicit stay loop

    def test_all_core_pages_reachable(self, core):
        assert unreachable_pages(core) == frozenset()
        assert reachable_pages(core) == core.page_names

    def test_unreachable_page_detected(self):
        b = ServiceBuilder("orphan")
        b.input("go")
        hp = b.page("HP", home=True)
        hp.toggle("go")
        hp.target("P2", "go")
        b.page("P2")
        b.page("LONELY")
        svc = b.build()
        assert unreachable_pages(svc) == {"LONELY"}

    def test_dead_target_rules(self):
        b = ServiceBuilder("dead")
        b.input("go")
        hp = b.page("HP", home=True)
        hp.toggle("go")
        hp.target("P2", FALSE)
        b.page("P2")
        svc = b.build()
        assert len(dead_target_rules(svc)) == 1

    def test_navigation_report(self, demo_service):
        text = navigation_report(demo_service)
        assert "unreachable pages: none" in text
        assert "pages: 19" in text


# ---------------------------------------------------------------------------
# protocol / ambiguity audits
# ---------------------------------------------------------------------------

class TestProtocolAudit:
    def test_demo_rerequest_flagged(self, demo_service):
        findings = constant_protocol_audit(demo_service)
        rerequests = [
            f for f in findings if "re-requests" in f.message and f.page == "HP"
        ]
        assert rerequests  # the clear/back loops revisit HP

    def test_core_audit_clean_of_errors(self, core):
        findings = constant_protocol_audit(core)
        assert not [f for f in findings if f.severity == "error"]

    def test_read_before_provide_flagged(self):
        b = ServiceBuilder("early")
        b.input_constant("name")
        b.input("go")
        hp = b.page("HP", home=True)  # reads @name but never requests it
        hp.toggle("go")
        hp.target("P2", b.formula('go & name = "x"'))
        b.page("P2")
        svc = b.build()
        findings = constant_protocol_audit(svc)
        assert any(
            f.severity == "error" and "reads @name" in f.message
            for f in findings
        )

    def test_stay_on_requesting_page_flagged(self, core):
        findings = constant_protocol_audit(core)
        assert any("can stay here" in f.message for f in findings)

    def test_ambiguity_audit_exclusive_buttons_pass(self, core):
        findings = ambiguity_audit(core)
        # login/logout-style buttons are recognised as exclusive;
        # the remaining warnings must not involve pure button pairs
        hp_findings = [f for f in findings if f.page == "HP"]
        assert not hp_findings

    def test_ambiguity_audit_flags_overlap(self):
        b = ServiceBuilder("amb")
        b.input("x")
        b.input("y")
        hp = b.page("HP", home=True)
        hp.toggle("x", "y")
        hp.target("P1", "x")
        hp.target("P2", "y")  # x and y can both be true
        b.page("P1")
        b.page("P2")
        findings = ambiguity_audit(b.build())
        assert findings and findings[0].severity == "warning"

    def test_audit_service_text(self, demo_service):
        text = audit_service(demo_service)
        assert "navigation audit" in text
        assert "protocol and ambiguity audit" in text
