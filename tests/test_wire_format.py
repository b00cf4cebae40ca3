"""The wire-format hardening sweep: malformed payloads fail *coded*.

Every entry of the malformed corpus is asserted at all three layers the
same payload can enter through:

- the library (:func:`service_from_dict` / :func:`loads_service`) raises
  :class:`SpecFormatError` with the expected code and key path;
- the CLI prints one line and exits 2 (never a traceback);
- the HTTP daemon answers a structured 400 carrying the same code
  (exercised in :mod:`tests.test_server`; the corpus is shared via
  :data:`MALFORMED_SPECS`).

Plus the strictness invariants: unknown keys rejected under
``strict=True``, and ``service_to_dict(service_from_dict(d)) == d``
over every shipped example spec.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.io import (
    SpecFormatError,
    load_service,
    loads_service,
    service_from_dict,
    service_to_dict,
)
from repro.io.json_format import database_from_dict

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "specs").glob(
        "*.json"
    )
)

assert EXAMPLES, "examples/specs/*.json must exist for these tests"


def _example(name: str = "propositional.json") -> dict:
    path = next(p for p in EXAMPLES if p.name == name)
    return json.loads(path.read_text(encoding="utf-8"))


def _mutate(fn):
    """A fresh mutated copy of the smallest example spec."""
    data = copy.deepcopy(_example())
    fn(data)
    return data


def _drop(key):
    def fn(data):
        del data[key]
    return fn


# ---------------------------------------------------------------------------
# the malformed corpus: (label, payload builder, expected code, path part)
# ---------------------------------------------------------------------------

def _bad_formula(data):
    data["pages"][0]["state_rules"][0]["formula"] = "∧ broken (("


def _bad_rule_arity(data):
    # a formula over a relation applied with the wrong argument count
    data["schema"]["input"]["relations"][0][1] = "three"


def _bad_relation_shape(data):
    data["schema"]["state"]["relations"].append(["lonely"])


def _negative_arity(data):
    data["schema"]["state"]["relations"].append(["neg", -2])


def _pages_not_list(data):
    data["pages"] = {"HP": {}}


def _page_not_object(data):
    data["pages"].append("not-a-page")


def _rule_missing_formula(data):
    del data["pages"][0]["state_rules"][0]["formula"]


def _home_not_string(data):
    data["home"] = 7


def _state_named_as_input(data):
    name, arity = data["schema"]["input"]["relations"][0]
    data["schema"]["state"]["relations"].append([name, arity])


def _state_named_as_prev(data):
    # the name derived for the input's prev relation: every evaluation
    # context would alias the two relations
    name, arity = data["schema"]["input"]["relations"][0]
    data["schema"]["state"]["relations"].append([f"prev_{name}", arity])


MALFORMED_SPECS = [
    ("wrong-format-tag",
     lambda: _mutate(lambda d: d.update(format="bogus/9")),
     "bad-format-tag", "format"),
    ("missing-format-tag",
     lambda: _mutate(_drop("format")),
     "bad-format-tag", "format"),
    ("page-missing-name",
     lambda: _mutate(lambda d: d["pages"][0].pop("name")),
     "missing-key", "pages[0].name"),
    ("missing-schema",
     lambda: _mutate(_drop("schema")),
     "missing-key", "schema"),
    ("missing-pages",
     lambda: _mutate(_drop("pages")),
     "missing-key", "pages"),
    ("pages-not-list",
     lambda: _mutate(_pages_not_list),
     "bad-type", "pages"),
    ("page-not-object",
     lambda: _mutate(_page_not_object),
     "not-an-object", "pages["),
    ("home-not-string",
     lambda: _mutate(_home_not_string),
     "bad-type", "home"),
    ("relation-not-pair",
     lambda: _mutate(_bad_relation_shape),
     "bad-relation", "schema.state.relations"),
    ("relation-negative-arity",
     lambda: _mutate(_negative_arity),
     "bad-relation", "schema.state.relations"),
    ("relation-arity-not-int",
     lambda: _mutate(_bad_rule_arity),
     "bad-type", "schema.input.relations"),
    ("rule-missing-formula",
     lambda: _mutate(_rule_missing_formula),
     "missing-key", "pages[0].state_rules[0].formula"),
    ("unparseable-formula",
     lambda: _mutate(_bad_formula),
     "bad-formula", "pages[0].state_rules[0].formula"),
    ("relation-name-clash",
     lambda: _mutate(_state_named_as_input),
     "name-clash", "schema"),
    ("relation-aliases-prev",
     lambda: _mutate(_state_named_as_prev),
     "name-clash", "schema"),
]

CORPUS_IDS = [label for label, *_ in MALFORMED_SPECS]


# ---------------------------------------------------------------------------
# library layer
# ---------------------------------------------------------------------------

class TestSpecFormatError:
    @pytest.mark.parametrize(
        "label,build,code,path_part", MALFORMED_SPECS, ids=CORPUS_IDS
    )
    def test_corpus_coded_and_located(self, label, build, code, path_part):
        with pytest.raises(SpecFormatError) as exc_info:
            service_from_dict(build())
        err = exc_info.value
        assert err.code == code
        assert path_part in (err.path or str(err))

    def test_is_a_value_error(self):
        # legacy callers catch ValueError and match "format"
        with pytest.raises(ValueError, match="format"):
            service_from_dict({"format": "nope"})

    def test_str_leads_with_path(self):
        err = SpecFormatError("boom", code="bad-type", path="pages[1].name")
        assert str(err).startswith("pages[1].name")
        assert err.args[0] == "boom"

    def test_truncated_json(self):
        text = json.dumps(_example())[:40]
        with pytest.raises(SpecFormatError) as exc_info:
            loads_service(text)
        assert exc_info.value.code == "bad-json"

    def test_top_level_not_object(self):
        with pytest.raises(SpecFormatError) as exc_info:
            loads_service("[1, 2]")
        assert exc_info.value.code == "not-an-object"

    def test_load_service_wraps_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": "repro.webservice/1", ')
        with pytest.raises(SpecFormatError) as exc_info:
            load_service(path)
        assert exc_info.value.code == "bad-json"


class TestStrictMode:
    def test_unknown_top_level_key_rejected(self):
        data = _mutate(lambda d: d.update(extra=1))
        with pytest.raises(SpecFormatError) as exc_info:
            service_from_dict(data, strict=True)
        assert exc_info.value.code == "unknown-key"
        assert "extra" in str(exc_info.value)

    def test_unknown_page_key_rejected(self):
        data = _mutate(lambda d: d["pages"][0].update(typo_key=1))
        with pytest.raises(SpecFormatError) as exc_info:
            service_from_dict(data, strict=True)
        assert exc_info.value.code == "unknown-key"
        assert "pages[0]" in exc_info.value.path

    def test_unknown_rule_key_rejected(self):
        data = _mutate(
            lambda d: d["pages"][0]["state_rules"][0].update(when=1)
        )
        with pytest.raises(SpecFormatError) as exc_info:
            service_from_dict(data, strict=True)
        assert exc_info.value.code == "unknown-key"

    def test_lenient_mode_still_ignores_unknown_keys(self):
        # non-strict parsing keeps its historical tolerance
        data = _mutate(lambda d: d.update(extra=1))
        service = service_from_dict(data)
        assert service.name == _example()["name"]

    def test_database_unknown_key_rejected(self):
        spec = _example("core.json")
        service = service_from_dict(spec)
        db = {"format": "repro.database/1", "facts": {}, "constants": {},
              "domain": [], "bogus": 1}
        with pytest.raises(SpecFormatError) as exc_info:
            database_from_dict(db, service.schema.database, strict=True)
        assert exc_info.value.code == "unknown-key"

    def test_database_bad_fact_coded(self):
        spec = _example("core.json")
        service = service_from_dict(spec)
        db = {"format": "repro.database/1",
              "facts": {"nosuchrel": [["x"]]}, "constants": {}}
        with pytest.raises(SpecFormatError) as exc_info:
            database_from_dict(db, service.schema.database)
        assert exc_info.value.code == "bad-database"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.name for p in EXAMPLES]
    )
    def test_examples_round_trip_exactly(self, path):
        data = json.loads(path.read_text(encoding="utf-8"))
        service = service_from_dict(data, strict=True)
        assert service_to_dict(service) == data

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.name for p in EXAMPLES]
    )
    def test_examples_parse_strictly(self, path):
        # the shipped specs must never trip the unknown-key rejection
        service = load_service(path, strict=True)
        assert service.pages


# ---------------------------------------------------------------------------
# CLI layer: one line on stderr, exit 2, never a traceback
# ---------------------------------------------------------------------------

class TestCliExitCodes:
    @pytest.mark.parametrize(
        "label,build,code,path_part", MALFORMED_SPECS, ids=CORPUS_IDS
    )
    def test_verify_exits_2_with_code(self, label, build, code, path_part,
                                      tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(build()), encoding="utf-8")
        rc = main(["verify", str(spec), "--ltl", "G !ERROR"])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"[{code}]" in captured.err
        assert captured.err.count("\n") == 1  # one line, not a traceback
        assert "Traceback" not in captured.err

    def test_truncated_file_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "trunc.json"
        spec.write_text(json.dumps(_example())[:60], encoding="utf-8")
        rc = main(["verify", str(spec), "--ltl", "G !ERROR"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "[bad-json]" in captured.err

    @pytest.mark.parametrize("command", ["show", "classify", "audit",
                                         "simulate", "lint"])
    def test_all_spec_commands_exit_2(self, command, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps(_mutate(_drop("pages"))),
                        encoding="utf-8")
        rc = main([command, str(spec)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "[missing-key]" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_database_file_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_example("core.json")), encoding="utf-8")
        db = tmp_path / "db.json"
        db.write_text(json.dumps({"format": "repro.database/1",
                                  "facts": {"nosuchrel": [["x"]]},
                                  "constants": {}}), encoding="utf-8")
        rc = main(["verify", str(spec), "--ltl", "G !ERROR",
                   "--db", str(db)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "[bad-database]" in captured.err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["verify", str(tmp_path / "nope.json"),
                   "--ltl", "G !ERROR"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "cannot read" in captured.err
