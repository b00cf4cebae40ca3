"""The run engine: option table, RunConfig validation, driver parity.

Four layers of guard:

- **signature drift** — every entry-point keyword corresponds to a
  shared option-table row and vice versa, in both directions, so a new
  option cannot be added to one procedure (or one front end) without
  the table knowing about it;
- **differential suite** — the recorded cases of
  ``tests/engine_cases.py`` (all five entry points plus the dispatcher
  over the full ``examples/specs`` corpus) replay through the
  refactored entry points and must fingerprint bit-identically against
  the committed pre-refactor oracle, sequential and pooled;
- **coded validation errors** — unsupported/unknown options raise
  :class:`RunConfigError` with a stable code and key path (still a
  ``TypeError``, so the CLI exits 2 and the server returns 400);
- **front-end snapshots** — the CLI help text and the server wire
  schema are generated from the table, and the historical surface is
  pinned here so a table edit that would change either is visible.
"""

from __future__ import annotations

import dataclasses
import inspect
import json

import pytest

from repro.ltl import LNot, LTLFOSentence
from repro.verifier import (
    RunConfig,
    RunConfigError,
    UndecidableInstanceError,
    Verdict,
    accepted_options,
    verify,
    verify_ctl,
    verify_error_free,
    verify_fully_propositional,
    verify_input_driven_search,
    verify_ltlfo,
)
from repro.verifier import engine
from tests.engine_cases import (
    CASES,
    ORACLE_PATH,
    SPEC_DIR,
    _build_property,
    fingerprint,
    run_case,
)
from tests.witness import check_violation, replay_witness

ENTRY_POINTS = {
    "verify_ltlfo": verify_ltlfo,
    "verify_ctl": verify_ctl,
    "verify_fully_propositional": verify_fully_propositional,
    "verify_input_driven_search": verify_input_driven_search,
    "verify_error_free": verify_error_free,
}

#: the positional (non-option) parameters of the entry points
_POSITIONAL = {"service", "sentence", "formula"}


def _signature_options(fn) -> frozenset[str]:
    params = inspect.signature(fn).parameters
    return frozenset(
        name for name, p in params.items()
        if name not in _POSITIONAL and p.kind is not p.VAR_KEYWORD
    )


# ---------------------------------------------------------------------------
# signature drift
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("procedure", sorted(ENTRY_POINTS))
def test_signature_matches_option_table(procedure):
    """entry-point keywords == the table's accepted set, both directions."""
    assert _signature_options(ENTRY_POINTS[procedure]) == accepted_options(
        procedure
    )


@pytest.mark.parametrize("procedure", sorted(ENTRY_POINTS))
def test_every_entry_point_has_unsupported_catchall(procedure):
    params = inspect.signature(ENTRY_POINTS[procedure]).parameters
    assert any(p.kind is p.VAR_KEYWORD for p in params.values()), (
        f"{procedure} lost its **unsupported catch-all: unknown options "
        "would raise an uncoded TypeError at bind time"
    )


def test_config_fields_match_runconfig():
    """Every non-empty table row is a RunConfig field, in table order."""
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert list(engine.CONFIG_FIELDS) == fields


def test_signature_defaults_match_table():
    """An entry-point keyword's default equals its table row's default."""
    for procedure, fn in ENTRY_POINTS.items():
        params = inspect.signature(fn).parameters
        for name in accepted_options(procedure):
            assert params[name].default == engine.OPTION_TABLE[name].default, (
                f"{procedure}({name}=...) default drifted from the table"
            )


def test_accepted_options_cover_every_procedure():
    for name, spec in engine.OPTION_TABLE.items():
        for procedure in spec.procedures:
            assert procedure in ENTRY_POINTS
            assert name in accepted_options(procedure)


# ---------------------------------------------------------------------------
# the differential suite: bit-identical with the pre-refactor oracle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle():
    return json.loads(ORACLE_PATH.read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
@pytest.mark.parametrize("workers", [1, 2], ids=["seq", "pool"])
def test_differential_against_oracle(case, workers, oracle):
    _, result = run_case(case, workers=workers)
    got = json.loads(json.dumps(fingerprint(result)))
    assert got == oracle[case["id"]][f"workers={workers}"]


def _ltl_violated_cases() -> list:
    """The LTL-FO cases (``verify_ltlfo``, or the dispatcher given an
    LTL-FO property) the committed oracle records as VIOLATED."""
    recorded = json.loads(ORACLE_PATH.read_text())
    return [
        c for c in CASES
        if "ltl" in c
        and recorded[c["id"]]["workers=1"]["verdict"] == "violated"
    ]


_LTL_VIOLATED = _ltl_violated_cases()


@pytest.mark.parametrize(
    "case", _LTL_VIOLATED, ids=[c["id"] for c in _LTL_VIOLATED]
)
def test_ltlfo_witness_replays_and_violates(case):
    """The counterexample is a run of the service (replayed step by
    step) that violates the property (evaluated without the
    verifier's labeller)."""
    service, result = run_case(case, workers=1)
    assert result.verdict is Verdict.VIOLATED
    sentence = _build_property(case)
    literals = frozenset(sentence.literals())
    run = result.counterexample
    replay_witness(service, run, extra_domain=literals)
    check_violation(service, run, sentence, extra_domain=literals)


def test_violation_check_rejects_a_satisfied_property():
    """The witness of ``G !MP`` satisfies its negation ``!G !MP``, so
    the check must refuse it as a violation of the negation."""
    case = next(c for c in _LTL_VIOLATED if c["id"] == "ltlfo-core-violated")
    service, result = run_case(case, workers=1)
    sentence = _build_property(case)
    assert not sentence.variables
    negated = LTLFOSentence((), LNot(sentence.skeleton), name="F MP")
    with pytest.raises(AssertionError, match="satisfies"):
        check_violation(
            service, result.counterexample, negated,
            extra_domain=sentence.literals(),
        )


@pytest.mark.parametrize(
    "case",
    [c for c in CASES if c["entry"] != "verify"],
    ids=[c["id"] for c in CASES if c["entry"] != "verify"],
)
def test_config_provenance_recorded(case):
    service, result = run_case(case, workers=1)
    config = result.stats["config"]
    assert config["procedure"] == case["entry"]
    assert config["workers"] == 1
    for key in ("traced", "strict", "faults"):
        assert isinstance(config[key], bool)
    # provenance never leaks into the human-facing summary
    assert "config" not in result.describe(service)


# ---------------------------------------------------------------------------
# the Kripke table: Theorems 4.4, 4.6 and 4.9 share one procedure
# ---------------------------------------------------------------------------

#: entry point -> (refusal citation, budget-strike coverage line), which
#: also pins each row's interrupt phase
KRIPKE_ROWS = {
    "verify_ctl": (
        "Theorem 4.2 (input-bounded CTL-FO is undecidable in general)",
        "checked 1 candidate databases (largest Kripke structure 16 "
        "states) up to domain size 1; interrupted during Kripke "
        "construction / model checking by max_states",
    ),
    "verify_fully_propositional": (
        "Theorem 4.6 requires a fully propositional service",
        "checked 1 candidate databases (largest Kripke structure 16 "
        "states); interrupted during Kripke construction by max_states",
    ),
    "verify_input_driven_search": (
        "Theorem 4.9 requires the input-driven-search shape "
        "(Definition 4.7)",
        "checked 1/1 candidate databases (largest Kripke structure 2 "
        "states); interrupted during search-graph Kripke construction / "
        "model checking by max_states",
    ),
}


@pytest.mark.parametrize("procedure", sorted(KRIPKE_ROWS))
def test_kripke_refusal_cites_its_theorem(procedure, core_spec, ag_ef_hp):
    """The core service lies outside all three classes; each entry point
    refuses it with its own citation."""
    service, _ = core_spec
    with pytest.raises(UndecidableInstanceError) as err:
        ENTRY_POINTS[procedure](service, ag_ef_hp)
    assert err.value.citation == KRIPKE_ROWS[procedure][0]


@pytest.mark.parametrize("workers", [1, 2], ids=["seq", "pool"])
@pytest.mark.parametrize("procedure", sorted(KRIPKE_ROWS))
def test_kripke_strike_reports_its_phase(procedure, workers, ag_ef_hp):
    from tests.engine_cases import _build_database, load_spec

    if procedure == "verify_input_driven_search":
        service = load_spec("search_site.json")
        options = {"databases": [_build_database("figure1", service)]}
    else:
        service = load_spec("propositional.json")
        options = {"domain_size": 1} if procedure == "verify_ctl" else {}
    result = ENTRY_POINTS[procedure](
        service, ag_ef_hp, max_states=2, workers=workers, **options
    )
    assert result.verdict is Verdict.INCONCLUSIVE
    assert result.stats["interrupted_by"] == "max_states"
    assert result.coverage == KRIPKE_ROWS[procedure][1]
    assert result.stats["interrupted_phase"] in result.coverage


# ---------------------------------------------------------------------------
# coded validation errors
# ---------------------------------------------------------------------------

def test_fp_rejects_checkpoint_options_with_coded_error(
    prop_service, ag_ef_hp
):
    with pytest.raises(RunConfigError) as err:
        verify_fully_propositional(
            prop_service, ag_ef_hp,
            checkpoint_path="ck.json", checkpoint_every=5, resume=object(),
        )
    exc = err.value
    assert isinstance(exc, TypeError)  # the CLI/server ladders still match
    assert exc.code == "unsupported-option"
    assert exc.keys == ("checkpoint_every", "checkpoint_path", "resume")
    assert "verify_fully_propositional() does not accept" in str(exc)
    assert "domain_size=" in str(exc)  # the Theorem 4.4 rerouting hint


def test_unknown_option_coded_error(core_spec):
    service, sentence = core_spec
    with pytest.raises(RunConfigError) as err:
        verify_ltlfo(service, sentence, max_snapshotz=10)
    exc = err.value
    assert exc.code == "unknown-option"
    assert exc.keys == ("max_snapshotz",)
    assert "max_snapshotz" in str(exc)


def test_dispatcher_forwards_coded_error(prop_service, ag_ef_hp):
    """verify() routes the FP fast path; its refusal carries the code."""
    with pytest.raises(RunConfigError) as err:
        verify(prop_service, ag_ef_hp, sigma_block=4)
    assert err.value.code == "unsupported-option"
    assert err.value.keys == ("sigma_block",)


def test_unsupported_option_raised_before_any_work(core_spec):
    """Validation happens before enumeration: the databases are never
    iterated."""

    class Databases:
        iterated = False

        def __iter__(self):
            self.iterated = True
            return iter(())

    service, sentence = core_spec
    databases = Databases()
    with pytest.raises(RunConfigError):
        verify_ltlfo(service, sentence, databases=databases, bogus_option=1)
    assert not databases.iterated


@pytest.mark.parametrize("option", ["buchi_cache", "on_database"])
def test_retired_options_are_unknown(core_spec, option):
    """The Büchi memo lives on the service and the per-database callback
    is gone: both names are refused like a typo."""
    service, sentence = core_spec
    with pytest.raises(RunConfigError) as err:
        verify_ltlfo(service, sentence, **{option: {}})
    assert err.value.code == "unknown-option"
    assert err.value.keys == (option,)


@pytest.fixture
def core_spec():
    from repro.ltl.parser import parse_ltlfo
    from tests.engine_cases import load_spec

    service = load_spec("core.json")
    return service, parse_ltlfo("G !ERROR")


@pytest.fixture
def prop_service():
    from tests.engine_cases import load_spec

    return load_spec("propositional.json")


@pytest.fixture
def ag_ef_hp():
    from repro.ctl.parser import parse_ctl

    return parse_ctl("AG EF HP")


# ---------------------------------------------------------------------------
# environment resolution
# ---------------------------------------------------------------------------

def _run_entry(procedure, **options):
    """Run the first engine case of ``procedure`` with ``options`` added.

    ``workers`` is left unset unless given, so every option the call
    leaves out falls back to its ``REPRO_*`` variable.
    """
    case = next(c for c in CASES if c["entry"] == procedure)
    options.setdefault("workers", None)
    return run_case(case, **options)[1]


def test_from_env_resolves_repro_variables(monkeypatch):
    """Each option left unset falls back to its REPRO_* variable."""
    monkeypatch.setenv("REPRO_WORKERS", "3")
    monkeypatch.setenv("REPRO_SIGMA_BLOCK", "4")
    monkeypatch.setenv("REPRO_RETRY", "7")
    monkeypatch.setenv("REPRO_UNIT_TIMEOUT_S", "2.5")
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "9")
    config = _run_entry(engine.LTL).stats["config"]
    assert config["workers"] == 3
    assert config["sigma_block"] == 4
    assert config["retry"] == 7
    assert config["unit_timeout_s"] == 2.5
    assert config["checkpoint_every"] == 9


def test_from_env_kwargs_win(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    monkeypatch.setenv("REPRO_RETRY", "7")
    config = _run_entry(engine.LTL, workers=1, retry=0).stats["config"]
    assert config["workers"] == 1
    assert config["retry"] == 0


def test_env_values_recorded_in_config(monkeypatch):
    """REPRO_* resolved once by the driver and recorded in provenance;
    an explicit keyword beats its variable."""
    monkeypatch.setenv("REPRO_WORKERS", "3")
    monkeypatch.setenv("REPRO_SIGMA_BLOCK", "4")
    monkeypatch.setenv("REPRO_RETRY", "5")
    monkeypatch.setenv("REPRO_UNIT_TIMEOUT_S", "2.5")
    monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "9")
    _, result = run_case(CASES[0], workers=1)
    config = result.stats["config"]
    assert config["workers"] == 1
    assert config["sigma_block"] == 4
    assert config["retry"] == 5
    assert config["unit_timeout_s"] == 2.5
    assert config["checkpoint_every"] == 9


# ---------------------------------------------------------------------------
# every row of the table reaches the run: one case per row, generated
# ---------------------------------------------------------------------------

def _rows(column):
    """The names of the table rows whose ``column`` is set."""
    return [name for name, spec in engine.OPTION_TABLE.items()
            if getattr(spec, column) is not None]


@pytest.fixture
def no_repro_env(monkeypatch):
    """No ``REPRO_*`` variable of the table is set (CI runs whole
    suites under some of them)."""
    for spec in engine.OPTION_TABLE.values():
        if spec.env is not None:
            monkeypatch.delenv(spec.env, raising=False)
    return monkeypatch


class _Reached(Exception):
    """Raised by a stand-in entry point, carrying the options it got."""


def _cli_value(cli):
    """A non-default value for a generated flag, and its argv."""
    if cli.get("action") == "store_true":
        return True, [cli["flag"]]
    if "choices" in cli:
        value = next(c for c in cli["choices"] if c != cli.get("default"))
    else:
        value = {int: 3, float: 2.5}.get(cli.get("type"), "{}")
    return value, [cli["flag"], str(value)]


@pytest.mark.parametrize("name", _rows("cli"))
def test_cli_flag_reaches_the_entry_point(name, monkeypatch, tmp_path):
    """``repro verify --flag v`` hands ``name=v`` to the entry point; a
    budget row arrives inside ``budget=``."""
    import repro.cli as cli

    def reached(service, prop, force=False, **options):
        raise _Reached(options)

    monkeypatch.setattr(cli, "verify", reached)
    spec = engine.OPTION_TABLE[name]
    value, argv = _cli_value(spec.cli)
    ck = str(tmp_path / "ck.json")
    with pytest.raises(_Reached) as got:
        cli.main(["verify", str(SPEC_DIR / "propositional.json"),
                  "--ltl", "G !ERROR", "--checkpoint", ck, *argv])
    options = got.value.args[0]
    if spec.budget:
        assert name not in options
        assert getattr(options["budget"], name) == value
    else:
        assert options[name] == value
    # an enumerating run writes its periodic checkpoints, at
    # --checkpoint-every or $REPRO_CHECKPOINT_EVERY, to --checkpoint's file
    assert options.get("checkpoint_path") == ck


@pytest.mark.parametrize("name", _rows("env"))
def test_env_variable_governs_the_run(name, no_repro_env, tmp_path):
    """A row's variable, set and left unset in the call, is what the
    run records in ``stats["config"]``."""
    from repro.faults import FaultPlan
    from repro.obs import JsonlTracer

    spec = engine.OPTION_TABLE[name]
    procedure = sorted(spec.procedures)[0]
    if spec.minimum is not None:
        value = spec.minimum + 1
        no_repro_env.setenv(spec.env, str(value))
        assert _run_entry(procedure).stats["config"][name] == value
    elif name == "tracer":
        import repro.obs.tracer as tracer_module

        # this test's tracer must not outlive it in the per-path cache
        no_repro_env.setattr(tracer_module, "_PATH_TRACERS", {})
        path = str(tmp_path / "env.jsonl")
        no_repro_env.setenv(spec.env, path)
        result = _run_entry(procedure)
        assert result.stats["config"]["traced"] is True
        tracer = engine.resolve_option(name)
        assert isinstance(tracer, JsonlTracer) and tracer.path == path
        assert engine.resolve_option(name) is tracer  # one per path
        tracer.close()
        with open(path) as fh:
            names = [json.loads(line)["name"] for line in fh]
        assert names[-1] == "verdict"
    elif name == "faults":
        text = '{"faults": [{"kind": "error", "db_index": 0}]}'
        no_repro_env.setenv(spec.env, text)
        result = _run_entry(procedure)
        assert result.stats["config"]["faults"] is True
        assert engine.resolve_option(name) == FaultPlan.from_json(text)
        assert result.stats["units_retried"] == 1  # the plan was in effect
    else:
        pytest.fail(f"no check for {spec.env}: add this row's case here")


@pytest.mark.parametrize("name", _rows("minimum"))
def test_numeric_option_refuses_out_of_range(name, no_repro_env):
    """Below its minimum, explicit or from its variable, or a malformed
    variable: a ValueError naming the option or the variable."""
    spec = engine.OPTION_TABLE[name]
    procedure = sorted(spec.procedures)[0]
    low = spec.minimum - 1
    with pytest.raises(ValueError, match=(
            f"^{name} must be >= {spec.minimum}, got {low}$")):
        _run_entry(procedure, **{name: low})
    no_repro_env.setenv(spec.env, "zap")
    with pytest.raises(ValueError, match=(
            f"^{spec.env} must be an? (integer|number), got 'zap'$")):
        _run_entry(procedure)
    no_repro_env.setenv(spec.env, str(low))
    with pytest.raises(ValueError, match=(
            f"^{spec.env} must be >= {spec.minimum}, got {low}$")):
        _run_entry(procedure)


# ---------------------------------------------------------------------------
# front-end snapshots, generated from the shared table
# ---------------------------------------------------------------------------

#: the historical /verify wire schema — a table edit that changes this
#: is an API change and must update this pin deliberately
EXPECTED_WIRE_SCHEMA = {
    "domain_size": (int,),
    "up_to_iso": (bool,),
    "max_snapshots": (int,),
    "max_databases": (int,),
    "timeout_s": (int, float),
    "strict": (bool,),
    "workers": (int,),
    "sigma_block": (int,),
    "retry": (int,),
    "unit_timeout_s": (int, float),
    "checkpoint_every": (int,),
    "confirm_counterexamples": (bool,),
    "lint": (str,),
}


def test_wire_schema_snapshot():
    assert engine.wire_options() == EXPECTED_WIRE_SCHEMA


def test_server_uses_the_shared_table():
    from repro.server.app import _BUDGET_OPTIONS, _VERIFY_OPTIONS

    assert _VERIFY_OPTIONS == engine.wire_options()
    assert _BUDGET_OPTIONS == engine.budget_options()


def test_budget_options_snapshot():
    assert engine.budget_options() == {
        "max_snapshots", "max_databases", "timeout_s", "strict",
    }


def test_cli_help_contains_generated_flags():
    from repro.cli import build_parser

    import argparse

    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    verify_parser = sub.choices["verify"]
    collapsed = " ".join(verify_parser.format_help().split())
    for name, spec in engine.OPTION_TABLE.items():
        if spec.cli is None:
            continue
        assert spec.cli["flag"] in collapsed, f"--flag for {name} missing"
        assert " ".join(spec.cli["help"].split()) in collapsed, (
            f"help text for {name} drifted from the table"
        )


def test_fold_budget_always_vs_on_demand():
    from repro.verifier import Budget

    # server mode: no budget-shaped key → untouched
    opts = {"workers": 2}
    assert engine.fold_budget(dict(opts), always=False) == opts
    # CLI mode: the governor is always built, with the table defaults
    out = engine.fold_budget({"workers": 2}, always=True)
    gov = out.pop("budget")
    assert out == {"workers": 2}
    assert isinstance(gov, Budget)
    assert gov.max_snapshots == engine.DEFAULT_SNAPSHOT_BUDGET
    assert gov.max_states == engine.DEFAULT_KRIPKE_BUDGET
    # a named cap seeds both cap fields, exactly as --max-snapshots did
    gov2 = engine.fold_budget(
        {"max_snapshots": 123, "strict": True}, always=False
    )["budget"]
    assert gov2.max_snapshots == 123
    assert gov2.max_states == 123
    assert gov2.strict is True
