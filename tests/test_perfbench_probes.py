"""Perfbench's probes still reach the layers they measure.

``perfbench/layers.py`` wraps program functions by dotted name and
reports a target it cannot find as absent instead of failing, so a
refactor that stops calling a probed name would silently zero a layer
metric.  This test installs the probes (it reads the module and never
changes it), runs one cold Theorem 4.6 request and one LTL-FO request on
fresh services, and requires the layers those requests pass through to
read positive.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.ctl.parser import parse_ctl
from repro.demo.propositional import propositional_service
from repro.ltl.parser import parse_ltlfo
from repro.schema import Database
from repro.verifier import verify_fully_propositional, verify_ltlfo
from tests.conftest import build_toy_service

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

KNOWN_ABSENT = [
    # stale since the choice memo moved the call into ``service.runs``
    "repro.verifier.branching:enumerate_choices",
    # now a test reference: the verifier searches through
    # ``ProductSearch.search``, so the probe read 0 even before its
    # target moved; it is to be retargeted there
    "repro.verifier.linear:find_accepting_lasso",
]


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probes_reach_the_kripke_labelling_and_ltl_layers():
    layers = _load_layers()
    probes = layers.Probes()
    probes.install()
    try:
        store = propositional_service()
        probes.begin_request(0)
        result = verify_fully_propositional(
            store, parse_ctl("AG EF HP"), workers=1
        )
        probes.end_request(result, [], workers=1, scale=1.0)

        toy = build_toy_service()
        database = Database(toy.schema.database, {"item": [("i1",)]})
        probes.begin_request(1)
        result = verify_ltlfo(
            toy, parse_ltlfo("forall x: G (chosen(x) -> F P2)"),
            databases=[database], workers=1,
        )
        probes.end_request(result, [], workers=1, scale=1.0)
    finally:
        probes.uninstall()
    assert probes.absent == KNOWN_ABSENT
    ctl, ltl = probes.requests
    assert ctl["verifier.branching.kripke_ms"] > 0
    assert ctl["ctl.modelcheck.label_ms"] > 0
    assert ltl["service.runs.successors_calls"] > 0
    assert ltl["fol.compile.bits_calls"] > 0
