"""The Web service model of Deutsch, Sui & Vianu (PODS 2004), §2.

- :mod:`repro.service.rules` — input / state / action / target rules;
- :mod:`repro.service.page` — Web page schemas;
- :mod:`repro.service.webservice` — :class:`WebService` (Definition 2.1)
  with structural validation;
- :mod:`repro.service.runs` — run semantics (Definition 2.3): snapshots,
  user choices, successor enumeration, the three error conditions;
- :mod:`repro.service.session` — an interactive simulator driving one run;
- :mod:`repro.service.builder` — a fluent builder for specifications;
- :mod:`repro.service.classify` — which decidable class (if any) a
  service falls into.
"""

from repro.service.rules import (
    InputRule,
    StateRule,
    ActionRule,
    TargetRule,
)
from repro.service.page import WebPageSchema
from repro.service.webservice import WebService, ERROR_PAGE, SpecificationError
from repro.service.runs import (
    Snapshot,
    UserChoice,
    RunContext,
    Run,
    initial_snapshots,
    successors,
    enumerate_choices,
    page_options,
    error_snapshot,
    random_run,
)
from repro.service.compiled import (
    CompiledPage,
    CompiledService,
    SnapshotInterner,
    compiled_service,
    warm_service_plans,
)
from repro.service.session import Session
from repro.service.builder import ServiceBuilder, PageBuilder
from repro.service.classify import ServiceClass, classify, ClassificationReport
from repro.service.simple import to_simple_service, transform_sentence

__all__ = [
    "InputRule", "StateRule", "ActionRule", "TargetRule",
    "WebPageSchema",
    "WebService", "ERROR_PAGE", "SpecificationError",
    "Snapshot", "UserChoice", "RunContext", "Run",
    "initial_snapshots", "successors", "enumerate_choices", "page_options",
    "error_snapshot", "random_run",
    "CompiledPage", "CompiledService", "SnapshotInterner",
    "compiled_service", "warm_service_plans",
    "Session",
    "ServiceBuilder", "PageBuilder",
    "ServiceClass", "classify", "ClassificationReport",
    "to_simple_service", "transform_sentence",
]
