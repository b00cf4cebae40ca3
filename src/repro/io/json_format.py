"""JSON serialization of services and databases.

Formulas are stored as text in the :mod:`repro.fol.parser` syntax; the
printers in :mod:`repro.fol.formulas` emit exactly that syntax, so
``parse(str(formula)) == formula`` and serialization round-trips (the
property tests check this).  Domain values must be JSON-representable
(strings/numbers) — the whole library uses strings in practice.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from repro.fol.parser import parse_formula
from repro.schema.database import Database
from repro.schema.schema import RelationalSchema, ServiceSchema
from repro.schema.symbols import RelationKind, RelationSymbol
from repro.service.page import WebPageSchema
from repro.service.rules import ActionRule, InputRule, StateRule, TargetRule
from repro.service.webservice import WebService

_KINDS = {
    "database": RelationKind.DATABASE,
    "state": RelationKind.STATE,
    "input": RelationKind.INPUT,
    "action": RelationKind.ACTION,
}


class SpecFormatError(ValueError):
    """A malformed service/database JSON payload.

    Coded and located: ``code`` is a stable machine-readable slug (see
    the table below) and ``path`` points at the offending key in the
    payload, e.g. ``pages[2].input_rules[0].formula``.  The CLI prints
    one line and exits 2; the HTTP server maps it to a structured 400
    body.  Raised instead of the raw ``KeyError``/``TypeError``/
    ``JSONDecodeError``/parser exceptions that used to leak out of
    :func:`service_from_dict` as tracebacks.

    Codes:

    - ``bad-json`` — the payload is not valid JSON at all;
    - ``not-an-object`` — the payload (or a sub-object) is not a JSON
      object where one is required;
    - ``bad-format-tag`` — missing or unsupported ``format`` tag;
    - ``missing-key`` — a required key is absent;
    - ``bad-type`` — a value has the wrong JSON type;
    - ``bad-relation`` — a schema relation entry is not a
      ``[name, arity]`` pair with a non-negative integer arity;
    - ``bad-formula`` — a rule formula does not parse in the
      :mod:`repro.fol.parser` syntax;
    - ``unknown-key`` — an unrecognized key under ``strict=True``
      (the server's default: silently-ignored keys are how typos in
      hand-written payloads go unnoticed);
    - ``bad-database`` — database facts/constants that do not fit the
      service's database schema;
    - ``name-clash`` — one relation name declared in two schemas, or
      equal to the ``prev_I`` name derived from an input relation.
    """

    def __init__(self, message: str, *, code: str = "bad-payload",
                 path: str = "") -> None:
        super().__init__(message)
        self.code = code
        self.path = path

    def __str__(self) -> str:
        base = super().__str__()
        return f"{self.path}: {base}" if self.path else base


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise SpecFormatError(
            f"missing required key {key!r}", code="missing-key",
            path=_join(path, key),
        )
    return data[key]


def _typed(value, types, path: str, what: str):
    if not isinstance(value, types) or isinstance(value, bool):
        raise SpecFormatError(
            f"expected {what}, got {type(value).__name__}",
            code="bad-type", path=path,
        )
    return value


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SpecFormatError(
            f"expected a JSON object, got {type(value).__name__}",
            code="not-an-object", path=path,
        )
    return value


def _str_list(value, path: str) -> list:
    _typed(value, list, path, "a list of strings")
    for i, item in enumerate(value):
        _typed(item, str, f"{path}[{i}]", "a string")
    return value


def _reject_unknown(data: dict, allowed: frozenset, path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SpecFormatError(
            f"unknown key{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(k) for k in unknown)} (strict mode; "
            f"allowed: {', '.join(sorted(allowed))})",
            code="unknown-key", path=_join(path, unknown[0]),
        )


def _wire_formula(text, path: str):
    from repro.fol.parser import FormulaSyntaxError

    # @/# sigils in the serialized text disambiguate constants, so no
    # constant sets need to be passed to the parser.
    _typed(text, str, path, "a formula string")
    try:
        return parse_formula(text)
    except FormulaSyntaxError as exc:
        raise SpecFormatError(
            f"unparseable formula: {exc}", code="bad-formula", path=path,
        ) from exc


def _schema_to_dict(schema: RelationalSchema) -> dict:
    return {
        "relations": [[r.name, r.arity] for r in sorted(schema.relations)],
        "constants": sorted(schema.constants),
    }


_SCHEMA_KEYS = frozenset({"relations", "constants"})


def _schema_from_dict(
    data: dict, kind: RelationKind, path: str = "", strict: bool = False
) -> RelationalSchema:
    _object(data, path)
    if strict:
        _reject_unknown(data, _SCHEMA_KEYS, path)
    relations = []
    for i, entry in enumerate(data.get("relations", [])):
        entry_path = f"{_join(path, 'relations')}[{i}]"
        _typed(entry, list, entry_path, "a [name, arity] pair")
        if len(entry) != 2:
            raise SpecFormatError(
                f"relation entry must be a [name, arity] pair, "
                f"got {len(entry)} element(s)",
                code="bad-relation", path=entry_path,
            )
        name, arity = entry
        _typed(name, str, f"{entry_path}[0]", "a relation name string")
        _typed(arity, int, f"{entry_path}[1]", "an integer arity")
        try:
            relations.append(RelationSymbol(name, arity, kind))
        except ValueError as exc:
            raise SpecFormatError(
                str(exc), code="bad-relation", path=entry_path,
            ) from exc
    constants = _str_list(
        data.get("constants", []), _join(path, "constants")
    )
    return RelationalSchema(relations, constants)


def service_to_dict(service: WebService) -> dict:
    """Serialize a Web service to a JSON-ready dict."""
    schema = service.schema
    return {
        "format": "repro.webservice/1",
        "name": service.name,
        "home": service.home,
        "error_page": service.error_page,
        "schema": {
            "database": _schema_to_dict(schema.database),
            "state": _schema_to_dict(schema.state),
            "input": _schema_to_dict(schema.input),
            "action": _schema_to_dict(schema.action),
        },
        "pages": [_page_to_dict(page) for page in service.pages.values()],
    }


def _page_to_dict(page: WebPageSchema) -> dict:
    return {
        "name": page.name,
        "inputs": list(page.inputs),
        "input_constants": list(page.input_constants),
        "actions": list(page.actions),
        "targets": list(page.targets),
        "input_rules": [
            {"input": r.input, "variables": list(r.variables),
             "formula": str(r.formula)}
            for r in page.input_rules
        ],
        "state_rules": [
            {"state": r.state, "insert": r.insert,
             "variables": list(r.variables), "formula": str(r.formula)}
            for r in page.state_rules
        ],
        "action_rules": [
            {"action": r.action, "variables": list(r.variables),
             "formula": str(r.formula)}
            for r in page.action_rules
        ],
        "target_rules": [
            {"target": r.target, "formula": str(r.formula)}
            for r in page.target_rules
        ],
    }


_TOP_KEYS = frozenset({
    "format", "name", "home", "error_page", "schema", "pages",
})
_PAGE_KEYS = frozenset({
    "name", "inputs", "input_constants", "actions", "targets",
    "input_rules", "state_rules", "action_rules", "target_rules",
})
_INPUT_RULE_KEYS = frozenset({"input", "variables", "formula"})
_STATE_RULE_KEYS = frozenset({"state", "insert", "variables", "formula"})
_ACTION_RULE_KEYS = frozenset({"action", "variables", "formula"})
_TARGET_RULE_KEYS = frozenset({"target", "formula"})


def _rule_rows(pd: dict, key: str, page_path: str, strict: bool,
               allowed: frozenset):
    """The (row, row_path) pairs of one rule list, each type-checked."""
    rows = _typed(
        pd.get(key, []), list, _join(page_path, key), "a list of rules"
    )
    out = []
    for i, row in enumerate(rows):
        row_path = f"{_join(page_path, key)}[{i}]"
        _object(row, row_path)
        if strict:
            _reject_unknown(row, allowed, row_path)
        out.append((row, row_path))
    return out


def _variables(row: dict, row_path: str) -> tuple:
    return tuple(
        _str_list(_require(row, "variables", row_path),
                  _join(row_path, "variables"))
    )


def service_from_dict(data: dict, *, strict: bool = False) -> WebService:
    """Rebuild a Web service from :func:`service_to_dict` output.

    Malformed payloads raise :class:`SpecFormatError` with a stable
    ``code`` and the ``path`` of the offending key — never a raw
    ``KeyError``/``TypeError`` traceback.  With ``strict=True`` (the
    HTTP server's default) unknown keys are rejected too, and the
    round-trip invariant ``service_to_dict(service_from_dict(d)) == d``
    holds for every accepted payload.
    """
    _object(data, "")
    if data.get("format") != "repro.webservice/1":
        raise SpecFormatError(
            f"unsupported or missing format tag: {data.get('format')!r} "
            "(expected 'repro.webservice/1')",
            code="bad-format-tag", path="format",
        )
    if strict:
        _reject_unknown(data, _TOP_KEYS, "")
    schema_data = _object(_require(data, "schema", ""), "schema")
    if strict:
        _reject_unknown(schema_data, frozenset(_KINDS), "schema")
    parts = {}
    for part, kind in _KINDS.items():
        parts[part] = _schema_from_dict(
            _require(schema_data, part, "schema"), kind,
            path=_join("schema", part), strict=strict,
        )
    try:
        schema = ServiceSchema(
            database=parts["database"], state=parts["state"],
            input=parts["input"], action=parts["action"],
        )
    except ValueError as exc:
        raise SpecFormatError(
            str(exc), code="name-clash", path="schema",
        ) from exc

    pages = []
    pages_data = _typed(
        _require(data, "pages", ""), list, "pages", "a list of pages"
    )
    for idx, pd in enumerate(pages_data):
        page_path = f"pages[{idx}]"
        _object(pd, page_path)
        if strict:
            _reject_unknown(pd, _PAGE_KEYS, page_path)
        input_rules = [
            InputRule(
                _typed(_require(r, "input", p), str,
                       _join(p, "input"), "an input relation name"),
                _variables(r, p),
                _wire_formula(_require(r, "formula", p),
                              _join(p, "formula")),
            )
            for r, p in _rule_rows(pd, "input_rules", page_path, strict,
                                   _INPUT_RULE_KEYS)
        ]
        state_rules = []
        for r, p in _rule_rows(pd, "state_rules", page_path, strict,
                               _STATE_RULE_KEYS):
            insert = r.get("insert", True)
            if not isinstance(insert, bool):
                raise SpecFormatError(
                    f"expected a boolean, got {type(insert).__name__}",
                    code="bad-type", path=_join(p, "insert"),
                )
            state_rules.append(
                StateRule(
                    _typed(_require(r, "state", p), str,
                           _join(p, "state"), "a state relation name"),
                    _variables(r, p),
                    _wire_formula(_require(r, "formula", p),
                                  _join(p, "formula")),
                    insert=insert,
                )
            )
        action_rules = [
            ActionRule(
                _typed(_require(r, "action", p), str,
                       _join(p, "action"), "an action relation name"),
                _variables(r, p),
                _wire_formula(_require(r, "formula", p),
                              _join(p, "formula")),
            )
            for r, p in _rule_rows(pd, "action_rules", page_path, strict,
                                   _ACTION_RULE_KEYS)
        ]
        target_rules = [
            TargetRule(
                _typed(_require(r, "target", p), str,
                       _join(p, "target"), "a target page name"),
                _wire_formula(_require(r, "formula", p),
                              _join(p, "formula")),
            )
            for r, p in _rule_rows(pd, "target_rules", page_path, strict,
                                   _TARGET_RULE_KEYS)
        ]
        pages.append(
            WebPageSchema(
                name=_typed(_require(pd, "name", page_path), str,
                            _join(page_path, "name"), "a page name string"),
                inputs=_str_list(pd.get("inputs", []),
                                 _join(page_path, "inputs")),
                input_constants=_str_list(
                    pd.get("input_constants", []),
                    _join(page_path, "input_constants")),
                actions=_str_list(pd.get("actions", []),
                                  _join(page_path, "actions")),
                targets=_str_list(pd.get("targets", []),
                                  _join(page_path, "targets")),
                input_rules=input_rules,
                state_rules=state_rules,
                action_rules=action_rules,
                target_rules=target_rules,
            )
        )
    return WebService(
        schema,
        pages,
        home=_typed(_require(data, "home", ""), str, "home",
                    "a page name string"),
        error_page=_typed(data.get("error_page", "ERROR"), str,
                          "error_page", "a page name string"),
        name=_typed(data.get("name", "web-service"), str, "name",
                    "a service name string"),
    )


def save_service(service: WebService, path: str | Path) -> None:
    """Write a service specification to a JSON file."""
    Path(path).write_text(
        json.dumps(service_to_dict(service), indent=2, ensure_ascii=False)
    )


def loads_service(text: str, *, strict: bool = False) -> WebService:
    """Parse a service specification from a JSON string.

    Truncated or otherwise invalid JSON raises :class:`SpecFormatError`
    (code ``bad-json``) instead of ``json.JSONDecodeError``.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            f"payload is not valid JSON: {exc}", code="bad-json",
        ) from exc
    return service_from_dict(data, strict=strict)


def load_service(path: str | Path, *, strict: bool = False) -> WebService:
    """Read a service specification from a JSON file."""
    return loads_service(Path(path).read_text(), strict=strict)


def database_to_dict(database: Database) -> dict:
    """Serialize a database (facts, constants, domain)."""
    return {
        "format": "repro.database/1",
        "facts": {
            sym.name: [list(t) for t in sorted(rel, key=repr)]
            for sym, rel in database.instance
        },
        "constants": dict(database.constants),
        "domain": sorted(database.domain, key=repr),
    }


_DATABASE_KEYS = frozenset({"format", "facts", "constants", "domain"})


def database_from_dict(
    data: dict, schema: RelationalSchema, *, strict: bool = False
) -> Database:
    """Rebuild a database against a given database schema.

    Malformed payloads raise :class:`SpecFormatError` (see
    :func:`service_from_dict`); facts/constants that do not fit
    ``schema`` surface as code ``bad-database`` with the offending
    relation's path.
    """
    _object(data, "")
    if data.get("format") != "repro.database/1":
        raise SpecFormatError(
            f"unsupported or missing format tag: {data.get('format')!r} "
            "(expected 'repro.database/1')",
            code="bad-format-tag", path="format",
        )
    if strict:
        _reject_unknown(data, _DATABASE_KEYS, "")
    facts = {}
    facts_data = _object(data.get("facts", {}), "facts")
    for name, rows in facts_data.items():
        row_path = _join("facts", name)
        _typed(rows, list, row_path, "a list of tuples")
        facts[name] = [
            tuple(_typed(t, list, f"{row_path}[{i}]", "a fact tuple"))
            for i, t in enumerate(rows)
        ]
    constants = _object(data.get("constants", {}), "constants")
    domain = _typed(data.get("domain", []), list, "domain",
                    "a list of domain values")
    try:
        return Database(schema, facts, constants, extra_domain=domain)
    except (ValueError, KeyError) as exc:
        raise SpecFormatError(str(exc), code="bad-database") from exc


#: Checkpoint format tags this build reads.  ``/2`` adds the
#: retry/quarantine state (``extra["quarantined_units"]``) written by
#: the supervised engine; ``/1`` files from earlier builds carry the
#: same cursor/frontier fields and resume unchanged.
_CHECKPOINT_FORMATS = ("repro.checkpoint/1", "repro.checkpoint/2")


def atomic_write_text(path: str | Path, text: str, *, interrupt=None) -> None:
    """Write ``text`` to ``path`` so that a kill leaves no torn file.

    The classic temp-file + ``fsync`` + ``os.replace`` dance: the data
    is durably on disk *before* the atomic rename, so at every instant
    ``path`` holds either the complete previous content or the complete
    new content — never a truncated mix.  The temp file lives in the
    destination directory (``os.replace`` must not cross filesystems).

    ``interrupt`` is the fault-injection seam: called between the
    synced temp write and the rename — the worst possible moment for a
    kill — it may raise, leaving the temp file behind exactly as a
    SIGKILL would.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    if interrupt is not None:
        interrupt()
    os.replace(tmp, path)


def checkpoint_to_dict(checkpoint) -> dict:
    """Serialize a :class:`~repro.verifier.budget.Checkpoint`.

    The cursor is only valid for the same (service, property,
    enumeration parameters); ``procedure`` and ``property_name`` are
    stored so a resuming caller can sanity-check the pairing.
    """
    return {"format": "repro.checkpoint/2", **checkpoint.to_dict()}


def checkpoint_from_dict(data: dict):
    """Rebuild a checkpoint from :func:`checkpoint_to_dict` output.

    Accepts both the current ``repro.checkpoint/2`` format and ``/1``
    files written before the fault-tolerance layer.  Malformed input
    raises :class:`~repro.verifier.budget.CheckpointFormatError` naming
    the offending field.
    """
    from repro.verifier.budget import Checkpoint, CheckpointFormatError

    if not isinstance(data, dict):
        raise CheckpointFormatError(
            f"checkpoint must be a JSON object, got {type(data).__name__}",
            field="",
        )
    if data.get("format") not in _CHECKPOINT_FORMATS:
        raise CheckpointFormatError(
            f"unsupported or missing checkpoint format tag: "
            f"{data.get('format')!r} (expected one of "
            f"{', '.join(_CHECKPOINT_FORMATS)})",
            field="format",
        )
    return Checkpoint.from_dict(data)


def save_checkpoint(checkpoint, path: str | Path, *, interrupt=None) -> None:
    """Atomically write an interrupted run's checkpoint to a JSON file.

    A kill at any instant — including between the write and the rename —
    leaves the previous checkpoint intact, so a resume file can never be
    truncated by the very interruption it exists to survive.
    """
    atomic_write_text(
        path,
        json.dumps(checkpoint_to_dict(checkpoint), indent=2,
                   ensure_ascii=False),
        interrupt=interrupt,
    )


def load_checkpoint(path: str | Path):
    """Read a checkpoint written by :func:`save_checkpoint`.

    Unreadable JSON (a file truncated by pre-atomic writers, or a
    partial copy) raises
    :class:`~repro.verifier.budget.CheckpointFormatError` instead of
    ``JSONDecodeError``.
    """
    from repro.verifier.budget import CheckpointFormatError

    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointFormatError(
            f"checkpoint file {path} is not valid JSON ({exc}); "
            "was the file truncated by an interrupted write?",
            field="",
        ) from None
    return checkpoint_from_dict(data)
