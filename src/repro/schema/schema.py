"""Relational schemas and the four-part schema of a Web service.

A :class:`RelationalSchema` is a finite set of relation symbols plus a
finite set of constant symbols (paper §2).  A :class:`ServiceSchema`
bundles the four disjoint schemas **D**, **S**, **I**, **A** of a Web
service together with the derived ``Prev_I`` vocabulary and the set of
input constants ``const(I)``, and offers the lookups the rest of the
library needs (symbol by name, vocabulary unions for rule checking).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.schema.symbols import (
    RelationKind,
    RelationSymbol,
    prev_symbol,
    unprev_name,
)


@dataclass(frozen=True)
class RelationalSchema:
    """A finite set of relation symbols together with constant symbols.

    ``constants`` are the *names* of constant symbols belonging to the
    schema.  For the input schema these are the paper's *input constants*
    (``name``, ``password``, ...) whose interpretation the user provides
    during the run; for the database schema they are interpreted by the
    database instance.
    """

    relations: frozenset[RelationSymbol] = frozenset()
    constants: frozenset[str] = frozenset()

    def __init__(
        self,
        relations: Iterable[RelationSymbol] = (),
        constants: Iterable[str] = (),
    ) -> None:
        object.__setattr__(self, "relations", frozenset(relations))
        object.__setattr__(self, "constants", frozenset(constants))
        names = [r.name for r in self.relations]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate relation names in schema: {dupes}")

    def __iter__(self) -> Iterator[RelationSymbol]:
        return iter(sorted(self.relations))

    def __len__(self) -> int:
        return len(self.relations)

    def __contains__(self, item: RelationSymbol | str) -> bool:
        if isinstance(item, str):
            return any(r.name == item for r in self.relations)
        return item in self.relations

    def get(self, name: str) -> RelationSymbol | None:
        """The relation symbol called ``name``, or None."""
        for rel in self.relations:
            if rel.name == name:
                return rel
        return None

    def __getitem__(self, name: str) -> RelationSymbol:
        rel = self.get(name)
        if rel is None:
            raise KeyError(f"no relation named {name!r} in schema")
        return rel

    def union(self, *others: "RelationalSchema") -> "RelationalSchema":
        """Schema union (relations and constants)."""
        rels: set[RelationSymbol] = set(self.relations)
        consts: set[str] = set(self.constants)
        for other in others:
            rels |= other.relations
            consts |= other.constants
        return RelationalSchema(rels, consts)

    @property
    def max_arity(self) -> int:
        """Largest arity among the schema's relations (0 if empty)."""
        return max((r.arity for r in self.relations), default=0)

    def restrict(self, names: Iterable[str]) -> "RelationalSchema":
        """Sub-schema containing only the relations named in ``names``."""
        wanted = set(names)
        return RelationalSchema(
            (r for r in self.relations if r.name in wanted), self.constants
        )


@dataclass(frozen=True)
class ServiceSchema:
    """The four disjoint schemas of a Web service plus derived vocabulary.

    Mirrors the tuple ``<D, S, I, A>`` of Definition 2.1.  The ``prev``
    schema is derived: one ``prev_I`` symbol per input relation.  The
    constructor enforces the paper's disjointness requirement on relation
    symbols (constants may be shared), extended to the derived
    ``prev_I`` names: every evaluation context keys relations by name,
    so a declared relation called ``prev_I`` would alias ``I``'s prev.
    """

    database: RelationalSchema
    state: RelationalSchema
    input: RelationalSchema
    action: RelationalSchema
    prev: RelationalSchema = field(init=False)

    def __post_init__(self) -> None:
        prev = RelationalSchema(prev_symbol(i) for i in self.input.relations)
        seen: dict[str, RelationKind] = {}
        for schema in (self.database, self.state, self.input, self.action, prev):
            for rel in schema:
                if rel.name in seen:
                    derived = (
                        f" (derived from the input {unprev_name(rel)!r})"
                        if rel.kind is RelationKind.PREV else ""
                    )
                    raise ValueError(
                        f"relation name {rel.name!r} appears in both the "
                        f"{seen[rel.name].value} and {rel.kind.value} "
                        f"schemas{derived}"
                    )
                seen[rel.name] = rel.kind
        object.__setattr__(self, "prev", prev)

    @property
    def input_constants(self) -> frozenset[str]:
        """``const(I)`` — the input constants of the service."""
        return self.input.constants

    def resolve(self, name: str) -> RelationSymbol | None:
        """Look up a relation symbol by name across all five vocabularies."""
        for schema in (self.database, self.state, self.input, self.action, self.prev):
            rel = schema.get(name)
            if rel is not None:
                return rel
        return None

    def full_vocabulary(self) -> RelationalSchema:
        """Union of D, S, I, A and Prev_I (for LTL-FO property formulas)."""
        return self.database.union(self.state, self.input, self.action, self.prev)

    def rule_vocabulary(self, page_inputs: Iterable[RelationSymbol]) -> RelationalSchema:
        """Vocabulary available to state/action/target rules of a page.

        Definition 2.1 allows those rules to mention ``D ∪ S ∪ Prev_I ∪
        const(I) ∪ I_W`` where ``I_W`` are the page's own input relations.
        """
        page_schema = RelationalSchema(page_inputs, self.input.constants)
        return self.database.union(self.state, self.prev, page_schema)

    def input_rule_vocabulary(self) -> RelationalSchema:
        """Vocabulary available to input-option rules.

        Definition 2.1 allows input rules to mention ``D ∪ S ∪ Prev_I ∪
        const(I)`` (but not the page's current inputs).
        """
        consts = RelationalSchema((), self.input.constants)
        return self.database.union(self.state, self.prev, consts)

    @property
    def max_arity(self) -> int:
        """Largest arity across all four schemas."""
        return max(
            self.database.max_arity,
            self.state.max_arity,
            self.input.max_arity,
            self.action.max_arity,
        )
