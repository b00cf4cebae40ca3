"""Relation symbols and their roles.

The paper's Web service model (Definition 2.1) uses four disjoint
relational schemas — database **D**, state **S**, input **I**, action
**A** — plus the derived vocabulary ``Prev_I`` containing one symbol
``prev_I`` per input relation ``I``.  A :class:`RelationSymbol` carries its
name, arity and a :class:`RelationKind` tag so that rule well-formedness
(which vocabularies a rule formula may mention) can be checked statically.

Relation symbols of arity zero are *propositions* (paper §2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RelationKind(enum.Enum):
    """Role of a relation symbol in a Web service specification."""

    DATABASE = "database"
    STATE = "state"
    INPUT = "input"
    ACTION = "action"
    PREV = "prev"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RelationKind.{self.name}"


#: Prefix used for the derived ``prev_I`` symbols.
PREV_PREFIX = "prev_"


@dataclass(frozen=True, order=True)
class RelationSymbol:
    """A named relation symbol with a fixed arity and role.

    Instances are immutable, hashable, and ordered (by name then arity),
    so they can serve as dictionary keys and be sorted deterministically
    for reproducible output.  The hash is the one the dataclass would
    generate, computed once: a symbol keys most of the relational
    substrate's dicts, and the generated hash rehashes the kind through
    ``Enum.__hash__`` on every probe.
    """

    name: str
    arity: int
    kind: RelationKind

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("relation symbol needs a non-empty name")
        if self.arity < 0:
            raise ValueError(f"negative arity for relation {self.name!r}")
        object.__setattr__(
            self, "_hash", hash((self.name, self.arity, self.kind))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes are seeded per interpreter, so the hash never
        # travels: unpickling runs ``__post_init__`` again.
        return type(self), (self.name, self.arity, self.kind)

    @property
    def is_proposition(self) -> bool:
        """True when the symbol has arity zero (a propositional symbol)."""
        return self.arity == 0

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"

    def __repr__(self) -> str:
        return f"RelationSymbol({self.name!r}, {self.arity}, {self.kind.value!r})"


def database_relation(name: str, arity: int) -> RelationSymbol:
    """Create a database relation symbol (fixed throughout a run)."""
    return RelationSymbol(name, arity, RelationKind.DATABASE)


def state_relation(name: str, arity: int = 0) -> RelationSymbol:
    """Create a state relation symbol (updated by state rules)."""
    return RelationSymbol(name, arity, RelationKind.STATE)


def input_relation(name: str, arity: int = 0) -> RelationSymbol:
    """Create an input relation symbol (holds the user's current choice)."""
    return RelationSymbol(name, arity, RelationKind.INPUT)


def action_relation(name: str, arity: int = 0) -> RelationSymbol:
    """Create an action relation symbol (produced by action rules)."""
    return RelationSymbol(name, arity, RelationKind.ACTION)


def prev_symbol(input_sym: RelationSymbol) -> RelationSymbol:
    """The ``prev_I`` symbol for input relation ``I`` (paper §2).

    ``prev_I`` has the same arity as ``I`` and holds the input to ``I``
    at the previous step of the run.
    """
    if input_sym.kind is not RelationKind.INPUT:
        raise ValueError(f"prev_symbol expects an input relation, got {input_sym}")
    return RelationSymbol(PREV_PREFIX + input_sym.name, input_sym.arity, RelationKind.PREV)


def unprev_name(prev_sym: RelationSymbol) -> str:
    """Name of the input relation a ``prev_I`` symbol refers to."""
    if prev_sym.kind is not RelationKind.PREV:
        raise ValueError(f"unprev_name expects a prev relation, got {prev_sym}")
    return prev_sym.name[len(PREV_PREFIX):]
