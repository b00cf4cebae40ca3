"""Finite relational instances.

An :class:`Instance` maps relation symbols to finite relations (sets of
tuples of domain elements).  Propositional symbols (arity 0) are mapped to
a truth value, represented internally as the presence or absence of the
empty tuple — so one uniform representation covers both cases.

Instances are immutable; update operations return new instances.  This
keeps run semantics functional (a configuration can be hashed and memoised
by the verifier) and rules out aliasing bugs.

Domain elements may be any hashable Python values; the library's demos use
strings and ints.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Iterator, Mapping

from repro.schema.symbols import RelationSymbol

Value = Hashable
Tuple_ = tuple  # tuples of Value


class Instance:
    """An immutable finite relational instance.

    Parameters
    ----------
    contents:
        Mapping from :class:`RelationSymbol` to an iterable of tuples.
        Tuples must match the symbol's arity.  A propositional symbol may
        be given a bool instead of a tuple set.
    """

    __slots__ = ("_relations", "_hash")

    def __init__(
        self,
        contents: Mapping[RelationSymbol, Iterable[tuple] | bool] | None = None,
    ) -> None:
        relations: dict[RelationSymbol, frozenset] = {}
        for sym, tuples in (contents or {}).items():
            if isinstance(tuples, bool):
                rel = frozenset([()]) if tuples else frozenset()
            else:
                rel = frozenset(tuple(t) for t in tuples)
            for t in rel:
                if len(t) != sym.arity:
                    raise ValueError(
                        f"tuple {t!r} has length {len(t)}, but relation "
                        f"{sym} has arity {sym.arity}"
                    )
            if rel:
                relations[sym] = rel
        self._relations: dict[RelationSymbol, frozenset] = relations
        self._hash: int | None = None

    # -- queries ---------------------------------------------------------

    def tuples(self, sym: RelationSymbol) -> frozenset:
        """The (possibly empty) relation interpreting ``sym``."""
        return self._relations.get(sym, frozenset())

    def holds(self, sym: RelationSymbol, values: tuple = ()) -> bool:
        """Whether ``sym(values)`` is true in this instance."""
        return values in self._relations.get(sym, frozenset())

    def truth(self, sym: RelationSymbol) -> bool:
        """Truth value of a propositional (arity-0) symbol."""
        if sym.arity != 0:
            raise ValueError(f"{sym} is not propositional")
        return () in self._relations.get(sym, frozenset())

    def is_empty(self, sym: RelationSymbol) -> bool:
        """Whether the relation interpreting ``sym`` is empty."""
        return sym not in self._relations

    @property
    def nonempty_symbols(self) -> frozenset[RelationSymbol]:
        """Symbols interpreted by a nonempty relation."""
        return frozenset(self._relations)

    def items(self):
        """The (symbol, relation) pairs of the nonempty relations, in no
        particular order — cheaper than iterating, which sorts."""
        return self._relations.items()

    def active_domain(self) -> frozenset:
        """All domain elements occurring in some tuple of the instance."""
        return frozenset(v for rel in self._relations.values() for t in rel for v in t)

    def total_tuples(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(rel) for rel in self._relations.values())

    # -- functional updates ----------------------------------------------

    def with_relation(
        self, sym: RelationSymbol, tuples: Iterable[tuple] | bool
    ) -> "Instance":
        """A copy of this instance with ``sym`` reinterpreted as ``tuples``."""
        contents: dict[RelationSymbol, Iterable[tuple] | bool] = dict(self._relations)
        contents[sym] = tuples
        return Instance(contents)

    def merged(self, other: "Instance") -> "Instance":
        """Union of two instances, relation by relation."""
        contents: dict[RelationSymbol, frozenset] = dict(self._relations)
        for sym, rel in other._relations.items():
            contents[sym] = contents.get(sym, frozenset()) | rel
        return Instance(contents)

    def restricted(self, symbols: Iterable[RelationSymbol]) -> "Instance":
        """The instance restricted to the given symbols."""
        wanted = set(symbols)
        return Instance(
            {sym: rel for sym, rel in self._relations.items() if sym in wanted}
        )

    def renamed(self, mapping: Mapping[Value, Value]) -> "Instance":
        """Apply a renaming of domain elements (used by iso-reduction)."""
        return Instance(
            {
                sym: {tuple(mapping.get(v, v) for v in t) for t in rel}
                for sym, rel in self._relations.items()
            }
        )

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._relations == other._relations

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._relations.items()))
        return self._hash

    def __getstate__(self):
        # Only the relations travel: the cached hash is process-local
        # (string hashing is seeded per interpreter), so shipping it to
        # a worker would poison that worker's hash-based containers.
        return self._relations

    def __setstate__(self, state) -> None:
        self._relations = state
        self._hash = None

    def __bool__(self) -> bool:
        return bool(self._relations)

    def __iter__(self) -> Iterator[tuple[RelationSymbol, frozenset]]:
        return iter(sorted(self._relations.items(), key=lambda kv: kv[0]))

    def __repr__(self) -> str:
        if not self._relations:
            return "Instance({})"
        parts = []
        for sym, rel in sorted(self._relations.items(), key=lambda kv: kv[0]):
            shown = sorted(rel, key=repr)
            parts.append(f"{sym.name}: {shown}")
        return "Instance({" + ", ".join(parts) + "})"

    @staticmethod
    def empty() -> "Instance":
        """The everywhere-empty instance."""
        return _EMPTY


_EMPTY = Instance()


def union_active_domain(*instances: Instance) -> frozenset:
    """Union of the active domains of several instances."""
    dom: set = set()
    for inst in instances:
        dom |= inst.active_domain()
    return frozenset(dom)
