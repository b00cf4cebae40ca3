"""Finite Kripke structures (Definition A.4).

A Kripke structure is ``(S, S0, R, L)`` with a total transition relation
``R`` and a labelling ``L`` assigning to each state the set of atomic
propositions true there.  States and propositions are arbitrary hashable
values.

A structure numbers its states once, when it is built: state ``i`` is
``states[i]``, and successors, predecessors and labels are stored by id.
Sets of states are then int bitsets (bit ``i`` is state ``i``), the
representation :mod:`repro.ctl.modelcheck` labels with; :func:`to_flags`
and :func:`to_mask` convert between a bitset and a ``bytearray``
membership table.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping

State = Hashable
Proposition = Hashable

_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def to_flags(mask: int, n: int) -> bytearray:
    """The membership table of ``mask`` over ``n`` states: ``flags[i]``
    is bit ``i`` (0 or 1)."""
    # the last n binary digits, lowest bit first (none when n is 0)
    digits = format(mask, f"0{n}b")[:-n - 1:-1]
    return bytearray(digits, "ascii").translate(_TO_FLAGS)


def to_mask(flags: bytes | bytearray) -> int:
    """The bitset whose bit ``i`` is ``flags[i]`` (each 0 or 1)."""
    return int(flags.translate(_TO_DIGITS)[::-1] or b"0", 2)


class KripkeStructure:
    """An explicit finite Kripke structure.

    Parameters
    ----------
    states:
        The state set.
    initial:
        The initial states (the paper uses a single ``s0``; a set is
        convenient for products).
    edges:
        Mapping from state to an iterable of successor states.  The
        relation must be total — every state needs at least one
        successor (add a self-loop for terminal states).
    labels:
        Mapping from state to the set of propositions true there.

    ``index`` maps a state to its id; ``succ_ids[i]`` and
    ``pred_ids[i]`` are the ids of state ``i``'s successors and
    predecessors, in state order.  A structure is immutable except for
    its memo of proposition masks (:meth:`prop_mask`), whose entries are
    each written once, as a complete int, so threads may label one
    structure at once.
    """

    def __init__(
        self,
        states: Iterable[State],
        initial: Iterable[State],
        edges: Mapping[State, Iterable[State]],
        labels: Mapping[State, Iterable[Proposition]],
    ) -> None:
        index: dict[State, int] = {}
        for s in states:
            index.setdefault(s, len(index))
        self.index = index
        self.states: list[State] = list(index)
        self.initial: frozenset[State] = frozenset(initial)
        if not self.initial <= index.keys():
            missing = self.initial - index.keys()
            raise ValueError(f"initial states not in state set: {sorted(missing, key=repr)}")
        succ_ids: list[tuple[int, ...]] = []
        preds: list[list[int]] = [[] for _ in self.states]
        for s, i in index.items():
            succs = tuple(edges.get(s, ()))
            if not succs:
                raise ValueError(
                    f"transition relation is not total: state {s!r} has no "
                    "successor (add a self-loop)"
                )
            try:
                # dedupe ids, not states: an int hashes cheaper than a state
                out = tuple(dict.fromkeys([index[t] for t in succs]))
            except KeyError:
                bad = [t for t in dict.fromkeys(succs) if t not in index]
                raise ValueError(f"successors of {s!r} not in state set: {bad}") from None
            succ_ids.append(out)
            for j in out:
                preds[j].append(i)
        self.succ_ids: tuple[tuple[int, ...], ...] = tuple(succ_ids)
        self.pred_ids: tuple[tuple[int, ...], ...] = tuple(map(tuple, preds))
        self._labels: list[frozenset[Proposition]] = [
            frozenset(labels.get(s, ())) for s in self.states
        ]
        self._masks: dict[Proposition, int] = {}

    # -- queries ---------------------------------------------------------

    def successors(self, state: State) -> tuple[State, ...]:
        """The successors of a state (never empty)."""
        states = self.states
        return tuple([states[j] for j in self.succ_ids[self.index[state]]])

    def label(self, state: State) -> frozenset[Proposition]:
        """Propositions true at a state."""
        return self._labels[self.index[state]]

    def holds(self, state: State, prop: Proposition) -> bool:
        """Whether a proposition is true at a state."""
        return prop in self._labels[self.index[state]]

    def prop_mask(self, prop: Proposition) -> int:
        """The bitset of the states where ``prop`` holds (memoized)."""
        mask = self._masks.get(prop)
        if mask is None:
            mask = to_mask(bytearray([prop in lab for lab in self._labels]))
            self._masks[prop] = mask
        return mask

    def predecessors_map(self) -> dict[State, list[State]]:
        """Reverse adjacency, by state."""
        states = self.states
        return {
            s: [states[i] for i in pred]
            for s, pred in zip(states, self.pred_ids)
        }

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self.succ_ids))

    def __iter__(self) -> Iterator[State]:
        return iter(self.states)

    def __repr__(self) -> str:
        return (
            f"KripkeStructure({self.n_states} states, {self.n_edges} edges, "
            f"{len(self.initial)} initial)"
        )
