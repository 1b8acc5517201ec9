"""Core domain types for one- and two-sided matching problems.

Agents and items are dense integer indices in [0, n); display names exist only
at the text I/O boundary (see :mod:`propmatch.textio`).  All probabilities are
exact rationals (:class:`fractions.Fraction`); mechanism code never touches
floating point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple


class InvalidInstanceError(ValueError):
    """Raised when a problem instance violates a structural invariant."""


def _as_permutation(seq: Iterable[int], n: int, what: str) -> Tuple[int, ...]:
    t = tuple(seq)
    if len(t) != n or sorted(t) != list(range(n)):
        raise InvalidInstanceError(f"{what} must be a permutation of 0..{n - 1}, got {t!r}")
    return t


@dataclass(frozen=True)
class Profile:
    """Strict preference profile; ``item_prefs`` present only for two-sided problems.

    ``agent_prefs[i]`` lists item indices, most-preferred first.  Agent and item
    counts are equal by construction.
    """

    agent_prefs: Tuple[Tuple[int, ...], ...]
    item_prefs: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self):
        n = len(self.agent_prefs)
        if n == 0:
            raise InvalidInstanceError("profile needs at least one agent")
        object.__setattr__(
            self,
            "agent_prefs",
            tuple(_as_permutation(p, n, f"agent {i} preferences") for i, p in enumerate(self.agent_prefs)),
        )
        if self.item_prefs is not None:
            if len(self.item_prefs) != n:
                raise InvalidInstanceError("item preference count must equal agent count")
            object.__setattr__(
                self,
                "item_prefs",
                tuple(_as_permutation(p, n, f"item {o} preferences") for o, p in enumerate(self.item_prefs)),
            )

    @property
    def n(self) -> int:
        return len(self.agent_prefs)

    @property
    def two_sided(self) -> bool:
        return self.item_prefs is not None

    def rank(self, agent: int, item: int) -> int:
        """0-based rank of ``item`` in ``agent``'s list (0 = most preferred)."""
        return self.agent_prefs[agent].index(item)


def profile(agent_prefs: Sequence[Sequence[int]], item_prefs: Sequence[Sequence[int]] | None = None) -> Profile:
    """Convenience constructor accepting plain lists."""
    return Profile(
        tuple(tuple(p) for p in agent_prefs),
        tuple(tuple(p) for p in item_prefs) if item_prefs is not None else None,
    )


@dataclass(frozen=True)
class Matching:
    """A discrete assignment: ``item_of[agent]`` is the item held by ``agent``."""

    item_of: Tuple[int, ...]

    def __post_init__(self):
        _as_permutation(self.item_of, len(self.item_of), "matching")

    @property
    def n(self) -> int:
        return len(self.item_of)


@dataclass(frozen=True)
class AgentOrder:
    """Initial proposing order; position 0 proposes first."""

    order: Tuple[int, ...]

    def __post_init__(self):
        _as_permutation(self.order, len(self.order), "agent order")

    @staticmethod
    def identity(n: int) -> "AgentOrder":
        return AgentOrder(tuple(range(n)))


@dataclass(frozen=True)
class FractionalAssignment:
    """A doubly stochastic matrix of exact rationals.

    Rows are agents, columns are items in fixed item-index order.  Row and
    column sums are exactly 1 (rational equality, never tolerance-based).
    """

    p: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.p)
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.p)
        object.__setattr__(self, "p", rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise InvalidInstanceError(f"row {i} has length {len(row)}, expected {n}")
            if any(x < 0 or x > 1 for x in row):
                raise InvalidInstanceError(f"row {i} has an entry outside [0, 1]")
            if sum(row) != 1:
                raise InvalidInstanceError(f"row {i} sums to {sum(row)}, expected exactly 1")
        for j in range(n):
            col = sum(row[j] for row in rows)
            if col != 1:
                raise InvalidInstanceError(f"column {j} sums to {col}, expected exactly 1")

    @property
    def n(self) -> int:
        return len(self.p)

    def row(self, agent: int) -> Tuple[Fraction, ...]:
        return self.p[agent]


def proportional_assignment(n: int) -> FractionalAssignment:
    """The assignment in which every entry equals 1/n."""
    if n < 1:
        raise InvalidInstanceError("need n >= 1")
    x = Fraction(1, n)
    return FractionalAssignment(tuple(tuple(x for _ in range(n)) for _ in range(n)))


def matching_to_assignment(m: Matching) -> FractionalAssignment:
    """The 0/1 permutation matrix of a discrete assignment."""
    n = m.n
    return FractionalAssignment(
        tuple(tuple(Fraction(1 if m.item_of[a] == o else 0) for o in range(n)) for a in range(n))
    )
