"""Core domain types for one- and two-sided matching problems.

Agents and items are dense integer indices in [0, n); display names exist only
at the text I/O boundary (see :mod:`propmatch.textio`).  Probabilities are exact:
integer numerators over one denominator, with :class:`fractions.Fraction` views
built on first read; mechanism code never touches floating point.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple


class InvalidInstanceError(ValueError):
    """Raised when a problem instance violates a structural invariant."""


_indices = functools.cache(lambda n: frozenset(range(n)))  # 0..n-1, built once per n


def _as_permutation(seq: Iterable[int], n: int, what: str) -> Tuple[int, ...]:
    t = tuple(seq)
    try:
        if len(t) == n and _indices(n) == set(t):
            return t
    except TypeError:  # an unhashable entry
        pass
    raise InvalidInstanceError(f"{what} must be a permutation of 0..{n - 1}, got {t!r}")


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
    """A doubly stochastic matrix: agent i gets item o (item-index order) with
    probability ``nums[i][o] / scale``.  Every row and column of int numerators
    sums to exactly ``scale``.  The pair is stored as tuples divided by the gcd
    of ``scale`` and every numerator, so ``scale`` is the least common
    denominator and equal assignments compare equal.  ``p`` and ``row()`` are
    the ``Fraction`` probabilities, built on first read.
    """

    nums: Tuple[Tuple[int, ...], ...]
    scale: int

    def __post_init__(self):
        nums, scale, n = self.nums, self.scale, len(self.nums)
        if n == 0:
            raise InvalidInstanceError("an assignment needs at least one agent")
        if type(scale) is not int or scale < 1:
            raise InvalidInstanceError(f"scale must be a positive integer, got {scale!r}")
        for i, row in enumerate(nums):
            if len(row) != n:
                raise InvalidInstanceError(f"row {i} has length {len(row)}, expected {n}")
            if any(type(x) is not int for x in row):
                raise InvalidInstanceError(f"row {i} has an entry that is not an integer numerator")
            if any(x < 0 or x > scale for x in row):
                raise InvalidInstanceError(f"row {i} has an entry outside [0, 1]")
            if sum(row) != scale:
                raise InvalidInstanceError(f"row {i} sums to {Fraction(sum(row), scale)}, expected exactly 1")
        for j, col in enumerate(zip(*nums)):
            if sum(col) != scale:
                raise InvalidInstanceError(f"column {j} sums to {Fraction(sum(col), scale)}, expected exactly 1")
        g = math.gcd(scale, *(x for row in nums for x in row))
        object.__setattr__(self, "nums", tuple([tuple([x // g for x in row]) for row in nums]))
        object.__setattr__(self, "scale", scale // g)

    @functools.cached_property
    def p(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """``p[i][o]``, the probability that agent i gets item o."""
        return tuple(tuple(Fraction(x, self.scale) for x in row) for row in self.nums)

    @property
    def n(self) -> int:
        return len(self.nums)

    def row(self, agent: int) -> Tuple[Fraction, ...]:
        return self.p[agent]


def proportional_assignment(n: int) -> FractionalAssignment:
    """The assignment in which every entry equals 1/n; refused below n = 1."""
    return FractionalAssignment(((1,) * n,) * n, n)


def matching_to_assignment(m: Matching) -> FractionalAssignment:
    """The 0/1 permutation matrix of a discrete assignment."""
    return FractionalAssignment(tuple(tuple(int(o == held) for o in range(m.n)) for held in m.item_of), 1)
