"""Randomized mechanisms: exact expectation over all n! initial orders, seeded
Monte Carlo estimation, and equivalence testing between mechanisms.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Tuple

from .model import AgentOrder, FractionalAssignment, Matching, Profile

MatchingMechanism = Callable[[Profile, AgentOrder], Matching]

ENUMERATION_LIMIT = 8  # 8! = 40320 runs


class EnumerationLimitError(ValueError):
    """The instance is too large for exhaustive order enumeration."""


@dataclass(frozen=True)
class LotteryResult:
    """Exact uniform-order lottery: the average assignment and its support.

    ``support`` pairs each distinct matching with its exact probability;
    weights sum to 1 and their weighted permutation matrices sum to
    ``assignment``.
    """

    assignment: FractionalAssignment
    support: Tuple[Tuple[Matching, Fraction], ...]
    order_count: int


def order_stream(
    n: int, orders: str | int = "all", rng: Optional[random.Random] = None
) -> Iterator[AgentOrder]:
    """The initial orders a randomized evaluation runs.

    ``orders`` is ``"all"`` (every permutation, lexicographic; refused beyond
    ``ENUMERATION_LIMIT`` agents) or a count k of uniform draws from ``rng``.
    The limit and the count are checked on the call, before any order is
    produced.
    """
    if orders == "all":
        if n > ENUMERATION_LIMIT:
            raise EnumerationLimitError(
                f"n={n} exceeds the order-enumeration limit {ENUMERATION_LIMIT}; sample orders"
            )
        return map(AgentOrder, itertools.permutations(range(n)))
    if orders < 1:
        raise ValueError(f"need an order count >= 1, got {orders}")

    def draw() -> AgentOrder:
        perm = list(range(n))
        rng.shuffle(perm)
        return AgentOrder(tuple(perm))

    return (draw() for _ in range(orders))


def outcome_counts(
    mechanism: MatchingMechanism, profile: Profile, orders: Iterable[AgentOrder]
) -> Counter:
    """How often each outcome ``item_of`` tuple occurs over ``orders``."""
    return Counter(mechanism(profile, order).item_of for order in orders)


def _receipt_rows(counts: Counter, n: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """Per agent and item, the share of the counted runs giving the agent that item."""
    total = sum(counts.values())
    rows = [[0] * n for _ in range(n)]
    for item_of, c in counts.items():
        for a, o in enumerate(item_of):
            rows[a][o] += c
    return tuple(tuple(Fraction(c, total) for c in row) for row in rows)


def exact_lottery(mechanism: MatchingMechanism, profile: Profile) -> LotteryResult:
    """Run ``mechanism`` under every initial order (lexicographic enumeration)
    and average with weight 1/n!.
    """
    counts = outcome_counts(mechanism, profile, order_stream(profile.n))
    total = sum(counts.values())
    support = tuple(
        (Matching(item_of), Fraction(c, total)) for item_of, c in sorted(counts.items())
    )
    assignment = FractionalAssignment(_receipt_rows(counts, profile.n))
    return LotteryResult(assignment, support, total)


def sampled_lottery(
    mechanism: MatchingMechanism, profile: Profile, samples: int, seed: int
) -> Tuple[Tuple[Fraction, ...], ...]:
    """Estimate the lottery by item-receipt frequencies over ``samples`` uniform
    orders drawn with ``seed``.  Rows sum to exactly 1 but columns generally do
    not, so the result is returned as raw frequency rows.
    """
    orders = order_stream(profile.n, samples, random.Random(seed))
    return _receipt_rows(outcome_counts(mechanism, profile, orders), profile.n)


@dataclass(frozen=True)
class EquivalenceVerdict:
    equal: bool
    profile: Optional[Profile] = None
    order: Optional[AgentOrder] = None

    def __bool__(self) -> bool:
        return self.equal


def equivalent_on(
    mech_a: MatchingMechanism,
    mech_b: MatchingMechanism,
    profiles: Iterable[Profile],
    orders: str | int = "all",
    seed: int = 0,
) -> EquivalenceVerdict:
    """Compare two matching mechanisms over a profile set.

    ``orders`` is ``"all"`` (every permutation per profile) or an integer count
    of seeded random orders per profile.  Returns the first (profile, order)
    where the outputs differ, if any.
    """
    rng = random.Random(seed)
    for profile in profiles:
        for order in order_stream(profile.n, orders, rng):
            if mech_a(profile, order) != mech_b(profile, order):
                return EquivalenceVerdict(False, profile, order)
    return EquivalenceVerdict(True)


def randomized_equivalent_on(
    mech_a: MatchingMechanism,
    mech_b: MatchingMechanism,
    profiles: Iterable[Profile],
) -> EquivalenceVerdict:
    """Compare randomized versions by exact lottery matrices (never samples)."""
    for profile in profiles:
        if exact_lottery(mech_a, profile).assignment != exact_lottery(mech_b, profile).assignment:
            return EquivalenceVerdict(False, profile)
    return EquivalenceVerdict(True)
