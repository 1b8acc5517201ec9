"""Randomized mechanisms: exact expectation over all n! initial orders, seeded
Monte Carlo estimation, and equivalence testing between mechanisms.
"""
from __future__ import annotations

import itertools
import operator
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

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


def _class_orders(classes: List[List[int]]) -> Iterator[AgentOrder]:
    """One order per sequence of class labels, each class's members placed in
    index order: n!/(k1! k2! ...) orders for classes of sizes k1, k2, ...

    The label sequences are the distinct permutations of the sorted labels,
    stepped through in lexicographic order."""
    labels = [c for c, members in enumerate(classes) for _ in members]
    while True:
        members = [iter(m) for m in classes]
        yield AgentOrder(tuple(next(members[c]) for c in labels))
        i = len(labels) - 2
        while i >= 0 and labels[i] >= labels[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(labels) - 1
        while labels[j] <= labels[i]:
            j -= 1
        labels[i], labels[j] = labels[j], labels[i]
        labels[i + 1:] = reversed(labels[i + 1:])


def exact_counts(mechanism: MatchingMechanism, profile: Profile) -> Counter:
    """How often each outcome ``item_of`` tuple occurs over all n! initial
    orders: the ``Counter`` of ``outcome_counts`` over ``order_stream(n)``.

    On a one-sided profile, agents with identical preferences form classes of
    sizes k1, k2, ...  The mechanism runs once per sequence of class labels
    (n!/(k1! k2! ...) runs), and each outcome is counted under its items per
    class.  The count then goes to every permutation of those items within the
    classes: renaming agents who have identical preferences only renames the
    outcome, so each of those matchings occurs that often among all n! orders.
    This needs a mechanism that treats agents anonymously, as every registry
    code does.  Two-sided profiles, whose item preferences can tell identical
    agents apart, and profiles with no identical agents run all n! orders.
    """
    orders = order_stream(profile.n)  # refuses n beyond the limit on the call
    by_prefs: dict = {}
    for a, prefs in enumerate(profile.agent_prefs):
        by_prefs.setdefault(prefs, []).append(a)
    classes = list(by_prefs.values())
    if profile.two_sided or len(classes) == profile.n:
        return outcome_counts(mechanism, profile, orders)
    per_class = Counter()
    for item_of, c in outcome_counts(mechanism, profile, _class_orders(classes)).items():
        per_class[tuple(tuple(sorted(item_of[a] for a in members)) for members in classes)] += c
    # Items laid out class after class go back to agents in index order.
    slots = [a for members in classes for a in members]
    unshuffle = operator.itemgetter(*sorted(range(profile.n), key=slots.__getitem__))
    counts = Counter()
    for items, c in per_class.items():
        for parts in itertools.product(*map(itertools.permutations, items)):
            counts[unshuffle(tuple(itertools.chain.from_iterable(parts)))] = c
    return counts


def _receipt_rows(counts: Counter, n: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """Per agent and item, the share of the counted runs giving the agent that item."""
    total = sum(counts.values())
    rows = [[0] * n for _ in range(n)]
    for item_of, c in counts.items():
        for row, o in zip(rows, item_of):
            row[o] += c
    return tuple(tuple(Fraction(c, total) for c in row) for row in rows)


def exact_lottery(mechanism: MatchingMechanism, profile: Profile) -> LotteryResult:
    """The lottery over all n! initial orders, each with weight 1/n!.

    Outcomes are counted by ``exact_counts``: a one-sided profile whose agents
    fall into classes of identical preferences, of sizes k1, k2, ..., runs
    n!/(k1! k2! ...) orders, which relies on ``mechanism`` treating agents
    anonymously (every registry code does).  Two-sided profiles run all n!
    orders.  Either way ``order_count`` is n!, and n is limited to
    ``ENUMERATION_LIMIT``.
    """
    counts = exact_counts(mechanism, profile)
    total = sum(counts.values())
    weight = {c: Fraction(c, total) for c in set(counts.values())}
    support = tuple((Matching(item_of), weight[c]) for item_of, c in sorted(counts.items()))
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
