"""Randomized mechanisms: exact expectation over all n! initial orders, seeded
Monte Carlo estimation, and equivalence testing between mechanisms.
"""
from __future__ import annotations

import functools
import itertools
import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Tuple

from .model import AgentOrder, FractionalAssignment, InvalidInstanceError, Matching, Profile, _indices

MatchingMechanism = Callable[[Profile, AgentOrder], Matching]

# A sequential mechanism run one admitted agent at a time.  ``stepper(profile)``
# returns ``(start, admit, finish)``: ``admit(state, work, agent)`` returns the
# state and work after ``agent`` joins the agents admitted so far, and
# ``finish(state, work, agent)`` the outcome ``item_of`` once ``agent``, the
# last, joins.  A state must depend on nothing but the admitted agents' order,
# and ``work`` is what the mechanism counts towards a bound it enforces by
# raising; prefix walks that meet in one state go on from the largest work
# among them.
Stepper = Callable[[Profile], tuple]

# The largest n whose n! orders are enumerated (8! = 40320), whether one by
# one (``order_stream``) or as prefixes merged by state (``exact_counts``).
# Beyond it the library raises EnumerationLimitError and the CLI exits 3.
ENUMERATION_LIMIT = 8


class EnumerationLimitError(ValueError):
    """The instance is too large for exhaustive order enumeration."""


def check_seed(seed: int) -> None:
    """Refuse a negative seed: ``random.Random`` seeds with an int's absolute
    value, so ``-s`` would repeat the draws of ``s`` under another seed."""
    if seed < 0:
        raise ValueError(f"need a seed >= 0, got {seed}")


@dataclass(frozen=True)
class LotteryResult:
    """Exact uniform-order lottery, as integer counts over ``order_count`` (n!).

    ``outcomes`` pairs each distinct outcome ``item_of`` with the number of
    orders giving it, sorted by outcome, and ``rows[i][o]`` counts the orders
    giving agent i item o; there must be at least one outcome, every outcome
    must be a permutation of 0..n-1 and every row and column of ``rows`` sum
    to ``order_count``.  ``assignment`` and ``support`` are the same lottery
    in exact ``Fraction`` probabilities, built on first read: ``support``
    pairs each distinct matching with its probability, and the weighted
    permutation matrices sum to ``assignment``.
    """

    outcomes: Tuple[Tuple[Tuple[int, ...], int], ...]
    order_count: int
    rows: Tuple[Tuple[int, ...], ...] = field(init=False, compare=False)

    def __post_init__(self):
        if not self.outcomes:
            raise InvalidInstanceError("a lottery needs at least one outcome")
        n = len(self.outcomes[0][0])
        items = _indices(n)
        for item_of, _ in self.outcomes:
            if len(item_of) != n or set(item_of) != items:
                raise InvalidInstanceError(f"lottery outcome {item_of} is not a matching of {n} items")
        rows = _receipt_rows(self.outcomes, n)
        object.__setattr__(self, "rows", rows)
        if any(sum(line) != self.order_count for line in rows + tuple(zip(*rows))):
            raise InvalidInstanceError(f"lottery rows and columns must each sum to {self.order_count}")

    @functools.cached_property
    def assignment(self) -> FractionalAssignment:
        return FractionalAssignment(self.rows, self.order_count)

    @functools.cached_property
    def support(self) -> Tuple[Tuple[Matching, Fraction], ...]:
        total = self.order_count
        weight = {c: Fraction(c, total) for c in {c for _, c in self.outcomes}}
        return tuple((Matching(item_of), weight[c]) for item_of, c in self.outcomes)


class Runner:
    """A matching mechanism ``run(profile, order)`` that carries an optional
    ``stepper``, which ``exact_counts`` uses to merge order prefixes."""

    __slots__ = ("run", "stepper")

    def __init__(self, run: MatchingMechanism, stepper: Optional[Stepper] = None):
        self.run = run
        self.stepper = stepper

    def __call__(self, profile: Profile, order: AgentOrder) -> Matching:
        return self.run(profile, order)


def _check_limit(n: int) -> None:
    if n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"n={n} exceeds the order-enumeration limit {ENUMERATION_LIMIT}; sample orders"
        )


def permutation_drawer(rng: random.Random, n: int) -> Callable[[], Tuple[int, ...]]:
    """A function giving a fresh uniform permutation of 0..n-1 per call: the one
    ``rng.shuffle(list(range(n)))`` draws, by the same ``getrandbits`` calls and
    rejections.  Assumes a ``getrandbits``-based ``rng``, as ``random.Random``;
    ``rng`` is not read before the first call."""
    steps = [(i, i + 1, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
    identity = list(range(n))

    def draw() -> Tuple[int, ...]:
        getrandbits = rng.getrandbits
        perm = identity[:]
        for i, below, k in steps:
            j = getrandbits(k)
            while j >= below:
                j = getrandbits(k)
            perm[i], perm[j] = perm[j], perm[i]
        return tuple(perm)

    return draw


def order_stream(
    n: int, orders: str | int = "all", rng: Optional[random.Random] = None
) -> Iterator[AgentOrder]:
    """The initial orders a randomized evaluation runs.

    ``orders`` is ``"all"`` (every permutation, lexicographic; refused beyond
    ``ENUMERATION_LIMIT`` agents) or a count k of uniform draws from ``rng``
    by ``permutation_drawer``.  The limit and the count are checked on the
    call, before any order is produced.
    """
    if orders == "all":
        _check_limit(n)
        return map(AgentOrder, itertools.permutations(range(n)))
    if orders < 1:
        raise ValueError(f"need an order count >= 1, got {orders}")

    draw = permutation_drawer(rng, n)  # ``rng`` may be None when only ``orders`` is checked
    return (AgentOrder(draw()) for _ in range(orders))


def outcome_counts(
    mechanism: MatchingMechanism, profile: Profile, orders: Iterable[AgentOrder]
) -> Counter:
    """How often each outcome ``item_of`` tuple occurs over ``orders``."""
    return Counter(mechanism(profile, order).item_of for order in orders)


def _replay(mechanism: MatchingMechanism) -> Stepper:
    """The stepper of a plain callable with none of its own (every registry
    code carries one): its state is the admitted prefix itself, so no two
    prefixes merge, and ``finish`` runs the mechanism on that whole order."""

    def begin(profile: Profile):
        def admit(prefix, work, agent):
            return prefix + (agent,), work

        def finish(prefix, work, agent):
            return mechanism(profile, AgentOrder(prefix + (agent,))).item_of

        return (), admit, finish

    return begin


def order_free(mechanism: MatchingMechanism) -> Stepper:
    """The stepper of a mechanism that never reads the order: every prefix
    reaches the one state, and ``finish`` runs the mechanism once."""

    def begin(profile: Profile):
        def admit(state, work, agent):
            return state, work

        def finish(state, work, agent):
            return mechanism(profile, AgentOrder.identity(profile.n)).item_of

        return None, admit, finish

    return begin


def exact_counts(mechanism: MatchingMechanism, profile: Profile) -> Counter:
    """How often each outcome ``item_of`` tuple occurs over all n! initial
    orders: the ``Counter`` of ``outcome_counts`` over ``order_stream(n)``.

    Orders are walked as prefixes, one admitted agent per layer, by the
    mechanism's stepper (``Runner.stepper``, which every registry code has;
    a plain callable replays every order).  Layer k maps each pair (members
    admitted per class, state after k admits) to the number of prefixes
    reaching it, so prefixes that reach one state run on once.

    On a one-sided profile, agents with identical preferences form classes of
    sizes k1, k2, ..., and a class admits its members in index order: the
    n!/(k1! k2! ...) sequences of class labels stand for all n! orders.  Each
    outcome is counted under its items per class, and the count then goes to
    every permutation of those items within the classes: renaming agents who
    have identical preferences only renames the outcome, so each of those
    matchings occurs that often among all n! orders.  This needs a mechanism
    that treats agents anonymously, as every registry code does.  On a
    two-sided profile, whose item preferences can tell identical agents
    apart, every agent is its own class.
    """
    n = profile.n
    _check_limit(n)
    if profile.two_sided:
        classes = [[a] for a in range(n)]
    else:
        by_prefs: dict = {}
        for a, prefs in enumerate(profile.agent_prefs):
            by_prefs.setdefault(prefs, []).append(a)
        classes = list(by_prefs.values())
    stepper = getattr(mechanism, "stepper", None) or _replay(mechanism)
    per_class = _walk(stepper(profile), classes)
    if len(classes) == n:
        return per_class
    folded = Counter()
    for item_of, c in per_class.items():
        folded[tuple(tuple(sorted(item_of[a] for a in members)) for members in classes)] += c
    # Items laid out class after class go back to agents in index order.
    slots = [a for members in classes for a in members]
    unshuffle = operator.itemgetter(*sorted(range(n), key=slots.__getitem__))
    counts = Counter()
    for items, c in folded.items():
        for parts in itertools.product(*map(itertools.permutations, items)):
            counts[unshuffle(tuple(itertools.chain.from_iterable(parts)))] = c
    return counts


def _walk(stepped: tuple, classes) -> Counter:
    """Outcome counts over the class-label sequences, one layer per admit.

    A layer maps the members admitted per class to the states reached, and
    each state to [prefixes, work], the work being the largest among the
    merged prefixes."""
    start, admit, finish = stepped
    sizes = [len(members) for members in classes]
    layer = {(0,) * len(classes): {start: [1, 0]}}
    for _ in range(sum(sizes) - 1):
        nxt = {}
        for taken, states in layer.items():
            for c, k in enumerate(taken):
                if k == sizes[c]:
                    continue
                agent = classes[c][k]
                key = taken[:c] + (k + 1,) + taken[c + 1:]
                merged = nxt.get(key)
                if merged is None:
                    merged = nxt[key] = {}
                for state, (prefixes, work) in states.items():
                    after, done = admit(state, work, agent)
                    entry = merged.get(after)
                    if entry is None:
                        merged[after] = [prefixes, done]
                    else:
                        entry[0] += prefixes
                        if done > entry[1]:
                            entry[1] = done
        layer = nxt
    counts = Counter()
    for taken, states in layer.items():
        # One member of one class is left to join.
        agent = next(members[k] for members, k in zip(classes, taken) if k < len(members))
        for state, (prefixes, work) in states.items():
            outcome = finish(state, work, agent)
            counts[outcome] = counts.get(outcome, 0) + prefixes
    return counts


def _receipt_rows(outcomes: Iterable[Tuple[Tuple[int, ...], int]], n: int) -> Tuple[Tuple[int, ...], ...]:
    """Per agent and item, how many of the counted runs give the agent that item."""
    rows = [[0] * n for _ in range(n)]
    for item_of, c in outcomes:
        for row, o in zip(rows, item_of):
            row[o] += c
    return tuple(map(tuple, rows))


def exact_lottery(mechanism: MatchingMechanism, profile: Profile) -> LotteryResult:
    """The lottery over all n! initial orders, each with weight 1/n!: the
    outcome counts of ``exact_counts``, which states how orders are walked,
    the anonymity it relies on, and the ``ENUMERATION_LIMIT`` on n.
    """
    counts = exact_counts(mechanism, profile)
    return LotteryResult(tuple(sorted(counts.items())), sum(counts.values()))


def sampled_lottery(
    mechanism: MatchingMechanism, profile: Profile, samples: int, seed: int
) -> Tuple[Tuple[Fraction, ...], ...]:
    """Estimate the lottery by item-receipt frequencies over ``samples`` uniform
    orders drawn with ``seed``.  Rows sum to exactly 1 but columns generally do
    not, so the result is returned as raw frequency rows.
    """
    check_seed(seed)
    orders = order_stream(profile.n, samples, random.Random(seed))
    rows = _receipt_rows(outcome_counts(mechanism, profile, orders).items(), profile.n)
    return tuple(tuple(Fraction(c, samples) for c in row) for row in rows)


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
    check_seed(seed)
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
        if exact_lottery(mech_a, profile).rows != exact_lottery(mech_b, profile).rows:
            return EquivalenceVerdict(False, profile)
    return EquivalenceVerdict(True)
