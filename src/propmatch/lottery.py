"""Randomized mechanisms: exact expectation over all n! initial orders, seeded
Monte Carlo estimation, and equivalence testing between mechanisms.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

from .model import AgentOrder, FractionalAssignment, InvalidInstanceError, Matching, Profile, _indices, _trusted

MatchingMechanism = Callable[[Profile, AgentOrder], Matching]

# A sequential mechanism run one admitted agent at a time, which a ``Runner``
# whose run reads the order carries for ``exact_counts`` to walk.
# ``stepper(profile)`` returns ``(start, admit, settle)``:
# ``admit(state, work, agent)`` returns the state and work after ``agent``
# joins the agents admitted so far, every agent the last included, and
# ``settle(state, work)`` the outcome ``item_of`` of a state reached once all
# n have joined, as ``run`` returns it, which the walk counts folded by class
# and ``exact_counts`` trades once per folded outcome for a ``+G`` Runner.
# A state must be hashable, is hashed once per admit that reaches it, and
# must depend on nothing but the admitted agents' order, so keep it to what
# later admits read; ``work`` is what the mechanism counts towards a bound it
# enforces by raising; prefix walks that meet in one state go on, or settle,
# from the largest work among them.
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


class ClassCounts(NamedTuple):
    """Outcome counts kept folded by classes of interchangeable agents.

    ``classes`` lists every agent 0..n-1 once, each class in ascending order.
    ``counts`` maps each folded outcome to a count c: the outcome is the
    representative ``item_of`` that gives each class its items in ascending
    order of agent (``fold_outcome``), and it stands for every outcome that
    permutes those items within the classes, each of them given by c orders.
    With every agent its own class, these are plain outcome counts."""

    classes: Tuple[Tuple[int, ...], ...]
    counts: Dict[Tuple[int, ...], int]


@functools.lru_cache(maxsize=None)
def singleton_classes(n: int) -> Tuple[Tuple[int, ...], ...]:
    """Every agent its own class: no folding."""
    return tuple((a,) for a in range(n))


def spread_size(classes: Iterable[Tuple[int, ...]]) -> int:
    """How many outcomes one folded outcome stands for: k1! k2! ... for
    classes of sizes k1, k2, ..."""
    return math.prod(math.factorial(len(members)) for members in classes)


def fold_outcome(item_of: Tuple[int, ...], classes) -> Tuple[int, ...]:
    """The representative of ``item_of`` under ``classes``: the items of
    each class given to its members in ascending order."""
    folded = list(item_of)
    for members in classes:
        if len(members) > 1:
            for a, o in zip(members, sorted([item_of[a] for a in members])):
                folded[a] = o
    return tuple(folded)


def refold(counts: ClassCounts, outcome: Callable) -> ClassCounts:
    """``counts`` with each outcome mapped through ``outcome`` (a ``+G``
    trade) and folded by its classes, summing the counts of outcomes that
    meet.  An anonymous ``outcome`` maps a representative for all it stands
    for: renaming agents of one class only renames its result."""
    classes, tally = counts
    folded = {}
    for item_of, c in tally.items():
        item_of = outcome(item_of)
        if len(classes) < len(item_of):
            item_of = fold_outcome(item_of, classes)
        folded[item_of] = folded.get(item_of, 0) + c
    return ClassCounts(classes, folded)


@dataclass(frozen=True, init=False, eq=False)
class LotteryResult:
    """Exact uniform-order lottery, as integer counts over ``order_count`` (n!).

    ``LotteryResult(outcomes, order_count)`` takes each distinct outcome
    ``item_of`` paired with the number of orders giving it, sorted by
    outcome.  ``exact_lottery`` passes its counts folded instead, with the
    ``classes`` of ``ClassCounts``: each outcome is then a representative
    standing for its permutations within the classes, and ``folded`` keeps
    them as passed (``classes`` is every agent alone when not given).  There
    must be at least one outcome, every outcome must be a permutation of
    0..n-1 with a count of at least 1, the outcomes must be distinct and
    sorted, a representative must give each class its items in ascending
    order, and the counts times ``spread_size`` must sum to ``order_count``.

    ``rows[i][o]`` counts the orders giving agent i item o, read from the
    folded form: agent i of class C gets item o from each folded outcome
    whose items for C include o, its count c times (|C| - 1)! and times k!
    for each other class of size k.  Each row and column sums to
    ``order_count``.
    ``outcomes`` is the lottery spread over every outcome, sorted by outcome,
    and ``assignment`` and ``support`` are the same lottery in exact
    ``Fraction`` probabilities; all three are built on first read.
    ``support`` pairs each distinct matching with its probability, and the
    weighted permutation matrices sum to ``assignment``.  Results are equal
    when their order counts and spread outcomes are, folded or not.
    """

    folded: Tuple[Tuple[Tuple[int, ...], int], ...]
    order_count: int
    classes: Tuple[Tuple[int, ...], ...]
    rows: Tuple[Tuple[int, ...], ...] = field(repr=False)

    def __init__(self, outcomes, order_count: int, classes=None):
        if not outcomes:
            raise InvalidInstanceError("a lottery needs at least one outcome")
        n = len(outcomes[0][0])
        classes = singleton_classes(n) if classes is None else classes
        groups = [members for members in classes if len(members) > 1]
        if sorted(itertools.chain(*classes)) != list(range(n)) or any(
            list(members) != sorted(members) for members in groups
        ):
            raise InvalidInstanceError(f"lottery classes {classes} must list agents 0..{n - 1} once, ascending")
        items = _indices(n)
        before = None
        for item_of, c in outcomes:
            if len(item_of) != n or set(item_of) != items:
                raise InvalidInstanceError(f"lottery outcome {item_of} is not a matching of {n} items")
            if before is not None and item_of <= before:
                raise InvalidInstanceError(f"lottery outcomes must be distinct and sorted: {item_of} after {before}")
            before = item_of
            if c < 1:
                raise InvalidInstanceError(f"lottery outcome {item_of} needs a count >= 1, got {c}")
            if any(item_of[a] > item_of[b] for members in groups for a, b in zip(members, members[1:])):
                raise InvalidInstanceError(
                    f"lottery outcome {item_of} does not give each class its items in ascending order"
                )
        spread = spread_size(groups)
        if sum(c for _, c in outcomes) * spread != order_count:
            raise InvalidInstanceError(f"lottery counts must sum to {order_count}")
        rows = _receipt_rows(outcomes, n)
        if groups:
            for members in classes:
                share = spread // len(members)
                row = tuple(share * sum(col) for col in zip(*[rows[a] for a in members]))
                for a in members:
                    rows[a] = row
        else:
            self.__dict__["outcomes"] = outcomes
        object.__setattr__(self, "folded", outcomes)
        object.__setattr__(self, "order_count", order_count)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "rows", tuple(rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LotteryResult):
            return NotImplemented
        if (self.order_count, self.rows) != (other.order_count, other.rows):
            return False
        if self.classes == other.classes:
            return self.folded == other.folded
        return self.outcomes == other.outcomes

    def __hash__(self) -> int:
        return hash((self.order_count, self.rows))

    @functools.cached_property
    def outcomes(self) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
        classes = self.classes
        # Items laid out class after class go back to agents in index order.
        # Only a lottery with a class of two or more gets here (the others
        # keep what they were given), so n >= 2 and ``unshuffle`` gives tuples.
        slots = [a for members in classes for a in members]
        unshuffle = operator.itemgetter(*sorted(range(len(slots)), key=slots.__getitem__))
        every = []
        for item_of, c in self.folded:
            per_class = [itertools.permutations([item_of[a] for a in members]) for members in classes]
            every += [
                (unshuffle(tuple(itertools.chain.from_iterable(parts))), c)
                for parts in itertools.product(*per_class)
            ]
        every.sort()
        return tuple(every)

    @functools.cached_property
    def assignment(self) -> FractionalAssignment:
        return FractionalAssignment(self.rows, self.order_count)

    @functools.cached_property
    def support(self) -> Tuple[Tuple[Matching, Fraction], ...]:
        total = self.order_count
        weight = {c: Fraction(c, total) for c in {c for _, c in self.folded}}
        return tuple((_trusted(Matching, item_of), weight[c]) for item_of, c in self.outcomes)


class Runner:
    """How a code runs: ``run(profile, order)`` is the mechanism before any
    trade, as its outcome ``item_of``; ``stepper``, which ``exact_counts``
    walks, is None exactly when ``run`` never reads the order; a ``+G``
    code's ``trade(profile, item_of)`` maps ``run``'s outcome.  Calling the
    Runner runs ``run``, then the trade, and returns the ``Matching``.  Both
    must treat agents anonymously, as every registry code's do."""

    __slots__ = ("run", "stepper", "trade")

    def __init__(self, run: Callable, stepper: Optional[Stepper], trade: Optional[Callable] = None):
        self.run = run
        self.stepper = stepper
        self.trade = trade

    def __call__(self, profile: Profile, order: AgentOrder) -> Matching:
        item_of = self.run(profile, order)
        if self.trade is not None:
            item_of = self.trade(profile, item_of)
        return _trusted(Matching, item_of)


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
        return (_trusted(AgentOrder, p) for p in itertools.permutations(range(n)))
    if orders < 1:
        raise ValueError(f"need an order count >= 1, got {orders}")

    draw = permutation_drawer(rng, n)  # ``rng`` may be None when only ``orders`` is checked
    return (_trusted(AgentOrder, draw()) for _ in range(orders))


def outcome_counts(
    mechanism: MatchingMechanism, profile: Profile, orders: Iterable[AgentOrder]
) -> Counter:
    """How often each outcome ``item_of`` tuple occurs over ``orders``."""
    return Counter(mechanism(profile, order).item_of for order in orders)


def exact_counts(mechanism: MatchingMechanism, profile: Profile) -> ClassCounts:
    """How often each outcome ``item_of`` occurs over all n! initial orders,
    kept folded by class: spread, the ``Counter`` of ``outcome_counts`` over
    ``order_stream(n)``.

    A plain callable is counted by exactly that definition, one run per
    order, with every agent its own class.  A ``Runner`` (every registry
    code's ``run`` is one) is counted over the n!/(k1! k2! ...) sequences of
    class labels instead: on a one-sided profile, agents with identical
    preferences form classes of sizes k1, k2, ..., each admitting its
    members in index order.  Each outcome is counted under its
    ``fold_outcome``, which stands for every permutation of its items within
    the classes: renaming agents who have identical preferences only renames
    the outcome of a mechanism that treats agents anonymously, as a
    ``Runner`` promises and a plain callable need not.  On a two-sided
    profile, whose item preferences can tell identical agents apart, every
    agent is its own class.  A Runner with a stepper is walked as order
    prefixes, one admitted agent per layer, so prefixes that reach one state
    run on, and settle, once; one without runs once, on the identity order,
    and its outcome stands for every label sequence.  Either way n past
    ``ENUMERATION_LIMIT`` is refused, and the Runner's ``trade`` then maps
    each folded outcome once, by ``refold``.
    """
    n = profile.n
    if not isinstance(mechanism, Runner):
        return ClassCounts(singleton_classes(n), outcome_counts(mechanism, profile, order_stream(n)))
    _check_limit(n)
    if profile.two_sided:
        classes = singleton_classes(n)
    else:
        by_prefs: dict = {}
        for a, prefs in enumerate(profile.agent_prefs):
            by_prefs.setdefault(prefs, []).append(a)
        classes = tuple(map(tuple, by_prefs.values()))
    if mechanism.stepper is None:
        outcome = fold_outcome(mechanism.run(profile, AgentOrder.identity(n)), classes)
        counts = ClassCounts(classes, {outcome: math.factorial(n) // spread_size(classes)})
    else:
        counts = ClassCounts(classes, _walk(mechanism.stepper(profile), classes))
    if mechanism.trade is not None:
        counts = refold(counts, functools.partial(mechanism.trade, profile))
    return counts


def _walk(stepped: tuple, classes) -> Dict[Tuple[int, ...], int]:
    """Outcome counts over the class-label sequences, one layer per admit.

    A layer maps the members admitted per class to the states reached, and
    each state to [prefixes, work], the work being the largest among the
    merged prefixes; each reached state is hashed once.  The members
    admitted per class are keyed as one mixed-radix integer: class c's count
    k times its stride, the product of (size + 1) over the classes before
    it, so admitting a member of c adds the stride, and k is the key's
    digit ``key // stride % (size + 1)``.  Each state of the last layer is
    settled once, and its outcome counted under its ``fold_outcome`` when
    some class has two or more members."""
    start, admit, settle = stepped
    digits = []  # per class: (stride, radix, members)
    stride = 1
    for members in classes:
        digits.append((stride, len(members) + 1, members))
        stride *= len(members) + 1
    layer = {0: {start: [1, 0]}}
    spare = [0, 0]  # the entry of the next new state: one lookup per admit
    n = sum(map(len, classes))
    for _ in range(n):
        nxt = {}
        for key, states in layer.items():
            for stride, radix, members in digits:
                k = key // stride % radix
                if k == radix - 1:
                    continue
                agent = members[k]
                merged = nxt.setdefault(key + stride, {})
                for state, (prefixes, work) in states.items():
                    after, done = admit(state, work, agent)
                    entry = merged.setdefault(after, spare)
                    if entry is spare:
                        entry[0], entry[1] = prefixes, done
                        spare = [0, 0]
                    else:
                        entry[0] += prefixes
                        if done > entry[1]:
                            entry[1] = done
        layer = nxt
    counts = {}
    fold = len(classes) < n  # some class has two or more members
    (states,) = layer.values()
    for state, (prefixes, work) in states.items():
        outcome = settle(state, work)
        if fold:
            outcome = fold_outcome(outcome, classes)
        counts[outcome] = counts.get(outcome, 0) + prefixes
    return counts


def _receipt_rows(outcomes: Iterable[Tuple[Tuple[int, ...], int]], n: int) -> list:
    """Per agent and item, how many of the counted runs give the agent that
    item: one tuple per agent."""
    rows = [[0] * n for _ in range(n)]
    for item_of, c in outcomes:
        for row, o in zip(rows, item_of):
            row[o] += c
    return list(map(tuple, rows))


def exact_lottery(mechanism: MatchingMechanism, profile: Profile) -> LotteryResult:
    """The lottery over all n! initial orders, each with weight 1/n!, from
    ``exact_counts``, which states its paths, the anonymity a ``Runner``
    promises and the ``ENUMERATION_LIMIT`` on n; it stays folded by class
    until ``outcomes`` or ``support`` is read."""
    classes, counts = exact_counts(mechanism, profile)
    return LotteryResult(tuple(sorted(counts.items())), math.factorial(profile.n), classes)


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
