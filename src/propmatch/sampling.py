"""Seeded random generation of profiles and orders.

Randomness comes from :class:`random.Random` (Mersenne Twister) seeded with a
non-negative integer; every artifact derived from sampling records its seed.
Every draw is exactly the one ``random.shuffle`` makes from the same generator
(``lottery.permutation_drawer``), so seeded outputs of earlier versions reproduce.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from .lottery import EnumerationLimitError, check_seed, permutation_drawer
from .model import AgentOrder, Profile, _trusted

EXHAUSTIVE_PROFILE_LIMIT = 4  # 4!^4 = 331776 profiles


@dataclass
class ProfileSampler:
    """Deterministic stream of uniform profiles: each agent's order is drawn
    i.i.d. uniform over the n! permutations."""

    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        check_seed(self.seed)
        self._draw = permutation_drawer(random.Random(self.seed), self.n)

    def sample(self) -> Profile:
        return _trusted(Profile, tuple([self._draw() for _ in range(self.n)]), None)

    def sample_order(self) -> AgentOrder:
        return _trusted(AgentOrder, self._draw())

    def stream(self, count: int) -> Iterator[Profile]:
        for _ in range(count):
            yield self.sample()


def all_profiles(n: int) -> Iterator[Profile]:
    """Every one-sided profile on n agents (n!^n of them); lexicographic."""
    perms = list(itertools.permutations(range(n)))
    for combo in itertools.product(perms, repeat=n):
        yield _trusted(Profile, combo, None)


Prefs = Tuple[Tuple[int, ...], ...]


def canonical(agent_prefs: Prefs) -> Tuple[Prefs, Tuple[int, ...], Tuple[int, ...]]:
    """The lexicographically least preferences reachable from ``agent_prefs``
    by renaming agents and items, with a renaming that reaches them:
    ``(least, agents, items)``, where ``least[i]`` is agent ``agents[i]``'s
    list with each item x renamed ``items[x]``.

    The least member of an orbit puts the identity first and sorts the other
    rows, so it is found by trying each agent as the one whose list is renamed
    to the identity.
    """
    best = None
    for a, top in enumerate(agent_prefs):
        items = [0] * len(top)
        for rank, x in enumerate(top):
            items[x] = rank
        rest = sorted(
            (tuple([items[x] for x in row]), j) for j, row in enumerate(agent_prefs) if j != a
        )
        key = tuple(row for row, _ in rest)
        if best is None or key < best[0]:
            best = key, (a,) + tuple(j for _, j in rest), tuple(items)
    key, agents, items = best
    return (tuple(range(len(agents))),) + key, agents, items


def orbit_profiles(n: int) -> Iterator[Profile]:
    """The lexicographically least profile of each orbit of one-sided
    profiles under renaming agents and items (1, 2, 10 and 762 orbits for
    n = 1..4), in lexicographic order.

    Sweeping these in place of ``all_profiles(n)`` assumes anonymity and
    neutrality: the property swept must hold on a profile exactly when it
    holds on every renaming of it, as it does for every registry code, whose
    outcomes are equivariant under renaming.  The first failing profile of
    the full sweep is then the least of its orbit, so both sweeps stop at
    the same profile.
    """
    perms = list(itertools.permutations(range(n)))
    for rest in itertools.combinations_with_replacement(perms, n - 1):
        prefs = (perms[0],) + rest
        if canonical(prefs)[0] == prefs:
            yield _trusted(Profile, prefs, None)


def all_orders(n: int) -> List[AgentOrder]:
    return [AgentOrder(p) for p in itertools.permutations(range(n))]


def profile_stream(n: int, profiles: str | int = "all", seed: int = 0) -> Iterator[Profile]:
    """The profiles an axiom sweep, comparison or campaign runs over.

    ``profiles`` is ``"all"`` (every profile, lexicographic), ``"orbits"``
    (``orbit_profiles``, one profile per renaming orbit) or a count k of
    uniform profiles drawn by ``ProfileSampler(n, seed)``.  Both exhaustive
    sources are refused beyond ``EXHAUSTIVE_PROFILE_LIMIT`` agents, and a
    negative seed whatever the source.  Every check runs on the call, before
    any profile is produced.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_seed(seed)
    if profiles in ("all", "orbits"):
        if n > EXHAUSTIVE_PROFILE_LIMIT:
            raise EnumerationLimitError(
                f"n={n} exceeds the exhaustive profile limit {EXHAUSTIVE_PROFILE_LIMIT};"
                " sample profiles"
            )
        return all_profiles(n) if profiles == "all" else orbit_profiles(n)
    if profiles < 1:
        raise ValueError(f"need a profile count >= 1, got {profiles}")
    return ProfileSampler(n, seed).stream(profiles)
