"""Seeded random generation of profiles and orders.

Randomness comes from :class:`random.Random` (Mersenne Twister) seeded with a
64-bit integer; every artifact derived from sampling records its seed.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, List

from .lottery import EnumerationLimitError
from .model import AgentOrder, Profile

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
        self._rng = random.Random(self.seed)

    def sample(self) -> Profile:
        prefs = []
        for _ in range(self.n):
            p = list(range(self.n))
            self._rng.shuffle(p)
            prefs.append(tuple(p))
        return Profile(tuple(prefs))

    def sample_order(self) -> AgentOrder:
        p = list(range(self.n))
        self._rng.shuffle(p)
        return AgentOrder(tuple(p))

    def stream(self, count: int) -> Iterator[Profile]:
        for _ in range(count):
            yield self.sample()


def all_profiles(n: int) -> Iterator[Profile]:
    """Every one-sided profile on n agents (n!^n of them); lexicographic."""
    perms = list(itertools.permutations(range(n)))
    for combo in itertools.product(perms, repeat=n):
        yield Profile(tuple(combo))


def all_orders(n: int) -> List[AgentOrder]:
    return [AgentOrder(p) for p in itertools.permutations(range(n))]


def profile_stream(n: int, profiles: str | int = "all", seed: int = 0) -> Iterator[Profile]:
    """The profiles an axiom sweep, comparison or campaign runs over.

    ``profiles`` is ``"all"`` (every profile, lexicographic; refused beyond
    ``EXHAUSTIVE_PROFILE_LIMIT`` agents) or a count k of uniform profiles drawn
    by ``ProfileSampler(n, seed)``.  Every check runs on the call, before any
    profile is produced.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if profiles == "all":
        if n > EXHAUSTIVE_PROFILE_LIMIT:
            raise EnumerationLimitError(
                f"n={n} exceeds the exhaustive profile limit {EXHAUSTIVE_PROFILE_LIMIT};"
                " sample profiles"
            )
        return all_profiles(n)
    if profiles < 1:
        raise ValueError(f"need a profile count >= 1, got {profiles}")
    return ProfileSampler(n, seed).stream(profiles)
