"""Seeded random generation of profiles and orders.

Randomness comes from :class:`random.Random` (Mersenne Twister) seeded with a
non-negative integer; every artifact derived from sampling records its seed.
Every draw is exactly the one ``random.shuffle`` makes from the same generator
(``lottery.permutation_drawer``), so seeded outputs of earlier versions reproduce.
"""
from __future__ import annotations

import functools
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


def _anchored(agent_prefs: Prefs, a: int) -> Tuple[Prefs, List[int]]:
    """Agent ``a``'s anchored form, with the item renaming that reaches it:
    ``(form, items)``.  Every item x is renamed ``items[x]``, its rank in a's
    list, so that a's list becomes the identity; ``form`` is the other
    agents' renamed lists, sorted.

    Renaming agents and items leaves each agent's anchored form as it is, so
    a profile's anchored forms, one per agent, are the same for every member
    of its orbit.
    """
    items = [0] * len(agent_prefs)
    for rank, x in enumerate(agent_prefs[a]):
        items[x] = rank
    rest = [tuple([items[x] for x in row]) for j, row in enumerate(agent_prefs) if j != a]
    rest.sort()
    return tuple(rest), items


def canonical(agent_prefs: Prefs) -> Tuple[Prefs, Tuple[int, ...], Tuple[int, ...]]:
    """The lexicographically least preferences reachable from ``agent_prefs``
    by renaming agents and items, with a renaming that reaches them:
    ``(least, agents, items)``, where ``least[i]`` is agent ``agents[i]``'s
    list with each item x renamed ``items[x]``.

    The least member of an orbit puts the identity first and sorts the other
    rows, so it is the identity followed by the least anchored form over all
    agents (``_anchored``).  Ties go to the lowest such agent, and agents with
    equal lists follow in their order.
    """
    n = len(agent_prefs)
    forms = [_anchored(agent_prefs, a) for a in range(n)]
    a = min(range(n), key=lambda i: forms[i][0])
    form, items = forms[a]
    others = sorted(
        (j for j in range(n) if j != a), key=lambda j: tuple([items[x] for x in agent_prefs[j]])
    )
    return (tuple(range(n)),) + form, (a, *others), tuple(items)


@functools.cache
def _orbit_list(n: int) -> Tuple[Profile, ...]:
    perms = list(itertools.permutations(range(n)))
    seen = set()
    orbits = []
    for rest in itertools.combinations_with_replacement(perms, n - 1):
        if rest not in seen:
            prefs = (perms[0],) + rest
            orbits.append(_trusted(Profile, prefs, None))
            seen.update([_anchored(prefs, a)[0] for a in range(n)])
    return tuple(orbits)


def orbit_profiles(n: int) -> Iterator[Profile]:
    """The lexicographically least profile of each orbit of one-sided
    profiles under renaming agents and items (1, 2, 10 and 762 orbits for
    n = 1..4), in lexicographic order.

    The candidates are the identity followed by n - 1 sorted lists, in
    lexicographic order.  Every anchored form of an orbit is such a
    candidate's tail, so the first candidate met of each orbit is its least
    member; it is listed, and its n anchored forms, the orbit's, are marked
    so that no later candidate of the orbit is.  The list is built once per
    n in a process; each call iterates it afresh.

    Sweeping these in place of ``all_profiles(n)`` assumes anonymity and
    neutrality: the property swept must hold on a profile exactly when it
    holds on every renaming of it, as it does for every registry code, whose
    outcomes are equivariant under renaming.  The first failing profile of
    the full sweep is then the least of its orbit, so both sweeps stop at
    the same profile.
    """
    return iter(_orbit_list(n))


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
