"""Reference one-sided mechanisms: Serial Dictatorship, one-sided Naive Boston,
Probabilistic Serial, Top Trading Cycles, and the trade-on-output composition.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from .lottery import MatchingMechanism
from .model import AgentOrder, FractionalAssignment, InvalidInstanceError, Matching, Profile


def serial_dictatorship(profile: Profile, order: AgentOrder) -> Matching:
    """Agents pick in order; each takes its best still-unallocated item."""
    n = profile.n
    taken = [False] * n
    item_of: List[Optional[int]] = [None] * n
    for j in order.order:
        o = next(x for x in profile.agent_prefs[j] if not taken[x])
        taken[o] = True
        item_of[j] = o
    return Matching(tuple(item_of))


def immediate_acceptance(profile: Profile, priority: Sequence[Sequence[int]]) -> Matching:
    """Simultaneous immediate acceptance: in round r every unmatched agent
    applies to its rank-r item, and a contested free item goes to the applicant
    with the smallest ``priority[item][agent]``; the others are rejected for good.
    """
    n = profile.n
    item_of: List[Optional[int]] = [None] * n
    taken = [False] * n
    for r in range(n):
        applicants: dict[int, List[int]] = {}
        for j in range(n):
            if item_of[j] is None:
                applicants.setdefault(profile.agent_prefs[j][r], []).append(j)
        for o, js in applicants.items():
            if taken[o]:
                continue
            winner = min(js, key=priority[o].__getitem__)
            taken[o] = True
            item_of[winner] = o
    return Matching(tuple(item_of))


def naive_boston_one_sided(profile: Profile, order: AgentOrder) -> Matching:
    """Simultaneous immediate acceptance with the common item preference given
    by ``order``: in round r every unmatched agent applies to its rank-r item,
    and a contested free item goes to the applicant earliest in ``order``.
    """
    position = [0] * profile.n
    for i, a in enumerate(order.order):
        position[a] = i
    return immediate_acceptance(profile, [position] * profile.n)


def probabilistic_serial(profile: Profile) -> FractionalAssignment:
    """Simultaneous eating at unit speed, computed with exact rationals.

    Repeatedly find the earliest moment some item is exhausted (remaining
    supply divided by its current number of eaters), advance every agent's
    shares over that interval, and reassign eaters, until time 1.
    """
    n = profile.n
    remaining = [Fraction(1)] * n
    shares = [[Fraction(0)] * n for _ in range(n)]
    t = Fraction(0)
    while t < 1:
        eating = [next(x for x in profile.agent_prefs[j] if remaining[x] > 0) for j in range(n)]
        eaters: dict[int, List[int]] = {}
        for j, o in enumerate(eating):
            eaters.setdefault(o, []).append(j)
        dt = min(
            [remaining[o] / len(js) for o, js in eaters.items()] + [Fraction(1) - t]
        )
        for o, js in eaters.items():
            for j in js:
                shares[j][o] += dt
            remaining[o] -= dt * len(js)
        t += dt
    return FractionalAssignment(tuple(tuple(row) for row in shares))


def top_trading_cycles(profile: Profile, endowment: Matching) -> Matching:
    """Trade from an initial ownership until no improving cycle remains.

    Every remaining agent points to the current owner of its best remaining
    item; all cycles of the pointer graph trade simultaneously and leave.
    The result is individually rational and has no improving trade cycle.
    """
    n = profile.n
    if endowment.n != n:
        raise InvalidInstanceError("endowment size mismatch")
    owns: List[Optional[int]] = list(endowment.item_of)
    owner = {o: a for a, o in enumerate(owns)}
    active = set(range(n))
    item_of: List[Optional[int]] = [None] * n
    while active:
        points = {
            j: owner[next(x for x in profile.agent_prefs[j] if owner.get(x) in active)]
            for j in active
        }
        # Functional graph on a finite set: every walk reaches a cycle.
        resolved = set()
        for start in list(active):
            if start in resolved:
                continue
            seen: dict[int, int] = {}
            j = start
            while j not in seen and j not in resolved:
                seen[j] = len(seen)
                j = points[j]
            if j in seen:  # found a fresh cycle; trade along it
                cycle = [a for a, pos in sorted(seen.items(), key=lambda kv: kv[1])][seen[j]:]
                for a in cycle:
                    item_of[a] = owns[points[a]]
                resolved.update(seen)
                for a in cycle:
                    del owner[owns[a]]
                    owns[a] = None
                    active.discard(a)
            else:
                resolved.update(seen)
    return Matching(tuple(item_of))


def compose_ttc(mechanism: MatchingMechanism) -> MatchingMechanism:
    """Feed a mechanism's output to top trading cycles as the endowment.

    The trading phase uses the same reported preferences; mechanisms that are
    already efficient are unchanged (no cycle exists).
    """

    def composed(profile: Profile, order: AgentOrder) -> Matching:
        return top_trading_cycles(profile, mechanism(profile, order))

    return composed
