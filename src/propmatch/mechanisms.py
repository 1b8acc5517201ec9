"""Reference one-sided mechanisms: Serial Dictatorship, one-sided Naive Boston,
Probabilistic Serial, Top Trading Cycles, and the trade-on-output composition.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from .lottery import MatchingMechanism, Stepper
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


def serial_dictatorship_stepper(profile: Profile):
    """Serial dictatorship admitting one agent at a time: the state is the
    partial ``item_of``, None for agents not admitted yet."""
    prefs = profile.agent_prefs

    def admit(item_of, work, j):
        o = next(x for x in prefs[j] if x not in item_of)
        return item_of[:j] + (o,) + item_of[j + 1:], work

    def finish(item_of, work, j):
        return admit(item_of, work, j)[0]

    return (None,) * profile.n, admit, finish


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
    supply divided by its current number of eaters), advance the clock and the
    supplies to it, and move the eaters of exhausted items on, until time 1.
    An agent's share of an item is the time it stopped eating it minus the
    time it started: an item it leaves is gone, so it never comes back.
    """
    n = profile.n
    prefs = profile.agent_prefs
    zero = Fraction(0)
    remaining = [Fraction(1)] * n
    exhausted = [False] * n
    shares = [[zero] * n for _ in range(n)]
    eating = [row[0] for row in prefs]
    since = [zero] * n  # when each agent started on its current item
    eaters = [0] * n
    for o in eating:
        eaters[o] += 1
    t = zero
    while True:
        dt = min([remaining[o] / k for o, k in enumerate(eaters) if k] + [1 - t])
        t += dt
        for o, k in enumerate(eaters):
            if k:
                remaining[o] -= dt * k
                exhausted[o] = remaining[o] == 0
        if t == 1:
            break
        for j, o in enumerate(eating):
            if exhausted[o]:
                shares[j][o] = t - since[j]
                since[j] = t
                nxt = next(x for x in prefs[j] if not exhausted[x])
                eating[j] = nxt
                eaters[o] -= 1
                eaters[nxt] += 1
    for j, o in enumerate(eating):
        shares[j][o] = 1 - since[j]
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
    prefs = profile.agent_prefs
    owns: List[Optional[int]] = list(endowment.item_of)
    owner = {o: a for a, o in enumerate(owns)}  # remaining items only
    # Each agent's position of its best remaining item.  Items only ever
    # leave, so the position only moves forward.
    best = [0] * n
    active = set(range(n))
    item_of: List[Optional[int]] = [None] * n
    while active:
        points = {}
        for j in active:
            p, k = prefs[j], best[j]
            while p[k] not in owner:
                k += 1
            best[j] = k
            points[j] = owner[p[k]]
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
                cycle = list(seen)[seen[j]:]
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


def ttc_stepper(stepper: Stepper) -> Stepper:
    """``stepper`` followed by top trading cycles, run once per distinct
    outcome of ``stepper``."""

    def begin(profile: Profile):
        start, admit, finish = stepper(profile)
        traded: dict = {}

        def finish_traded(state, work, agent):
            base = finish(state, work, agent)
            out = traded.get(base)
            if out is None:
                out = traded[base] = top_trading_cycles(profile, Matching(base)).item_of
            return out

        return start, admit, finish_traded

    return begin
