"""Reference one-sided mechanisms: Serial Dictatorship, one-sided Naive Boston,
Probabilistic Serial, Top Trading Cycles, and the trade-on-output composition.
"""
from __future__ import annotations

import math
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


def naive_boston_stepper(profile: Profile):
    """Naive Boston admitting one agent at a time: immediate acceptance with
    priority by order.  The state is ``(item_of, waiting)``: the partial
    ``item_of`` and the admitted agents refused so far, in order.  Every agent
    admitted earlier outranks the new one and has made its first application,
    so the new agent applies once, to its top item, and keeps it for good if
    it is free; otherwise it joins ``waiting``.  ``finish`` admits the last
    agent, then runs the later rounds: in round r each waiting agent, in
    order, applies to its rank-r item and takes it if it is free; an agent
    refused waits on, behind the others, for round r + 1.
    """
    prefs = profile.agent_prefs

    def admit(state, work, j):
        item_of, waiting = state
        o = prefs[j][0]
        if o in item_of:
            return (item_of, waiting + (j,)), work
        return (item_of[:j] + (o,) + item_of[j + 1:], waiting), work

    def finish(state, work, j):
        (item_of, waiting), _ = admit(state, work, j)
        item_of = list(item_of)
        taken = set(item_of)
        r = 1
        while waiting:
            refused = []
            for a in waiting:
                o = prefs[a][r]
                if o in taken:
                    refused.append(a)
                else:
                    taken.add(o)
                    item_of[a] = o
            waiting, r = refused, r + 1
        return tuple(item_of)

    return ((None,) * profile.n, ()), admit, finish


def probabilistic_serial(profile: Profile) -> FractionalAssignment:
    """Simultaneous eating at unit speed, computed exactly on integers.

    The clock ``t``, the supplies ``left`` and the agents' start times ``since``
    are integer numerators over one denominator ``scale``.  Repeatedly find the
    earliest moment an item is exhausted (supply over eater count, compared by
    cross-multiplying), multiply ``scale`` and every numerator by the least
    factor that makes it whole, advance to it and move the eaters of exhausted
    items on, until time 1.  An item an agent leaves is gone, so its share is
    the time it left minus the time it started, rescaled with the rest.
    """
    n = profile.n
    shares = [[0] * n for _ in range(n)]
    scale, t, left, since = 1, 0, [1] * n, [0] * n
    rest = [iter(row) for row in profile.agent_prefs]  # read forward only: exhausted stays exhausted
    eating = [next(row) for row in rest]
    eaters = [eating.count(o) for o in range(n)]
    while True:
        num, k = scale - t, 1  # the earliest exhaustion is num / k units away
        for o, c in enumerate(eaters):
            if c and left[o] * k < num * c:
                num, k = left[o], c
        if num % k:
            m = k // math.gcd(num, k)
            scale, t, num = scale * m, t * m, num * m
            left, since = [x * m for x in left], [x * m for x in since]
            shares = [[x * m for x in row] for row in shares]
        dt = num // k
        t += dt
        if t == scale:
            break
        left = [x - dt * c for x, c in zip(left, eaters)]
        for j, o in enumerate(eating):
            if not left[o]:
                shares[j][o] = t - since[j]
                since[j] = t
                nxt = eating[j] = next(filter(left.__getitem__, rest[j]))
                eaters[o] -= 1
                eaters[nxt] += 1
    for j, o in enumerate(eating):
        shares[j][o] = scale - since[j]
    return FractionalAssignment(shares, scale)


def top_trading_cycles(profile: Profile, endowment: Matching) -> Matching:
    """Trade from an initial ownership until no improving cycle remains.

    Every remaining agent points to the current owner of its best remaining
    item.  Following the pointers from an agent that holds nothing reaches a
    cycle, whose agents trade along it and leave.  With strict preferences
    the order in which cycles leave does not change the result (it is the
    unique strict-core allocation, Shapley-Scarf).  The result is
    individually rational and has no improving trade cycle.
    """
    n = profile.n
    if endowment.n != n:
        raise InvalidInstanceError("endowment size mismatch")
    prefs, owns = profile.agent_prefs, endowment.item_of
    owner = {o: a for a, o in enumerate(owns)}  # remaining items only
    # Each agent's position of its best remaining item.  Items only ever
    # leave, so the position only moves forward.
    best = [0] * n
    item_of: List[Optional[int]] = [None] * n
    for start in range(n):
        while item_of[start] is None:
            wants = {}  # the walk so far: each agent and the item it points at
            j = start
            while j not in wants:
                p, k = prefs[j], best[j]
                while p[k] not in owner:
                    k += 1
                best[j] = k
                wants[j] = p[k]
                j = owner[p[k]]
            walk = list(wants)
            for a in walk[walk.index(j):]:
                item_of[a] = wants[a]
                del owner[owns[a]]
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
