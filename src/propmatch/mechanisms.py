"""Reference one-sided mechanisms: Serial Dictatorship, one-sided Naive Boston,
Probabilistic Serial, Top Trading Cycles, and the trade-on-output composition.
"""
from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .lottery import MatchingMechanism
from .model import AgentOrder, FractionalAssignment, InvalidInstanceError, Matching, Profile, _inverse, _trusted


def serial_dictatorship(profile: Profile, order: AgentOrder) -> Matching:
    """Agents pick in order; each takes its best still-unallocated item."""
    return _trusted(Matching, _serial_dictatorship(profile, order))


def _serial_dictatorship(profile: Profile, order: AgentOrder) -> Tuple[int, ...]:
    """``serial_dictatorship``'s outcome ``item_of``, the core of SD and BOS-SEQ."""
    n = profile.n
    if len(order.order) != n:
        raise InvalidInstanceError("order length must equal agent count")
    prefs = profile.agent_prefs
    taken = [False] * n
    item_of: List[Optional[int]] = [None] * n
    for j in order.order:
        for o in prefs[j]:
            if not taken[o]:
                break
        taken[o] = True
        item_of[j] = o
    return tuple(item_of)


def serial_dictatorship_stepper(profile: Profile):
    """Serial dictatorship admitting one agent at a time: the state is the
    partial ``item_of``, None for agents not admitted yet, and a final state
    is its own outcome."""
    prefs = profile.agent_prefs

    def admit(item_of, work, j):
        for o in prefs[j]:
            if o not in item_of:
                break
        after = [*item_of]
        after[j] = o
        return tuple(after), work

    def settle(item_of, work):
        return item_of

    return (None,) * profile.n, admit, settle


def immediate_acceptance(
    profile: Profile, order: AgentOrder, priority: Optional[Sequence[Sequence[int]]] = None
) -> Tuple[int, ...]:
    """Simultaneous immediate acceptance, as an ``item_of``: in round r every
    unmatched agent applies to its rank-r item, and a contested free item
    goes to the applicant with the smallest ``priority[item][agent]``, by
    default the earliest in ``order`` (NB's core); the others are rejected
    for good."""
    n = profile.n
    if len(order.order) != n:
        raise InvalidInstanceError("order length must equal agent count")
    if priority is None:
        priority = [_inverse(order.order)] * n
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
    return tuple(item_of)


def naive_boston_one_sided(profile: Profile, order: AgentOrder) -> Matching:
    """Immediate acceptance with the common item preference given by ``order``:
    a contested free item goes to the applicant earliest in ``order``."""
    return _trusted(Matching, immediate_acceptance(profile, order))


def naive_boston_stepper(profile: Profile):
    """Naive Boston admitting one agent at a time: immediate acceptance with
    priority by order.  The state is ``(item_of, waiting)``: the partial
    ``item_of`` and the admitted agents refused so far, in order.  Every agent
    admitted earlier outranks the new one and has made its first application,
    so the new agent applies once, to its top item, and keeps it for good if
    it is free; otherwise it joins ``waiting``.  ``settle`` runs the later
    rounds once every agent is admitted: in round r each waiting agent, in
    order, applies to its rank-r item and takes it if it is free; an agent
    refused waits on, behind the others, for round r + 1.
    """
    prefs = profile.agent_prefs

    def admit(state, work, j):
        item_of, waiting = state
        o = prefs[j][0]
        if o in item_of:
            return (item_of, waiting + (j,)), work
        after = [*item_of]
        after[j] = o
        return (tuple(after), waiting), work

    def settle(state, work):
        item_of, waiting = state
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

    return ((None,) * profile.n, ()), admit, settle


def probabilistic_serial(profile: Profile) -> FractionalAssignment:
    """Simultaneous eating at unit speed, computed exactly on integers.

    The clock ``t``, the supplies ``left`` and the agents' start times ``since``
    are integer numerators over one denominator ``scale``.  Repeatedly find the
    earliest moment an item is exhausted (supply over eater count, compared by
    cross-multiplying), multiply ``scale``, the clock, the supplies and the
    start times by the least factor that makes it whole, advance to it and
    move the eaters of exhausted items on, until time 1.  An item an agent
    leaves is gone, so its share is the time it left minus the time it
    started.  Each finished share is kept with the scale it was written over
    and rescaled once, to the final scale, at the end.  The result is built
    without ``FractionalAssignment``'s checks: every row and column sums to
    the scale by construction, and the matrix is already reduced.  Each
    rescale is the least one that makes the next event time whole, so the
    final scale is the lcm of the event times' denominators; and every event
    time is some agent's sum of shares (an agent that moves on), so a common
    divisor of the shares and the scale would shrink that lcm.
    """
    n = profile.n
    done = []  # (agent, item, share, the scale it is written over)
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
        dt = num // k
        t += dt
        if t == scale:
            break
        left = [x - dt * c for x, c in zip(left, eaters)]
        for j, o in enumerate(eating):
            if not left[o]:
                done.append((j, o, t - since[j], scale))
                since[j] = t
                nxt = eating[j] = next(filter(left.__getitem__, rest[j]))
                eaters[o] -= 1
                eaters[nxt] += 1
    shares = [[0] * n for _ in range(n)]
    for j, o, share, at in done:
        shares[j][o] = share * (scale // at)
    for j, o in enumerate(eating):
        shares[j][o] = scale - since[j]
    return _trusted(FractionalAssignment, tuple(map(tuple, shares)), scale)


def top_trading_cycles(profile: Profile, endowment: Matching) -> Matching:
    """Trade from an initial ownership until no improving cycle remains (``trade``)."""
    if endowment.n != profile.n:
        raise InvalidInstanceError("endowment size mismatch")
    return _trusted(Matching, trade(profile, endowment.item_of))


def trade(profile: Profile, owns: Tuple[int, ...]) -> Tuple[int, ...]:
    """Top trading cycles from the endowment ``owns``, an ``item_of``, as an
    ``item_of``: the trade of a ``+G`` code.

    Every remaining agent points to the current owner of its best remaining
    item.  Following the pointers from an agent that holds nothing reaches a
    cycle, whose agents trade along it and leave.  With strict preferences
    the order in which cycles leave does not change the result (it is the
    unique strict-core allocation, Shapley-Scarf).  The result is
    individually rational and has no improving trade cycle.
    """
    n, prefs = profile.n, profile.agent_prefs
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
    return tuple(item_of)


def compose_ttc(mechanism: MatchingMechanism) -> MatchingMechanism:
    """Feed a mechanism's output to top trading cycles as the endowment.

    The trading phase uses the same reported preferences; mechanisms that are
    already efficient are unchanged (no cycle exists).
    """

    def composed(profile: Profile, order: AgentOrder) -> Matching:
        return top_trading_cycles(profile, mechanism(profile, order))

    return composed
