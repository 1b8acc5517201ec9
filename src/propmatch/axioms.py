"""Decidable checkers for efficiency, stochastic dominance, strategyproofness,
and the conditional worst-off guarantee.
"""
from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .lottery import MatchingMechanism, exact_counts, exact_lottery, order_stream
from .mechanisms import trade
from .model import AgentOrder, FractionalAssignment, InvalidInstanceError, Matching, Profile
from .sampling import Prefs, _anchored, canonical
from .welfare import _hungarian_max


class Dominance(enum.Enum):
    STRICTLY_DOMINATES = "strict"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"
    DOMINATED_BY = "dominated"


def sd_dominates(
    p: Sequence[numbers.Rational], q: Sequence[numbers.Rational], pref: Sequence[int]
) -> Dominance:
    """First-order stochastic dominance of row ``p`` over ``q`` under ``pref``.

    ``p`` weakly dominates ``q`` iff every preference-prefix cumulative
    probability of ``p`` is at least that of ``q``; strictly iff some prefix is
    strictly greater.  The rows are ``Fraction`` probabilities, or integer
    counts over one common denominator (as ``check_strategyproofness`` passes),
    which compare without any ``Fraction`` arithmetic.
    """
    if len(p) != len(q) or len(p) != len(pref):
        raise ValueError("row/preference length mismatch")
    cp = cq = 0
    ge = le = True
    for o in pref:
        cp += p[o]
        cq += q[o]
        if cp < cq:
            ge = False
        if cp > cq:
            le = False
    if ge and le:
        return Dominance.EQUAL
    if ge:
        return Dominance.STRICTLY_DOMINATES
    if le:
        return Dominance.DOMINATED_BY
    return Dominance.INCOMPARABLE


def is_pareto_efficient(m: Matching, profile: Profile) -> bool:
    """True iff no trading cycle improves some agents without hurting any:
    equivalently, the matching is a fixed point of top trading cycles run on
    itself as the endowment."""
    if m.n != profile.n:
        raise InvalidInstanceError("endowment size mismatch")
    return trade(profile, m.item_of) == m.item_of


def first_inefficient_order(mechanism: MatchingMechanism, profile: Profile) -> Optional[AgentOrder]:
    """The first order of ``order_stream(n)`` whose run is not Pareto
    efficient, or None when every run is; refused beyond the enumeration
    limit on the call.

    Decided once per folded outcome of ``exact_counts``: swapping the items
    of agents with identical lists keeps a matching efficient or not, and a
    ``Runner`` promises that such swaps give every outcome a folded one
    stands for.  Only when a folded outcome fails are the orders run again,
    one by one, to find the first failing one.
    """
    _, counts = exact_counts(mechanism, profile)
    if all(trade(profile, item_of) == item_of for item_of in counts):
        return None
    return next(
        order for order in order_stream(profile.n) if not is_pareto_efficient(mechanism(profile, order), profile)
    )


def is_ordinally_efficient(assignment: FractionalAssignment, profile: Profile) -> bool:
    """True iff no other random assignment stochastically dominates this one.

    Characterization: build the relation "x is wanted over y" that holds when
    some agent with positive probability of y ranks x above y; the assignment
    is ordinally efficient iff this relation is acyclic.
    """
    held = [{y for y, c in enumerate(row) if c > 0} for row in assignment.nums]
    return _wanted_over_acyclic(held, profile)


def is_lottery_ordinally_efficient(mechanism: MatchingMechanism, profile: Profile) -> bool:
    """``is_ordinally_efficient`` of the mechanism's exact lottery, read from
    the folded outcomes of ``exact_counts`` without building the lottery.

    An agent gets an item with positive probability when some outcome gives
    it.  A folded outcome gives the items of a class of identical lists in
    ascending order, so one member may hold fewer items in the folded
    outcomes than in the lottery; but the class's members together hold the
    same items, and they rank them alike, so "x is wanted over y" is the
    same relation.
    """
    _, counts = exact_counts(mechanism, profile)
    return _wanted_over_acyclic([set(items) for items in zip(*counts)], profile)


def _wanted_over_acyclic(held: Sequence[set], profile: Profile) -> bool:
    """Whether "x is wanted over y" is acyclic, where ``held[i]`` is the set
    of items agent i gets with positive probability."""
    n = profile.n
    edges: List[set] = [set() for _ in range(n)]
    for items, prefs in zip(held, profile.agent_prefs):
        for y in items:
            for x in prefs:
                if x == y:
                    break
                edges[x].add(y)
    # cycle detection over the item graph
    color = [0] * n  # 0 unseen, 1 on stack, 2 done
    def dfs(u: int) -> bool:
        color[u] = 1
        for v in edges[u]:
            if color[v] == 1 or (color[v] == 0 and dfs(v)):
                return True
        color[u] = 2
        return False
    return not any(color[u] == 0 and dfs(u) for u in range(n))


class SPVerdict(enum.Enum):
    STRATEGYPROOF = "strategyproof"
    WEAKLY_SP_ONLY = "weakly-sp-only"
    NOT_WEAKLY_SP = "not-weakly-sp"


@dataclass(frozen=True)
class SPReport:
    """Deviation analysis for one agent: the truthful exact-lottery row against
    the row under every possible misreport, others held truthful.  Rows are
    receipt counts over ``order_count`` (n!): ``row[o] / order_count`` is the
    probability of item o."""

    agent: int
    order_count: int
    truthful_row: Tuple[int, ...]
    misreports: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], Dominance], ...]
    overall: SPVerdict

    def best_deviation(self) -> Optional[Tuple[int, ...]]:
        for report, _, verdict in self.misreports:
            if verdict is Dominance.STRICTLY_DOMINATES:
                return report
        return None


# an anchored form to one row, or (an orbit's least profile, None) to every row
LotteryMemo = Dict[tuple, tuple]


def _receipt_row(
    mechanism: MatchingMechanism,
    agent_prefs: Prefs,
    item_prefs: Optional[Prefs],
    agent: int,
    memo: Optional[LotteryMemo],
) -> Tuple[int, ...]:
    """The agent's exact-lottery row as receipt counts over n!.

    With ``memo``, a one-sided row is kept under the agent's anchored form
    (``sampling._anchored``), in the anchored item names, and renamed back
    to the caller's items.  A form met for the first time goes through its
    orbit's least member (``canonical``), whose lottery is kept under
    ``(least, None)``, so each orbit's lottery is built once.  A two-sided
    profile's row is built without the memo.
    """
    if memo is None or item_prefs is not None:
        return exact_lottery(mechanism, Profile(agent_prefs, item_prefs)).rows[agent]
    form, items = _anchored(agent_prefs, agent)
    row = memo.get(form)
    if row is None:
        least, agents, renamed = canonical((tuple(range(len(items))),) + form)
        key = (least, None)
        rows = memo.get(key)
        if rows is None:
            rows = memo[key] = exact_lottery(mechanism, Profile(least)).rows
        least_row = rows[agents.index(0)]
        row = memo[form] = tuple([least_row[y] for y in renamed])
    return tuple([row[y] for y in items])


def check_strategyproofness(
    mechanism: MatchingMechanism, profile: Profile, agent: int, memo: Optional[LotteryMemo] = None
) -> SPReport:
    """Compare the agent's exact randomized outcome under truth against every
    misreport, the other agents' preferences and any item preferences held
    fixed.  Dominance verdicts are relative to the *true* preferences.  The
    rows are receipt counts over n!, the exact lotteries' ``rows``.  An
    ``agent`` outside 0..n-1 is refused with a ValueError before any lottery
    is built.

    ``memo`` keeps receipt counts under ``mechanism`` (``_receipt_row``);
    pass one dict only with one mechanism.  A one-sided lottery is then
    built once however often it comes up; a two-sided profile's rows are
    built without the memo.  A one-sided row is kept under the reporting
    agent's anchored form, and its lottery under the least profile of its
    orbit under renaming agents and items (``sampling.canonical``), so a
    memo assumes anonymity and neutrality: pass one only for a mechanism
    whose outcomes are equivariant under renaming, as every registry code's
    are.  An exhaustive sweep that keeps one memo throughout builds each
    orbit's lottery once and computes one canonical form per anchored form;
    a sampled sweep keeps a memo for one profile, so its agents and the
    misreports that reach one orbit share a lottery.
    """
    n = profile.n
    if not 0 <= agent < n:
        raise ValueError(f"agent {agent} is not one of the n={n} agents 0..{n - 1}")
    truth = profile.agent_prefs[agent]
    truthful_row = _receipt_row(mechanism, profile.agent_prefs, profile.item_prefs, agent, memo)
    before, after = profile.agent_prefs[:agent], profile.agent_prefs[agent + 1:]
    misreports = []
    for report in itertools.permutations(range(n)):
        if report != truth:
            row = _receipt_row(mechanism, before + (report,) + after, profile.item_prefs, agent, memo)
            misreports.append((report, row, sd_dominates(row, truthful_row, truth)))
    verdicts = {verdict for _, _, verdict in misreports}
    if Dominance.STRICTLY_DOMINATES in verdicts:
        overall = SPVerdict.NOT_WEAKLY_SP
    elif verdicts <= {Dominance.DOMINATED_BY, Dominance.EQUAL}:
        overall = SPVerdict.STRATEGYPROOF
    else:
        overall = SPVerdict.WEAKLY_SP_ONLY
    return SPReport(agent, math.factorial(n), truthful_row, tuple(misreports), overall)


def feasible_top_k(profile: Profile, k: int) -> bool:
    """Can every agent simultaneously receive one of its top k choices?
    Decided by the assignment optimum of the 0/1 table of top-k items: it
    reaches n exactly when a perfect matching of top-k choices exists."""
    n = profile.n
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    table = [[0] * n for _ in range(n)]
    for row, prefs in zip(table, profile.agent_prefs):
        for o in prefs[:k]:
            row[o] = 1
    return _hungarian_max(table)[0] == n


def satisfies_conditional_bound(
    mechanism: MatchingMechanism, profile: Profile, k: int
) -> bool:
    """Whenever some matching gives everyone a top-k item, the mechanism must
    do so for *every* initial order (the randomized version then succeeds with
    probability 1).  Vacuously true when no such matching exists.

    n beyond the enumeration limit is refused on the call, before the
    feasibility check.  The orders' outcomes are then checked once per
    folded outcome of ``exact_counts``: swapping the items of agents with
    identical lists keeps every agent within its top k or not, and a
    ``Runner`` promises that such swaps give every outcome a folded one
    stands for.  ``exact_counts`` walks the orders to the end, so a
    mechanism that fails on an early order still pays for the whole walk;
    a plain callable, which is not a ``Runner``, runs every order.
    """
    order_stream(profile.n)  # refuses n beyond the enumeration limit
    if not feasible_top_k(profile, k):
        return True
    tops = [set(prefs[:k]) for prefs in profile.agent_prefs]
    _, counts = exact_counts(mechanism, profile)
    return all(o in top for item_of in counts for o, top in zip(item_of, tops))
