"""Borda-utility welfare: utilitarian sums, the assignment optimum, normalized
egalitarian welfare, and sampling campaigns for welfare loss and order bias.

Utilities are common Borda values: an agent's rank-r item (1-indexed) is worth
n - r, so the top choice is worth n - 1 and the last 0.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .lottery import order_stream, outcome_counts
from .model import AgentOrder, FractionalAssignment, Matching, Profile
from .sampling import profile_stream


def borda_utilities(profile: Profile) -> Tuple[Tuple[int, ...], ...]:
    """``u[i][o]`` = Borda utility of item ``o`` for agent ``i``."""
    n = profile.n
    out = []
    for prefs in profile.agent_prefs:
        u = [0] * n
        for r, o in enumerate(prefs):
            u[o] = n - 1 - r
        out.append(tuple(u))
    return tuple(out)


def _utility_rows(
    outcome: Union[Matching, FractionalAssignment], u: Sequence[Sequence[int]]
) -> List[Fraction]:
    """(Expected) Borda utility of every agent, given the utility table ``u``."""
    if isinstance(outcome, Matching):
        return [Fraction(row[o]) for row, o in zip(u, outcome.item_of)]
    return [
        sum((p * row[o] for o, p in enumerate(ps)), Fraction(0)) for row, ps in zip(u, outcome.p)
    ]


def agent_utility(
    outcome: Union[Matching, FractionalAssignment], profile: Profile, agent: int
) -> Fraction:
    return _utility_rows(outcome, borda_utilities(profile))[agent]


def utilitarian_welfare(
    outcome: Union[Matching, FractionalAssignment], profile: Profile
) -> Fraction:
    """Sum over agents of the (expected) Borda utility of their allocation."""
    return sum(_utility_rows(outcome, borda_utilities(profile)), Fraction(0))


def egalitarian_welfare(
    outcome: Union[Matching, FractionalAssignment], profile: Profile
) -> Fraction:
    """(Expected) Borda utility of the worst-off agent, scaled by n."""
    return min(_utility_rows(outcome, borda_utilities(profile))) / profile.n


def _hungarian_max(weight: Sequence[Sequence[int]]) -> Tuple[int, Tuple[int, ...]]:
    """Maximum-weight perfect matching on an integer matrix, O(n^3).

    Potentials-based shortest-augmenting-path formulation on the negated
    matrix; all arithmetic stays in exact integers.
    """
    n = len(weight)
    INF = 1 << 60
    cost = [[-weight[i][j] for j in range(n)] for i in range(n)]
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row matched to column j (1-indexed; 0 = free)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    item_of = [0] * n
    for j in range(1, n + 1):
        item_of[p[j] - 1] = j - 1
    total = sum(weight[i][item_of[i]] for i in range(n))
    return total, tuple(item_of)


def optimal_utilitarian(profile: Profile) -> Tuple[Fraction, Matching]:
    """The maximum utilitarian welfare over all matchings, with a witness."""
    value, item_of = _hungarian_max(borda_utilities(profile))
    return Fraction(value), Matching(item_of)


@dataclass(frozen=True)
class WelfareStats:
    mean: Fraction
    stderr: float


def _stats(values: List[Fraction]) -> WelfareStats:
    n = len(values)
    mean = sum(values, Fraction(0)) / n
    if n < 2:
        return WelfareStats(mean, 0.0)
    var = sum((float(x - mean)) ** 2 for x in values) / (n - 1)
    return WelfareStats(mean, math.sqrt(var / n))


def _expected_utilities(
    mechanism, profile: Profile, orders: str | int, rng: random.Random
) -> Tuple[List[Fraction], Fraction]:
    """Expected Borda utility of each agent under a randomized mechanism on one
    profile, and the expected utility of the worst-off agent of each run.

    Matching mechanisms run the ``orders`` of ``order_stream`` (``"all"`` or k
    draws from ``rng``); utilities are summed as integers over the outcome
    counts and divided once.  Fractional mechanisms draw no orders, and their
    worst-off value is the minimum expectation.
    """
    u = borda_utilities(profile)
    if mechanism.kind == "fractional":
        rows = _utility_rows(mechanism.assignment(profile), u)
        return rows, min(rows)
    counts = outcome_counts(mechanism.run, profile, order_stream(profile.n, orders, rng))
    sums = [0] * profile.n
    worst = 0
    for item_of, c in counts.items():
        values = [row[o] for row, o in zip(u, item_of)]
        worst += c * min(values)
        for i, v in enumerate(values):
            sums[i] += c * v
    total = sum(counts.values())
    return [Fraction(s, total) for s in sums], Fraction(worst, total)


def utilitarian_loss(
    mechanism, n: int, profiles: int, seed: int, orders: str | int = 1
) -> WelfareStats:
    """Average fraction of the optimal utilitarian welfare lost over
    ``profiles`` uniform random profiles drawn with ``seed``.

    Per profile the loss is (OPT - W)/OPT with W the mechanism's expected
    welfare over initial orders: exact over all n! with ``orders="all"``,
    otherwise estimated from k sampled orders.
    """
    rng = random.Random(seed ^ 0x9E3779B97F4A7C15)
    losses: List[Fraction] = []
    for profile in profile_stream(n, profiles, seed):
        opt, _ = optimal_utilitarian(profile)
        rows, _ = _expected_utilities(mechanism, profile, orders, rng)
        losses.append((opt - sum(rows, Fraction(0))) / opt)
    return _stats(losses)


def expected_egalitarian(
    mechanism, n: int, profiles: int, seed: int, orders: str | int = 1,
    realized_min: bool = False,
) -> WelfareStats:
    """Mean n-normalized egalitarian welfare over ``profiles`` uniform random
    profiles drawn with ``seed``; ``orders`` as for ``utilitarian_loss``.

    Default: the minimum over agents of expected Borda utility.  With
    ``realized_min`` the expectation and minimum swap: the (estimated) expected
    value of the worst-off agent's realized utility.
    """
    rng = random.Random(seed ^ 0x9E3779B97F4A7C15)
    values: List[Fraction] = []
    for profile in profile_stream(n, profiles, seed):
        rows, worst = _expected_utilities(mechanism, profile, orders, rng)
        values.append((worst if realized_min else min(rows)) / n)
    return _stats(values)


def order_bias(mechanism, n: int, profiles: int, seed: int) -> WelfareStats:
    """Normalized spread of expected Borda welfare across initial positions.

    The mechanism runs with the fixed order 1..n on ``profiles`` uniform random
    profiles drawn with ``seed``; the bias is (max over positions - min over
    positions) of mean welfare, divided by n.  Mechanisms that never read the
    order have zero bias by definition, returned exactly (the profile count is
    still checked).
    """
    stream = profile_stream(n, profiles, seed)  # refuses a bad n or count on the call
    if not mechanism.uses_order:
        return WelfareStats(Fraction(0), 0.0)
    order = AgentOrder.identity(n)
    sums = [Fraction(0)] * n
    sumsq = [0.0] * n
    for profile in stream:
        m = mechanism.run(profile, order)
        u = borda_utilities(profile)
        for pos in range(n):  # position i holds agent i under the identity order
            w = u[pos][m.item_of[pos]]
            sums[pos] += w
            sumsq[pos] += float(w) * w
    N = profiles
    means = [s / N for s in sums]
    hi = max(range(n), key=lambda i: means[i])
    lo = min(range(n), key=lambda i: means[i])
    bias = (means[hi] - means[lo]) / n
    def se(i: int) -> float:
        if N < 2:
            return 0.0
        var = (sumsq[i] - N * float(means[i]) ** 2) / (N - 1)
        return math.sqrt(max(var, 0.0) / N)
    stderr = math.sqrt(se(hi) ** 2 + se(lo) ** 2) / n
    return WelfareStats(bias, stderr)
