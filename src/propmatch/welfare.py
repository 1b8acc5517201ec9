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
from typing import List, Optional, Sequence, Tuple, Union

from .lottery import exact_counts, order_stream, outcome_counts
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
    return [Fraction(sum(x * w for x, w in zip(ps, row)), outcome.scale) for ps, row in zip(outcome.nums, u)]


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
    cost = [[0] + [-w for w in row] for row in weight]  # 1-indexed columns
    cost.insert(0, [])
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j] = row matched to column j (1-indexed; 0 = free)
    way = [0] * (n + 1)
    columns = range(1, n + 1)
    for i in columns:
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [0]  # columns on the alternating tree, in the order they joined
        free = list(columns)  # the others, ascending
        while True:
            i0 = p[j0]
            row = cost[i0]
            ui0 = u[i0]
            delta = INF
            j1 = 0
            for j in free:
                m = minv[j]
                cur = row[j] - ui0 - v[j]
                if cur < m:
                    minv[j] = m = cur
                    way[j] = j0
                if m < delta:
                    delta = m
                    j1 = j
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
            free.remove(j0)
            used.append(j0)
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    item_of = [0] * n
    for j in columns:
        item_of[p[j] - 1] = j - 1
    total = sum(weight[i][item_of[i]] for i in range(n))
    return total, tuple(item_of)


def optimal_utilitarian(
    profile: Profile, utilities: Optional[Sequence[Sequence[int]]] = None
) -> Tuple[Fraction, Matching]:
    """The maximum utilitarian welfare over all matchings, with a witness.

    ``utilities`` is the profile's Borda table, if the caller has built it.
    """
    value, item_of = _hungarian_max(borda_utilities(profile) if utilities is None else utilities)
    return Fraction(value), Matching(item_of)


@dataclass(frozen=True)
class WelfareStats:
    mean: Fraction
    stderr: float


METRICS = ("util_loss", "egal", "egal_realized", "order_bias")
_ORDER_SEED = 0x9E3779B97F4A7C15  # xor-ed into the campaign seed for the order draws


def _ratio_stats(nums: List[int], dens: List[int]) -> WelfareStats:
    """Mean and standard error of the values ``nums[k] / dens[k]``.

    The exact mean sums the numerators per distinct denominator and adds those
    few fractions once.  Each deviation from the mean is one correctly rounded
    integer division, the same float as converting the exact difference.
    """
    count = len(nums)
    by_den: dict = {}
    for a, b in zip(nums, dens):
        by_den[b] = by_den.get(b, 0) + a
    mean = sum((Fraction(s, d) for d, s in by_den.items()), Fraction(0)) / count
    if count < 2:
        return WelfareStats(mean, 0.0)
    mn, md = mean.numerator, mean.denominator
    var = sum(((a * md - mn * b) / (b * md)) ** 2 for a, b in zip(nums, dens)) / (count - 1)
    return WelfareStats(mean, math.sqrt(var / count))


def _bias_stats(sums: List[int], squares: List[int], count: int) -> WelfareStats:
    """Order bias from the per-position sums of Borda utility and of its square."""
    n = len(sums)
    hi = max(range(n), key=sums.__getitem__)
    lo = min(range(n), key=sums.__getitem__)
    bias = Fraction(sums[hi] - sums[lo], count * n)

    def se(i: int) -> float:
        if count < 2:
            return 0.0
        var = (squares[i] - count * (sums[i] / count) ** 2) / (count - 1)
        return math.sqrt(max(var, 0.0) / count)

    return WelfareStats(bias, math.sqrt(se(hi) ** 2 + se(lo) ** 2) / n)


def _utility_sums(
    mechanism, profile: Profile, u: Sequence[Sequence[int]], orders: str | int,
    rng: random.Random,
) -> Tuple[List[int], int, int]:
    """Expected Borda utilities of a randomized mechanism on one profile, as
    integers over one denominator: ``(sums, total, worst)`` means agent i
    expects ``sums[i] / total`` and the worst-off agent of a run gets
    ``worst / total`` in expectation.

    Matching mechanisms count outcomes over every order (``"all"``, by
    ``exact_counts``) or over k draws from ``rng``.  Fractional mechanisms draw
    no orders; their shares are the assignment's integer numerators over its
    common denominator (``FractionalAssignment.nums`` and ``scale``), and
    their worst-off value is the minimum expectation.
    """
    if mechanism.kind == "fractional":
        a = mechanism.assignment(profile)
        sums = [sum(x * w for x, w in zip(ps, row)) for ps, row in zip(a.nums, u)]
        return sums, a.scale, min(sums)
    if orders == "all":
        counts = exact_counts(mechanism.run, profile)
    else:
        counts = outcome_counts(mechanism.run, profile, order_stream(profile.n, orders, rng))
    sums = [0] * profile.n
    worst = 0
    for item_of, c in counts.items():
        values = [row[o] for row, o in zip(u, item_of)]
        worst += c * min(values)
        for i, v in enumerate(values):
            sums[i] += c * v
    return sums, sum(counts.values()), worst


def campaign(
    cells: Sequence[Tuple[object, str]], n: int, profiles: str | int, seed: int,
    orders: str | int = 1,
) -> List[WelfareStats]:
    """Welfare statistics of several (mechanism, metric) cells from one pass
    over ``profile_stream(n, profiles, seed)``; one ``WelfareStats`` per cell.

    Metrics (``METRICS``):

    - ``util_loss``: the fraction (OPT - W)/OPT of the optimal utilitarian
      welfare lost, W the mechanism's expected welfare over initial orders:
      exact over all n! with ``orders="all"``, else estimated from k orders;
    - ``egal``: the minimum over agents of expected Borda utility, over n;
    - ``egal_realized``: the (estimated) expected utility of the worst-off
      agent of a run, over n;
    - ``order_bias``: the mechanism runs the fixed order 1..n; the spread (max
      minus min over positions) of mean Borda utility, over n.  Mechanisms that
      never read the order have zero bias, returned exactly.

    Each profile's Borda table is built once, and its optimum once if some
    cell measures loss.  Every randomized cell draws its orders from its own
    ``random.Random(seed ^ 0x9E3779B97F4A7C15)``, exactly as a one-cell pass
    would; cells of one mechanism object draw the same orders, so they share
    one generator and one run per order.  Statistics are accumulated in
    integers: a cell keeps each profile's value as a numerator and a
    denominator until the end.
    """
    stream = profile_stream(n, profiles, seed)  # refuses a bad n or count on the call
    for _, metric in cells:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
    ratios = [i for i, (_, metric) in enumerate(cells) if metric != "order_bias"]
    biased = [i for i, (m, metric) in enumerate(cells) if metric == "order_bias" and m.uses_order]
    results = [WelfareStats(Fraction(0), 0.0)] * len(cells)
    if not ratios and not biased:
        return results
    need_opt = any(metric == "util_loss" for _, metric in cells)
    if need_opt and n < 2:
        raise ValueError("util_loss needs n >= 2: with one agent the optimum is 0")
    rngs = {id(cells[i][0]): random.Random(seed ^ _ORDER_SEED) for i in ratios}
    nums = {i: [] for i in ratios}
    dens = {i: [] for i in ratios}
    pos_sums = {i: [0] * n for i in biased}
    pos_squares = {i: [0] * n for i in biased}
    identity = AgentOrder.identity(n)
    count = 0  # profiles seen: ``profiles`` may be "all"
    for profile in stream:
        count += 1
        u = borda_utilities(profile)
        if need_opt:
            opt = optimal_utilitarian(profile, u)[0].numerator
        got = {}  # id(mechanism) -> its utility sums on this profile
        for i in ratios:
            mech, metric = cells[i]
            key = id(mech)
            if key not in got:
                got[key] = _utility_sums(mech, profile, u, orders, rngs[key])
            sums, total, worst = got[key]
            if metric == "util_loss":
                nums[i].append(opt * total - sum(sums))
                dens[i].append(opt * total)
            else:
                nums[i].append(worst if metric == "egal_realized" else min(sums))
                dens[i].append(total * n)
        for i in biased:
            item_of = cells[i][0].run(profile, identity).item_of
            sums, squares = pos_sums[i], pos_squares[i]
            for pos in range(n):  # position i holds agent i under the identity order
                w = u[pos][item_of[pos]]
                sums[pos] += w
                squares[pos] += w * w
    for i in ratios:
        results[i] = _ratio_stats(nums[i], dens[i])
    for i in biased:
        results[i] = _bias_stats(pos_sums[i], pos_squares[i], count)
    return results


def utilitarian_loss(
    mechanism, n: int, profiles: int, seed: int, orders: str | int = 1
) -> WelfareStats:
    """Mean fraction of the optimal utilitarian welfare lost, (OPT - W)/OPT,
    over ``profiles`` uniform profiles drawn with ``seed``: the one-cell
    ``campaign`` of metric ``util_loss``."""
    return campaign([(mechanism, "util_loss")], n, profiles, seed, orders)[0]


def expected_egalitarian(
    mechanism, n: int, profiles: int, seed: int, orders: str | int = 1,
    realized_min: bool = False,
) -> WelfareStats:
    """Mean n-normalized egalitarian welfare: the one-cell ``campaign`` of
    metric ``egal`` (the minimum over agents of expected Borda utility) or,
    with ``realized_min``, ``egal_realized`` (the expected utility of the
    worst-off agent of a run)."""
    metric = "egal_realized" if realized_min else "egal"
    return campaign([(mechanism, metric)], n, profiles, seed, orders)[0]


def order_bias(mechanism, n: int, profiles: str | int, seed: int) -> WelfareStats:
    """Spread of mean Borda utility across initial positions under the fixed
    order 1..n, over n: the one-cell ``campaign`` of metric ``order_bias``.
    Mechanisms that never read the order have zero bias, returned exactly
    (the profile count is still checked)."""
    return campaign([(mechanism, "order_bias")], n, profiles, seed)[0]
