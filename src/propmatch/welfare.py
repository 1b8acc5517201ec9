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
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .lottery import Runner, exact_counts, order_stream, permutation_drawer, spread_size
from .model import AgentOrder, FractionalAssignment, Matching, Profile, _trusted
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
) -> Tuple[List[int], int]:
    """(Expected) Borda utility of every agent, given the utility table ``u``,
    as integer numerators over one scale: 1 for a matching, the assignment's
    ``scale`` for a fractional outcome."""
    if isinstance(outcome, Matching):
        return [row[o] for row, o in zip(u, outcome.item_of)], 1
    return [sum(x * w for x, w in zip(ps, row)) for ps, row in zip(outcome.nums, u)], outcome.scale


def agent_utility(
    outcome: Union[Matching, FractionalAssignment], profile: Profile, agent: int
) -> Fraction:
    nums, scale = _utility_rows(outcome, borda_utilities(profile))
    return Fraction(nums[agent], scale)


def utilitarian_welfare(
    outcome: Union[Matching, FractionalAssignment], profile: Profile
) -> Fraction:
    """Sum over agents of the (expected) Borda utility of their allocation."""
    nums, scale = _utility_rows(outcome, borda_utilities(profile))
    return Fraction(sum(nums), scale)


def egalitarian_welfare(
    outcome: Union[Matching, FractionalAssignment], profile: Profile
) -> Fraction:
    """(Expected) Borda utility of the worst-off agent, scaled by n."""
    nums, scale = _utility_rows(outcome, borda_utilities(profile))
    return Fraction(min(nums), scale * profile.n)


def _hungarian_max(weight: Sequence[Sequence[int]]) -> Tuple[int, Tuple[int, ...]]:
    """Maximum-weight perfect matching on an integer matrix, O(n^3): the
    value and a witness ``item_of`` that reaches it, in exact integers.

    Shortest augmenting paths on the negated matrix with potentials ``u`` and
    ``v``.  ``minv[j]`` is the Dijkstra distance to column j from the phase's
    start and ``d`` that of the column last reached, so the potentials are
    settled once per augmentation: each tree column by ``d`` less the distance
    at which it joined.  It makes the comparisons and tie-breaks of the form
    that shifts every potential on every step, so it finds the same witness.

    A row whose first maximum is in a free column t takes t at once, with
    potential minus that maximum, as its phase would: columns have potential
    at most 0, free ones 0, so none is nearer than t or, before t, as near, and
    the first scan ends there.  The ``way`` entries left unset go stale unread:
    a phase sets ``way`` for each column it relaxes."""
    n = len(weight)
    INF = 1 << 60
    u, v = [0] * n, [0] * (n + 1)
    p = [-1] * (n + 1)  # p[j] = row matched to column j, -1 if none; column n roots each phase
    way = [n] * (n + 1)
    for i in range(n):
        row = weight[i]
        top = max(row)
        t = row.index(top)
        if p[t] < 0:
            u[i] = -top
            p[t] = i
            continue
        p[n] = i
        j0, d = n, 0
        minv = [INF] * n + [0]
        used = [n]  # columns on the alternating tree, in the order they joined
        free = list(range(n))  # the others, ascending
        while True:
            row, h = weight[p[j0]], u[p[j0]] - d
            d = INF
            for j in free:
                m = minv[j]
                cur = -row[j] - h - v[j]
                if cur < m:
                    minv[j] = m = cur
                    way[j] = j0
                if m < d:
                    d = m
                    j1 = j
            j0 = j1
            if p[j0] < 0:
                break
            free.remove(j0)
            used.append(j0)
        for j in used:
            shift = d - minv[j]
            u[p[j]] += shift
            v[j] -= shift
        while j0 != n:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    item_of = sorted(range(n), key=p.__getitem__)  # the inverse of p[:n]
    return sum(row[o] for row, o in zip(weight, item_of)), tuple(item_of)


def optimal_utilitarian(
    profile: Profile, utilities: Optional[Sequence[Sequence[int]]] = None
) -> Tuple[Fraction, Matching]:
    """The maximum utilitarian welfare over all matchings, with a witness.

    ``utilities`` is the profile's Borda table, if the caller has built it.
    """
    value, item_of = _hungarian_max(borda_utilities(profile) if utilities is None else utilities)
    return Fraction(value), _trusted(Matching, item_of)


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
    runner: Runner, profile: Profile, u: Sequence[Sequence[int]], orders, runs: dict,
) -> Tuple[List[int], int, int]:
    """Expected Borda utilities of a matching cell on one profile, over
    ``orders``, as integers over one denominator: ``(sums, total, worst)``
    means agent i expects ``sums[i] / total`` and the worst-off agent of a
    run gets ``worst / total`` in expectation.  ``runner`` is the cell's
    ``mech.run``; ``runs`` keeps by its core the outcome counts of each base
    already run on these orders, so X and X+G run the base once.

    A list of drawn orders is counted as ``(None, tally)``, a plain tally of
    the core's ``item_of`` tuples; ``"all"`` is counted by ``exact_counts``
    of the untraded Runner, folded by class.  Either way a ``+G`` cell trades
    each distinct base outcome once, and its count goes to what the trade
    gives.  A folded outcome stands for ``spread_size`` outcomes: agents of
    one class share one utility row, so the worst-off value is the same for
    each of them, and each member of class C expects the class's sum over
    |C|.  The trade of a folded outcome needs no second fold: top trading
    cycles renames its result when agents of one class are renamed, and
    swapping items within a class changes neither the class's sum nor the
    worst-off value."""
    core, trade = runner.run, runner.trade
    counts = runs.get(core)
    if counts is None:
        if orders == "all":
            counts = exact_counts(Runner(core, runner.stepper), profile)
        else:
            tally: Dict[Tuple[int, ...], int] = {}
            for order in orders:
                item_of = core(profile, order)
                tally[item_of] = tally.get(item_of, 0) + 1
            counts = None, tally
        runs[core] = counts
    classes, tally = counts
    sums = [0] * len(u)
    worst = total = 0
    for item_of, c in tally.items():
        if trade is not None:
            item_of = trade(profile, item_of)
        values = [row[o] for row, o in zip(u, item_of)]
        worst += c * min(values)
        for i, v in enumerate(values):
            sums[i] += c * v
        total += c
    if classes is not None and len(classes) < len(u):
        spread = spread_size(classes)
        for members in classes:
            each = spread // len(members) * sum(sums[a] for a in members)
            for a in members:
                sums[a] = each
        total, worst = total * spread, worst * spread
    return sums, total, worst


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

    Each profile's Borda table is built once if a loss or egalitarian cell
    reads it, and its optimum once if some cell measures loss.  A one-cell pass of a matching mechanism draws k
    orders per profile from ``random.Random(seed ^ 0x9E3779B97F4A7C15)``, so
    every cell would draw the same orders: they are drawn once per profile,
    by one ``permutation_drawer`` for the pass.  A count k below 1 is refused
    on the call, before any profile, whatever the cells, as is ``"all"``
    past ``ENUMERATION_LIMIT`` if a loss or egalitarian cell runs orders.
    A matching cell's mechanism carries a ``lottery.Runner`` (``mech.run``),
    as every registry code does.  Each base mechanism then runs once per
    order, and once on the identity order for bias cells, through the
    Runner's core, which returns a plain ``item_of``.  ``_utility_sums``
    counts a base's outcomes, drawn or over all orders, which X and X+G
    share, and a ``+G`` cell trades each distinct outcome once; a bias cell
    reads its base's identity-order ``item_of`` and trades it for ``+G``.
    Fractional mechanisms run no orders: their sums are ``_utility_rows`` of
    the assignment, over its ``scale``, and their worst-off value is the
    minimum expectation.
    Statistics are accumulated in integers: a cell keeps each profile's value
    as a numerator and a denominator until the end.  ``profiles="orbits"`` is
    refused: an orbit's least profile stands for orbits of different sizes, so
    their plain mean is not the uniform-profile mean."""
    if profiles == "orbits":
        raise ValueError('a campaign averages over "all" or k drawn profiles, not "orbits"')
    stream = profile_stream(n, profiles, seed)  # refuses a bad n or count on the call
    for _, metric in cells:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
    ratios = [i for i, (_, metric) in enumerate(cells) if metric != "order_bias"]
    biased = [i for i, (m, metric) in enumerate(cells) if metric == "order_bias" and m.uses_order]
    matching = any(cells[i][0].kind == "matching" for i in ratios)  # cells that run ``orders``
    if orders != "all" or matching:
        order_stream(n, orders)  # refuses a count below 1, or n past the limit for "all", on the call
    results = [WelfareStats(Fraction(0), 0.0)] * len(cells)
    if not ratios and not biased:
        return results
    need_opt = any(metric == "util_loss" for _, metric in cells)
    if need_opt and n < 2:
        raise ValueError("util_loss needs n >= 2: with one agent the optimum is 0")
    sampled = orders != "all" and matching
    draw = permutation_drawer(random.Random(seed ^ _ORDER_SEED), n) if sampled else None
    plans = {id(cells[i][0]): cells[i][0] for i in ratios}  # each mechanism once
    fixed_plans = [(i, cells[i][0].run.run, cells[i][0].run.trade) for i in biased]
    nums = {i: [] for i in ratios}
    dens = {i: [] for i in ratios}
    pos_sums = {i: [0] * n for i in biased}
    pos_squares = {i: [0] * n for i in biased}
    identity = AgentOrder.identity(n)
    count = 0  # profiles seen: ``profiles`` may be "all"
    for profile in stream:
        count += 1
        u = borda_utilities(profile) if ratios else None  # bias cells read ranks instead
        if need_opt:
            opt = optimal_utilitarian(profile, u)[0].numerator
        drawn = [_trusted(AgentOrder, draw()) for _ in range(orders)] if sampled else orders
        got, runs = {}, {}  # by id(mechanism): utility sums; by core: outcome counts
        for key, mech in plans.items():
            if mech.kind == "fractional":
                sums, scale = _utility_rows(mech.assignment(profile), u)
                got[key] = sums, scale, min(sums)
            else:
                got[key] = _utility_sums(mech.run, profile, u, drawn, runs)
        for i in ratios:
            mech, metric = cells[i]
            sums, total, worst = got[id(mech)]
            if metric == "util_loss":
                nums[i].append(opt * total - sum(sums))
                dens[i].append(opt * total)
            else:
                nums[i].append(worst if metric == "egal_realized" else min(sums))
                dens[i].append(total * n)
        fixed = {}  # by core: the base's outcome on the identity order
        for i, core, trade in fixed_plans:
            item_of = fixed.get(core)
            if item_of is None:
                item_of = fixed[core] = core(profile, identity)
            if trade is not None:
                item_of = trade(profile, item_of)
            sums, squares = pos_sums[i], pos_squares[i]
            for pos, prefs in enumerate(profile.agent_prefs):  # agent i holds position i
                w = n - 1 - prefs.index(item_of[pos])
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
