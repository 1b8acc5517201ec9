"""Borda welfare metrics, the assignment optimum, and the sampling campaigns."""
import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propmatch import (
    AgentOrder,
    Matching,
    profile,
    proportional_assignment,
    serial_dictatorship,
)
from propmatch.axioms import is_pareto_efficient
from propmatch.engine import ALL_ENGINE_CODES
from propmatch.experiments import ExperimentConfig, run_experiment
from propmatch import mechanisms, registry, welfare
from propmatch.lottery import (
    ENUMERATION_LIMIT, ClassCounts, EnumerationLimitError, Runner, exact_counts, exact_lottery, fold_outcome,
    order_stream, permutation_drawer, refold, singleton_classes, spread_size,
)
from propmatch.registry import resolve
from propmatch.sampling import ProfileSampler, orbit_profiles, profile_stream
from propmatch.welfare import (
    _bias_stats,
    _hungarian_max,
    _ratio_stats,
    _utility_rows,
    _utility_sums,
    borda_utilities,
    campaign,
    egalitarian_welfare,
    expected_egalitarian,
    optimal_utilitarian,
    order_bias,
    utilitarian_loss,
    utilitarian_welfare,
)

from conftest import random_profile
from optimum_witnesses import COUNT, WITNESSES
from welfare_fixtures import BIAS, LOSS

F = Fraction


def brute_force_optimum(p):
    n = p.n
    best = -1
    for perm in itertools.permutations(range(n)):
        best = max(best, int(utilitarian_welfare(Matching(perm), p)))
    return best


class TestBordaValues:
    def test_each_value_once_per_agent(self, bench4):
        for row in borda_utilities(bench4):
            assert sorted(row) == [0, 1, 2, 3]

    def test_bench_pick_in_order_welfare(self, bench4):
        m = serial_dictatorship(bench4, AgentOrder.identity(4))
        assert utilitarian_welfare(m, bench4) == 6  # 3 + 2 + 1 + 0

    def test_all_tops(self):
        n = 4
        p = profile([[(i + k) % n for k in range(n)] for i in range(n)])
        m = Matching(tuple(range(n)))
        assert utilitarian_welfare(m, p) == n * (n - 1)

    def test_proportional_expectation(self):
        for n in (2, 3, 5):
            p = profile([list(range(n))] * n)
            assert utilitarian_welfare(proportional_assignment(n), p) == F(n * (n - 1), 2)


class TestOptimalUtilitarian:
    def test_bench_value(self, bench4):
        value, witness = optimal_utilitarian(bench4)
        assert value == brute_force_optimum(bench4) == 7
        assert utilitarian_welfare(witness, bench4) == value

    def test_identical_preferences(self):
        n = 4
        value, _ = optimal_utilitarian(profile([list(range(n))] * n))
        assert value == F(n * (n - 1), 2)

    def test_distinct_tops(self):
        n = 5
        p = profile([[(i + k) % n for k in range(n)] for i in range(n)])
        value, _ = optimal_utilitarian(p)
        assert value == n * (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_brute_force(self, n):
        rng = random.Random(600 + n)
        for _ in range(12):
            p = random_profile(rng, n)
            value, witness = optimal_utilitarian(p)
            assert value == brute_force_optimum(p)
            assert utilitarian_welfare(witness, p) == value

    def test_witness_is_pareto_efficient(self):
        rng = random.Random(61)
        for _ in range(25):
            p = random_profile(rng, rng.randint(2, 6))
            _, witness = optimal_utilitarian(p)
            assert is_pareto_efficient(witness, p)

    def test_dominates_every_matching(self, bench4):
        value, _ = optimal_utilitarian(bench4)
        for perm in itertools.permutations(range(4)):
            assert utilitarian_welfare(Matching(perm), bench4) <= value

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_general_integer_matrices(self, n):
        """Not only Borda tables: negative weights, many ties, wide ranges."""
        rng = random.Random(700 + n)
        for lo, hi in [(0, 1), (-2, 2), (-9, 0), (-50, 50), (0, 10**9)] * 4:
            weight = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
            value, item_of = _hungarian_max(weight)
            best = max(sum(row[o] for row, o in zip(weight, perm))
                       for perm in itertools.permutations(range(n)))
            assert value == best
            assert sorted(item_of) == list(range(n))
            assert sum(row[o] for row, o in zip(weight, item_of)) == best


def oracle_hungarian(weight):
    """``welfare._hungarian_max`` before it took a row's free best column at
    once: every phase runs its full search."""
    n = len(weight)
    INF = 1 << 60
    u, v = [0] * n, [0] * (n + 1)
    p = [-1] * (n + 1)
    way = [n] * (n + 1)
    for i in range(n):
        p[n] = i
        j0, d = n, 0
        minv = [INF] * n + [0]
        used = [n]
        free = list(range(n))
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
    item_of = sorted(range(n), key=p.__getitem__)
    return sum(row[o] for row, o in zip(weight, item_of)), tuple(item_of)


class TestHungarianShortcut:
    """Taking a row's first best column at once when it is free changes no
    value and no witness: the same ``(value, item_of)`` as ``oracle_hungarian``,
    also where a row's maximum ties."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_same_value_and_witness(self, n):
        rng = random.Random(900 + n)
        for _ in range(60):
            top = rng.sample(range(n), n)
            for weight in (
                [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)],
                [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)],  # tied maxima
                [list(row) for row in borda_utilities(random_profile(rng, n))],
                # one unique best column for all: row 0 takes it, the rest find it taken
                [top[:] for _ in range(n)],
                # unique best column 0 or 1 by row parity: from row 2 on, it is taken
                [[rng.randint(0, 2) + (j == i % 2) * 3 for j in range(n)] for i in range(n)],
            ):
                assert _hungarian_max(weight) == oracle_hungarian(weight), weight


class TestOptimumWitnesses:
    """Pinned witnesses: optimal matchings often tie, so these lock the
    Hungarian search's tie-breaking as well as its value."""

    @pytest.mark.parametrize("n", sorted(WITNESSES))
    def test_pinned(self, n):
        sampler = ProfileSampler(n, 800 + n)
        got = ["".join(map(str, optimal_utilitarian(sampler.sample())[1].item_of))
               for _ in range(COUNT)]
        assert got == WITNESSES[n].split()


class TestEgalitarian:
    def test_all_tops(self):
        n = 4
        p = profile([[(i + k) % n for k in range(n)] for i in range(n)])
        assert egalitarian_welfare(Matching(tuple(range(n))), p) == F(n - 1, n)

    def test_bench_pick_in_order(self, bench4):
        m = serial_dictatorship(bench4, AgentOrder.identity(4))
        assert egalitarian_welfare(m, bench4) == 0  # last agent gets its worst item

    def test_proportional(self):
        for n in (2, 4):
            p = profile([list(range(n))] * n)
            assert egalitarian_welfare(proportional_assignment(n), p) == F(n - 1, 2 * n)


class _OptimalMechanism:
    """Welfare-maximizing mechanism, for loss calibration."""

    code = "OPT"
    kind = "matching"
    uses_order = False

    run = Runner(lambda p, o: optimal_utilitarian(p)[1].item_of, None)


class TestCampaigns:
    def test_optimal_mechanism_has_zero_loss(self):
        stats = utilitarian_loss(_OptimalMechanism(), 4, 50, 9, orders=1)
        assert stats.mean == 0

    def test_loss_within_range_and_reproducible(self):
        mech, _ = resolve("R-TLS")
        a = utilitarian_loss(mech, 4, 60, 11, orders=1)
        b = utilitarian_loss(mech, 4, 60, 11, orders=1)
        assert a == b
        assert 0 <= a.mean <= 1

    def test_exact_orders_match_large_sample_direction(self):
        rsd, _ = resolve("RSD")
        pfq, _ = resolve("R-PFQ")
        loss_rsd = utilitarian_loss(rsd, 4, 300, 13, orders="all")
        loss_pfq = utilitarian_loss(pfq, 4, 300, 13, orders="all")
        assert loss_pfq.mean < loss_rsd.mean

    def test_egalitarian_campaign_ranges(self):
        mech, _ = resolve("RSD")
        stats = expected_egalitarian(mech, 4, 60, 15, orders="all")
        assert 0 <= stats.mean <= F(3, 4)
        realized = expected_egalitarian(
            mech, 4, 60, 15, orders="all", realized_min=True
        )
        assert realized.mean <= stats.mean  # E[min] <= min of expectations

    def test_order_bias_zero_for_orderless(self):
        ps, _ = resolve("PS")
        stats = order_bias(ps, 4, 100, 17)
        assert stats.mean == 0

    def test_order_bias_single_agent(self):
        sd, _ = resolve("SD")
        assert order_bias(sd, 1, 30, 19).mean == 0

    def test_order_bias_in_range_and_dictator_biased(self):
        sd, _ = resolve("SD")
        tlq_g, _ = resolve("TLQ+G")
        bias_sd = order_bias(sd, 4, 400, 23)
        bias_tlq_g = order_bias(tlq_g, 4, 400, 23)
        assert 0 <= bias_tlq_g.mean <= bias_sd.mean <= F(3, 4)
        assert bias_sd.mean > 0

    def test_order_bias_over_all_profiles(self):
        # n = 2, order (0, 1): agent 0 always gets its top (Borda 1); agent 1
        # gets its top only when the two tops differ, in 2 of the 4 profiles.
        sd, _ = resolve("SD")
        stats = order_bias(sd, 2, "all", 0)
        assert stats.mean == (F(1) - F(1, 2)) / 2
        # position 0 never varies; position 1 has sample variance 1/3 over 4 profiles
        assert stats.stderr == pytest.approx(math.sqrt(F(1, 3) / 4) / 2)


class TestCountsRefused:
    """A profile or order count below 1, or a negative seed, raises on the
    call, also where the mechanism never reads it (order_bias on PS draws no
    profile)."""

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize(
        "campaign, code",
        [
            (utilitarian_loss, "RSD"),
            (utilitarian_loss, "PS"),
            (expected_egalitarian, "R-TLQ"),
            (expected_egalitarian, "PS"),
            (order_bias, "SD"),
            (order_bias, "PS"),
        ],
    )
    def test_profile_count(self, campaign, code, count):
        mech, _ = resolve(code)
        with pytest.raises(ValueError, match="profile count"):
            campaign(mech, 4, count, 0)

    @pytest.mark.parametrize("campaign", [utilitarian_loss, expected_egalitarian, order_bias])
    def test_negative_seed(self, campaign):
        # random.Random seeds with the absolute value, so -5 would repeat seed 5
        mech, _ = resolve("SD" if campaign is order_bias else "RSD")
        with pytest.raises(ValueError, match="seed >= 0"):
            campaign(mech, 4, 5, -5)

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("campaign", [utilitarian_loss, expected_egalitarian])
    def test_order_count(self, campaign, count):
        mech, _ = resolve("RSD")
        with pytest.raises(ValueError, match="order count"):
            campaign(mech, 4, 5, 0, orders=count)

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize(
        "codes, metric",
        [
            (("PS",), "util_loss"),
            (("PS",), "egal"),
            (("SD", "PS"), "order_bias"),
            (("R-TLQ", "R-TLQ+G"), "util_loss"),
            (("R-TLQ",), "egal_realized"),
        ],
    )
    def test_order_count_whatever_the_cells(self, codes, metric, count, monkeypatch):
        """Refused before any profile is drawn, also by cells that run no
        orders (PS, bias cells) or run them only after the optimum."""
        monkeypatch.setattr(welfare, "profile_stream", lambda *a: iter(()))
        cells = [(resolve(code)[0], metric) for code in codes]
        with pytest.raises(ValueError, match="order count"):
            campaign(cells, 4, 10, 7, orders=count)

    @pytest.mark.parametrize(
        "codes, metric",
        [
            (("RSD",), "util_loss"),
            (("PS", "R-TLQ+G"), "egal"),
            (("R-NB",), "egal_realized"),
        ],
    )
    def test_all_orders_past_the_limit(self, codes, metric, monkeypatch):
        """Refused before any profile is drawn when a loss or egalitarian
        cell runs every order of n > ENUMERATION_LIMIT agents."""
        monkeypatch.setattr(welfare, "profile_stream", lambda *a: iter(()))
        cells = [(resolve(code)[0], metric) for code in codes]
        with pytest.raises(EnumerationLimitError, match=f"n={ENUMERATION_LIMIT + 1}"):
            campaign(cells, ENUMERATION_LIMIT + 1, 10, 7, orders="all")

    @pytest.mark.parametrize("code, metric", [("PS", "util_loss"), ("PS", "egal"), ("SD", "order_bias")])
    def test_all_orders_past_the_limit_run_no_order(self, code, metric):
        """Cells that run no orders (PS, bias cells) still run to a mean."""
        (stats,) = campaign([(resolve(code)[0], metric)], ENUMERATION_LIMIT + 1, 2, 7, orders="all")
        assert stats.mean > 0


class TestPinnedSampledEstimates:
    """Exact outputs of the sampled-order branches, recorded before the order
    loops were merged into one stream: means as Fraction text, stderr as
    repr(float)."""

    @pytest.mark.parametrize(
        "code, mean, stderr",
        [
            ("R-TLS+G", "109/240", "0.019923641900800586"),
            ("RSD", "157/480", "0.026087177745964193"),
            ("R-TLQ", "73/160", "0.01966909338183326"),
        ],
    )
    def test_realized_min_two_orders(self, code, mean, stderr):
        mech, _ = resolve(code)
        stats = expected_egalitarian(
            mech, 4, 60, 15, orders=2, realized_min=True
        )
        assert (str(stats.mean), repr(stats.stderr)) == (mean, stderr)

    @pytest.mark.parametrize(
        "code, mean, stderr",
        [
            ("R-TLS+G", "147/320", "0.031133597309181235"),
            ("R-PFQ", "51/160", "0.04315065661918329"),
            ("PS", "1061/1920", "0.017172475014925942"),
        ],
    )
    def test_experiment_egal_realized_row(self, code, mean, stderr):
        cfg = ExperimentConfig((code,), (4,), ("egal_realized",), 40, "sampled:2", 3)
        (row,) = run_experiment(cfg)
        assert row == (4, code, "egal_realized", mean, stderr, 40, "sampled", 3)


def _exact(stats):
    return str(stats.mean), repr(stats.stderr)


# ``campaign`` at n = 5, 40 profiles, seed 31, three drawn orders a profile:
# (code, metric, mean as Fraction text, stderr as repr(float)).
SAMPLED_ORDERS = [
    ("RSD", "util_loss", "165367/2790720", "0.0074493477952552855"),
    ("RSD", "egal", "1/2", "0.0217470566499118"),
    ("RSD", "egal_realized", "113/300", "0.028299376333316976"),
    ("R-TLQ", "util_loss", "103991/1395360", "0.012985727515700454"),
    ("R-TLQ", "egal", "67/120", "0.01949322330928764"),
    ("R-TLQ", "egal_realized", "79/150", "0.021589276645984833"),
    ("R-TLQ+G", "util_loss", "704/43605", "0.004004886431810981"),
    ("R-TLQ+G", "egal", "343/600", "0.01634519018443169"),
    ("R-TLQ+G", "egal_realized", "323/600", "0.02058787018757402"),
    ("PS", "util_loss", "5535379/89303040", "0.005213337254017463"),
    ("PS", "egal", "6557/10800", "0.011365932340853356"),
    ("PS", "egal_realized", "6557/10800", "0.011365932340853356"),
]


class TestPinnedSampledOrders:
    """Several drawn orders a profile, which the pinned C10 campaign (one
    order) does not reach.  One-cell calls give what the pass gives
    (``TestCampaignPass``)."""

    def test_one_pass(self):
        cells = [(resolve(code)[0], metric) for code, metric, _, _ in SAMPLED_ORDERS]
        got = [_exact(s) for s in campaign(cells, 5, 40, 31, orders=3)]
        assert got == [(mean, stderr) for _, _, mean, stderr in SAMPLED_ORDERS]


class TestCampaignPass:
    """One ``campaign`` pass gives every cell what its one-cell call gives."""

    @pytest.mark.parametrize("n", [4, 6])
    def test_c10_cells(self, n):
        loss = [code for m, code in LOSS if m == n]
        bias = [code for m, code in BIAS if m == n]
        cells = [(resolve(code)[0], "util_loss") for code in loss]
        cells += [(resolve(code)[0], "order_bias") for code in bias]
        want = [utilitarian_loss(resolve(code)[0], n, 200, 7, orders=1) for code in loss]
        want += [order_bias(resolve(code)[0], n, 200, 7) for code in bias]
        assert list(map(_exact, campaign(cells, n, 200, 7, 1))) == list(map(_exact, want))

    @pytest.mark.parametrize("orders", ["all", 3])
    def test_welfare_metrics(self, orders):
        one_cell = {
            "util_loss": lambda mech: utilitarian_loss(mech, 3, 80, 7, orders),
            "egal": lambda mech: expected_egalitarian(mech, 3, 80, 7, orders),
            "egal_realized": lambda mech: expected_egalitarian(
                mech, 3, 80, 7, orders, realized_min=True
            ),
        }
        mechs = [resolve(code)[0] for code in ("RSD", "R-TLQ+G", "PS")]
        cells = [(mech, metric) for mech in mechs for metric in one_cell]
        want = [one_cell[metric](mech) for mech, metric in cells]
        assert list(map(_exact, campaign(cells, 3, 80, 7, orders))) == list(map(_exact, want))

    @pytest.mark.parametrize("orders", [1, 3, "all"])
    def test_base_and_trading_cells_share_runs(self, orders):
        """A base and its ``+G`` form, as loss, egalitarian and bias cells:
        each equals its one-cell campaign."""
        def mechs(*codes):
            return [resolve(code)[0] for code in codes]

        cells = [(m, "util_loss") for m in mechs("R-TLQ", "R-TLQ+G")]
        cells += [(m, "egal_realized") for m in mechs("R-TLQ+G", "R-TLQ")]
        cells += [(m, "order_bias") for m in mechs("TLQ", "TLQ+G")]
        want = [utilitarian_loss(m, 4, 60, 5, orders) for m in mechs("R-TLQ", "R-TLQ+G")]
        want += [expected_egalitarian(m, 4, 60, 5, orders, realized_min=True)
                 for m in mechs("R-TLQ+G", "R-TLQ")]
        want += [order_bias(m, 4, 60, 5) for m in mechs("TLQ", "TLQ+G")]
        assert list(map(_exact, campaign(cells, 4, 60, 5, orders))) == list(map(_exact, want))

    def test_one_base_run_per_order(self, monkeypatch):
        calls = []
        for code in ("TLQ", "PLS"):  # count at each base's core, which its +G form shares
            base = registry._BASE[code]

            def counted(profile, order, core=base.run.run):
                calls.append(order)
                return core(profile, order)

            runner = Runner(counted, base.run.stepper)
            monkeypatch.setitem(registry._BASE, code, dataclasses.replace(base, run=runner))
        loss = [(resolve(code)[0], "util_loss") for code in ("R-TLQ", "R-TLQ+G", "R-PLS+G")]
        campaign(loss, 5, 20, 3, orders=3)
        assert len(calls) == 2 * 20 * 3  # TLQ and PLS, once per order
        calls.clear()
        bias = [(resolve(code)[0], "order_bias") for code in ("TLQ", "TLQ+G", "PLS+G")]
        campaign(bias, 5, 20, 3)
        assert len(calls) == 2 * 20
        assert {order.order for order in calls} == {(0, 1, 2, 3, 4)}
        calls.clear()
        campaign(loss + bias, 5, 20, 3, orders=3)
        assert len(calls) == 2 * 20 * 4

    def test_all_orders_trade_each_folded_base_outcome_once(self, monkeypatch):
        calls = []
        real = mechanisms.trade

        def counted(profile, endowment):
            calls.append(endowment)
            return real(profile, endowment)

        monkeypatch.setattr(registry, "trade", counted)  # what ``resolve`` gives a +G Runner
        bases = [resolve(code)[0] for code in ("SD", "TLQ")]
        cells = [(resolve(code)[0], "util_loss") for code in ("R-SD+G", "R-TLQ+G")]
        campaign(cells, 4, 40, 3, orders="all")
        profiles = list(profile_stream(4, 40, 3))
        folded = sum(len(exact_counts(b.run, p).counts) for b in bases for p in profiles)
        spread = sum(len(exact_lottery(b.run, p).outcomes) for b in bases for p in profiles)
        assert len(calls) == folded < spread

    @pytest.mark.parametrize("code", ["RSD", "R-NB", "R-TFS", "R-SD+G", "R-NB+G", "R-TLQ+G"])
    def test_folded_sums_equal_those_of_every_order(self, code):
        """Utility sums read from the folded counts are the integers that
        running every order gives; the base counts a cell reads are folded
        outcomes, and so is each outcome ``refold`` gives an exact ``+G``
        lottery by trading them."""
        self._check_folded_sums(code, 4)

    @pytest.mark.parametrize("code", [f"R-{code}+G" for code in ALL_ENGINE_CODES if code != "TLQ"])
    def test_every_trading_form_sums_equal_those_of_every_order(self, code):
        """The same for every other ``+G`` form, whose cell trades each
        folded base outcome without folding the trades."""
        self._check_folded_sums(code, 3)

    @staticmethod
    def _check_folded_sums(code, top):
        runner = resolve(code)[0].run
        trade = runner.trade
        for n in range(2, top + 1):
            for p in orbit_profiles(n):
                u = borda_utilities(p)
                every = list(order_stream(n))
                runs = {}
                assert _utility_sums(runner, p, u, "all", runs) == _utility_sums(runner, p, u, every, {}), p
                (base,) = runs.values()
                classes, counts = base
                assert all(fold_outcome(item_of, classes) == item_of for item_of in counts), p
                if trade is not None:
                    traded = refold(base, functools.partial(trade, p))
                    assert traded.classes == classes, p
                    assert all(fold_outcome(item_of, classes) == item_of for item_of in traded.counts), p

    def test_optimum_once_per_profile_and_only_for_loss(self, monkeypatch):
        calls = []
        real = welfare._hungarian_max

        def counted(weight):
            calls.append(weight)
            return real(weight)

        monkeypatch.setattr(welfare, "_hungarian_max", counted)
        rsd, sd, ps = (resolve(code)[0] for code in ("RSD", "SD", "PS"))
        campaign([(rsd, "egal"), (sd, "order_bias"), (ps, "egal_realized")], 4, 30, 1)
        assert calls == []
        campaign([(rsd, "util_loss"), (ps, "util_loss"), (rsd, "egal")], 4, 30, 1)
        assert len(calls) == 30

    def test_loss_on_one_agent_refused(self):
        # the optimum of a one-agent profile is 0, so no loss fraction exists
        with pytest.raises(ValueError, match="n >= 2"):
            utilitarian_loss(resolve("RSD")[0], 1, 5, 0)
        assert expected_egalitarian(resolve("RSD")[0], 1, 5, 0).mean == 0

    def test_unknown_metric_refused(self):
        with pytest.raises(ValueError, match="unknown metric"):
            campaign([(resolve("RSD")[0], "nash")], 4, 5, 0)

    def test_orbit_profiles_refused_on_the_call(self, monkeypatch):
        # Orbits differ in size, so the mean over their least profiles is not
        # the uniform-profile mean: exact RSD loss at n = 3 would read 1/25
        # over the 10 orbits against 19/360 over all 216 profiles.
        monkeypatch.setattr(welfare, "profile_stream", None)  # reached only after the check
        rsd, sd = resolve("RSD")[0], resolve("SD")[0]
        for refused in (
            lambda: campaign([(rsd, "egal"), (sd, "order_bias")], 3, "orbits", 0),
            lambda: utilitarian_loss(rsd, 3, "orbits", 0, orders="all"),
            lambda: expected_egalitarian(rsd, 3, "orbits", 0),
            lambda: order_bias(sd, 3, "orbits", 0),
        ):
            with pytest.raises(ValueError, match='not "orbits"'):
                refused()


def oracle_outcomes(mechanism, profile, orders, runs):
    """``welfare._outcomes`` as it was before drawn orders kept plain
    outcome tuples, but with no run shared between X and X+G: a
    ``ClassCounts`` of singleton classes per drawn run of the mechanism
    itself, a ``+G`` run traded whole by calling its Runner; the reference
    for ``campaign``."""
    counts = runs.get(id(mechanism))
    if counts is None:
        if orders == "all":
            counts = exact_counts(mechanism.run, profile)
        else:
            run, tally = mechanism.run, {}
            for order in orders:
                out = run(profile, order).item_of
                tally[out] = tally.get(out, 0) + 1
            counts = ClassCounts(singleton_classes(profile.n), tally)
        runs[id(mechanism)] = counts
    return counts


def oracle_utility_sums(mechanism, profile, u, orders, runs):
    """``welfare._utility_sums`` as it was, over ``oracle_outcomes``."""
    if mechanism.kind == "fractional":
        sums, scale = _utility_rows(mechanism.assignment(profile), u)
        return sums, scale, min(sums)
    classes, counts = oracle_outcomes(mechanism, profile, orders, runs)
    sums = [0] * profile.n
    worst = 0
    for item_of, c in counts.items():
        values = [row[o] for row, o in zip(u, item_of)]
        worst += c * min(values)
        for i, v in enumerate(values):
            sums[i] += c * v
    total = sum(counts.values())
    if len(classes) < profile.n:
        spread = spread_size(classes)
        for members in classes:
            each = spread // len(members) * sum(sums[a] for a in members)
            for a in members:
                sums[a] = each
        total, worst = total * spread, worst * spread
    return sums, total, worst


def oracle_campaign(cells, n, profiles, seed, orders):
    """The per-profile loop of ``campaign`` as it was, over
    ``oracle_utility_sums`` and ``oracle_outcomes``, bias cells included;
    it checks no argument."""
    ratios = [i for i, (_, metric) in enumerate(cells) if metric != "order_bias"]
    biased = [i for i, (m, metric) in enumerate(cells) if metric == "order_bias" and m.uses_order]
    sampled = orders != "all" and any(cells[i][0].kind == "matching" for i in ratios)
    draw = permutation_drawer(random.Random(seed ^ welfare._ORDER_SEED), n)
    nums = {i: [] for i in ratios}
    dens = {i: [] for i in ratios}
    pos_sums = {i: [0] * n for i in biased}
    pos_squares = {i: [0] * n for i in biased}
    identity = [AgentOrder.identity(n)]
    count = 0
    for p in profile_stream(n, profiles, seed):
        count += 1
        u = borda_utilities(p)
        opt = optimal_utilitarian(p)[0].numerator
        drawn = [AgentOrder(draw()) for _ in range(orders)] if sampled else orders
        got, runs = {}, {}
        for i in ratios:
            mech, metric = cells[i]
            if id(mech) not in got:
                got[id(mech)] = oracle_utility_sums(mech, p, u, drawn, runs)
            sums, total, worst = got[id(mech)]
            if metric == "util_loss":
                nums[i].append(opt * total - sum(sums))
                dens[i].append(opt * total)
            else:
                nums[i].append(worst if metric == "egal_realized" else min(sums))
                dens[i].append(total * n)
        fixed = {}
        for i in biased:
            (item_of,) = oracle_outcomes(cells[i][0], p, identity, fixed).counts
            for pos, prefs in enumerate(p.agent_prefs):
                w = n - 1 - prefs.index(item_of[pos])
                pos_sums[i][pos] += w
                pos_squares[i][pos] += w * w
    results = [welfare.WelfareStats(Fraction(0), 0.0)] * len(cells)
    for i in ratios:
        results[i] = _ratio_stats(nums[i], dens[i])
    for i in biased:
        results[i] = _bias_stats(pos_sums[i], pos_squares[i], count)
    return results


ONE_SIDED = ALL_ENGINE_CODES + ("SD", "NB")


class TestCampaignOracle:
    """Every one-sided code, randomized and bare, with and without ``+G``,
    and PS, under every metric in one pass: the campaign's values equal
    those of ``oracle_campaign``."""

    @pytest.mark.parametrize("orders", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_one_sided_code_and_metric(self, n, orders):
        forms = [code + g for code in ONE_SIDED for g in ("", "+G")]
        mechs = {code: resolve(code)[0] for code in ["R-" + f for f in forms] + forms + ["PS"]}
        cells = [(mechs[code], metric)
                 for code in ["R-" + f for f in forms] + ["PS"]
                 for metric in ("util_loss", "egal", "egal_realized")]
        cells += [(mechs[code], "order_bias") for code in forms + ["PS"]]
        want = oracle_campaign(cells, n, 30, 40 + n, orders)
        assert list(map(_exact, campaign(cells, n, 30, 40 + n, orders))) == list(map(_exact, want))


def fraction_stats(values):
    """Mean and standard error with ``Fraction`` sums: the accounting the
    integer statistics replaced, kept as their reference."""
    n = len(values)
    mean = sum(values, Fraction(0)) / n
    if n < 2:
        return mean, 0.0
    var = sum((float(x - mean)) ** 2 for x in values) / (n - 1)
    return mean, math.sqrt(var / n)


def fraction_bias(utilities):
    """Order bias and its standard error with ``Fraction`` means, from each
    profile's row of Borda utilities by position; the reference for
    ``_bias_stats``."""
    count, n = len(utilities), len(utilities[0])
    sums, sumsq = [Fraction(0)] * n, [0.0] * n
    for row in utilities:
        for pos, w in enumerate(row):
            sums[pos] += w
            sumsq[pos] += float(w) * w
    means = [s / count for s in sums]
    hi = max(range(n), key=lambda i: means[i])
    lo = min(range(n), key=lambda i: means[i])

    def se(i):
        if count < 2:
            return 0.0
        var = (sumsq[i] - count * float(means[i]) ** 2) / (count - 1)
        return math.sqrt(max(var, 0.0) / count)

    return (means[hi] - means[lo]) / n, math.sqrt(se(hi) ** 2 + se(lo) ** 2) / n


_ratio = st.tuples(
    st.one_of(st.integers(-10**6, 10**6), st.integers(-10**40, 10**40)),
    st.one_of(st.integers(1, 60), st.integers(1, 10**30)),
)
_ratio_lists = st.one_of(
    st.lists(_ratio, min_size=1, max_size=1),
    st.lists(_ratio, min_size=1, max_size=40),
    # one value written over several denominators
    st.builds(lambda r, ks: [(r[0] * k, r[1] * k) for k in ks],
              _ratio, st.lists(st.integers(1, 10**9), min_size=1, max_size=20)),
)


class TestIntegerStatistics:
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(_ratio_lists)
    def test_ratio_stats_equal_fraction_stats(self, pairs):
        got = _ratio_stats([a for a, _ in pairs], [b for _, b in pairs])
        mean, stderr = fraction_stats([F(a, b) for a, b in pairs])
        assert type(got.mean) is Fraction and got.mean == mean
        assert repr(got.stderr) == repr(stderr)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=1, max_size=30)))
    def test_bias_stats_equal_fraction_bias(self, utilities):
        n = len(utilities[0])
        sums = [sum(row[pos] for row in utilities) for pos in range(n)]
        squares = [sum(row[pos] ** 2 for row in utilities) for pos in range(n)]
        got = _bias_stats(sums, squares, len(utilities))
        bias, stderr = fraction_bias(utilities)
        assert got.mean == bias and repr(got.stderr) == repr(stderr)
