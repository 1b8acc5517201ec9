"""Borda welfare metrics, the assignment optimum, and the sampling campaigns."""
import itertools
import random
from fractions import Fraction

import pytest

from propmatch import (
    AgentOrder,
    Matching,
    profile,
    proportional_assignment,
    serial_dictatorship,
)
from propmatch.axioms import is_pareto_efficient
from propmatch.experiments import ExperimentConfig, run_experiment
from propmatch.registry import resolve
from propmatch.welfare import (
    borda_utilities,
    egalitarian_welfare,
    expected_egalitarian,
    optimal_utilitarian,
    order_bias,
    utilitarian_loss,
    utilitarian_welfare,
)

F = Fraction


def brute_force_optimum(p):
    n = p.n
    best = -1
    for perm in itertools.permutations(range(n)):
        best = max(best, int(utilitarian_welfare(Matching(perm), p)))
    return best


def random_profile(rng, n):
    prefs = []
    for _ in range(n):
        pr = list(range(n))
        rng.shuffle(pr)
        prefs.append(pr)
    return profile(prefs)


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

    def run(self, p, order):
        return optimal_utilitarian(p)[1]


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


class TestCountsRefused:
    """A profile or order count below 1 raises on the call, also where the
    mechanism never reads it (order_bias on PS draws no profile)."""

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

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize("campaign", [utilitarian_loss, expected_egalitarian])
    def test_order_count(self, campaign, count):
        mech, _ = resolve("RSD")
        with pytest.raises(ValueError, match="order count"):
            campaign(mech, 4, 5, 0, orders=count)


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
