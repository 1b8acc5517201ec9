"""Borda welfare metrics, the assignment optimum, and the sampling campaigns."""
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
from propmatch.experiments import ExperimentConfig, run_experiment
from propmatch import welfare
from propmatch.registry import resolve
from propmatch.sampling import ProfileSampler
from propmatch.welfare import (
    _bias_stats,
    _ratio_stats,
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

    def test_order_bias_over_all_profiles(self):
        # n = 2, order (0, 1): agent 0 always gets its top (Borda 1); agent 1
        # gets its top only when the two tops differ, in 2 of the 4 profiles.
        sd, _ = resolve("SD")
        stats = order_bias(sd, 2, "all", 0)
        assert stats.mean == (F(1) - F(1, 2)) / 2
        # position 0 never varies; position 1 has sample variance 1/3 over 4 profiles
        assert stats.stderr == pytest.approx(math.sqrt(F(1, 3) / 4) / 2)


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


def _exact(stats):
    return str(stats.mean), repr(stats.stderr)


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

    def test_optimum_once_per_profile_and_only_for_loss(self, monkeypatch):
        calls = []
        real = welfare.optimal_utilitarian

        def counted(p, utilities=None):
            calls.append(p)
            return real(p, utilities)

        monkeypatch.setattr(welfare, "optimal_utilitarian", counted)
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
