"""Dominance, efficiency, strategyproofness, and worst-off-guarantee checkers,
each validated against an independent brute-force oracle where one exists."""
import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

from propmatch import Matching, Profile, axioms, probabilistic_serial, profile
from propmatch.axioms import (
    Dominance,
    SPVerdict,
    check_strategyproofness,
    feasible_top_k,
    first_inefficient_order,
    is_lottery_ordinally_efficient,
    is_ordinally_efficient,
    is_pareto_efficient,
    satisfies_conditional_bound,
    sd_dominates,
)
from propmatch.engine import ALL_ENGINE_CODES
from propmatch.lottery import EnumerationLimitError, exact_lottery, order_stream
from propmatch.model import InvalidInstanceError
from propmatch.registry import resolve
from propmatch.sampling import all_profiles, orbit_profiles

from conftest import random_permutation, random_profile

F = Fraction


def random_rational_row(rng, n):
    cuts = sorted(rng.randint(0, 24) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [24])]
    return tuple(F(x, 24) for x in parts)


class TestSDDominance:
    def test_equal_rows(self):
        row = (F(1, 2), F(1, 4), F(1, 4))
        assert sd_dominates(row, row, (0, 1, 2)) is Dominance.EQUAL

    def test_top_beats_second(self):
        assert (
            sd_dominates((F(1), F(0), F(0)), (F(0), F(1), F(0)), (0, 1, 2))
            is Dominance.STRICTLY_DOMINATES
        )

    def test_prefix_computation(self):
        p = (F(1, 4), F(1, 2), F(1, 4), F(0))
        q = (F(1, 4), F(0), F(1, 2), F(1, 4))
        assert sd_dominates(p, q, (0, 1, 2, 3)) is Dominance.STRICTLY_DOMINATES
        assert sd_dominates(q, p, (0, 1, 2, 3)) is Dominance.DOMINATED_BY

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sd_dominates((F(1),), (F(1), F(0)), (0, 1))

    def test_partial_order_laws(self):
        rng = random.Random(31)
        pref = (0, 1, 2, 3)
        rows = [random_rational_row(rng, 4) for _ in range(40)]
        # the same rows as integer counts over one common denominator
        scale = math.lcm(*(x.denominator for row in rows for x in row))
        counts = {row: tuple(int(x * scale) for x in row) for row in rows}
        for p in rows:
            assert sd_dominates(p, p, pref) is Dominance.EQUAL  # reflexive (weak)
        for p, q in itertools.combinations(rows, 2):
            v, w = sd_dominates(p, q, pref), sd_dominates(q, p, pref)
            assert sd_dominates(counts[p], counts[q], pref) is v
            flip = {
                Dominance.STRICTLY_DOMINATES: Dominance.DOMINATED_BY,
                Dominance.DOMINATED_BY: Dominance.STRICTLY_DOMINATES,
                Dominance.EQUAL: Dominance.EQUAL,
                Dominance.INCOMPARABLE: Dominance.INCOMPARABLE,
            }
            assert w is flip[v]  # antisymmetric
        dominating = [
            (p, q)
            for p, q in itertools.permutations(rows, 2)
            if sd_dominates(p, q, pref) in (Dominance.STRICTLY_DOMINATES, Dominance.EQUAL)
        ]
        weak = set(map(lambda pq: (rows.index(pq[0]), rows.index(pq[1])), dominating))
        for a, b in weak:  # transitive
            for c in range(len(rows)):
                if (b, c) in weak:
                    assert (a, c) in weak


def brute_force_pareto(m: Matching, p: Profile) -> bool:
    """Oracle: search all matchings for a Pareto improvement."""
    n = p.n
    for perm in itertools.permutations(range(n)):
        if perm == m.item_of:
            continue
        diffs = [p.rank(a, perm[a]) - p.rank(a, m.item_of[a]) for a in range(n)]
        if all(d <= 0 for d in diffs) and any(d < 0 for d in diffs):
            return False
    return True


class TestParetoEfficiency:
    def test_trade_example(self, trio):
        assert not is_pareto_efficient(Matching((2, 1, 0)), trio)
        assert is_pareto_efficient(Matching((2, 0, 1)), trio)

    def test_all_tops(self):
        p = profile([[0, 1], [1, 0]])
        assert is_pareto_efficient(Matching((0, 1)), p)

    def test_matching_of_another_size_refused(self, trio):
        with pytest.raises(InvalidInstanceError, match="endowment size mismatch"):
            is_pareto_efficient(Matching((1, 0)), trio)

    def test_agrees_with_brute_force_exhaustive_n3(self):
        matchings = [Matching(perm) for perm in itertools.permutations(range(3))]
        for p in all_profiles(3):
            for m in matchings:
                assert is_pareto_efficient(m, p) == brute_force_pareto(m, p)

    @pytest.mark.parametrize("n", [4, 5])
    def test_agrees_with_brute_force_sampled(self, n):
        rng = random.Random(300 + n)
        for _ in range(20):
            p = random_profile(rng, n)
            m = Matching(tuple(random_permutation(rng, n)))
            assert is_pareto_efficient(m, p) == brute_force_pareto(m, p)


def brute_force_ordinal(assignment, p: Profile) -> bool:
    """Oracle: look for an improving trading cycle of probability shares.

    A cycle of items x1 -> x2 -> ... -> xk -> x1 improves the assignment when,
    for each step, some agent holds a positive share of x_{j+1} and prefers
    x_j to it; shifting shares around the cycle then helps every participant.
    """
    n = p.n
    wants_over = [[False] * n for _ in range(n)]  # wants_over[x][y]
    for i in range(n):
        for y in range(n):
            if assignment.p[i][y] > 0:
                for x in p.agent_prefs[i]:
                    if x == y:
                        break
                    wants_over[x][y] = True
    for k in range(2, n + 1):
        for cycle in itertools.permutations(range(n), k):
            if all(wants_over[cycle[j]][cycle[(j + 1) % k]] for j in range(k)):
                return False
    return True


class TestOrdinalEfficiency:
    def test_split_pair_pool_is_inefficient(self):
        # two agents rank the pool a>b>c>d, two rank it a>b>d>c; the uniform
        # draw assigns everyone shares of both c and d
        p = profile([[0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 3, 2], [0, 1, 3, 2]])
        sd, _ = resolve("SD")
        lot = exact_lottery(sd.run, p).assignment
        assert not is_ordinally_efficient(lot, p)

    def test_eating_outcome_is_ordinally_efficient(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 5)
            p = random_profile(rng, n)
            assert is_ordinally_efficient(probabilistic_serial(p), p)

    def test_efficient_permutation_matrix(self, trio):
        from propmatch import matching_to_assignment

        assert is_ordinally_efficient(matching_to_assignment(Matching((2, 0, 1))), trio)

    def test_agrees_with_cycle_search_n3(self):
        sd, _ = resolve("SD")
        for i, p in enumerate(all_profiles(3)):
            if i % 7:  # thin the sweep; still >30 profiles
                continue
            for assignment in (exact_lottery(sd.run, p).assignment, probabilistic_serial(p)):
                assert is_ordinally_efficient(assignment, p) == brute_force_ordinal(assignment, p)


class TestStrategyproofness:
    def test_serial_dictatorship_lottery_strategyproof_n3(self):
        sd, _ = resolve("SD")
        for i, p in enumerate(all_profiles(3)):
            if i % 11:  # sampled here; the exhaustive sweep runs in acceptance
                continue
            for agent in range(3):
                report = check_strategyproofness(sd.run, p, agent)
                assert report.overall is SPVerdict.STRATEGYPROOF
                assert report.best_deviation() is None

    def test_late_swap_profits_under_accept_last(self):
        ident = profile([[0, 1, 2, 3]] * 4)
        tls, _ = resolve("TLS")
        report = check_strategyproofness(tls.run, ident, 0)
        assert report.overall is SPVerdict.NOT_WEAKLY_SP
        assert report.best_deviation() == (0, 2, 1, 3)

    def test_naive_boston_not_weakly_sp(self):
        nb, _ = resolve("NB")
        p = profile([[0, 1, 2, 3], [0, 1, 2, 3], [2, 0, 1, 3], [0, 2, 1, 3]])
        report = check_strategyproofness(nb.run, p, 3)
        assert report.overall is SPVerdict.NOT_WEAKLY_SP

    def test_identical_lists_weakly_sp_only_under_naive_boston(self):
        """Under NB on three identical lists, agent 0 gets each item with
        probability 1/3 when truthful and b for sure when it reports b first.
        Neither row dominates the other, and no misreport's row dominates the
        truthful one."""
        nb, _ = resolve("NB")
        identical = profile([[0, 1, 2]] * 3)
        swept = {}
        for p in orbit_profiles(3):
            for agent in range(3):
                check_strategyproofness(nb.run, p, agent, swept)
        for memo in (None, {}, swept):
            report = check_strategyproofness(nb.run, identical, 0, memo)
            assert report.overall is SPVerdict.WEAKLY_SP_ONLY

    @pytest.mark.parametrize("code, counts", [
        ("NB", {"STRATEGYPROOF": 30, "WEAKLY_SP_ONLY": 5}),
        ("TFS", {"STRATEGYPROOF": 25, "NOT_WEAKLY_SP": 1, "WEAKLY_SP_ONLY": 9}),
        ("PLS+G", {"STRATEGYPROOF": 25, "NOT_WEAKLY_SP": 5, "WEAKLY_SP_ONLY": 5}),
    ])
    def test_verdict_counts_over_small_orbits(self, code, counts):
        """Verdicts of every agent of every n <= 3 orbit, one memo shared over
        the sweep.  The one n = 1 agent has no misreport and counts as
        strategyproof."""
        mech, _ = resolve(code)
        memo = {}
        verdicts = Counter(
            check_strategyproofness(mech.run, p, agent, memo).overall.name
            for n in (1, 2, 3) for p in orbit_profiles(n) for agent in range(n)
        )
        assert verdicts == counts

    @pytest.mark.parametrize("code", ["SD", "NB", "PFQ", "TLQ", "PLS", "TLS+G", "TFS+G"])
    def test_memo_leaves_every_report_unchanged(self, code):
        """A memo shared over every n <= 3 orbit, and a fresh memo for each
        seeded n = 4 and n = 5 profile, give the reports built without one.
        The n = 5 profile repeats lists, so agents share anchored forms."""
        mech, _ = resolve(code)
        memo = {}
        for n in (1, 2, 3):
            for p in orbit_profiles(n):
                for agent in range(n):
                    assert check_strategyproofness(mech.run, p, agent, memo) == (
                        check_strategyproofness(mech.run, p, agent))
        rng = random.Random(41)
        lists = [random_permutation(rng, 5) for _ in range(3)]
        seeded = [random_profile(rng, 4) for _ in range(3)]
        seeded.append(profile([lists[0], lists[1], lists[0], lists[2], lists[1]]))
        for p in seeded:
            memo = {}
            for agent in range(p.n):
                assert check_strategyproofness(mech.run, p, agent, memo) == (
                    check_strategyproofness(mech.run, p, agent))

    @pytest.mark.parametrize("code", ["GS", "BOS-SEQ"])
    def test_two_sided_reports_bypass_the_memo(self, code):
        """A two-sided profile's rows are built without the memo: each
        agent's report equals the memo-less one, and the memo stays empty."""
        mech, _ = resolve(code)
        rng = random.Random(29)
        for n in (3, 3, 4, 4):
            p = profile(
                [rng.sample(range(n), n) for _ in range(n)],
                [rng.sample(range(n), n) for _ in range(n)],
            )
            memo = {}
            for agent in range(n):
                assert check_strategyproofness(mech.run, p, agent, memo) == (
                    check_strategyproofness(mech.run, p, agent))
            assert memo == {}

    @pytest.mark.parametrize("agent", [-1, 3])
    def test_agent_outside_the_profile_refused(self, agent):
        """Refused by name before any lottery is built: agent -1 would splice
        the profile into 2n - 1 lists, agent n index past its end."""
        def never(profile, order):
            raise AssertionError("ran the mechanism")

        memo = {}
        with pytest.raises(ValueError, match=f"agent {agent} is not one of the n=3 agents"):
            check_strategyproofness(never, profile([[0, 1, 2]] * 3), agent, memo)
        assert memo == {}

    def test_gale_shapley_strategyproof_for_proposers(self):
        """Misreports keep the item side, and agent-proposing deferred
        acceptance is strategyproof for the agents."""
        gs, _ = resolve("GS")
        rng = random.Random(17)
        for n in [3] * 10 + [4] * 10:
            p = profile(
                [rng.sample(range(n), n) for _ in range(n)],
                [rng.sample(range(n), n) for _ in range(n)],
            )
            for agent in range(n):
                assert check_strategyproofness(gs.run, p, agent).overall is SPVerdict.STRATEGYPROOF

    @pytest.mark.parametrize("code", ["SD", "TLS", "NB", "PLQ+G"])
    def test_rows_match_exact_lotteries(self, code, lottery4):
        """The rows are the exact lotteries' receipt counts over n!, and a memo
        leaves the whole report, rows and verdicts, unchanged."""
        mech, _ = resolve(code)
        for p in (lottery4, profile([[0, 1, 2], [1, 0, 2], [0, 2, 1]])):
            total = math.factorial(p.n)
            memo = {}
            for agent in range(p.n):
                report = check_strategyproofness(mech.run, p, agent)
                assert check_strategyproofness(mech.run, p, agent, memo) == report
                assert report.order_count == total
                lot = exact_lottery(mech.run, p)
                assert report.truthful_row == lot.rows[agent]
                assert tuple(F(c, total) for c in report.truthful_row) == lot.assignment.row(agent)
                for misreport, row, _ in report.misreports:
                    prefs = list(p.agent_prefs)
                    prefs[agent] = misreport
                    assert row == exact_lottery(mech.run, profile(prefs)).rows[agent]


class TestFeasibleTopK:
    def test_distinct_tops(self):
        assert feasible_top_k(profile([[0, 1], [1, 0]]), 1)

    @pytest.mark.parametrize("k", [0, 3])
    def test_k_outside_1_to_n_refused(self, k):
        with pytest.raises(ValueError, match="need 1 <= k <= n"):
            feasible_top_k(profile([[0, 1], [1, 0]]), k)

    def test_shared_top(self):
        assert not feasible_top_k(profile([[0, 1], [0, 1]]), 1)

    def test_three_agents_top2(self):
        assert feasible_top_k(profile([[0, 1, 2], [0, 1, 2], [0, 2, 1]]), 2)

    def test_agrees_with_exhaustive_matching_search(self):
        rng = random.Random(55)
        for _ in range(40):
            n = rng.randint(1, 5)
            p = random_profile(rng, n)
            for k in range(1, n + 1):
                oracle = any(
                    all(p.rank(a, perm[a]) < k for a in range(n))
                    for perm in itertools.permutations(range(n))
                )
                assert feasible_top_k(p, k) == oracle


class TestConditionalBound:
    def test_k1_always_satisfied(self):
        for code in ("SD", "NB", "PFS", "TLQ"):
            mech, _ = resolve(code)
            for i, p in enumerate(all_profiles(3)):
                if i % 17:
                    continue
                assert satisfies_conditional_bound(mech.run, p, 1)

    def test_vacuous_when_infeasible(self):
        p = profile([[0, 1, 2], [0, 1, 2], [0, 1, 2]])
        sd, _ = resolve("SD")
        assert satisfies_conditional_bound(sd.run, p, 1)

    def test_known_failure_profile(self):
        p = profile([[0, 1, 2], [0, 1, 2], [0, 2, 1]])
        sd, _ = resolve("SD")
        assert not satisfies_conditional_bound(sd.run, p, 2)
        tls, _ = resolve("TLS")
        assert satisfies_conditional_bound(tls.run, p, 2)


def oracle_inefficient_order(mechanism, p: Profile):
    """Oracle: the first order of ``order_stream`` whose run is not Pareto
    efficient, running the mechanism on every order until one fails."""
    for order in order_stream(p.n):
        if not is_pareto_efficient(mechanism(p, order), p):
            return order
    return None


def oracle_conditional_bound(mechanism, p: Profile, k: int) -> bool:
    """Oracle: the worst-off guarantee checked on every order's run."""
    if not feasible_top_k(p, k):
        return True
    for order in order_stream(p.n):
        m = mechanism(p, order)
        if any(p.rank(j, o) >= k for j, o in enumerate(m.item_of)):
            return False
    return True


STEPPED_CODES = ALL_ENGINE_CODES + ("SD", "NB")
FOLDED_CODES = STEPPED_CODES + tuple(code + "+G" for code in STEPPED_CODES)


def assert_folded_matches_per_order(mechanism, profiles):
    """The folded ``expost`` witness, ``topk`` verdicts for every k and
    ``ordinal`` verdict equal the per-order oracles' on every profile;
    returns how many profiles fail ``expost`` and how many fail some ``topk``,
    so a caller can see that both verdicts were met.  The checkers share one
    ``exact_counts`` walk per (mechanism, profile)."""
    expost_fails = topk_fails = 0
    with mock.patch.object(axioms, "exact_counts", functools.cache(axioms.exact_counts)):
        for p in profiles:
            runs = {order: mechanism(p, order) for order in order_stream(p.n)}
            replay = lambda _p, order: runs[order]  # the oracles share one run per order
            witness = first_inefficient_order(mechanism, p)
            assert witness == oracle_inefficient_order(replay, p), p
            expost_fails += witness is not None
            ks = range(1, p.n + 1)
            verdicts = [satisfies_conditional_bound(mechanism, p, k) for k in ks]
            assert verdicts == [oracle_conditional_bound(replay, p, k) for k in ks], p
            topk_fails += not all(verdicts)
            assert is_lottery_ordinally_efficient(mechanism, p) == is_ordinally_efficient(
                exact_lottery(mechanism, p).assignment, p), p
    return expost_fails, topk_fails


class TestFoldedOutcomesAgainstPerOrder:
    """``first_inefficient_order``, ``satisfies_conditional_bound`` and
    ``is_lottery_ordinally_efficient`` decide on the folded outcomes of
    ``exact_counts``; the oracles run every order, or build the lottery."""

    @pytest.mark.parametrize("code", FOLDED_CODES)
    def test_every_small_orbit(self, code):
        mech, _ = resolve(code)
        profiles = [p for n in (1, 2, 3) for p in orbit_profiles(n)]
        expost_fails, topk_fails = assert_folded_matches_per_order(mech.run, profiles)
        if code in ("PLS", "PLQ", "TLS", "TLQ"):  # accept-last fails on TRIO
            assert expost_fails > 0
        if code not in ("TLS", "TLQ", "TLS+G", "TLQ+G"):
            assert topk_fails > 0

    @pytest.mark.parametrize("code", ["TLS", "PLQ+G", "NB"])
    def test_plain_callable_runs_every_order(self, code):
        """Without a stepper every agent is its own class: the same answers
        from one run per order."""
        runner = resolve(code)[0].run

        def run(p, order):
            return runner(p, order)

        assert not hasattr(run, "stepper")
        profiles = [p for n in (1, 2, 3) for p in orbit_profiles(n)]
        assert_folded_matches_per_order(run, profiles)

    @pytest.mark.parametrize("code", FOLDED_CODES)
    def test_seeded_n4_orbits(self, code):
        mech, _ = resolve(code)
        assert_folded_matches_per_order(mech.run, random.Random(4).sample(list(orbit_profiles(4)), 25))

    @pytest.mark.slow
    @pytest.mark.parametrize("code", FOLDED_CODES)
    def test_every_n4_orbit(self, code):
        mech, _ = resolve(code)
        assert_folded_matches_per_order(mech.run, orbit_profiles(4))

    def test_refused_beyond_the_limit_on_the_call(self):
        """At n = 9 with no top-1 matching, the limit is refused before the
        feasibility check and before any order runs."""
        identical = profile([list(range(9))] * 9)
        assert not feasible_top_k(identical, 1)

        def never(p, order):
            raise AssertionError("ran an order")

        sd, _ = resolve("SD")
        for mechanism in (sd.run, never):
            with pytest.raises(EnumerationLimitError):
                satisfies_conditional_bound(mechanism, identical, 1)
            with pytest.raises(EnumerationLimitError):
                first_inefficient_order(mechanism, identical)
            with pytest.raises(EnumerationLimitError):
                is_lottery_ordinally_efficient(mechanism, identical)
