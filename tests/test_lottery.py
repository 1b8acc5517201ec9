"""Exact and sampled uniform-order lotteries and equivalence testing."""
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propmatch import (
    AgentOrder,
    InvalidInstanceError,
    LotteryResult,
    Matching,
    Profile,
    matching_to_assignment,
    naive_boston_one_sided,
    profile,
    serial_dictatorship,
)
from propmatch import mechanisms, registry
from propmatch.axioms import satisfies_conditional_bound
from propmatch.engine import ALL_ENGINE_CODES
from propmatch.lottery import (
    ClassCounts,
    EnumerationLimitError,
    Runner,
    equivalent_on,
    exact_counts,
    exact_lottery,
    fold_outcome,
    order_stream,
    outcome_counts,
    permutation_drawer,
    randomized_equivalent_on,
    sampled_lottery,
    singleton_classes,
)
from propmatch.mechanisms import (
    _serial_dictatorship,
    immediate_acceptance,
    naive_boston_stepper,
    serial_dictatorship_stepper,
)
from propmatch.registry import resolve
from propmatch.sampling import (
    ProfileSampler,
    all_profiles,
    canonical,
    orbit_profiles,
    profile_stream,
)

from conftest import random_permutation, random_profile

F = Fraction


class TestOrderStream:
    def test_all_orders_lexicographic(self):
        orders = [o.order for o in order_stream(3)]
        assert orders == list(itertools.permutations(range(3)))

    def test_limit_refused_on_call(self):
        with pytest.raises(EnumerationLimitError):
            order_stream(9)
        identical = profile([list(range(9))] * 9)
        sd, _ = resolve("SD")
        with pytest.raises(EnumerationLimitError):  # even with no feasible top-1 matching
            satisfies_conditional_bound(sd.run, identical, 1)

    @pytest.mark.parametrize("count", [0, -1])
    def test_bad_count_refused_on_call(self, count):
        with pytest.raises(ValueError, match="order count"):
            order_stream(3, count, random.Random(0))

    def test_draws_are_seeded_shuffles(self):
        rng, ref = random.Random(4), random.Random(4)
        for order in order_stream(5, 7, rng):
            assert order.order == tuple(random_permutation(ref, 5))
        assert rng.random() == ref.random()

    def test_counts_cover_every_order(self, bench4):
        sd, _ = resolve("SD")
        counts = outcome_counts(sd.run, bench4, order_stream(4))
        assert sum(counts.values()) == 24
        lot = exact_lottery(sd.run, bench4)
        assert tuple((m.item_of, w * 24) for m, w in lot.support) == tuple(sorted(counts.items()))


def reference_draw(rng, n):
    """A permutation of 0..n-1 as ``random.shuffle`` draws it: the oracle for
    ``permutation_drawer``."""
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def reference_sample(n, count, seed):
    """``count`` uniform profiles drawn with ``random.shuffle``, n lists each."""
    rng = random.Random(seed)
    return [Profile(tuple(reference_draw(rng, n) for _ in range(n))) for _ in range(count)]


DRAW_SEEDS = [0, 7, 2**64 + 3]


class TestPermutationDrawer:
    """Every draw is the one ``random.shuffle`` makes, so seeded outputs of
    earlier versions still reproduce."""

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    def test_equals_shuffle(self, seed):
        for n in range(1, 41):
            rng, ref = random.Random(seed), random.Random(seed)
            draw = permutation_drawer(rng, n)
            assert [draw() for _ in range(50)] == [reference_draw(ref, n) for _ in range(50)], n
            assert rng.random() == ref.random(), n

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    def test_profile_stream_equals_shuffled_profiles(self, seed):
        for n in range(1, 10):
            assert list(profile_stream(n, 200, seed)) == reference_sample(n, 200, seed), n

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    def test_orders_equal_shuffles(self, seed):
        for n in range(1, 10):
            ref = random.Random(seed)
            orders = [o.order for o in order_stream(n, 30, random.Random(seed))]
            assert orders == [reference_draw(ref, n) for _ in range(30)], n
            sampler, ref = ProfileSampler(n, seed), random.Random(seed)
            assert sampler.sample_order().order == reference_draw(ref, n)
            assert sampler.sample().agent_prefs == tuple(reference_draw(ref, n) for _ in range(n))

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    def test_sampled_lottery_equals_shuffled_orders(self, bench4, seed):
        sd, _ = resolve("SD")
        ref = random.Random(seed)
        orders = [AgentOrder(reference_draw(ref, 4)) for _ in range(60)]
        rows = [[0] * 4 for _ in range(4)]
        for order in orders:
            for a, o in enumerate(sd.run(bench4, order).item_of):
                rows[a][o] += 1
        want = tuple(tuple(Fraction(c, 60) for c in row) for row in rows)
        assert sampled_lottery(sd.run, bench4, 60, seed) == want


class TestProfileStream:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_is_every_profile_lexicographic(self, n):
        assert list(profile_stream(n, "all")) == list(all_profiles(n))

    @pytest.mark.parametrize("n, k, seed", [(1, 3, 0), (4, 25, 9), (6, 10, 7)])
    def test_count_is_the_seeded_sampler(self, n, k, seed):
        assert list(profile_stream(n, k, seed)) == list(ProfileSampler(n, seed).stream(k))

    @pytest.mark.parametrize(
        "n, profiles, error",
        [
            (0, "all", ValueError),
            (0, 5, ValueError),
            (3, 0, ValueError),
            (3, -1, ValueError),
            (5, "all", EnumerationLimitError),
            (5, "orbits", EnumerationLimitError),
        ],
    )
    def test_refused_on_call(self, n, profiles, error):
        # A generator would raise only when first iterated.
        with pytest.raises(error):
            profile_stream(n, profiles)

    @pytest.mark.parametrize("profiles", ["all", "orbits", 5])
    def test_negative_seed_refused_whatever_the_source(self, profiles):
        # random.Random(-5) draws as random.Random(5) does
        with pytest.raises(ValueError, match="seed >= 0, got -5"):
            profile_stream(3, profiles, -5)
        assert next(profile_stream(3, profiles, 0)).n == 3

    def test_sampler_refuses_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed >= 0, got -5"):
            ProfileSampler(3, -5)


@st.composite
def renamed_prefs(draw):
    """One-sided preferences and a renaming of their agents and items."""
    n = draw(st.integers(1, 6))
    perm = st.permutations(range(n))
    prefs = tuple(tuple(draw(perm)) for _ in range(n))
    agents, items = draw(perm), draw(perm)
    renamed = [None] * n
    for a, row in enumerate(prefs):
        renamed[agents[a]] = tuple(items[o] for o in row)
    return prefs, tuple(renamed)


def oracle_canonical(agent_prefs):
    """``sampling.canonical`` as it was before anchored forms: each agent's
    list in turn renamed to the identity, with the other rows sorted."""
    best = None
    for a, top in enumerate(agent_prefs):
        items = [0] * len(top)
        for rank, x in enumerate(top):
            items[x] = rank
        rest = sorted(
            (tuple([items[x] for x in row]), j) for j, row in enumerate(agent_prefs) if j != a
        )
        key = tuple(row for row, _ in rest)
        if best is None or key < best[0]:
            best = key, (a,) + tuple(j for _, j in rest), tuple(items)
    key, agents, items = best
    return (tuple(range(len(agents))),) + key, agents, items


def oracle_orbit_profiles(n):
    """``sampling.orbit_profiles`` as it was before anchored forms: every
    candidate that is its own canonical form."""
    perms = list(itertools.permutations(range(n)))
    for rest in itertools.combinations_with_replacement(perms, n - 1):
        prefs = (perms[0],) + rest
        if oracle_canonical(prefs)[0] == prefs:
            yield prefs


class TestOrbits:
    @pytest.mark.parametrize("n, count", [(1, 1), (2, 2), (3, 10), (4, 762)])
    def test_one_least_profile_per_orbit(self, n, count):
        orbits = [p.agent_prefs for p in profile_stream(n, "orbits")]
        assert len(orbits) == count
        assert orbits == sorted(orbits)
        assert all(canonical(prefs)[0] == prefs for prefs in orbits)
        assert orbits == list(oracle_orbit_profiles(n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_profile_reaches_a_listed_orbit(self, n):
        least = {canonical(p.agent_prefs)[0] for p in all_profiles(n)}
        assert sorted(least) == [p.agent_prefs for p in orbit_profiles(n)]

    def test_each_call_lists_every_orbit(self):
        first = orbit_profiles(3)
        read = [next(first) for _ in range(4)]
        again = list(orbit_profiles(3))
        assert len(again) == 10 and again[:4] == read
        assert list(first) == again[4:]
        assert list(orbit_profiles(3)) == again

    def test_canonical_matches_oracle(self):
        cases = [p.agent_prefs for n in (1, 2, 3) for p in all_profiles(n)]
        rng = random.Random(15)
        for n in range(4, 9):
            for _ in range(40):
                lists = [tuple(random_permutation(rng, n)) for _ in range(rng.randint(1, n))]
                cases.append(tuple(rng.choice(lists) for _ in range(n)))
        for prefs in cases:
            assert canonical(prefs) == oracle_canonical(prefs), prefs

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(renamed_prefs())
    def test_canonical_ignores_renaming(self, case):
        prefs, renamed = case
        least, agents, items = canonical(prefs)
        assert canonical(renamed)[0] == least
        assert least == tuple(tuple(items[o] for o in prefs[a]) for a in agents)
        assert least <= prefs and least <= renamed


class TestExactLottery:
    def test_distinct_tops_single_support(self):
        p = profile([[0, 1, 2], [1, 0, 2], [2, 1, 0]])
        lot = exact_lottery(serial_dictatorship, p)
        assert lot.support == ((__import__("propmatch").Matching((0, 1, 2)), F(1)),)
        assert lot.order_count == 6

    def test_weights_sum_to_one_and_match_assignment(self, bench4):
        lot = exact_lottery(serial_dictatorship, bench4)
        assert sum(w for _, w in lot.support) == 1
        n = bench4.n
        acc = [[F(0)] * n for _ in range(n)]
        for m, w in lot.support:
            pm = matching_to_assignment(m)
            for a in range(n):
                for o in range(n):
                    acc[a][o] += w * pm.p[a][o]
        assert tuple(tuple(r) for r in acc) == lot.assignment.p

    def test_enumeration_limit(self):
        p = profile([list(range(9))] * 9)
        with pytest.raises(EnumerationLimitError):
            exact_lottery(serial_dictatorship, p)

    def test_symmetry_identical_agents(self):
        rng = random.Random(21)
        sd, _ = resolve("SD")
        for _ in range(20):
            n = rng.randint(2, 4)
            base = random_permutation(rng, n)
            prefs = [base[:] for _ in range(n)]
            for i in range(2, n):  # at least two identical agents remain
                rng.shuffle(prefs[i])
            lot = exact_lottery(sd.run, profile(prefs))
            assert lot.assignment.row(0) == lot.assignment.row(1)

    def test_anonymity_exhaustive_n3(self):
        """Permuting agents permutes the exact lottery rows accordingly."""
        for code in ("PFS", "TLQ"):
            mech, _ = resolve(code)
            for p in itertools.islice(all_profiles(3), 0, 216, 13):
                lot = exact_lottery(mech.run, p).assignment
                for sigma in itertools.permutations(range(3)):
                    permuted = profile([p.agent_prefs[sigma[i]] for i in range(3)])
                    plot = exact_lottery(mech.run, permuted).assignment
                    for i in range(3):
                        assert plot.row(i) == lot.row(sigma[i])


def brute_force_lottery(run, p):
    """The lottery from running every one of the n! orders; its Fraction
    views must equal the probabilities summed here from the same counts."""
    counts = outcome_counts(run, p, order_stream(p.n))
    total = sum(counts.values())
    rows = [[F(0)] * p.n for _ in range(p.n)]
    for item_of, c in counts.items():
        for a, o in enumerate(item_of):
            rows[a][o] += F(c, total)
    support = tuple((Matching(item_of), F(c, total)) for item_of, c in sorted(counts.items()))
    lot = LotteryResult(tuple(sorted(counts.items())), total)
    assert lot.assignment.p == tuple(map(tuple, rows))
    assert lot.support == support
    return lot


@st.composite
def class_profiles(draw):
    """A one-sided profile, n <= 6, whose agents hold 1 to n distinct lists,
    the classes interleaved in index order."""
    n = draw(st.integers(1, 6))
    distinct = draw(st.integers(1, n))
    lists = draw(
        st.lists(st.permutations(range(n)), min_size=distinct, max_size=distinct, unique_by=tuple)
    )
    extra = draw(st.lists(st.integers(0, distinct - 1), min_size=n - distinct, max_size=n - distinct))
    labels = draw(st.permutations(list(range(distinct)) + extra))
    return profile([lists[c] for c in labels])


ONE_SIDED_CODES = ALL_ENGINE_CODES + ("SD", "NB") + tuple(
    code + "+G" for code in ALL_ENGINE_CODES + ("SD", "NB")
)
# Every registry code with discrete runs, ``+G`` forms included, and those
# of them that carry a stepper of their own.
MATCHING_CODES = tuple(
    code for base, mech in registry._BASE.items() if mech.kind == "matching"
    for code in (base, base + "+G")
)
STEPPED_CODES = tuple(code for code in MATCHING_CODES if resolve(code)[0].uses_order)


def fold(stepped, order):
    """The outcome of admitting the agents of ``order`` one at a time to a
    stepper's ``(start, admit, settle)``, then settling."""
    state, admit, settle = stepped
    work = 0
    for agent in order.order:
        state, work = admit(state, work, agent)
    return settle(state, work)


def traded(run, p, item_of):
    """``item_of`` after ``run``'s trade, if it has one (a ``+G`` code)."""
    return item_of if run.trade is None else run.trade(p, item_of)


class TestOrbitLottery:
    """One run per arrangement of identical-agent classes rebuilds the lottery
    of all n! runs."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(class_profiles())
    def test_equals_brute_force(self, p):
        for code in ONE_SIDED_CODES:
            mech, _ = resolve(code)
            assert exact_lottery(mech.run, p) == brute_force_lottery(mech.run, p), code

    @pytest.mark.parametrize("code", ["GS", "BOS-SEQ", "BOS-SIM"])
    def test_two_sided_runs_every_order(self, code):
        # Agents 0 and 1 share a list, but items 0 and 1 rank them oppositely,
        # so the two are not interchangeable.
        p = profile([[0, 1, 2], [0, 1, 2], [2, 0, 1]], [[0, 1, 2], [1, 0, 2], [2, 1, 0]])
        mech, _ = resolve(code)
        lot = exact_lottery(mech.run, p)
        assert lot == brute_force_lottery(mech.run, p)
        # BOS-SEQ is serial dictatorship: it never reads the item side.
        assert (lot.assignment.row(0) == lot.assignment.row(1)) == (code == "BOS-SEQ")

    def test_runs_one_order_per_class_arrangement(self):
        p = profile([[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 2, 3], [1, 0, 2, 3]])
        orders = []

        def sd(pr, order):
            orders.append(order.order)
            return serial_dictatorship(pr, order)

        # A plain callable promises no anonymity, so it runs every order.
        lot = exact_lottery(sd, p)
        assert sorted(orders) == list(itertools.permutations(range(4)))
        assert lot.order_count == 24
        assert lot == brute_force_lottery(serial_dictatorship, p)

        # A stepper is walked over classes {0, 2} and {1, 3}: the 4!/(2! 2!)
        # label sequences AABB ... BBAA reach at most six final states, and
        # folding spreads them over the lottery's 16 outcomes.
        settled = []

        def recording(pr):
            start, admit, settle = serial_dictatorship_stepper(pr)

            def counted(state, work):
                settled.append(state)
                return settle(state, work)

            return start, admit, counted

        stepped = exact_lottery(Runner(_serial_dictatorship, recording), p)
        assert len(settled) <= 6 < len(lot.outcomes)
        assert stepped == lot

    def test_plain_callable_that_is_not_anonymous_runs_every_order(self):
        # Agent 0 always picks first, so agents 0 and 1, who share a list,
        # are not interchangeable: agent 0 gets item 0 on every order.
        def zero_first(pr, order):
            return serial_dictatorship(pr, AgentOrder((0,) + tuple(a for a in order.order if a != 0)))

        p = profile([[0, 1, 2], [0, 1, 2], [1, 0, 2]])
        lot = exact_lottery(zero_first, p)
        assert dict(lot.outcomes) == outcome_counts(zero_first, p, order_stream(3))
        assert lot.rows[0] == (6, 0, 0)


@st.composite
def two_sided_profiles(draw):
    """A two-sided profile, n <= 5, whose agents often share a list."""
    n = draw(st.integers(1, 5))
    lists = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=n))
    agents = draw(st.lists(st.sampled_from(lists), min_size=n, max_size=n))
    items = draw(st.lists(st.permutations(range(n)), min_size=n, max_size=n))
    return profile(agents, items)


class TestSteppedCounts:
    """``exact_counts`` walks order prefixes through each code's stepper."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(two_sided_profiles())
    def test_two_sided_equals_every_order(self, p):
        for code in ("GS", "BOS-SEQ", "BOS-SIM"):
            mech, _ = resolve(code)
            want = ClassCounts(singleton_classes(p.n), outcome_counts(mech.run, p, order_stream(p.n)))
            assert exact_counts(mech.run, p) == want, code

    @pytest.mark.parametrize(
        "code", ALL_ENGINE_CODES + ("SD", "NB", "PLS+G", "TLQ+G", "NB+G", "BOS-SEQ")
    )
    def test_stepper_alone_gives_the_lottery(self, code, bench4, two_sided4):
        mech, _ = resolve(code)
        p = two_sided4 if mech.needs_item_prefs else bench4

        def refuse(profile, order):
            raise AssertionError("a whole run")

        stepped = exact_lottery(Runner(refuse, mech.run.stepper, mech.run.trade), p)
        assert stepped == brute_force_lottery(mech.run, p)

    @pytest.mark.parametrize("code", STEPPED_CODES)
    def test_fold_of_an_order_is_its_run_on_every_orbit(self, code):
        mech, _ = resolve(code)
        for n in (1, 2, 3, 4):
            for p in orbit_profiles(n):
                if mech.needs_item_prefs:  # BOS-SEQ: give the items the agents' lists
                    p = profile(p.agent_prefs, p.agent_prefs)
                stepped = mech.run.stepper(p)
                for order in order_stream(n):
                    assert traded(mech.run, p, fold(stepped, order)) == mech.run(p, order).item_of, (p, order)

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(class_profiles(), st.data())
    def test_fold_of_an_order_is_its_run(self, p, data):
        order = AgentOrder(tuple(data.draw(st.permutations(range(p.n)))))
        for code in STEPPED_CODES:
            mech, _ = resolve(code)
            q = profile(p.agent_prefs, p.agent_prefs) if mech.needs_item_prefs else p
            assert traded(mech.run, q, fold(mech.run.stepper(q), order)) == mech.run(q, order).item_of, code

    def test_only_codes_with_a_stepper_read_the_order(self):
        shared = profile([[0, 1, 2]] * 3)
        for code in MATCHING_CODES:
            mech, _ = resolve(code)
            if mech.uses_order:
                p = profile(shared.agent_prefs, shared.agent_prefs) if mech.needs_item_prefs else shared
                assert len(outcome_counts(mech.run, p, order_stream(3))) >= 2, code
                continue
            # Every two-sided profile renames one whose agent side is an
            # orbit's least member, and renaming keeps the outcome count.
            for n in (1, 2, 3):
                for agents, items in itertools.product(orbit_profiles(n), all_profiles(n)):
                    p = Profile(agents.agent_prefs, items.agent_prefs)
                    assert len(outcome_counts(mech.run, p, order_stream(n))) == 1, (code, p)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nb_stepper_equals_replay_on_every_orbit(self, n):
        # The plain ``naive_boston_one_sided`` is run on every order.
        stepped = Runner(immediate_acceptance, naive_boston_stepper)
        for p in orbit_profiles(n):
            assert exact_lottery(stepped, p) == exact_lottery(naive_boston_one_sided, p), p

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(class_profiles())
    def test_nb_stepper_equals_replay(self, p):
        stepped = Runner(immediate_acceptance, naive_boston_stepper)
        assert exact_lottery(stepped, p) == exact_lottery(naive_boston_one_sided, p)

    @pytest.mark.slow
    def test_nb_at_n8_equals_every_order_and_pfq(self):
        p = random_profile(random.Random(8), 8)
        assert len(set(p.agent_prefs)) == 8  # every agent its own class
        nb, pfq = resolve("NB")[0].run, resolve("PFQ")[0].run
        classes, counts = exact_counts(nb, p)
        assert classes == singleton_classes(8) and len(counts) > 1
        assert counts == outcome_counts(naive_boston_one_sided, p, order_stream(8))
        assert exact_lottery(nb, p) == exact_lottery(pfq, p)

    @pytest.mark.parametrize("code", ["GS", "BOS-SIM", "GS+G", "BOS-SIM+G"])
    def test_order_free_codes_equal_every_order(self, code, two_sided4):
        """GS, BOS-SIM and their ``+G`` forms carry no stepper, and their
        counts are those of every order."""
        mech, _ = resolve(code)
        assert mech.run.stepper is None
        rng = random.Random(6)
        cases = [two_sided4] + [
            Profile(random_profile(rng, n).agent_prefs, random_profile(rng, n).agent_prefs)
            for n in range(1, 7) for _ in range(3)
        ]
        for p in cases:
            want = ClassCounts(singleton_classes(p.n), outcome_counts(mech.run, p, order_stream(p.n)))
            assert exact_counts(mech.run, p) == want, p

    def test_order_free_runner_runs_once(self):
        """On a one-sided profile with a class of three, a Runner without a
        stepper runs once; its counts are every order's outcomes, folded,
        each count over 3!, the orders a class-label sequence stands for."""
        p = profile([[0, 1, 2, 3, 4], [1, 0, 2, 3, 4], [0, 1, 2, 3, 4], [1, 2, 0, 3, 4], [0, 1, 2, 3, 4]])
        calls = []

        def fixed(pr, order):
            calls.append(order.order)
            return _serial_dictatorship(pr, AgentOrder.identity(pr.n))

        classes, counts = exact_counts(Runner(fixed, None), p)
        assert calls == [tuple(range(5))]
        assert classes == ((0, 2, 4), (1,), (3,))
        every = {}
        for item_of, c in outcome_counts(Runner(fixed, None), p, order_stream(5)).items():
            folded = fold_outcome(item_of, classes)
            every[folded] = every.get(folded, 0) + c
        assert {o: c * math.factorial(3) for o, c in counts.items()} == every

    def test_merged_prefixes_keep_the_largest_work(self):
        # Prefixes of one agent set reach one state; the work spells the
        # admitted agents as digits, so it differs between those prefixes.
        last, settled = [], []

        def stepper(p):
            def admit(state, work, agent):
                if work > 9:
                    last.append(work)
                return state, 10 * work + agent + 1

            def settle(state, work):
                settled.append(work)
                return tuple(range(p.n))

            return None, admit, settle

        p = profile([[0, 1, 2], [1, 0, 2], [2, 1, 0]])
        counts = exact_counts(Runner(_serial_dictatorship, stepper), p).counts
        assert counts == {(0, 1, 2): 6}
        # The states of {0, 1}, {0, 2} and {1, 2} go on from 21, 31 and 32,
        # and the one final state settles from the largest of 213, 312, 321.
        assert sorted(last) == [21, 31, 32]
        assert settled == [321]

    def test_outcome_that_is_no_matching_refused(self):
        def stepper(p):
            def admit(state, work, agent):
                return state, work

            def settle(state, work):
                return (0,) * p.n  # every agent gets item 0

            return None, admit, settle

        p = profile([[0, 1, 2], [1, 0, 2], [2, 1, 0]])
        # Refused by the lottery itself, before either Fraction view is read.
        with pytest.raises(InvalidInstanceError, match=r"\(0, 0, 0\) is not a matching of 3 items"):
            exact_lottery(Runner(_serial_dictatorship, stepper), p)
        with pytest.raises(InvalidInstanceError):
            LotteryResult((((0, 0, 0), 6),), 6)

    def test_lottery_without_outcomes_refused(self):
        with pytest.raises(InvalidInstanceError, match="at least one outcome"):
            LotteryResult((), 0)

    @pytest.mark.parametrize("order_count", [1, 3])
    def test_counts_not_summing_to_the_order_count_refused(self, order_count):
        with pytest.raises(InvalidInstanceError, match=f"counts must sum to {order_count}"):
            LotteryResult((((0, 1), 1), ((1, 0), 1)), order_count)

    @pytest.mark.parametrize("outcomes", [
        (((1, 0), 1), ((0, 1), 1)),
        (((0, 1), 1), ((0, 1), 1)),
    ], ids=["unsorted", "repeated"])
    def test_outcomes_not_distinct_and_sorted_refused(self, outcomes):
        # Each sums to the order count, and the unsorted one has the rows of
        # the sorted lottery, which it would compare unequal to.
        with pytest.raises(InvalidInstanceError, match="distinct and sorted"):
            LotteryResult(outcomes, 2)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_refused(self, count):
        # Rows and columns of these counts still sum to the order count.
        with pytest.raises(InvalidInstanceError, match=f"needs a count >= 1, got {count}"):
            LotteryResult((((0, 1), 2 - count), ((1, 0), count)), 2)

    @pytest.mark.parametrize("first, other", [
        ((0, 0), (1, 1)),  # balanced rows and columns, but no matching
        ((0, 2), (1, 0)),  # an item index past n - 1
        ((0, -1), (-1, 0)),  # a negative item index, which would wrap
    ])
    def test_outcome_that_is_no_permutation_refused(self, first, other):
        # The outcome depends on which of the two agents is admitted first.
        def stepper(p):
            def admit(state, work, agent):
                return agent if state is None else state, work

            def settle(state, work):
                return first if state == 0 else other

            return None, admit, settle

        p = profile([[0, 1], [1, 0]])
        with pytest.raises(InvalidInstanceError, match="is not a matching of 2 items"):
            exact_lottery(Runner(_serial_dictatorship, stepper), p)


def n7_class_profile(sizes, seed):
    """A one-sided profile on 7 agents whose classes have ``sizes``,
    interleaved in index order.  Each class's list is one base list with a
    different pair of its top four items swapped, so the classes contend for
    the same items."""
    rng = random.Random(seed)
    base = random_permutation(rng, 7)
    lists = []
    for i, j in rng.sample(list(itertools.combinations(range(4), 2)), len(sizes)):
        row = base[:]
        row[i], row[j] = row[j], row[i]
        lists.append(row)
    labels = [c for c, k in enumerate(sizes) for _ in range(k)]
    rng.shuffle(labels)
    return profile([lists[c] for c in labels])


N7_CLASS_SIZES = [(7,), (5, 1, 1), (3, 3, 1), (2, 2, 2, 1)]
# The codes of the fast part; every other stepped code is marked slow.
N7_FAST_CODES = ("SD", "NB", "PFS", "TLQ", "PLS+G", "BOS-SEQ")


class TestWalkAtN7:
    """Past ``class_profiles``' n <= 6: the folded walk at n = 7, spread,
    equals the per-order counts of all 5040 orders.  One class of 7, a
    class beside two singletons, and classes of 3 or 2 reach every edge of
    the integer layer key: a digit at its top, digits of several radices,
    and radix 2."""

    @pytest.mark.parametrize("sizes", N7_CLASS_SIZES)
    @pytest.mark.parametrize("code", [
        code if code in N7_FAST_CODES else pytest.param(code, marks=pytest.mark.slow)
        for code in STEPPED_CODES
    ])
    def test_equals_every_order(self, code, sizes):
        mech, _ = resolve(code)
        p = n7_class_profile(sizes, seed=len(sizes))
        if mech.needs_item_prefs:  # BOS-SEQ: give the items the agents' lists
            p = profile(p.agent_prefs, p.agent_prefs)
        lot = exact_lottery(mech.run, p)
        if not mech.needs_item_prefs:
            assert sorted(map(len, lot.classes), reverse=True) == list(sizes)
        assert dict(lot.outcomes) == outcome_counts(mech.run, p, order_stream(7))


def spread_lottery(run, p):
    """The lottery built from the counts of every one of the n! orders,
    unfolded."""
    counts = outcome_counts(run, p, order_stream(p.n))
    return LotteryResult(tuple(sorted(counts.items())), math.factorial(p.n))


class TestFoldedResult:
    """``exact_lottery`` keeps its counts folded by class; every view of it
    is the one the spread counts give."""

    @pytest.mark.parametrize("code", STEPPED_CODES)
    def test_equals_spread_counts_on_every_orbit(self, code):
        mech, _ = resolve(code)
        folded = 0
        for n in (1, 2, 3, 4):
            for p in orbit_profiles(n):
                if mech.needs_item_prefs:  # BOS-SEQ: give the items the agents' lists
                    p = profile(p.agent_prefs, p.agent_prefs)
                lot, spread = exact_lottery(mech.run, p), spread_lottery(mech.run, p)
                folded += len(lot.classes) < n
                assert lot == spread and spread == lot, p
                assert lot.rows == spread.rows, p
                assert lot.outcomes == spread.outcomes, p
                assert lot.support == spread.support, p
        assert folded == (0 if mech.needs_item_prefs else 300)  # orbits with a shared list

    def test_fold_spreads_over_permutations_within_classes(self):
        # Agents 0 and 2 share a list, as do 1 and 3: the six label sequences
        # AABB ... BBAA give four folded outcomes, each standing for 2! 2!.
        p = profile([[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 2, 3], [1, 0, 2, 3]])
        lot = exact_lottery(resolve("SD")[0].run, p)
        assert lot.classes == ((0, 2), (1, 3))
        assert lot.folded == (((0, 1, 2, 3), 2), ((0, 1, 3, 2), 2), ((0, 2, 1, 3), 1), ((2, 0, 3, 1), 1))
        assert lot.rows == ((10, 2, 6, 6), (2, 10, 6, 6)) * 2
        assert len(lot.outcomes) == 16
        assert dict(lot.outcomes)[(0, 3, 1, 2)] == 1  # (0, 2, 1, 3) with the second class's items swapped
        assert lot == spread_lottery(serial_dictatorship, p)

    def test_representative_out_of_order_refused(self):
        with pytest.raises(InvalidInstanceError, match="ascending order"):
            LotteryResult((((1, 0), 1),), 2, ((0, 1),))
        with pytest.raises(InvalidInstanceError, match="once, ascending"):
            LotteryResult((((0, 1), 1),), 2, ((1, 0),))
        with pytest.raises(InvalidInstanceError, match="counts must sum to 1"):
            LotteryResult((((0, 1), 1),), 1, ((0, 1),))

    @pytest.mark.parametrize("code", ["SD", "NB", "TLQ", "TLQ+G"])
    def test_n8_one_class_builds_nothing_of_8_factorial_size_until_read(self, code):
        p = profile([[3, 1, 4, 0, 5, 2, 7, 6]] * 8)
        run = resolve(code)[0].run
        tracemalloc.start()
        try:
            lot = exact_lottery(run, p)
            rows, assignment = lot.rows, lot.assignment
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert all(c == 5040 for row in rows for c in row)
        assert assignment.scale == 8
        assert len(lot.folded) == 1
        assert len(lot.support) == len(lot.outcomes) == 40320
        assert {c for _, c in lot.outcomes} == {1}


class TestOneTrade:
    """A ``+G`` lottery trades each folded outcome of its base once."""

    @pytest.mark.parametrize("code, name, calls", [
        ("TLQ+G", "lottery4", 2),
        ("PLS+G", "lottery4", 3),
        ("SD+G", "lottery4", 3),
        ("GS+G", "two_sided4", 1),  # order-free bases run once
        ("BOS-SIM+G", "two_sided4", 1),
    ])
    def test_ttc_calls_are_the_folded_base_outcomes(self, code, name, calls, request, monkeypatch):
        p = request.getfixturevalue(name)
        endowments = []
        real = mechanisms.trade

        def counted(profile, endowment):
            endowments.append(endowment)
            return real(profile, endowment)

        monkeypatch.setattr(registry, "trade", counted)  # what ``resolve`` gives a +G Runner
        mech, _ = resolve(code)
        exact_lottery(mech.run, p)
        assert endowments == list(exact_counts(resolve(code[:-2])[0].run, p).counts)
        assert len(endowments) == calls

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(class_profiles(), st.data())
    def test_trade_commutes_with_renaming_within_classes(self, p, data):
        """The fold of a trade depends only on the fold of its endowment, so
        trading one representative stands for trading each outcome it folds."""
        by_prefs = {}
        for a, prefs in enumerate(p.agent_prefs):
            by_prefs.setdefault(prefs, []).append(a)
        classes = tuple(map(tuple, by_prefs.values()))
        endowment = tuple(data.draw(st.permutations(range(p.n))))

        def ttc(item_of):
            return mechanisms.top_trading_cycles(p, Matching(item_of)).item_of

        folded = fold_outcome(endowment, classes)
        assert fold_outcome(ttc(endowment), classes) == fold_outcome(ttc(folded), classes)


class TestSampledLottery:
    def test_deterministic_given_seed(self, bench4):
        sd, _ = resolve("SD")
        assert sampled_lottery(sd.run, bench4, 100, 42) == sampled_lottery(sd.run, bench4, 100, 42)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_count_below_one_refused(self, bench4, samples):
        sd, _ = resolve("SD")
        with pytest.raises(ValueError, match="order count"):
            sampled_lottery(sd.run, bench4, samples, 0)

    def test_negative_seed_refused(self, bench4):
        sd, _ = resolve("SD")
        with pytest.raises(ValueError, match="seed >= 0, got -3"):
            sampled_lottery(sd.run, bench4, 50, -3)

    def test_single_agent(self):
        sd, _ = resolve("SD")
        freq = sampled_lottery(sd.run, profile([[0]]), 5, 1)
        assert freq == ((F(1),),)

    def test_rows_sum_to_one(self, bench4):
        sd, _ = resolve("SD")
        freq = sampled_lottery(sd.run, bench4, 200, 3)
        for row in freq:
            assert sum(row) == 1

    def test_consistent_with_exact_within_3_sigma(self, bench4):
        sd, _ = resolve("SD")
        N = 24 * 200
        freq = sampled_lottery(sd.run, bench4, N, 7)
        exact = exact_lottery(sd.run, bench4).assignment
        for a in range(4):
            for o in range(4):
                p = float(exact.p[a][o])
                sigma = math.sqrt(max(p * (1 - p), 1e-12) / N)
                assert abs(float(freq[a][o]) - p) <= max(3 * sigma, 1e-9)

    @pytest.mark.parametrize(
        "samples, seed, rows",
        [
            (30, 5, ("1/3 3/10 0 11/30", "13/30 4/15 0 3/10", "7/30 13/30 0 1/3", "0 0 1 0")),
            (7, 2, ("4/7 2/7 0 1/7", "0 3/7 0 4/7", "3/7 2/7 0 2/7", "0 0 1 0")),
        ],
    )
    def test_pinned_rows_tlq_g(self, bench4, samples, seed, rows):
        mech, _ = resolve("TLQ+G")
        freq = sampled_lottery(mech.run, bench4, samples, seed)
        assert tuple(" ".join(str(x) for x in row) for row in freq) == rows


class TestEquivalence:
    def test_pfs_equals_sd_over_all_n3(self):
        pfs, _ = resolve("PFS")
        sd, _ = resolve("SD")
        assert equivalent_on(pfs.run, sd.run, all_profiles(3), orders="all").equal

    def test_tfq_tlq_differ_with_witness(self):
        tfq, _ = resolve("TFQ")
        tlq, _ = resolve("TLQ")
        verdict = equivalent_on(tfq.run, tlq.run, all_profiles(3), orders="all")
        assert not verdict.equal
        assert verdict.profile is not None and verdict.order is not None
        order = verdict.order
        assert tfq.run(verdict.profile, order) != tlq.run(verdict.profile, order)

    @pytest.mark.parametrize(
        "profiles, prefs, order",
        [
            (lambda: all_profiles(3), ((0, 1, 2), (0, 1, 2), (0, 1, 2)), (0, 2, 1)),
            (
                lambda: ProfileSampler(4, 9).stream(100),
                ((2, 1, 0, 3), (1, 2, 0, 3), (3, 2, 0, 1), (3, 0, 2, 1)),
                (2, 1, 0, 3),
            ),
        ],
    )
    def test_pinned_sampled_order_witness(self, profiles, prefs, order):
        tfq, _ = resolve("TFQ")
        tlq, _ = resolve("TLQ")
        verdict = equivalent_on(tfq.run, tlq.run, profiles(), orders=4, seed=9)
        assert not verdict.equal
        assert (verdict.profile.agent_prefs, verdict.order.order) == (prefs, order)

    @pytest.mark.parametrize("orders", ["all", 4])
    def test_negative_seed_refused(self, orders):
        tfq, _ = resolve("TFQ")
        with pytest.raises(ValueError, match="seed >= 0, got -1"):
            equivalent_on(tfq.run, tfq.run, [], orders=orders, seed=-1)

    def test_randomized_comparison_uses_exact_matrices(self, lottery4):
        tls, _ = resolve("TLS")
        tlq, _ = resolve("TLQ")
        # coincide on this profile, differ on another
        assert randomized_equivalent_on(tls.run, tlq.run, [lottery4]).equal
        witness = profile([[0, 1, 2], [0, 2, 1], [1, 0, 2]])
        assert not randomized_equivalent_on(tls.run, tlq.run, [witness]).equal
