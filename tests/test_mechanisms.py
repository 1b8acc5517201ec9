"""Serial dictatorship, one-sided naive Boston, probabilistic serial, top
trading cycles, and the trade-on-output composition."""
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propmatch import (
    AgentOrder,
    FractionalAssignment,
    Matching,
    Profile,
    compose_ttc,
    naive_boston_one_sided,
    probabilistic_serial,
    profile,
    proportional_assignment,
    serial_dictatorship,
    top_trading_cycles,
)
from propmatch import registry
from propmatch.engine import (
    ALL_ENGINE_CODES,
    BostonMode,
    EngineConfig,
    run_boston_two_sided,
    run_engine,
    run_gale_shapley,
)
from propmatch.axioms import is_pareto_efficient
from propmatch.lottery import exact_lottery
from propmatch.model import InvalidInstanceError
from propmatch.registry import resolve
from propmatch.sampling import all_profiles, orbit_profiles

from conftest import random_permutation, random_profile

IDENT = AgentOrder.identity
F = Fraction


class TestSerialDictatorship:
    def test_bench(self, bench4):
        assert serial_dictatorship(bench4, IDENT(4)).item_of == (0, 1, 2, 3)

    def test_distinct_tops(self):
        p = profile([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        for perm in itertools.permutations(range(3)):
            assert serial_dictatorship(p, AgentOrder(perm)).item_of == (0, 1, 2)

    def test_dictatorship_by_position(self):
        p = profile([[0, 1, 2]] * 3)
        m = serial_dictatorship(p, AgentOrder((2, 0, 1)))
        assert m.item_of == (1, 2, 0)

    def test_output_pareto_efficient_exhaustive_n3(self):
        for p in all_profiles(3):
            for perm in itertools.permutations(range(3)):
                assert is_pareto_efficient(serial_dictatorship(p, AgentOrder(perm)), p)


class TestNaiveBoston:
    def test_bench(self, bench4):
        assert naive_boston_one_sided(bench4, IDENT(4)).item_of == (0, 2, 3, 1)

    def test_distinct_tops(self):
        p = profile([[0, 1], [1, 0]])
        assert naive_boston_one_sided(p, IDENT(2)).item_of == (0, 1)

    def test_uncontested_later_round_item_kept(self, lottery4):
        # agent 4 loses its top to an earlier agent, then gets its second
        # choice uncontested in round 2
        row = exact_lottery(naive_boston_one_sided, lottery4).assignment.row(3)
        assert row == (F(1, 4), F(0), F(3, 4), F(0))


class TestProbabilisticSerial:
    def test_bench_rows(self, bench4):
        a = probabilistic_serial(bench4)
        assert a.row(0) == (F(1, 3), F(1, 6), F(1, 4), F(1, 4))
        assert a.row(3) == (F(0), F(1, 2), F(1, 4), F(1, 4))

    def test_distinct_tops_two_agents(self):
        a = probabilistic_serial(profile([[0, 1], [1, 0]]))
        assert a.p == ((F(1), F(0)), (F(0), F(1)))

    def test_identical_preferences_proportional(self):
        for n in (2, 3, 5):
            p = profile([list(range(n))] * n)
            assert probabilistic_serial(p) == proportional_assignment(n)

    def test_exactly_doubly_stochastic_random(self):
        # the FractionalAssignment constructor enforces exact sums
        rng = random.Random(11)
        for _ in range(40):
            probabilistic_serial(random_profile(rng, rng.randint(1, 7)))

    def test_identical_agents_get_identical_rows(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(2, 6)
            p = random_profile(rng, n)
            prefs = list(p.agent_prefs)
            prefs[1] = prefs[0]
            a = probabilistic_serial(profile(prefs))
            assert a.row(0) == a.row(1)


class TestTopTradingCycles:
    def test_three_agent_trade(self, trio):
        # agents 2 and 3 swap; agent 1 keeps its endowment
        m = top_trading_cycles(trio, Matching((2, 1, 0)))
        assert m.item_of == (2, 0, 1)

    def test_endowment_of_another_size_refused(self, trio):
        with pytest.raises(InvalidInstanceError, match="endowment size mismatch"):
            top_trading_cycles(trio, Matching((1, 0)))

    def test_efficient_endowment_is_fixed_point(self, trio):
        eff = Matching((2, 0, 1))
        assert top_trading_cycles(trio, eff) == eff

    def test_no_mutually_improving_trade_for_two(self):
        p = profile([[0, 1], [0, 1]])
        m = top_trading_cycles(p, Matching((1, 0)))
        assert m.item_of == (1, 0)

    def test_fixed_point_property(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 8)
            p = random_profile(rng, n)
            endow = random_permutation(rng, n)
            out = top_trading_cycles(p, Matching(tuple(endow)))
            assert top_trading_cycles(p, out) == out

    def test_individual_rationality(self):
        rng = random.Random(14)
        for _ in range(60):
            n = rng.randint(1, 8)
            p = random_profile(rng, n)
            endow = random_permutation(rng, n)
            out = top_trading_cycles(p, Matching(tuple(endow)))
            for a in range(n):
                assert p.rank(a, out.item_of[a]) <= p.rank(a, endow[a])


@st.composite
def endowed_profiles(draw, max_n):
    """A one-sided profile with n <= ``max_n`` and an endowment matching."""
    n = draw(st.integers(1, max_n))
    perm = st.permutations(range(n))
    return profile([draw(perm) for _ in range(n)]), Matching(tuple(draw(perm)))


class TestTopTradingCyclesProperties:
    """Shapley-Scarf: TTC's output is individually rational against the
    endowment, and no matching Pareto-dominates it."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(endowed_profiles(10))
    def test_individually_rational(self, case):
        p, endowment = case
        out = top_trading_cycles(p, endowment)
        for a in range(p.n):
            assert p.rank(a, out.item_of[a]) <= p.rank(a, endowment.item_of[a])

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(endowed_profiles(6))
    def test_no_matching_pareto_dominates(self, case):
        # Brute force over all n! matchings, independent of is_pareto_efficient
        # (itself a TTC fixed-point test).
        p, endowment = case
        out = top_trading_cycles(p, endowment)
        ranks = [p.rank(a, o) for a, o in enumerate(out.item_of)]
        for other in itertools.permutations(range(p.n)):
            others = [p.rank(a, o) for a, o in enumerate(other)]
            assert not (others != ranks and all(x <= y for x, y in zip(others, ranks))), other


def per_step_eating(p):
    """Probabilistic serial as first written: every eater's share grows by
    each step's length; the reference for the one-write kernel."""
    n = p.n
    remaining = [F(1)] * n
    shares = [[F(0)] * n for _ in range(n)]
    t = F(0)
    while t < 1:
        eating = [next(x for x in p.agent_prefs[j] if remaining[x] > 0) for j in range(n)]
        eaters = {}
        for j, o in enumerate(eating):
            eaters.setdefault(o, []).append(j)
        dt = min([remaining[o] / len(js) for o, js in eaters.items()] + [F(1) - t])
        for o, js in eaters.items():
            for j in js:
                shares[j][o] += dt
            remaining[o] -= dt * len(js)
        t += dt
    return tuple(tuple(row) for row in shares)


@st.composite
def class_profiles(draw, max_n):
    """A one-sided profile with n <= ``max_n`` whose agents share a few
    preference lists, so classes of identical agents are common."""
    n = draw(st.integers(1, max_n))
    lists = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=n))
    return profile([draw(st.sampled_from(lists)) for _ in range(n)])


class TestProbabilisticSerialProperties:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.one_of(class_profiles(10), endowed_profiles(10).map(lambda case: case[0])))
    def test_equals_per_step_eating(self, p):
        assert probabilistic_serial(p).p == per_step_eating(p)

    # The common denominator grows with n, so a missed rescale of the integer
    # clock or supplies shows at sizes the drawn profiles above do not reach.
    @pytest.mark.parametrize("n", [12, 16, 20, 24])
    def test_equals_per_step_eating_at_larger_n(self, n):
        rng = random.Random(n)
        for shared in (n, n, 5, 3, 2, 1):  # agents sharing lists tie at exhaustions
            lists = [random_permutation(rng, n) for _ in range(shared)]
            p = profile([rng.choice(lists) for _ in range(n)])
            got = probabilistic_serial(p)
            want = per_step_eating(p)
            assert got.p == want
            assert got.scale == math.lcm(*(x.denominator for row in want for x in row))


def oracle_probabilistic_serial(p):
    """Probabilistic serial as it was before finished shares were rescaled
    once at the end: the whole n x n share matrix is rescaled on every
    event that is not integral, and the result goes through the checked
    constructor; the reference for ``probabilistic_serial``."""
    n = p.n
    shares = [[0] * n for _ in range(n)]
    scale, t, left, since = 1, 0, [1] * n, [0] * n
    rest = [iter(row) for row in p.agent_prefs]
    eating = [next(row) for row in rest]
    eaters = [eating.count(o) for o in range(n)]
    while True:
        num, k = scale - t, 1
        for o, c in enumerate(eaters):
            if c and left[o] * k < num * c:
                num, k = left[o], c
        if num % k:
            m = k // math.gcd(num, k)
            scale, t, num = scale * m, t * m, num * m
            left, since = [x * m for x in left], [x * m for x in since]
            shares = [[x * m for x in row] for row in shares]
        dt = num // k
        t += dt
        if t == scale:
            break
        left = [x - dt * c for x, c in zip(left, eaters)]
        for j, o in enumerate(eating):
            if not left[o]:
                shares[j][o] = t - since[j]
                since[j] = t
                nxt = eating[j] = next(filter(left.__getitem__, rest[j]))
                eaters[o] -= 1
                eaters[nxt] += 1
    for j, o in enumerate(eating):
        shares[j][o] = scale - since[j]
    return FractionalAssignment(shares, scale)


class TestProbabilisticSerialOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_orbit(self, n):
        for p in orbit_profiles(n):
            got, want = probabilistic_serial(p), oracle_probabilistic_serial(p)
            assert (got.nums, got.scale) == (want.nums, want.scale), p

    @pytest.mark.parametrize("n", range(1, 11))
    def test_seeded_uniform_and_two_class_profiles(self, n):
        rng = random.Random(1000 + n)
        for _ in range(40):
            uniform = random_profile(rng, n)
            lists = [random_permutation(rng, n) for _ in range(2)]
            two_class = profile([lists[rng.randrange(2)] for _ in range(n)])
            for p in (uniform, two_class):
                got, want = probabilistic_serial(p), oracle_probabilistic_serial(p)
                assert (got.nums, got.scale) == (want.nums, want.scale), p


def reference_top_trading_cycles(p, endowment):
    """Top trading cycles as first written: every round, every remaining
    agent points at the owner of its best remaining item and all cycles of
    that pointer graph trade at once; the reference for the one-cycle walk."""
    n = p.n
    prefs = p.agent_prefs
    owns = list(endowment.item_of)
    owner = {o: a for a, o in enumerate(owns)}
    best = [0] * n
    active = set(range(n))
    item_of = [None] * n
    while active:
        points = {}
        for j in active:
            row, k = prefs[j], best[j]
            while row[k] not in owner:
                k += 1
            best[j] = k
            points[j] = owner[row[k]]
        resolved = set()
        for start in list(active):
            if start in resolved:
                continue
            seen = {}
            j = start
            while j not in seen and j not in resolved:
                seen[j] = len(seen)
                j = points[j]
            if j in seen:
                cycle = list(seen)[seen[j]:]
                for a in cycle:
                    item_of[a] = owns[points[a]]
                for a in cycle:
                    del owner[owns[a]]
                    owns[a] = None
                    active.discard(a)
            resolved.update(seen)
    return Matching(tuple(item_of))


@st.composite
def endowed_class_profiles(draw, max_n):
    """A profile from ``class_profiles`` with an endowment matching."""
    p = draw(class_profiles(max_n))
    return p, Matching(tuple(draw(st.permutations(range(p.n)))))


class TestTopTradingCyclesOracle:
    """The one-cycle walk trades exactly as the round-based search."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.one_of(endowed_profiles(10), endowed_class_profiles(10)))
    def test_equals_reference_on_drawn_cases(self, case):
        p, endowment = case
        assert top_trading_cycles(p, endowment) == reference_top_trading_cycles(p, endowment)

    def test_equals_reference_on_every_case_to_n3(self):
        for n in (1, 2, 3):
            endowments = [Matching(e) for e in itertools.permutations(range(n))]
            for p in all_profiles(n):
                for e in endowments:
                    assert top_trading_cycles(p, e) == reference_top_trading_cycles(p, e), (p, e)

    def test_equals_reference_on_every_orbit_at_n4(self):
        endowments = [Matching(e) for e in itertools.permutations(range(4))]
        for p in orbit_profiles(4):
            for e in endowments:
                assert top_trading_cycles(p, e) == reference_top_trading_cycles(p, e), (p, e)


class TestComposeTTC:
    def test_identity_on_efficient_mechanism(self, bench4):
        composed = compose_ttc(serial_dictatorship)
        for perm in itertools.permutations(range(4)):
            order = AgentOrder(perm)
            assert composed(bench4, order) == serial_dictatorship(bench4, order)

    def test_weakly_improves_and_repairs_efficiency(self, bench4):
        from propmatch.engine import EngineConfig, run_engine

        inner = lambda p, o: run_engine(p, o, EngineConfig.from_code("PLQ")).matching
        base = inner(bench4, IDENT(4))
        out = compose_ttc(inner)(bench4, IDENT(4))
        assert is_pareto_efficient(out, bench4)
        for a in range(4):
            assert bench4.rank(a, out.item_of[a]) <= bench4.rank(a, base.item_of[a])

    def test_accept_last_differs_from_composition_somewhere(self, trio):
        # inefficient outputs exist, so trading must change them for some order
        from propmatch.engine import EngineConfig, run_engine

        for code in ("PLS", "PLQ", "TLS", "TLQ"):
            inner = lambda p, o: run_engine(p, o, EngineConfig.from_code(code)).matching
            composed = compose_ttc(inner)
            assert any(
                composed(trio, AgentOrder(perm)) != inner(trio, AgentOrder(perm))
                for perm in itertools.permutations(range(3))
            )


    def test_registry_trading_forms_equal_the_composition(self):
        """Each ``+G`` code's run is ``compose_ttc`` of its base's."""
        rng = random.Random(31)
        codes = [code for code, mech in registry._BASE.items() if mech.kind == "matching"]
        for n in range(1, 9):
            for _ in range(3):
                one_sided = random_profile(rng, n)
                two_sided = Profile(one_sided.agent_prefs, random_profile(rng, n).agent_prefs)
                orders = [AgentOrder(tuple(random_permutation(rng, n))) for _ in range(4)]
                for code in codes:
                    mech, _ = resolve(code + "+G")
                    p = two_sided if mech.needs_item_prefs else one_sided
                    composed = compose_ttc(resolve(code)[0].run)
                    for order in orders:
                        assert mech.run(p, order) == composed(p, order), (code, p, order)


def _public(code):
    """The public function of a registry matching code, as a mechanism that
    returns a ``Matching``."""
    if code in ALL_ENGINE_CODES:
        config = EngineConfig.from_code(code)
        return lambda p, o: run_engine(p, o, config, False).matching
    if code.startswith("BOS-"):
        mode = BostonMode.SEQUENTIAL if code == "BOS-SEQ" else BostonMode.SIMULTANEOUS
        return lambda p, o: run_boston_two_sided(p, o, mode)
    return {
        "SD": serial_dictatorship,
        "NB": naive_boston_one_sided,
        "GS": lambda p, o: run_gale_shapley(p, o, False).matching,
    }[code]


class TestCoresAgainstPublicFunctions:
    """Each registry code's Runner runs its family's core, which returns a
    plain ``item_of`` tuple: the ``item_of`` of the code's public function.
    Its ``+G`` form shares that core, and trading the core's tuple gives
    ``compose_ttc`` of the public function."""

    @pytest.mark.parametrize(
        "code", [code for code, mech in registry._BASE.items() if mech.kind == "matching"]
    )
    def test_core_is_the_public_item_of(self, code):
        mech, traded = resolve(code)[0], resolve(code + "+G")[0]
        assert traded.run.run is mech.run.run
        public = _public(code)
        composed = compose_ttc(public)
        rng = random.Random(code)
        for n in range(1, 17):
            for _ in range(2):
                p = random_profile(rng, n)
                if mech.needs_item_prefs:
                    p = Profile(p.agent_prefs, random_profile(rng, n).agent_prefs)
                for _ in range(3):
                    order = AgentOrder(tuple(random_permutation(rng, n)))
                    got = mech.run.run(p, order)
                    assert type(got) is tuple and got == public(p, order).item_of, (p, order)
                    got = traded.run.trade(p, traded.run.run(p, order))
                    assert type(got) is tuple and got == composed(p, order).item_of, (p, order)


class TestOrderLength:
    """Every run refuses an order whose length is not the agent count: each
    registry matching code, its ``+G`` form and its public function."""

    @pytest.mark.parametrize("order", [(1, 0), (1, 0, 3, 2)], ids=["shorter", "longer"])
    @pytest.mark.parametrize("form", ["", "+G", "public"])
    @pytest.mark.parametrize(
        "code", [code for code, mech in registry._BASE.items() if mech.kind == "matching"]
    )
    def test_order_of_another_length_refused(self, code, form, order):
        run = _public(code) if form == "public" else resolve(code + form)[0].run
        p = profile([[0, 1, 2], [0, 2, 1], [1, 0, 2]], [[0, 1, 2], [2, 1, 0], [1, 2, 0]])
        with pytest.raises(InvalidInstanceError, match="order length must equal agent count"):
            run(p, AgentOrder(order))


class TestUniformEndowmentTrading:
    """Trading from a uniform random endowment averages to the serial
    dictatorship lottery."""

    def test_exhaustive_n3(self):
        for p in all_profiles(3):
            sd = exact_lottery(serial_dictatorship, p).assignment
            # average TTC over all endowments with equal weight
            n = 3
            acc = [[F(0)] * n for _ in range(n)]
            perms = list(itertools.permutations(range(n)))
            for endow in perms:
                m = top_trading_cycles(p, Matching(endow))
                for a in range(n):
                    acc[a][m.item_of[a]] += F(1, len(perms))
            assert tuple(tuple(row) for row in acc) == sd.p

    def test_spot_check_n4(self):
        rng = random.Random(15)
        for _ in range(5):
            p = random_profile(rng, 4)
            sd = exact_lottery(serial_dictatorship, p).assignment
            acc = [[F(0)] * 4 for _ in range(4)]
            perms = list(itertools.permutations(range(4)))
            for endow in perms:
                m = top_trading_cycles(p, Matching(endow))
                for a in range(4):
                    acc[a][m.item_of[a]] += F(1, len(perms))
            assert tuple(tuple(row) for row in acc) == sd.p
