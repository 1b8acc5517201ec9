"""Producers that build Profile, AgentOrder, Matching and FractionalAssignment
objects without the ``__post_init__`` checks, because their tuples are
permutations, or their rows and columns sum to the scale, by construction.
Each result is rebuilt here through the checked constructor and compared, so
a producer that breaks that promise fails a test instead of handing an
invalid object on."""
import dataclasses
import random
from pathlib import Path

import pytest

from propmatch import engine, mechanisms
from propmatch.lottery import exact_lottery, order_stream
from propmatch.model import Matching, Profile
from propmatch.registry import resolve
from propmatch.sampling import ProfileSampler, all_profiles, orbit_profiles
from propmatch.textio import ProfileParseError, format_profile, parse_profile
from propmatch.welfare import _utility_sums, borda_utilities, optimal_utilitarian, utilitarian_welfare

SIZES = range(1, 9)
ONE_SIDED = list(engine.ALL_ENGINE_CODES) + ["SD", "NB"]
TWO_SIDED = ["GS", "BOS-SEQ", "BOS-SIM"]
CODES = ONE_SIDED + [c + "+G" for c in ONE_SIDED] + TWO_SIDED + [c + "+G" for c in TWO_SIDED]


def checked(obj):
    """``obj`` rebuilt through its class's checked constructor, which raises
    on a tuple that is not a permutation; the rebuilt object must equal it."""
    fields = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    rebuilt = type(obj)(*fields)
    assert rebuilt == obj  # and so each field is a tuple, as the checks leave it
    return rebuilt


def profiles(n, count=6, seed=11):
    return list(ProfileSampler(n, seed + n).stream(count))


def two_sided(n, seed):
    """Seeded two-sided profiles: sampled agent rows, sampled item rows."""
    items = profiles(n, 6, seed + 100)
    return [Profile(p.agent_prefs, q.agent_prefs) for p, q in zip(profiles(n, 6, seed), items)]


def orders(n, count=5):
    return list(order_stream(n, count, random.Random(3 * n)))


class TestStreams:
    @pytest.mark.parametrize("n", SIZES)
    def test_sampled_profiles_and_orders(self, n):
        sampler = ProfileSampler(n, 5)
        for _ in range(20):
            checked(sampler.sample())
            checked(sampler.sample_order())
        for order in orders(n, 20):
            checked(order)

    @pytest.mark.parametrize("n", SIZES)
    def test_every_order(self, n):
        for order in order_stream(n, "all"):
            checked(order)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_profile(self, n):
        for p in all_profiles(n):
            checked(p)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orbit_profiles(self, n):
        for p in orbit_profiles(n):
            checked(p)


class TestMechanismOutcomes:
    @pytest.mark.parametrize("code", CODES)
    @pytest.mark.parametrize("n", SIZES)
    def test_every_code(self, code, n):
        mech, _ = resolve(code)
        cases = two_sided(n, 7) if mech.needs_item_prefs else profiles(n)
        for p in cases:
            for order in orders(n):
                checked(mech.run(p, order))
                traced = mech.trace(p, order, False)
                if traced is not None:
                    checked(traced[0].matching)

    @pytest.mark.parametrize("n", SIZES)
    def test_engine_entry_points(self, n):
        for p in two_sided(n, 9):
            for order in orders(n, 3):
                checked(engine.run_gale_shapley(p, order).matching)
                for code in engine.ALL_ENGINE_CODES:
                    config = engine.EngineConfig.from_code(code)
                    checked(engine.run_engine(p, order, config).matching)

    @pytest.mark.parametrize("n", SIZES)
    def test_classic_mechanisms_and_trading(self, n):
        rng = random.Random(n)
        for p in profiles(n):
            for order in orders(n, 3):
                checked(mechanisms.serial_dictatorship(p, order))
                checked(mechanisms.naive_boston_one_sided(p, order))
                endowment = list(range(n))
                rng.shuffle(endowment)
                checked(mechanisms.top_trading_cycles(p, Matching(tuple(endowment))))

    @pytest.mark.parametrize("n", SIZES)
    def test_probabilistic_serial(self, n):
        """PS's assignment, on uniform profiles and on profiles whose agents
        share two lists, so that eaters tie at exhaustions."""
        for p in profiles(n, 10):
            checked(mechanisms.probabilistic_serial(p))
            shared = Profile(tuple(p.agent_prefs[a % 2] for a in range(n)))
            checked(mechanisms.probabilistic_serial(shared))

    @pytest.mark.parametrize("n", SIZES)
    def test_optimum_witness(self, n):
        for p in profiles(n, 10):
            value, witness = optimal_utilitarian(p)
            assert utilitarian_welfare(checked(witness), p) == value

    @pytest.mark.parametrize("code", ["SD", "TLQ", "PLS+G", "NB+G"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_lottery_support(self, code, n):
        mech, _ = resolve(code)
        for p in profiles(n, 3):
            support = exact_lottery(mech.run, p).support
            assert sum(w for _, w in support) == 1
            for m, _ in support:
                checked(m)

    @pytest.mark.parametrize("code", ["SD", "NB", "TFS", "TLQ+G", "PLS+G"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_folded_lottery_support(self, code, n):
        """On profiles whose agents share lists the lottery is folded by
        class, and ``support`` is spread from it on first read."""
        mech, _ = resolve(code)
        for p in profiles(n, 3):
            shared = Profile(tuple(p.agent_prefs[a % 2] for a in range(n)))  # two classes at most
            lot = exact_lottery(mech.run, shared)
            assert len(lot.classes) < n
            support = lot.support
            assert sum(w for _, w in support) == 1
            for m, _ in support:
                checked(m)

    @pytest.mark.parametrize("n", SIZES)
    def test_campaign_trades(self, n):
        """The base outcomes a campaign's ``+G`` cell trades, sampled or from
        the steppers of exact counts, and what the trades give."""
        for code in ("R-PLS+G", "R-TLQ+G", "R-NB+G"):
            runner = resolve(code)[0].run
            trade = runner.trade
            for p in profiles(n, 3):
                u = borda_utilities(p)
                for drawn in [orders(n, 4)] + (["all"] if n <= 6 else []):
                    runs = {}
                    _utility_sums(runner, p, u, drawn, runs)
                    (counts,) = runs.values()
                    classes, tally = counts  # a drawn entry is (None, tally)
                    assert (classes is None) == (drawn != "all")
                    for item_of in tally:
                        Matching(item_of)  # checked
                        Matching(trade(p, item_of))


DATA = Path(__file__).parent / "data"


class TestParsedProfiles:
    """``parse_profile`` builds its result without ``Profile``'s checks: each
    row passed its own parse check, so the checked constructor must agree."""

    def test_data_profiles(self):
        # the golden outputs beside them are not profiles and do not parse
        parsed = {}
        for path in sorted(DATA.glob("*.txt")):
            try:
                parsed[path.name] = parse_profile(path.read_text())
            except ProfileParseError:
                continue
        assert {"bench4.txt", "lottery4.txt", "two_sided4.txt", "trace27.txt"} <= parsed.keys()
        for p in parsed.values():
            checked(p)

    @pytest.mark.parametrize("n", [1, 5, 26, 27, 32])
    def test_round_trips(self, n):
        for p in profiles(n, 4) + two_sided(n, 13)[:4]:
            parsed = parse_profile(format_profile(p))
            assert checked(parsed) == p
            assert parsed.two_sided == p.two_sided
