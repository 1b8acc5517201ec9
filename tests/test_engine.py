"""Proposal engine semantics: all eight policy triples, the two-sided modes,
and their structural invariants."""
import hashlib
import itertools
import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propmatch import (
    AgentOrder,
    InvalidInstanceError,
    Matching,
    Profile,
    naive_boston_one_sided,
    probabilistic_serial,
    profile,
    run_boston_two_sided,
    run_engine,
    run_gale_shapley,
    serial_dictatorship,
)
from propmatch.engine import (
    _CONSUMED_LIMIT,
    _GALE_SHAPLEY,
    ALL_ENGINE_CODES,
    BostonMode,
    EngineConfig,
    EngineResult,
    ModeError,
    Outcome,
    TraceEvent,
    format_trace_table,
    _replay,
    engine_stepper,
    replay_trace,
)
from propmatch.lottery import exact_lottery
from propmatch.registry import resolve
from propmatch.sampling import all_profiles
from propmatch.textio import agent_name, item_name

from conftest import random_order, random_permutation, random_prefs, random_profile

IDENT4 = AgentOrder.identity(4)


def run(p, order, code):
    return run_engine(p, order, EngineConfig.from_code(code))


# Final matchings and proposal counts on the benchmark instance, order 1..4.
# These are regression values verified against the engine's pinned exact
# lotteries (see the acceptance suite).
BENCH_RESULTS = {
    "PFS": ((0, 1, 2, 3), 10),
    "PFQ": ((0, 2, 3, 1), 9),
    "PLS": ((3, 2, 0, 1), 9),
    "PLQ": ((3, 2, 1, 0), 11),
    "TFS": ((3, 0, 2, 1), 19),
    "TFQ": ((2, 3, 0, 1), 20),
    "TLS": ((1, 0, 3, 2), 20),
    "TLQ": ((0, 1, 3, 2), 21),
}


class TestEngineRuns:
    @pytest.mark.parametrize("code", ALL_ENGINE_CODES)
    def test_bench_results(self, bench4, code):
        r = run(bench4, IDENT4, code)
        item_of, count = BENCH_RESULTS[code]
        assert r.matching.item_of == item_of
        assert r.proposal_count == count

    def test_single_agent(self):
        r = run(profile([[0]]), AgentOrder.identity(1), "PFS")
        assert r.matching.item_of == (0,)
        assert r.proposal_count == 1

    def test_trace_length_equals_count(self, bench4):
        for code in ALL_ENGINE_CODES:
            r = run(bench4, IDENT4, code)
            assert len(r.trace) == r.proposal_count

    def test_deterministic(self, bench4):
        a = run(bench4, IDENT4, "TLQ")
        b = run(bench4, IDENT4, "TLQ")
        assert a == b

    def test_reset_flag_only_on_temporary_matches(self, bench4):
        for code in ALL_ENGINE_CODES:
            r = run(bench4, IDENT4, code)
            for e in r.trace:
                if e.reset_occurred:
                    assert e.outcome is Outcome.MATCHED_UNASSIGNED
                    assert code[0] == "T"

    def test_code_round_trip(self):
        for code in ALL_ENGINE_CODES:
            assert EngineConfig.from_code(code).code == code

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig.from_code("XYZ")


def looping_profile(n=2):
    """A malformed profile that skips validation: every agent lists item 0
    n^3 + 1 times, so the agents keep proposing to one item past any bound."""
    p = object.__new__(Profile)
    object.__setattr__(p, "agent_prefs", ((0,) * (n**3 + 1),) * n)
    object.__setattr__(p, "item_prefs", None)
    return p


class TestProposalBound:
    """The n^2 and n^3 proposal bounds are raised as RuntimeError, so they
    hold under ``python -O`` on every path that runs the engine."""

    @pytest.mark.parametrize("code", ALL_ENGINE_CODES)
    def test_run_engine_raises(self, code):
        p = looping_profile()
        with pytest.raises(RuntimeError, match="proposal bound"):
            run_engine(p, AgentOrder.identity(p.n), EngineConfig.from_code(code), record=False)

    @pytest.mark.parametrize("code", ALL_ENGINE_CODES)
    def test_registry_run_raises(self, code):
        """The unrecorded run a campaign makes through the registry."""
        p = looping_profile()
        with pytest.raises(RuntimeError, match="proposal bound"):
            resolve(code)[0].run(p, AgentOrder.identity(p.n))

    @pytest.mark.parametrize("code", ALL_ENGINE_CODES)
    def test_exact_lottery_raises(self, code):
        mech, _ = resolve(code)
        with pytest.raises(RuntimeError, match="proposal bound"):
            exact_lottery(mech.run, looping_profile())


class TestEngineInvariants:
    """Bound, reset, and no-futile-repetition properties over random instances."""

    def _random_cases(self, count=60, seed=99, two_sided=False):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(1, 7)
            prefs = random_prefs(rng, n)
            items = [rng.sample(range(n), n) for _ in range(n)] if two_sided else None
            yield profile(prefs, items), random_order(rng, n)

    def test_proposal_bounds(self):
        for p, order in self._random_cases():
            n = p.n
            for code in ALL_ENGINE_CODES:
                r = run(p, order, code)
                bound = n**2 if code[0] == "P" else n**3
                assert r.proposal_count <= bound

    def test_reset_count_at_most_n(self):
        for p, order in self._random_cases():
            for code in ("TFS", "TFQ", "TLS", "TLQ"):
                r = run(p, order, code)
                assert sum(e.reset_occurred for e in r.trace) <= p.n

    def test_no_pair_rejected_twice_between_resets(self):
        for p, order in self._random_cases(count=40):
            for code in ALL_ENGINE_CODES:
                seen = set()
                for e in run(p, order, code).trace:
                    if e.reset_occurred:
                        seen.clear()
                    elif e.outcome is Outcome.REJECTED:
                        assert (e.proposer, e.item) not in seen
                        seen.add((e.proposer, e.item))

    def test_replay_reproduces_matching(self):
        for p, order in self._random_cases(count=40):
            for code in ALL_ENGINE_CODES:
                r = run(p, order, code)
                assert replay_trace(p, order, r.trace) == r.matching
        for p, order in self._random_cases(count=40, two_sided=True):
            r = run_gale_shapley(p, order)
            assert len(r.trace) == r.proposal_count <= p.n**2
            assert replay_trace(p, order, r.trace) == r.matching

    def test_replay_refuses_a_displaced_non_holder(self, bench4):
        config = EngineConfig.from_code("TLS")
        r = run_engine(bench4, IDENT4, config)
        i = next(i for i, e in enumerate(r.trace) if e.outcome is Outcome.DISPLACED_HOLDER)
        bad = r.trace[:i] + (r.trace[i]._replace(displaced=r.trace[i].proposer),)
        with pytest.raises(InvalidInstanceError, match="non-holder"):
            replay_trace(bench4, IDENT4, bad)
        with pytest.raises(InvalidInstanceError, match="non-holder"):
            format_trace_table(IDENT4, r._replace(trace=bad), config)

    def test_unrecorded_run_matches_recorded(self):
        for p, order in self._random_cases():
            for code in ALL_ENGINE_CODES:
                config = EngineConfig.from_code(code)
                recorded = run_engine(p, order, config)
                bare = run_engine(p, order, config, record=False)
                assert bare.trace == ()
                assert bare.matching == recorded.matching
                assert bare.proposal_count == recorded.proposal_count
        for p, order in self._random_cases(count=40, seed=5, two_sided=True):
            recorded = run_gale_shapley(p, order)
            bare = run_gale_shapley(p, order, record=False)
            assert bare.trace == ()
            assert bare.matching == recorded.matching
            assert bare.proposal_count == recorded.proposal_count


class TestClassicEquivalences:
    def test_pfs_equals_serial_dictatorship_exhaustive_n3(self):
        orders = [AgentOrder(perm) for perm in itertools.permutations(range(3))]
        for p in all_profiles(3):
            for order in orders:
                assert run(p, order, "PFS").matching == serial_dictatorship(p, order)

    def test_pfq_equals_naive_boston_exhaustive_n3(self):
        orders = [AgentOrder(perm) for perm in itertools.permutations(range(3))]
        for p in all_profiles(3):
            for order in orders:
                assert run(p, order, "PFQ").matching == naive_boston_one_sided(p, order)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_equivalences_random(self, n):
        rng = random.Random(1000 + n)
        for _ in range(200):
            p, order = random_profile(rng, n), random_order(rng, n)
            assert run(p, order, "PFS").matching == serial_dictatorship(p, order)
            assert run(p, order, "PFQ").matching == naive_boston_one_sided(p, order)


def has_blocking_pair(p: Profile, m: Matching) -> bool:
    """Independent O(n^2) stability scan."""
    rank_item = [{o: r for r, o in enumerate(prefs)} for prefs in p.agent_prefs]
    rank_agent = [{a: r for r, a in enumerate(prefs)} for prefs in p.item_prefs]
    holder = {m.item_of[a]: a for a in range(p.n)}
    for a in range(p.n):
        for o in range(p.n):
            if o == m.item_of[a]:
                continue
            if rank_item[a][o] < rank_item[a][m.item_of[a]] and rank_agent[o][a] < rank_agent[o][holder[o]]:
                return True
    return False


class TestGaleShapley:
    def test_two_sided_example(self, two_sided4):
        r = run_gale_shapley(two_sided4, IDENT4)
        assert r.matching.item_of == (2, 3, 0, 1)
        assert r.proposal_count == 9

    def test_output_order_invariant(self, two_sided4):
        results = {
            run_gale_shapley(two_sided4, AgentOrder(perm)).matching
            for perm in itertools.permutations(range(4))
        }
        assert len(results) == 1

    def test_stable(self, two_sided4):
        rng = random.Random(5)
        assert not has_blocking_pair(two_sided4, run_gale_shapley(two_sided4, IDENT4).matching)
        for _ in range(50):
            n = rng.randint(2, 6)
            mk = lambda: [random.Random(rng.random()).sample(range(n), n) for _ in range(n)]
            p = profile(mk(), mk())
            m = run_gale_shapley(p, AgentOrder.identity(n)).matching
            assert not has_blocking_pair(p, m)

    def test_mutually_first_pairs(self):
        n = 5
        p = profile(
            [[(i + k) % n for k in range(n)] for i in range(n)],
            [[(o + k) % n for k in range(n)] for o in range(n)],
        )
        r = run_gale_shapley(p, AgentOrder.identity(n))
        assert r.matching.item_of == tuple(range(n))
        assert r.proposal_count == n

    def test_needs_item_prefs(self, bench4):
        with pytest.raises(ModeError):
            run_gale_shapley(bench4, IDENT4)


class TestBostonTwoSided:
    def test_sequential_example(self, two_sided4):
        m = run_boston_two_sided(two_sided4, IDENT4, BostonMode.SEQUENTIAL)
        assert m.item_of == (0, 3, 1, 2)

    def test_simultaneous_example(self, two_sided4):
        m = run_boston_two_sided(two_sided4, IDENT4, BostonMode.SIMULTANEOUS)
        assert m.item_of == (0, 2, 1, 3)

    def test_distinct_tops_one_round(self):
        p = profile(
            [[0, 1, 2], [1, 0, 2], [2, 1, 0]],
            [[0, 1, 2], [0, 1, 2], [0, 1, 2]],
        )
        for mode in BostonMode:
            assert run_boston_two_sided(p, AgentOrder.identity(3), mode).item_of == (0, 1, 2)

    def test_needs_item_prefs(self, bench4):
        with pytest.raises(ModeError):
            run_boston_two_sided(bench4, IDENT4, BostonMode.SEQUENTIAL)


@st.composite
def relabeled_instances(draw):
    """A two-sided instance, an order, and renamings of agents and items."""
    n = draw(st.integers(1, 7))
    perm = st.permutations(range(n))
    p = profile([draw(perm) for _ in range(n)], [draw(perm) for _ in range(n)])
    return p, AgentOrder(tuple(draw(perm))), draw(perm), draw(perm)


NO_COUNT_CODES = ("SD", "NB", "BOS-SEQ", "BOS-SIM") + tuple(
    code + "+G" for code in ALL_ENGINE_CODES + ("SD", "NB", "GS", "BOS-SEQ", "BOS-SIM")
)


def relabel(p, order, agents, items):
    """The instance and order with agent a renamed agents[a] and item o items[o]."""
    n = p.n
    agent_prefs, item_prefs = [None] * n, [None] * n
    for a, prefs in enumerate(p.agent_prefs):
        agent_prefs[agents[a]] = [items[o] for o in prefs]
    for o, prefs in enumerate(p.item_prefs):
        item_prefs[items[o]] = [agents[a] for a in prefs]
    return profile(agent_prefs, item_prefs), AgentOrder(tuple(agents[a] for a in order.order))


class TestRelabeling:
    """Renaming agents and items commutes with every engine code and with
    Gale-Shapley: the same matching up to the renaming, the same proposal
    count.  It commutes with every other registry code too, PS included."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(relabeled_instances())
    def test_equivariant(self, case):
        p, order, agents, items = case
        n = p.n
        q, renamed_order = relabel(p, order, agents, items)
        runs = [(lambda pr, o, c=code: run(pr, o, c)) for code in ALL_ENGINE_CODES]
        for mechanism in runs + [run_gale_shapley]:
            r, s = mechanism(p, order), mechanism(q, renamed_order)
            assert s.proposal_count == r.proposal_count
            for a in range(n):
                assert s.matching.item_of[agents[a]] == items[r.matching.item_of[a]]

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(relabeled_instances())
    def test_equivariant_without_proposal_count(self, case):
        """The same for SD, NB, BOS-* and every +G code, which report only a
        matching.  Exact lotteries run one order per arrangement of classes of
        identical agents, which is sound only because of this."""
        p, order, agents, items = case
        q, renamed_order = relabel(p, order, agents, items)
        for code in NO_COUNT_CODES:
            mechanism, _ = resolve(code)
            r, s = mechanism.run(p, order), mechanism.run(q, renamed_order)
            for a in range(p.n):
                assert s.item_of[agents[a]] == items[r.item_of[a]], code

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(relabeled_instances())
    def test_probabilistic_serial_equivariant(self, case):
        """Renaming agents and items permutes the rows and columns of PS's
        random assignment, which ``ordinal`` sweeps over orbits rely on."""
        p, order, agents, items = case
        q, _ = relabel(p, order, agents, items)
        r, s = probabilistic_serial(p), probabilistic_serial(q)
        for a in range(p.n):
            for o in range(p.n):
                assert s.p[agents[a]][items[o]] == r.p[a][o]


@st.composite
def ordered_profiles(draw):
    """A one-sided profile with n <= 10 and an initial order."""
    n = draw(st.integers(1, 10))
    perm = st.permutations(range(n))
    return profile([draw(perm) for _ in range(n)]), AgentOrder(tuple(draw(perm)))


class TestClassicEquivalenceProperties:
    """PFS computes serial dictatorship and PFQ the one-sided naive Boston
    outcome, on drawn profiles and orders up to n = 10."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(ordered_profiles())
    def test_pfs_is_serial_dictatorship(self, case):
        p, order = case
        assert run(p, order, "PFS").matching == serial_dictatorship(p, order)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(ordered_profiles())
    def test_pfq_is_naive_boston(self, case):
        p, order = case
        assert run(p, order, "PFQ").matching == naive_boston_one_sided(p, order)


def seeded_case(n, seed, two_sided=False):
    rng = random.Random(seed)
    side = lambda: [rng.sample(range(n), n) for _ in range(n)]
    agents = side()
    items = side() if two_sided else None
    return profile(agents, items), AgentOrder(tuple(rng.sample(range(n), n)))


# sha256 of the trace table of ``seeded_case(n, seed=n)`` (two-sided for GS).
# They pin every column byte for byte at sizes the golden files do not reach.
TABLE_DIGESTS = {
    ("PFS", 8): "808814e3558c312965a9a19fa8ed07a7a27c8d1bafcabb3c59adf130018aa267",
    ("PFQ", 8): "1b66b61dccac153a7de63f1ce0da80f95173b3bb77c780954e599d80561de33e",
    ("PLS", 8): "1d2b3c80a8489b53032a1f0335b3b9fc9cafcb9fded7a29da9e6a92a7c8be33c",
    ("PLQ", 8): "0a4610c564c11883d9387b638850ce2489e57bb82a5da2fab5be64212c4d4b67",
    ("TFS", 8): "72141389ec93ef5b532af833183bc507582a13d33fb66f6bcbc4d7072853cc16",
    ("TFQ", 8): "6f4b9e17bf60955722e57e0b1b41a93f5984c4c9eda688463c59cde47c12bba3",
    ("TLS", 8): "72141389ec93ef5b532af833183bc507582a13d33fb66f6bcbc4d7072853cc16",
    ("TLQ", 8): "45fd75f1687de3b3c78e2b72e3d3136c87c524b05cf91c4d10ed374e79d3b28a",
    ("PFS", 16): "5ca932cc17a5d13169b0b67a64a340c2a39122b92fb09a8d443ab5b4973e22f6",
    ("PFQ", 16): "b4b59ab5c6caad67476a0014dd82f5e97af9d452c5dc7841c994d76abfadbc28",
    ("PLS", 16): "d49f2b49ed0cca110f8278f4273ad135222ac6939cf4f714120c1629f7f5b4da",
    ("PLQ", 16): "6273ddb378a6178245dc852e278e39a3adf8c5c882b20ccf9b6a48c500466306",
    ("TFS", 16): "1e4d58496c52513627733889d61617c8667b979c57ebfeb0b698f496eb37fcd6",
    ("TFQ", 16): "3397c3ec97f09a619ed4c52607daccdb55880760c7032ea5fccda0d9b2585294",
    ("TLS", 16): "720c7bfbc5a9fffb7de46800e14a5c5e6a3362965c416d4476d9d793898158d2",
    ("TLQ", 16): "25dfdc7f3ff02e418784940d1393ee279e292c1eb781bb6b1a54ccd942568b70",
    ("GS", 8): "77ea60b79ea2d9993155c9c67af3116fb393f8bdedb5778d4182c2b9bf7b876c",
    ("GS", 16): "49e95e53cc04783138ecc7b68fcc774dfc5bb650cdc30bcb2132f3982fa18d93",
}

# The same for ``seeded_case(n, seed=100 + n)``: a second profile per size,
# so a change to the recorded outcomes cannot hide behind one profile.
SECOND_TABLE_DIGESTS = {
    ("PFS", 8): "7ed50589df108763d2485abcd1652361e00f36152e27fe8d40b1389ffbb43bcf",
    ("PFQ", 8): "c846d500650289535447b74437e383ef2de443abe310c8ebf27462567c3c2ffb",
    ("PLS", 8): "f9d7dd7476d0b3446dab3908ae0ebda1c611b088827ef2b65ad1e8533f3e5916",
    ("PLQ", 8): "3f4a81ef6eb8e1c1131ed4559a13966edbffad1fd698b0046b8c57417a58a8b3",
    ("TFS", 8): "d275f192e2f72ae598681334d89ef5df323e943ee1d56ff89b76321016e54d7e",
    ("TFQ", 8): "4e80d6978c11c4a9badcd1ae8cea8a9607affeda897108b9c07811ab5e556c74",
    ("TLS", 8): "e14a80df3baf7c3c4ce4bec5fac110a76d80a294ca45df0a58ede75e5955cdca",
    ("TLQ", 8): "88023439591077817611015b755f3bfa5fb5643a68840d65df2fb77fdd8b149c",
    ("GS", 8): "a780a7338ce88596648f302bf24fcce5fefc4fc8c94db31e837b938fb961a2d1",
    ("PFS", 16): "2c2e7d4f46fdc4bdf0c90e9e7e69e0ab2048ef36a748c8c3950d69283c205cd2",
    ("PFQ", 16): "8191c64bff6f0c36b8865f05b5429269bd365e2610f0d39598a0cc24a3004d1c",
    ("PLS", 16): "824f4e5841c53783b8e6e1f0a0e105e3c5e0f0ffe9613f838a8a3a6ae59b31d9",
    ("PLQ", 16): "602186579a528d11c7d6e2b75879ca9c278dc4bbe047e50e28a12d3cde663765",
    ("TFS", 16): "c7aa1db236cce856ba1dfb55f784064442444663e9908d764277f5c03b284910",
    ("TFQ", 16): "1c10ffddff1af19ae034bb4fbada513f17226a05b1707c840dc2f7a8ddb3dd90",
    ("TLS", 16): "414304759a433aff4e6f72647ddfb190ba8df4ddd9d954278627315a066d3908",
    ("TLQ", 16): "79d9183e9988c4c2adaf3f0f7f44f96012589160c6aa60a645726ae1710ea688",
    ("GS", 16): "5dd0bcee2dd3f57e6abafc6a184b76411812ad66f29045702b6fb5069e299495",
}


class TestTraceEvent:
    """``TraceEvent`` is a NamedTuple: its fields, their order and defaults
    are part of the interface, and an event is immutable and hashable."""

    def test_fields_order_and_defaults(self):
        assert TraceEvent._fields == (
            "proposer", "item", "outcome", "displaced", "reset_occurred", "pending", "memory"
        )
        assert TraceEvent._field_defaults == {
            "displaced": None, "reset_occurred": False, "pending": (), "memory": ()
        }
        e = TraceEvent(0, 1, Outcome.REJECTED)
        assert (e.displaced, e.reset_occurred, e.pending, e.memory) == (None, False, (), ())

    def test_attributes_cannot_be_assigned(self):
        e = TraceEvent(0, 1, Outcome.MATCHED_UNASSIGNED, pending=(1,), memory=(0,))
        for name in TraceEvent._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(e, name, 2)
        assert e == (0, 1, Outcome.MATCHED_UNASSIGNED, None, False, (1,), (0,))

    @pytest.mark.parametrize("code", ALL_ENGINE_CODES + ("GS",))
    def test_equal_events_compare_and_hash_equal(self, code, bench4, two_sided4):
        if code == "GS":
            first, second = (run_gale_shapley(two_sided4, IDENT4).trace for _ in range(2))
        else:
            first, second = (run(bench4, IDENT4, code).trace for _ in range(2))
        assert first == second and hash(first) == hash(second)
        for e, f in zip(first, second):
            rebuilt = TraceEvent(*f)  # through the constructor, not the recording path
            assert e == f == rebuilt == tuple(f)
            assert hash(e) == hash(f) == hash(rebuilt) == hash(tuple(f))


def seeded_table_digest(code, n, seed):
    p, order = seeded_case(n, seed, two_sided=code == "GS")
    if code == "GS":
        config, r = None, run_gale_shapley(p, order)
    else:
        config = EngineConfig.from_code(code)
        r = run_engine(p, order, config)
    return hashlib.sha256(format_trace_table(order, r, config).encode()).hexdigest()


class TestTraceTable:
    @pytest.mark.parametrize("code, n", list(TABLE_DIGESTS))
    def test_pinned_table_digests(self, code, n):
        assert seeded_table_digest(code, n, seed=n) == TABLE_DIGESTS[code, n]

    @pytest.mark.parametrize("code, n", list(SECOND_TABLE_DIGESTS))
    def test_second_seed_table_digests(self, code, n):
        assert seeded_table_digest(code, n, seed=100 + n) == SECOND_TABLE_DIGESTS[code, n]

    def test_columns_and_shape(self, bench4):
        config = EngineConfig.from_code("TLS")
        r = run_engine(bench4, IDENT4, config)
        table = format_trace_table(IDENT4, r, config)
        lines = table.strip().splitlines()
        assert len(lines) == r.proposal_count
        first = [c.strip() for c in lines[0].split("|")]
        assert first == ["1", "1 -> a", "matched", "2,3,4", "1:a", "none"]
        # final line shows the complete matching and an empty queue
        last = [c.strip() for c in lines[-1].split("|")]
        assert last[3] == "-"
        assert set(last[4].split()) == {"1:b", "2:a", "3:d", "4:c"}


def reference_trace_table(order, result, config=None):
    """The trace table rebuilt in full on every line: the oracle that
    ``format_trace_table``, which rewrites only the tokens an event changes,
    must match byte for byte."""
    n = len(order.order)
    memory = [()] * n
    item_of = [None] * n
    out = []
    for idx, e in enumerate(_replay(item_of, result.trace), start=1):
        if e.reset_occurred:
            memory = [()] * n
        memory[e.item] = e.memory
        outcome = e.outcome.value
        if e.outcome is Outcome.DISPLACED_HOLDER:
            outcome = f"{agent_name(e.displaced)} {outcome}"
        pending_s = ",".join(agent_name(a) for a in e.pending) or "-"
        matching_s = (
            " ".join(
                f"{agent_name(a)}:{item_name(o, n)}" for a, o in enumerate(item_of) if o is not None
            )
            or "-"
        )
        if config is None:
            mem_s = "-"
        else:
            mems = [
                f"{item_name(o, n)}:" + ">".join(agent_name(a) for a in memory[o])
                for o in range(n)
                if memory[o]
            ]
            mem_s = " ".join(mems) if mems else "none"
        out.append(
            f"{idx} | {agent_name(e.proposer)} -> {item_name(e.item, n)} | {outcome}"
            f" | {pending_s} | {matching_s} | {mem_s}"
        )
    return "\n".join(out) + "\n"


class TestTraceTableOracle:
    """Seeded profiles and orders at n = 5, 27 and 32; past 26 items are
    named ``o01``..., which no golden file reaches."""

    @pytest.mark.parametrize("n", [5, 27, 32])
    @pytest.mark.parametrize("code", ALL_ENGINE_CODES + ("GS",))
    def test_matches_reference(self, code, n):
        for seed in range(3):
            p, order = seeded_case(n, seed=1000 * n + seed, two_sided=code == "GS")
            if code == "GS":
                config, r = None, run_gale_shapley(p, order)
            else:
                config = EngineConfig.from_code(code)
                r = run_engine(p, order, config)
            for c in (config, None):  # None: no memory column
                table = format_trace_table(order, r, c)
                reference = reference_trace_table(order, r, c)
                # lines first: a failure then names the first bad line cheaply
                assert table.split("\n") == reference.split("\n")
                assert table == reference


def oracle_propose(p, order, config, memory, record):
    """``engine._run`` and ``engine._propose`` as they were before the loop
    read a plain list from a head index: the set-up worked out on every
    call, one deque as both pending and waiting, ``appendleft`` for a stack
    re-entry and ``append`` for a queue one.  ``memory`` is the items'
    starting record (their stated preferences for GS)."""
    n = p.n
    if len(order.order) != n:
        raise InvalidInstanceError("order length must equal agent count")
    pending = waiting = deque(order.order)
    holder = [None] * n
    rank = [0] * n
    memory = list(memory)
    prefs = p.agent_prefs
    temporary, accept_last, stack = config.switches
    bound = n**3 if temporary else n**2
    reenter = pending.appendleft if stack else waiting.append
    trace = []
    count = 0
    while pending:
        j = pending.popleft()
        o = prefs[j][rank[j]]
        rank[j] += 1
        count += 1
        if count > bound:
            raise RuntimeError("proposal bound exceeded; engine semantics broken")
        h = holder[o]
        mem = memory[o]
        if h is None:
            holder[o] = j
            if temporary:
                memory[:] = [()] * n
                rank[:] = [0] * n
                mem = ()
            elif not mem:
                memory[o] = mem = (j,)
        else:
            if not mem:
                memory[o] = mem = (j, h)
                wins = True
            elif j in mem:
                wins = mem.index(j) < mem.index(h)
            elif accept_last:
                memory[o] = mem = (j,) + mem
                wins = True
            else:
                memory[o] = mem = mem + (j,)
                wins = False
            if wins:
                holder[o] = j
                reenter(h)
            else:
                reenter(j)
        if record:
            if h is None:
                outcome, displaced = Outcome.MATCHED_UNASSIGNED, None
            elif holder[o] == j:
                outcome, displaced = Outcome.DISPLACED_HOLDER, h
            else:
                outcome, displaced = Outcome.REJECTED, None
            trace.append(TraceEvent(j, o, outcome, displaced, temporary and h is None, tuple(pending), mem))
    item_of = [0] * n
    for o, a in enumerate(holder):
        item_of[a] = o
    return EngineResult(Matching(tuple(item_of)), count, tuple(trace))


def oracle_cases(n, seed):
    """Seeded profiles on n agents, each with a uniform order: uniform lists,
    one list for everyone, and three lists shared out at random (fewer
    classes when n < 3); each also with uniform item preferences, for GS."""
    rng = random.Random(seed)
    three = random_prefs(rng, n)[:3]
    for agents in (random_prefs(rng, n), [three[0]] * n, [rng.choice(three) for _ in range(n)]):
        yield profile(agents), profile(agents, random_prefs(rng, n)), random_order(rng, n)


class TestProposalLoopOracle:
    """The proposal loop against ``oracle_propose``: the same matching,
    proposal count and trace, every ``pending`` and ``memory`` tuple
    included, whether recorded or not, and a stepper walking an order
    through admits settles on the same matching."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_whole_runs(self, n):
        for seed in range(2):
            for one_sided, two_sided, order in oracle_cases(n, seed=1000 * n + seed):
                for record in (True, False):
                    for code in ALL_ENGINE_CODES:
                        config = EngineConfig.from_code(code)
                        want = oracle_propose(one_sided, order, config, [()] * n, record)
                        assert run_engine(one_sided, order, config, record) == want, (code, one_sided, order)
                    want = oracle_propose(two_sided, order, _GALE_SHAPLEY, two_sided.item_prefs, record)
                    assert run_gale_shapley(two_sided, order, record) == want, (two_sided, order)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stepped_orders(self, n):
        for one_sided, _, order in oracle_cases(n, seed=n):
            for code in ALL_ENGINE_CODES:
                config = EngineConfig.from_code(code)
                state, admit, settle = engine_stepper(config)(one_sided)
                count = 0
                for agent in order.order:
                    state, count = admit(state, count, agent)
                want = oracle_propose(one_sided, order, config, [()] * n, False)
                assert settle(state, count) == want.matching.item_of, (code, one_sided, order)
                assert count <= want.proposal_count
                if code[2] == "S":  # nothing waits under stack discipline
                    assert state[3] == () and count == want.proposal_count

    @pytest.mark.parametrize("code", ["PFQ", "PLQ", "TFQ", "TLQ", "GS"])
    def test_queue_runs_past_a_dropped_head(self, code):
        # One list for every agent: each queue code sends agents back more
        # than _CONSUMED_LIMIT times, so the run drops its consumed head.
        # Permanent memory makes n(n + 1)/2 proposals here, so it needs n = 48.
        n = 24 if code[0] == "T" else 48
        rng = random.Random(n)
        agents = [random_permutation(rng, n)] * n
        p = profile(agents, random_prefs(rng, n)) if code == "GS" else profile(agents)
        order = random_order(rng, n)
        config = _GALE_SHAPLEY if code == "GS" else EngineConfig.from_code(code)
        memory = p.item_prefs if code == "GS" else [()] * n
        for record in (True, False):
            want = oracle_propose(p, order, config, memory, record)
            got = run_gale_shapley(p, order, record) if code == "GS" else run_engine(p, order, config, record)
            assert got == want
        assert want.proposal_count - n > _CONSUMED_LIMIT


class TestWholeRunMemory:
    """A queue-discipline whole run holds O(n) pending agents, not one slot
    per proposal: 64 agents with one list make 72,906 proposals under TFQ
    and TLQ, which one slot each would hold in about 600 KB."""

    @pytest.mark.parametrize("code", ["TFQ", "TLQ"])
    def test_peak_is_bounded(self, code):
        n = 64
        p = profile([list(range(n))] * n)
        tracemalloc.start()
        try:
            r = run_engine(p, AgentOrder.identity(n), EngineConfig.from_code(code), record=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.proposal_count == 72906
        assert peak < 2**19, peak
