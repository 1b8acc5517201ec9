"""Core types, exact matrices, and the profile text format."""
import random
from fractions import Fraction

import pytest

from propmatch import (
    AgentOrder,
    FractionalAssignment,
    InvalidInstanceError,
    Matching,
    format_profile,
    matching_to_assignment,
    parse_profile,
    profile,
    proportional_assignment,
)
from propmatch.axioms import is_ordinally_efficient
from propmatch.lottery import exact_lottery
from propmatch.mechanisms import probabilistic_serial
from propmatch.registry import resolve
from propmatch.textio import (
    ProfileParseError,
    agent_name,
    format_matching,
    format_matrix,
    item_name,
    parse_matrix,
)
from propmatch.welfare import campaign

from conftest import random_permutation, random_prefs

F = Fraction


class TestProportional:
    def test_single_agent(self):
        assert proportional_assignment(1).p == ((Fraction(1),),)

    def test_all_entries_quarter(self):
        a = proportional_assignment(4)
        assert all(x == Fraction(1, 4) for row in a.p for x in row)

    def test_sums_exact(self):
        a = proportional_assignment(3)
        for i in range(3):
            assert sum(a.row(i)) == 1
            assert sum(a.p[j][i] for j in range(3)) == 1

    def test_rejects_zero(self):
        with pytest.raises(InvalidInstanceError):
            proportional_assignment(0)


class TestMatchingToAssignment:
    def test_identity(self):
        a = matching_to_assignment(Matching((0, 1, 2, 3)))
        assert all(a.p[i][i] == 1 for i in range(4))

    def test_single(self):
        assert matching_to_assignment(Matching((0,))).p == ((Fraction(1),),)

    def test_swap(self):
        a = matching_to_assignment(Matching((1, 0)))
        assert a.p == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))

    def test_always_doubly_stochastic_01(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 8)
            a = matching_to_assignment(Matching(tuple(random_permutation(rng, n))))
            assert all(x in (0, 1) for row in a.p for x in row)


class TestInvariants:
    def test_matching_rejects_duplicates(self):
        with pytest.raises(InvalidInstanceError):
            Matching((0, 0, 2))

    def test_profile_rejects_non_permutation(self):
        with pytest.raises(InvalidInstanceError):
            profile([[0, 1], [1, 1]])

    @pytest.mark.parametrize(
        "row, shown",
        [
            ((0, 0, 2), "(0, 0, 2)"),  # a duplicate
            ((0, 1, 3), "(0, 1, 3)"),  # out of range
            ((0, 1), "(0, 1)"),  # too short
            ((0, 1, 2, 2), "(0, 1, 2, 2)"),  # too long
            (("a", 0, 1), "('a', 0, 1)"),  # mixed types: no TypeError from a sort
            (([0], 1, 2), "([0], 1, 2)"),  # unhashable: no TypeError from a set
        ],
    )
    def test_permutation_messages(self, row, shown):
        builds = [
            ("agent 1 preferences", lambda: profile([[0, 1, 2], row, [2, 1, 0]])),
            ("item 2 preferences", lambda: profile([[0, 1, 2]] * 3, [[0, 1, 2], [1, 2, 0], row])),
        ]
        if len(row) == 3:  # a matching or an order is checked against its own length
            builds += [("matching", lambda: Matching(row)), ("agent order", lambda: AgentOrder(row))]
        for what, build in builds:
            with pytest.raises(InvalidInstanceError) as excinfo:
                build()
            assert str(excinfo.value) == f"{what} must be a permutation of 0..2, got {shown}"

    def test_item_pref_count_must_match(self):
        with pytest.raises(InvalidInstanceError):
            profile([[0, 1], [1, 0]], [[0, 1]])

    def test_rows_must_sum_to_one(self):
        with pytest.raises(InvalidInstanceError):
            FractionalAssignment(((3, 3), (3, 2)), 6)  # 1/2 1/2, 1/2 1/3

    def test_columns_must_sum_to_one(self):
        with pytest.raises(InvalidInstanceError):
            FractionalAssignment(((1, 0), (1, 0)), 1)

    # The messages, and which check fires first, as the Fraction-sum validation
    # gave them.  ``rows`` is a ``(nums, scale)`` pair: the Fraction matrix of
    # that validation as numerators over its least common denominator.
    @pytest.mark.parametrize(
        "rows, message",
        [
            ((((1, 0), (0,)), 1), "row 1 has length 1, expected 2"),
            ((((1, 0, 0), (0, 1)), 1), "row 0 has length 3, expected 2"),
            ((((3, -1), (-1, 3)), 2), "row 0 has an entry outside [0, 1]"),
            ((((3, 3), (3, 2)), 6), "row 1 sums to 5/6, expected exactly 1"),
            ((((1, 1, 0), (1, 2, 0), (0,)), 2), "row 1 sums to 3/2, expected exactly 1"),
            ((((1, 0), (1, 0)), 1), "column 0 sums to 2, expected exactly 1"),
            ((((6, 6, 0), (6, 3, 3), (4, 4, 4)), 12), "column 0 sums to 4/3, expected exactly 1"),
            ((((0, 1), (1, 0), (0, 1)), 1), "row 0 has length 2, expected 3"),
            # numerators and the scale must be ints, and an assignment non-empty
            ((((0.5, 0.5), (0.5, 0.5)), 1), "row 0 has an entry that is not an integer numerator"),
            ((((1, 0), (0, F(1))), 1), "row 1 has an entry that is not an integer numerator"),
            ((((0,),), 0), "scale must be a positive integer, got 0"),
            ((((1,),), 1.0), "scale must be a positive integer, got 1.0"),
            (((), 1), "an assignment needs at least one agent"),
        ],
    )
    def test_rejection_messages(self, rows, message):
        with pytest.raises(InvalidInstanceError) as excinfo:
            FractionalAssignment(*rows)
        assert str(excinfo.value) == message

    def test_stored_over_least_denominator(self):
        a = FractionalAssignment([[2, 4, 0], [4, 2, 0], [0, 0, 6]], 6)
        assert (a.nums, a.scale) == (((1, 2, 0), (2, 1, 0), (0, 0, 3)), 3)
        assert a == FractionalAssignment(((1, 2, 0), (2, 1, 0), (0, 0, 3)), 3)
        assert a.row(0) == (F(1, 3), F(2, 3), F(0)) and type(a.row(2)[2]) is F


class TestFractionViews:
    """Producers and integer readers never build the ``Fraction`` view ``p``."""

    @pytest.fixture
    def built(self, monkeypatch):
        made = []
        check = FractionalAssignment.__post_init__

        def record(self):
            check(self)
            made.append(self)

        monkeypatch.setattr(FractionalAssignment, "__post_init__", record)
        return made

    def test_not_built_by_producers_or_integer_readers(self, built, lottery4):
        ps, _ = resolve("PS")
        probabilistic_serial(lottery4)
        assert is_ordinally_efficient(exact_lottery(resolve("SD")[0].run, lottery4).assignment, lottery4)
        assert len(built) == 2
        campaign([(ps, "util_loss"), (ps, "egal")], 4, 3, 7)
        assert len(built) > 2
        assert not any("p" in vars(a) for a in built)
        assert built[0].row(0) == (F(1, 4), F(1, 3), F(1, 6), F(1, 4)) and "p" in vars(built[0])


class TestProfileText:
    def test_named_example(self, bench4):
        text = "1: a,b,c,d\n2: a,b,c,d\n3: a,b,c,d\n4: b,a,c,d\n"
        assert parse_profile(text) == bench4

    def test_comments_and_blank_lines(self):
        text = "# two agents\n\n1: a,b\n2: b,a  # reversed\n"
        assert parse_profile(text) == profile([[0, 1], [1, 0]])

    def test_duplicate_item_reports_line(self):
        with pytest.raises(ProfileParseError, match="line 1"):
            parse_profile("1: a,a,b\n2: a,b,c\n3: a,b,c\n")

    def test_wrong_item_count(self):
        with pytest.raises(ProfileParseError, match="expected 3"):
            parse_profile("1: a,b\n2: a,b,c\n3: a,b,c\n")

    def test_unknown_item_name(self):
        with pytest.raises(ProfileParseError, match="unknown item"):
            parse_profile("1: a,b\n2: a,x\n")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a,a,x", "line 2: duplicate entry 'a'"),
            ("x,a,a", "line 2: unknown item name 'x'"),
            ("a,a,b", "line 2: duplicate entry 'a'"),
            ("a,b", "line 2: expected 3 entries, got 2"),
            ("a,b,c,a", "line 2: duplicate entry 'a'"),
            ("a,b,c,d", "line 2: unknown item name 'd'"),
        ],
    )
    def test_row_fault_messages(self, row, message):
        # the first fault of a row, in token order, is the one reported
        with pytest.raises(ProfileParseError) as excinfo:
            parse_profile(f"1: a,b,c\n2: {row}\n3: c,b,a\n")
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,9", "line 4: unknown agent name '9'"),
            ("2,2", "line 4: duplicate entry '2'"),
            ("2", "line 4: expected 2 entries, got 1"),
        ],
    )
    def test_item_section_fault_messages(self, row, message):
        with pytest.raises(ProfileParseError) as excinfo:
            parse_profile(f"1: a,b\n2: b,a\n@items\na: {row}\nb: 1,2\n")
        assert str(excinfo.value) == message

    def test_two_sided_section(self, two_sided4):
        text = format_profile(two_sided4)
        assert "@items" in text
        assert parse_profile(text) == two_sided4

    def test_item_side_line_count_checked(self):
        with pytest.raises(ProfileParseError):
            parse_profile("1: a,b\n2: b,a\n@items\na: 1,2\n")

    @pytest.mark.parametrize("tail", ["", "# no item lines yet\n\n"])
    def test_empty_item_section_refused(self, tail):
        # an opened section is two-sided: it must list every item
        with pytest.raises(ProfileParseError) as excinfo:
            parse_profile(f"1: a,b\n2: b,a\n@items\n{tail}")
        assert str(excinfo.value) == "@items section has 0 lines, expected 2"

    def test_round_trip_random_profiles(self):
        rng = random.Random(20240817)
        for _ in range(100):
            n = rng.randint(1, 8)
            prefs = random_prefs(rng, n)
            item_prefs = random_prefs(rng, n) if rng.random() < 0.5 else None
            p = profile(prefs, item_prefs)
            assert parse_profile(format_profile(p)) == p


class TestMatchingText:
    @pytest.mark.parametrize("n", [26, 27, 32])
    def test_matches_per_agent_names(self, n):
        """Past 26 items the names are ``o01``...; the oracle names each
        agent and item on its own."""
        rng = random.Random(n)
        for _ in range(5):
            m = Matching(tuple(random_permutation(rng, n)))
            expected = " ".join(f"{agent_name(a)}:{item_name(o, n)}" for a, o in enumerate(m.item_of))
            assert format_matching(m) == expected


class TestMatrixText:
    def test_round_trip(self):
        a = proportional_assignment(3)
        assert parse_matrix(format_matrix(a)) == a

    def test_numerators_over_least_denominator(self):
        a = parse_matrix("# items: a b\n1/2 0.5\n2/4 1/2\n")
        assert (a.nums, a.scale) == (((1, 1), (1, 1)), 2)

    def test_empty_refused(self):
        with pytest.raises(InvalidInstanceError, match="at least one agent"):
            parse_matrix("# items:\n\n")

    @pytest.mark.parametrize("entry", ["1/0", "x"])
    def test_bad_entry_names_its_line(self, entry):
        with pytest.raises(InvalidInstanceError) as excinfo:
            parse_matrix(f"# items: a b\n1 0\n0 {entry}\n")
        assert str(excinfo.value) == f"line 3: bad matrix entry in '0 {entry}'"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# items: a b\n1/2 1/2\n1/2 1/3\n", "line 3: row sums to 5/6, expected exactly 1"),
            ("# items: a b\n\n1 0 0\n0 1\n", "line 3: row has length 3, expected 2"),
            ("1/2 1/2\n# a comment\n3/2 -1/2\n", "line 3: row has an entry outside [0, 1]"),
            # a column fault names the column, as FractionalAssignment does
            ("# items: a b\n1 0\n1 0\n", "column 0 sums to 2, expected exactly 1"),
        ],
    )
    def test_fault_names_its_line(self, text, message):
        with pytest.raises(InvalidInstanceError) as excinfo:
            parse_matrix(text)
        assert str(excinfo.value) == message

    def test_exact_fractions_in_output(self):
        text = format_matrix(proportional_assignment(3))
        assert next(l for l in text.splitlines() if not l.startswith("#")) == "1/3 1/3 1/3"


class TestAgentOrder:
    def test_identity(self):
        assert AgentOrder.identity(3).order == (0, 1, 2)

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidInstanceError):
            AgentOrder((0, 0, 1))
