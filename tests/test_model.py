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
from propmatch.textio import ProfileParseError, format_matrix, parse_matrix

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

    def test_item_pref_count_must_match(self):
        with pytest.raises(InvalidInstanceError):
            profile([[0, 1], [1, 0]], [[0, 1]])

    def test_rows_must_sum_to_one(self):
        h = Fraction(1, 2)
        with pytest.raises(InvalidInstanceError):
            FractionalAssignment(((h, h), (h, Fraction(1, 3))))

    def test_columns_must_sum_to_one(self):
        with pytest.raises(InvalidInstanceError):
            FractionalAssignment(((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))))

    # The messages, and which check fires first, as the Fraction-sum validation gave them.
    @pytest.mark.parametrize(
        "rows, message",
        [
            (((1, 0), (0,)), "row 1 has length 1, expected 2"),
            (((1, 0, 0), (0, 1)), "row 0 has length 3, expected 2"),
            (((F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2))), "row 0 has an entry outside [0, 1]"),
            (((F(1, 2), F(1, 2)), (F(1, 2), F(1, 3))), "row 1 sums to 5/6, expected exactly 1"),
            (
                ((F(1, 2), F(1, 2), 0), (F(1, 2), 1, 0), (0,)),
                "row 1 sums to 3/2, expected exactly 1",
            ),
            (((1, 0), (1, 0)), "column 0 sums to 2, expected exactly 1"),
            (
                ((F(1, 2), F(1, 2), 0), (F(1, 2), F(1, 4), F(1, 4)), (F(1, 3), F(1, 3), F(1, 3))),
                "column 0 sums to 4/3, expected exactly 1",
            ),
            (((0, 1), (1, 0), (0, 1)), "row 0 has length 2, expected 3"),
        ],
    )
    def test_rejection_messages(self, rows, message):
        with pytest.raises(InvalidInstanceError) as excinfo:
            FractionalAssignment(rows)
        assert str(excinfo.value) == message


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

    def test_round_trip_random_profiles(self):
        rng = random.Random(20240817)
        for _ in range(100):
            n = rng.randint(1, 8)
            prefs = random_prefs(rng, n)
            item_prefs = random_prefs(rng, n) if rng.random() < 0.5 else None
            p = profile(prefs, item_prefs)
            assert parse_profile(format_profile(p)) == p


class TestMatrixText:
    def test_round_trip(self):
        a = proportional_assignment(3)
        assert parse_matrix(format_matrix(a)) == a

    def test_exact_fractions_in_output(self):
        text = format_matrix(proportional_assignment(3), header=False)
        assert text.splitlines()[0] == "1/3 1/3 1/3"


class TestAgentOrder:
    def test_identity(self):
        assert AgentOrder.identity(3).order == (0, 1, 2)

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidInstanceError):
            AgentOrder((0, 0, 1))
