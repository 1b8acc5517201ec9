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
from propmatch import mechanisms
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
    names,
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
        """Every assignment made, through the checked constructor or, as
        probabilistic serial builds its result, through ``_trusted``."""
        made = []
        check = FractionalAssignment.__post_init__
        trusted = mechanisms._trusted

        def record(self):
            check(self)
            made.append(self)

        def record_trusted(cls, *values):
            obj = trusted(cls, *values)
            if cls is FractionalAssignment:
                made.append(obj)
            return obj

        monkeypatch.setattr(FractionalAssignment, "__post_init__", record)
        monkeypatch.setattr(mechanisms, "_trusted", record_trusted)
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


def _oracle_split_line(line, lineno):
    if ":" not in line:
        raise ProfileParseError(f"line {lineno}: expected '<name>: <list>', got {line!r}")
    head, _, tail = line.partition(":")
    name = head.strip()
    entries = list(map(str.strip, tail.split(",")))
    if not name or "" in entries:
        raise ProfileParseError(f"line {lineno}: empty name or list entry in {line!r}")
    return name, entries


def oracle_parse_profile(text):
    """``textio.parse_profile`` as it was before rows were split once: every
    row stripped entry by entry, unknown names found in the mapped tuple."""
    agent_lines = []
    item_lines = []
    in_items = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "@items":
            in_items = True
            continue
        name, entries = _oracle_split_line(line, lineno)
        (item_lines if in_items else agent_lines).append((lineno, name, entries))

    if not agent_lines:
        raise ProfileParseError("no agent lines found")
    n = len(agent_lines)
    agents = {name: i for i, (_, name, _) in enumerate(agent_lines)}
    if len(agents) != n:
        raise ProfileParseError("duplicate agent name")
    item_names = sorted(set(agent_lines[0][2]))
    if len(item_names) != n:
        raise ProfileParseError(
            f"line {agent_lines[0][0]}: expected {n} distinct items, got {len(item_names)}"
        )
    items = {name: o for o, name in enumerate(item_names)}

    def to_indices(entries, table, lineno, kind):
        row = tuple(map(table.get, entries))
        if len(row) == n == len(set(row)) and None not in row:
            return row
        seen = set()
        for tok in entries:
            if tok not in table:
                raise ProfileParseError(f"line {lineno}: unknown {kind} name {tok!r}")
            ix = table[tok]
            if ix in seen:
                raise ProfileParseError(f"line {lineno}: duplicate entry {tok!r}")
            seen.add(ix)
        raise ProfileParseError(f"line {lineno}: expected {n} entries, got {len(entries)}")

    agent_prefs = tuple(
        to_indices(entries, items, lineno, "item") for lineno, _, entries in agent_lines
    )
    item_prefs = None
    if in_items:
        if len(item_lines) != n:
            raise ProfileParseError(f"@items section has {len(item_lines)} lines, expected {n}")
        by_item = {}
        for lineno, name, entries in item_lines:
            if name not in items:
                raise ProfileParseError(f"line {lineno}: unknown item name {name!r}")
            by_item[items[name]] = to_indices(entries, agents, lineno, "agent")
        if len(by_item) != n:
            raise ProfileParseError("duplicate item line in @items section")
        item_prefs = tuple(by_item[o] for o in range(n))
    return profile(agent_prefs, item_prefs)


# Whitespace that str.strip removes: space, tab, no-break space, em space.
_PADS = (" ", "\t", "\u00a0", "\u2003")


def _pad(rng):
    return "".join(rng.choice(_PADS) for _ in range(rng.choice((0, 0, 1, 2))))


def _no_pad(rng):
    return ""


def _rows(rng, n):
    """``[name, ":", entries]`` per row of ``format_profile`` of a seeded
    profile, one-sided or two-sided, with ``None`` for the ``@items`` line."""
    p = profile(random_prefs(rng, n), random_prefs(rng, n) if rng.random() < 0.5 else None)
    rows = []
    for line in format_profile(p).splitlines():
        name, _, tail = line.partition(": ")
        rows.append(None if line == "@items" else [name, ":", tail.split(",")])
    return rows


def _render(rng, rows):
    """Profile text of ``rows``: random whitespace round names and entries
    (none inside the list on about half the rows), ``#`` comments, blank and
    whitespace-only lines, LF or CRLF line ends."""
    lines = []
    for row in rows:
        while rng.random() < 0.15:
            lines.append(rng.choice(("", _pad(rng), f"{_pad(rng)}# a: b,c")))
        if row is None:
            line = f"{_pad(rng)}@items{_pad(rng)}"
        else:
            name, colon, entries = row
            inner = rng.choice((_pad, _no_pad))
            line = (
                f"{_pad(rng)}{name}{_pad(rng)}{colon}{_pad(rng)}"
                + ",".join(f"{inner(rng)}{e}{inner(rng)}" for e in entries)
                + _pad(rng)
            )
        if rng.random() < 0.2:
            line += f"{_pad(rng)}# 1: a,b"
        lines.append(line)
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n", "\r\n"))


def _malformed(rng, rows):
    """The text of ``rows`` with one seeded fault, of a kind that the
    profile's size allows; each kind leaves the text refused."""
    split = rows.index(None) if None in rows else len(rows)
    agent_rows = list(range(split))
    item_rows = list(range(split + 1, len(rows)))
    n = len(agent_rows)
    kinds = ["colon", "name", "entry", "short", "long"]
    if n > 1:
        kinds += ["unknown", "duplicate", "agent twice"]
    if item_rows:
        kinds += ["item", "no items", "short items"]
        if n > 1:
            kinds += ["item twice"]
    kind = rng.choice(kinds)
    # past the first row, whose names fix the item names, when there is one
    row = rows[rng.choice(agent_rows[n > 1:] + item_rows)]
    entries = row[2]
    if kind == "colon":
        row[1] = rng.choice(("", " ", ";"))
    elif kind == "name":
        row[0] = rng.choice(("", " ", "\t"))
    elif kind == "entry":
        entries.insert(rng.randint(0, n), rng.choice(("", " ", "\u00a0")))
    elif kind == "short":
        entries.pop(rng.randrange(n))
    elif kind == "long":
        entries.insert(rng.randint(0, n), rng.choice(entries))
    elif kind == "unknown":
        entries[rng.randrange(n)] = rng.choice(("zz", "0", "A", "o", "a b"))
    elif kind == "duplicate":
        i, j = rng.sample(range(n), 2)
        entries[i] = entries[j]
    elif kind in ("agent twice", "item twice"):
        i, j = rng.sample(agent_rows if kind == "agent twice" else item_rows, 2)
        rows[i][0] = rows[j][0]
    elif kind == "item":
        rows[rng.choice(item_rows)][0] = "zz"
    elif kind == "no items":
        del rows[split + 1:]
    else:  # short items
        del rows[rng.choice(item_rows)]
    return _render(rng, rows)


def _outcome(parse, text):
    try:
        return parse(text)
    except ProfileParseError as exc:
        return f"refused: {exc}"


class TestParserAgainstOracle:
    """``parse_profile`` splits each row once; ``oracle_parse_profile`` strips
    every entry.  Both must accept the same texts with the same result and
    refuse the same texts with the same message."""

    @pytest.mark.parametrize("n", range(1, 31))
    def test_padded_profiles(self, n):
        rng = random.Random(2700 + n)
        for _ in range(12):
            text = _render(rng, _rows(rng, n))
            assert parse_profile(text) == oracle_parse_profile(text), text

    def test_malformed_profiles(self):
        rng = random.Random(27)
        for _ in range(3000):
            text = _malformed(rng, _rows(rng, rng.randint(1, 9)))
            expected = _outcome(oracle_parse_profile, text)
            assert str(expected).startswith("refused: "), text
            assert _outcome(parse_profile, text) == expected, text


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

    @pytest.mark.parametrize("n", [1, 26, 27])
    def test_names_built_once_per_n(self, n):
        agents, items = names(n)
        assert names(n) is names(n)
        assert agents == tuple(map(agent_name, range(n)))
        assert items == tuple(item_name(o, n) for o in range(n))


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
