"""Text formats: profile files, exact fraction matrices, axiom reports.

Profile file format (UTF-8): one agent per line, ``<agent>: <item>,<item>,...``
most-preferred first.  Blank lines and ``#`` comments are ignored.  An optional
section opened by a line ``@items`` gives item-side preferences as
``<item>: <agent>,...`` lines.  Names are non-empty tokens without commas or
colons; internally everything is mapped to dense indices, and canonical names
(agents ``1..n``, items ``a..z`` or ``o<k>`` past 26) are used on output.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .model import FractionalAssignment, InvalidInstanceError, Matching, Profile, _row_fault, _trusted


class ProfileParseError(ValueError):
    """Malformed profile text; the message names the offending line."""


def agent_name(i: int) -> str:
    return str(i + 1)

def item_name(o: int, n: int) -> str:
    if n <= 26:
        return "abcdefghijklmnopqrstuvwxyz"[o]
    return f"o{o + 1:0{len(str(n))}d}"

@functools.cache
def names(n: int) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The canonical agent and item names of indices 0..n-1, built once per n."""
    return tuple(map(agent_name, range(n))), tuple(item_name(o, n) for o in range(n))


def parse_profile(text: str) -> Profile:
    """Parse profile text into a :class:`Profile` (names become dense indices).

    Each row is checked once, here: ``to_indices`` passes only n distinct
    known names, and an opened ``@items`` section must give every item one
    line, so the result is built without ``Profile``'s own checks.

    One pass per line: a line without a colon is blank, ``@items`` or
    refused.  A row strips its list and splits it on commas once, and strips
    each entry only when the list has whitespace inside."""
    agent_lines: List[Tuple[int, str, List[str]]] = []
    item_lines: List[Tuple[int, str, List[str]]] = []
    in_items = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        if ":" not in line:
            line = line.strip()
            if not line:
                continue
            if line == "@items":
                in_items = True
                continue
            raise ProfileParseError(f"line {lineno}: expected '<name>: <list>', got {line!r}")
        head, _, tail = line.partition(":")
        name = head.strip()
        tail = tail.strip()
        entries = tail.split(",")
        if len(tail.split()) != 1:
            entries = list(map(str.strip, entries))
        if not name or "" in entries:
            raise ProfileParseError(f"line {lineno}: empty name or list entry in {line.strip()!r}")
        (item_lines if in_items else agent_lines).append((lineno, name, entries))

    if not agent_lines:
        raise ProfileParseError("no agent lines found")
    n = len(agent_lines)
    agents = {name: i for i, (_, name, _) in enumerate(agent_lines)}
    if len(agents) != n:
        raise ProfileParseError("duplicate agent name")
    item_names = sorted(set(agent_lines[0][2]))  # item indices follow sorted name order
    if len(item_names) != n:
        raise ProfileParseError(
            f"line {agent_lines[0][0]}: expected {n} distinct items, got {len(item_names)}"
        )
    items = {name: o for o, name in enumerate(item_names)}

    def to_indices(entries: List[str], table: dict, lineno: int, kind: str) -> Tuple[int, ...]:
        row = tuple(map(table.get, entries))
        distinct = set(row)  # an unknown name maps to None; look for it in the set
        if len(row) == n == len(distinct) and None not in distinct:
            return row
        # a malformed row: report its first fault; a row without one has the wrong length
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
    return _trusted(Profile, agent_prefs, item_prefs)


def format_profile(p: Profile) -> str:
    """Render a profile with canonical names; ``parse_profile`` inverts this."""
    agents, items = names(p.n)
    lines = [
        f"{agents[i]}: " + ",".join([items[o] for o in prefs])
        for i, prefs in enumerate(p.agent_prefs)
    ]
    if p.item_prefs is not None:
        lines.append("@items")
        lines.extend(
            f"{items[o]}: " + ",".join([agents[i] for i in prefs])
            for o, prefs in enumerate(p.item_prefs)
        )
    return "\n".join(lines) + "\n"


def format_matching(m: Matching) -> str:
    agents, items = names(m.n)
    return " ".join([f"{agents[a]}:{items[o]}" for a, o in enumerate(m.item_of)])


def format_matrix(assignment: FractionalAssignment) -> str:
    """A ``# items:`` header, then one agent-row per line of exact fractions,
    columns in item-index order."""
    n = assignment.n
    lines = ["# items: " + " ".join(item_name(o, n) for o in range(n))]
    for row in assignment.p:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> FractionalAssignment:
    """Invert ``format_matrix``: the one place where ``Fraction`` text becomes
    numerators.  A bad entry or row is refused naming its text line."""
    rows = {}  # text line number -> entries
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows[lineno] = [Fraction(tok) for tok in line.split()]
        except (ValueError, ZeroDivisionError):
            raise InvalidInstanceError(f"line {lineno}: bad matrix entry in {line!r}") from None
    scale = math.lcm(*(x.denominator for row in rows.values() for x in row))
    nums = {lineno: tuple(int(x * scale) for x in row) for lineno, row in rows.items()}
    for lineno, row in nums.items():
        if fault := _row_fault(row, len(nums), scale):
            raise InvalidInstanceError(f"line {lineno}: row {fault}")
    return FractionalAssignment(tuple(nums.values()), scale)


def format_axiom_report_line(
    axiom: str,
    mechanism: str,
    n: int,
    verdict: str,
    witness_profile: Profile | None = None,
    witness_order: Sequence[int] | None = None,
    witness_misreport: Sequence[int] | None = None,
) -> str:
    """Line format: ``axiom, mechanism, n, verdict, witness-profile, witness-order, witness-misreport``."""
    def prof(p: Profile | None) -> str:
        if p is None:
            return "-"
        return ";".join(",".join(item_name(o, p.n) for o in prefs) for prefs in p.agent_prefs)

    def seq(s: Sequence[int] | None, name) -> str:
        return "-" if s is None else ",".join(name(x) for x in s)

    return ", ".join(
        [
            axiom,
            mechanism,
            str(n),
            verdict,
            prof(witness_profile),
            seq(witness_order, agent_name),
            seq(witness_misreport, lambda o: item_name(o, n)),
        ]
    )
