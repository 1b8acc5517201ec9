"""Text formats: profile files, exact fraction matrices, axiom reports.

Profile file format (UTF-8): one agent per line, ``<agent>: <item>,<item>,...``
most-preferred first.  Blank lines and ``#`` comments are ignored.  An optional
section opened by a line ``@items`` gives item-side preferences as
``<item>: <agent>,...`` lines.  Names are non-empty tokens without commas or
colons; internally everything is mapped to dense indices, and canonical names
(agents ``1..n``, items ``a..z`` or ``o<k>`` past 26) are used on output.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .model import FractionalAssignment, InvalidInstanceError, Matching, Profile


class ProfileParseError(ValueError):
    """Malformed profile text; the message names the offending line."""


def agent_name(i: int) -> str:
    return str(i + 1)

def item_name(o: int, n: int) -> str:
    if n <= 26:
        return "abcdefghijklmnopqrstuvwxyz"[o]
    return f"o{o + 1:0{len(str(n))}d}"

def names(n: int) -> Tuple[List[str], List[str]]:
    """The canonical agent and item names of indices 0..n-1."""
    return [agent_name(i) for i in range(n)], [item_name(o, n) for o in range(n)]


def _split_line(line: str, lineno: int) -> Tuple[str, List[str]]:
    if ":" not in line:
        raise ProfileParseError(f"line {lineno}: expected '<name>: <list>', got {line!r}")
    head, _, tail = line.partition(":")
    name = head.strip()
    entries = list(map(str.strip, tail.split(",")))
    if not name or "" in entries:
        raise ProfileParseError(f"line {lineno}: empty name or list entry in {line!r}")
    return name, entries


def parse_profile(text: str) -> Profile:
    """Parse profile text into a :class:`Profile` (names become dense indices)."""
    agent_lines: List[Tuple[int, str, List[str]]] = []
    item_lines: List[Tuple[int, str, List[str]]] = []
    in_items = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "@items":
            in_items = True
            continue
        name, entries = _split_line(line, lineno)
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
        if len(row) == n == len(set(row)) and None not in row:
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
    if item_lines:
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
    return Profile(agent_prefs, item_prefs)


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
    return " ".join(f"{agent_name(a)}:{item_name(o, m.n)}" for a, o in enumerate(m.item_of))


def format_matrix(assignment: FractionalAssignment, header: bool = True) -> str:
    """One agent-row per line of exact fractions, columns in item-index order."""
    n = assignment.n
    lines = []
    if header:
        lines.append("# items: " + " ".join(item_name(o, n) for o in range(n)))
    for row in assignment.p:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> FractionalAssignment:
    """Invert ``format_matrix``: the one place where ``Fraction`` text becomes numerators."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([Fraction(tok) for tok in line.split()])
        except (ValueError, ZeroDivisionError):
            raise InvalidInstanceError(f"line {lineno}: bad matrix entry in {line!r}") from None
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return FractionalAssignment(tuple(tuple(int(x * scale) for x in row) for row in rows), scale)


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
