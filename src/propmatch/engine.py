"""The unified proposal engine.

One proposal loop runs the eight one-sided algorithms obtained by letting items
build fictitious preferences dynamically, and two-sided deferred acceptance
(Gale-Shapley): the same loop under permanent memory and queue discipline, with
the items' stated preferences recorded from the start.  Two-sided immediate
acceptance (Boston) is here too.  The one-sided family is parameterized by
three independent switches:

* memory: PERMANENT (items keep their preference record for the whole run) or
  TEMPORARY (every time an unmatched item becomes matched, all items lose their
  memory and all agents forget which items they have already approached);
* acceptance: ACCEPT_FIRST (an item with any recorded preference rejects every
  proposer) or ACCEPT_LAST (an item always switches to a proposer it has not
  recorded yet, and rejects proposers it has);
* discipline: STACK (a rejected or displaced agent proposes again immediately)
  or QUEUE (it waits behind all other pending agents).

An agent always proposes to its most-preferred item it has not approached since
the last memory reset.  An item holding an agent but without any recorded
preference prefers the proposer and switches (both acceptance policies).  A
recorded proposer wins a held item only when the item ranks it above the
holder; a holder the item recorded dynamically is always ranked first, so only
stated preferences (Gale-Shapley) make this happen.  Each (agent, item) pair
can be proposed at most once between resets, so permanent runs make at most
n^2 proposals and temporary runs at most n^3 (at most one reset per newly
matched item).
"""
from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .mechanisms import immediate_acceptance, serial_dictatorship
from .model import AgentOrder, InvalidInstanceError, Matching, Profile
from .textio import agent_name, item_name


class Memory(enum.Enum):
    PERMANENT = "P"
    TEMPORARY = "T"


class Acceptance(enum.Enum):
    ACCEPT_FIRST = "F"
    ACCEPT_LAST = "L"


class Discipline(enum.Enum):
    STACK = "S"
    QUEUE = "Q"


class ModeError(ValueError):
    """A mechanism was invoked on a profile missing required preference data."""


@dataclass(frozen=True)
class EngineConfig:
    """One of the eight (memory, acceptance, discipline) policy triples."""

    memory: Memory
    acceptance: Acceptance
    discipline: Discipline

    @property
    def code(self) -> str:
        return self.memory.value + self.acceptance.value + self.discipline.value

    @staticmethod
    def from_code(code: str) -> "EngineConfig":
        if len(code) != 3:
            raise ValueError(f"unknown engine code {code!r}")
        try:
            return EngineConfig(Memory(code[0]), Acceptance(code[1]), Discipline(code[2]))
        except ValueError:
            raise ValueError(f"unknown engine code {code!r}") from None


ALL_ENGINE_CODES = tuple(
    m.value + a.value + d.value for m in Memory for a in Acceptance for d in Discipline
)


class Outcome(enum.Enum):
    MATCHED_UNASSIGNED = "matched"
    DISPLACED_HOLDER = "displaced"
    REJECTED = "rejected"


@dataclass(frozen=True)
class TraceEvent:
    """One proposal: who approached what, and what happened.

    ``displaced`` is the previous holder when ``outcome`` is DISPLACED_HOLDER.
    ``reset_occurred`` is True only for a MATCHED_UNASSIGNED event under
    temporary memory.  ``pending`` is the pending queue after the proposal
    (next proposer first) and ``memory`` the proposed item's recorded
    preference after it (most-preferred first).
    """

    proposer: int
    item: int
    outcome: Outcome
    displaced: Optional[int] = None
    reset_occurred: bool = False
    pending: Tuple[int, ...] = ()
    memory: Tuple[int, ...] = ()


@dataclass(frozen=True)
class EngineResult:
    matching: Matching
    proposal_count: int
    trace: Tuple[TraceEvent, ...]  # () when the run was not recorded


def run_engine(
    profile: Profile, order: AgentOrder, config: EngineConfig, record: bool = True
) -> EngineResult:
    """Run one deterministic proposal sequence and return the final matching.

    Only the agent side of ``profile`` is used; item preferences are built
    dynamically per ``config``.  With ``record=False`` no trace is kept.
    """
    return _propose(profile, order, config, [[] for _ in range(profile.n)], record)


# Gale-Shapley is permanent memory with queue discipline; every proposer is
# recorded from the start, so the acceptance policy never applies.
_GALE_SHAPLEY = EngineConfig(Memory.PERMANENT, Acceptance.ACCEPT_FIRST, Discipline.QUEUE)


def run_gale_shapley(profile: Profile, order: AgentOrder, record: bool = True) -> EngineResult:
    """Agent-proposing deferred acceptance with the profile's item preferences.

    The output matching is stable and does not depend on ``order``; the trace
    and proposal count do.  With ``record=False`` no trace is kept.
    """
    if profile.item_prefs is None:
        raise ModeError("Gale-Shapley needs item-side preferences (an @items section)")
    memory = [list(prefs) for prefs in profile.item_prefs]
    return _propose(profile, order, _GALE_SHAPLEY, memory, record)


def _propose(
    profile: Profile,
    order: AgentOrder,
    config: EngineConfig,
    memory: List[List[int]],
    record: bool,
) -> EngineResult:
    """The proposal loop behind every engine entry point.

    ``memory[o]`` is item o's recorded preference, most-preferred first; it is
    updated in place.  With ``record`` every proposal becomes a TraceEvent.
    """
    n = profile.n
    if len(order.order) != n:
        raise InvalidInstanceError("order length must equal agent count")
    prefs = profile.agent_prefs
    temporary = config.memory is Memory.TEMPORARY
    accept_last = config.acceptance is Acceptance.ACCEPT_LAST
    bound = n**3 if temporary else n**2

    pending = deque(order.order)
    reenter = pending.appendleft if config.discipline is Discipline.STACK else pending.append
    # Each agent's next position in its list: it approached the items above
    # that position since the last reset.
    rank = [0] * n
    holder: List[Optional[int]] = [None] * n
    item_of: List[Optional[int]] = [None] * n
    trace: List[TraceEvent] = []
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
            item_of[j] = o
            if temporary:
                # Global reset: every item loses its memory and every agent may
                # approach items that rejected it before.
                for m in memory:
                    m.clear()
                rank = [0] * n
            elif not mem:
                mem.append(j)
            outcome = Outcome.MATCHED_UNASSIGNED
        else:
            if not mem:
                # No recorded preference: the item prefers the proposer (both policies).
                mem += (j, h)
                wins = True
            elif j in mem:
                wins = mem.index(j) < mem.index(h)
            elif accept_last:
                mem.insert(0, j)
                wins = True
            else:
                mem.append(j)
                wins = False
            if wins:
                holder[o] = j
                item_of[j] = o
                item_of[h] = None
                reenter(h)
                outcome = Outcome.DISPLACED_HOLDER
            else:
                reenter(j)
                outcome = Outcome.REJECTED
        if record:
            trace.append(TraceEvent(
                j, o, outcome,
                h if outcome is Outcome.DISPLACED_HOLDER else None,
                temporary and h is None, tuple(pending), tuple(mem),
            ))

    matching = Matching(tuple(item_of))  # complete by construction
    return EngineResult(matching, count, tuple(trace))


class BostonMode(enum.Enum):
    SEQUENTIAL = "sequential"
    SIMULTANEOUS = "simultaneous"


def run_boston_two_sided(profile: Profile, order: AgentOrder, mode: BostonMode) -> Matching:
    """Immediate acceptance with the profile's item preferences.

    Sequential: agents commit one at a time in ``order``, each walking down its
    list until it finds a free item; engagements are never broken.  Item
    preferences are never read, so this is serial dictatorship.
    Simultaneous: in round r every unmatched agent applies to its rank-r item;
    a free item keeps the applicant its own preferences rank highest and
    permanently rejects the rest.
    """
    if profile.item_prefs is None:
        raise ModeError("two-sided Boston needs item-side preferences (an @items section)")
    if mode is BostonMode.SEQUENTIAL:
        return serial_dictatorship(profile, order)
    priority = []
    for prefs in profile.item_prefs:
        rank = [0] * profile.n
        for r, a in enumerate(prefs):
            rank[a] = r
        priority.append(rank)
    return immediate_acceptance(profile, priority)


def replay_trace(profile: Profile, order: AgentOrder, trace: Tuple[TraceEvent, ...]) -> Matching:
    """Re-apply a recorded trace to a fresh state and return the final matching.

    Raises if the events are not applicable in sequence (internal consistency
    check for recorded runs).
    """
    n = profile.n
    item_of: List[Optional[int]] = [None] * n
    for e in trace:
        if e.outcome is Outcome.MATCHED_UNASSIGNED:
            item_of[e.proposer] = e.item
        elif e.outcome is Outcome.DISPLACED_HOLDER:
            if item_of[e.displaced] != e.item:
                raise InvalidInstanceError("trace displaces a non-holder")
            item_of[e.displaced] = None
            item_of[e.proposer] = e.item
    return Matching(tuple(item_of))


def format_trace_table(
    order: AgentOrder, result: EngineResult, config: Optional[EngineConfig] = None
) -> str:
    """Render a recorded run in the tabular trace format.

    One line per proposal:
    ``index | proposer -> item | outcome | pending-after | partial-matching | item-memories``.
    ``config`` is the engine configuration the run used; pass None for a
    fixed-preference run (no memory column).
    """
    n = len(order.order)
    memory: List[Tuple[int, ...]] = [()] * n
    item_of: List[Optional[int]] = [None] * n
    out = []
    for idx, e in enumerate(result.trace, start=1):
        if e.reset_occurred:
            memory = [()] * n
        memory[e.item] = e.memory
        if e.outcome is Outcome.MATCHED_UNASSIGNED:
            item_of[e.proposer] = e.item
            outcome = "matched"
        elif e.outcome is Outcome.DISPLACED_HOLDER:
            item_of[e.displaced] = None
            item_of[e.proposer] = e.item
            outcome = f"{agent_name(e.displaced)} displaced"
        else:
            outcome = "rejected"
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
