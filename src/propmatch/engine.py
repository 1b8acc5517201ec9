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
import functools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .lottery import Stepper
from .mechanisms import immediate_acceptance, serial_dictatorship, serial_dictatorship_stepper
from .model import AgentOrder, InvalidInstanceError, Matching, Profile
from .textio import names


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

    @functools.cached_property
    def switches(self) -> Tuple[bool, bool, bool]:
        """(temporary, accept-last, stack).  The proposal loop reads them once
        per call; three enum comparisons would cost more than the rest of its
        set-up, and exact lotteries call it once per admitted agent."""
        return (
            self.memory is Memory.TEMPORARY,
            self.acceptance is Acceptance.ACCEPT_LAST,
            self.discipline is Discipline.STACK,
        )

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
    return _run(profile, order, config, [()] * profile.n, record)


# Gale-Shapley is permanent memory with queue discipline; every proposer is
# recorded from the start, so the acceptance policy never applies.
_GALE_SHAPLEY = EngineConfig(Memory.PERMANENT, Acceptance.ACCEPT_FIRST, Discipline.QUEUE)


def run_gale_shapley(profile: Profile, order: AgentOrder, record: bool = True) -> EngineResult:
    """Agent-proposing deferred acceptance with the profile's item preferences.

    The output matching is stable and does not depend on ``order``; the trace
    and proposal count do.  With ``record=False`` no trace is kept.
    """
    _require_item_prefs(profile, "Gale-Shapley")
    return _run(profile, order, _GALE_SHAPLEY, list(profile.item_prefs), record)


def _require_item_prefs(profile: Profile, name: str) -> None:
    if profile.item_prefs is None:
        raise ModeError(f"{name} needs item-side preferences (an @items section)")


def _run(
    profile: Profile, order: AgentOrder, config: EngineConfig, memory: List[Tuple[int, ...]],
    record: bool,
) -> EngineResult:
    """One whole run: every agent of ``order`` pending from the start."""
    n = profile.n
    if len(order.order) != n:
        raise InvalidInstanceError("order length must equal agent count")
    pending = deque(order.order)
    item_of: List[Optional[int]] = [None] * n
    state = ([None] * n, item_of, [0] * n, memory, pending)
    count, trace = _propose(profile, config, state, pending, 0, record)
    return EngineResult(Matching(tuple(item_of)), count, tuple(trace))  # complete by construction


def _propose(
    profile: Profile,
    config: EngineConfig,
    state: Tuple[list, list, list, list, deque],
    pending: deque,
    count: int,
    record: bool,
) -> Tuple[int, List[TraceEvent]]:
    """The proposal loop behind every engine entry point.

    ``state`` is ``(holder, item_of, rank, memory, waiting)``, updated in
    place: ``holder[o]`` is the agent holding item o, ``item_of[j]`` the item
    agent j holds, ``rank[j]`` agent j's next position in its list (it
    approached the items above it since the last reset), ``memory[o]`` item
    o's recorded preference as a tuple, most-preferred first, and ``waiting``
    the deque that queue discipline sends rejected and displaced agents to.  The loop proposes until
    ``pending`` is empty.  A whole run passes one deque as both ``pending``
    and ``waiting``.  An exact lottery admits one agent at a time instead:
    ``pending`` holds just that agent, so under queue discipline it makes one
    proposal, and the agents it sends back wait for the later admits.
    ``count`` is the number of proposals made before; the new count is
    returned, with the TraceEvents of the proposals when ``record`` is set.
    """
    holder, item_of, rank, memory, waiting = state
    prefs = profile.agent_prefs
    n = len(prefs)
    temporary, accept_last, stack = config.switches
    bound = n**3 if temporary else n**2
    reenter = pending.appendleft if stack else waiting.append
    trace: List[TraceEvent] = []

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
                memory[:] = [()] * n
                rank[:] = [0] * n
                mem = ()
            elif not mem:
                memory[o] = mem = (j,)
            outcome = Outcome.MATCHED_UNASSIGNED
        else:
            if not mem:
                # No recorded preference: the item prefers the proposer (both policies).
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
                temporary and h is None, tuple(pending), mem,
            ))
    return count, trace


def engine_stepper(config: EngineConfig) -> Stepper:
    """The engine admitting one agent at a time, for ``lottery.exact_counts``.

    A state is ``_propose``'s ``(holder, item_of, rank, memory, waiting)`` as
    tuples; the work is the proposal count.  Under stack discipline an
    admitted agent proposes until every agent admitted so far holds an item;
    under queue discipline it makes one proposal, and the agents it sends
    back wait behind the agents not yet admitted.  The last agent admitted is
    followed by those still waiting, as in a whole run.  A whole run of an
    order passes through the same states, so it makes the same proposals in
    the same sequence, and the proposal bound fires on the same orders.
    """
    stack = config.switches[2]

    def begin(profile: Profile):
        n = profile.n

        def admit(state, count, agent):
            holder, item_of, rank, memory, waiting = state
            holder, item_of, rank, memory = list(holder), list(item_of), list(rank), list(memory)
            pending = deque((agent,))
            waiting = pending if stack else deque(waiting)  # nothing waits under stack
            count, _ = _propose(
                profile, config, (holder, item_of, rank, memory, waiting), pending, count, False
            )
            return (tuple(holder), tuple(item_of), tuple(rank), tuple(memory), tuple(waiting)), count

        def finish(state, count, agent):
            holder, item_of, rank, memory, waiting = state
            item_of = list(item_of)
            pending = deque((agent,) + waiting)
            _propose(
                profile, config, (list(holder), item_of, list(rank), list(memory), pending),
                pending, count, False,
            )
            return tuple(item_of)

        return ((None,) * n, (None,) * n, (0,) * n, ((),) * n, ()), admit, finish

    return begin


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
    _require_item_prefs(profile, "two-sided Boston")
    if mode is BostonMode.SEQUENTIAL:
        return serial_dictatorship(profile, order)
    priority = []
    for prefs in profile.item_prefs:
        rank = [0] * profile.n
        for r, a in enumerate(prefs):
            rank[a] = r
        priority.append(rank)
    return immediate_acceptance(profile, priority)


def boston_sequential_stepper(profile: Profile):
    """The stepper of sequential two-sided Boston: serial dictatorship's, on
    profiles that have item preferences."""
    _require_item_prefs(profile, "two-sided Boston")
    return serial_dictatorship_stepper(profile)


def _replay(item_of: List[Optional[int]], trace: Tuple[TraceEvent, ...]) -> Iterator[TraceEvent]:
    """Apply each event to the partial matching ``item_of`` in place, then
    yield it; raises if an event does not apply to the state before it."""
    for e in trace:
        if e.outcome is Outcome.DISPLACED_HOLDER:
            if item_of[e.displaced] != e.item:
                raise InvalidInstanceError("trace displaces a non-holder")
            item_of[e.displaced] = None
        if e.outcome is not Outcome.REJECTED:
            item_of[e.proposer] = e.item
        yield e


def replay_trace(profile: Profile, order: AgentOrder, trace: Tuple[TraceEvent, ...]) -> Matching:
    """Re-apply a recorded trace to a fresh state and return the final matching.
    Raises ``InvalidInstanceError`` if an event does not apply."""
    item_of: List[Optional[int]] = [None] * profile.n
    deque(_replay(item_of, trace), maxlen=0)
    return Matching(tuple(item_of))


def format_trace_table(
    order: AgentOrder, result: EngineResult, config: Optional[EngineConfig] = None
) -> str:
    """Render a recorded run in the tabular trace format.

    One line per proposal:
    ``index | proposer -> item | outcome | pending-after | partial-matching | item-memories``.
    ``config`` is the engine configuration the run used; pass None for a
    fixed-preference run (no memory column).  Costs time linear in the table.
    """
    n = len(order.order)
    agents, items = names(n)
    # Kept tokens: "agent:item" per matched agent and "item:agent>agent" per
    # item with a recorded preference; an event rewrites only those it changes.
    held: List[Optional[str]] = [None] * n
    mems: List[Optional[str]] = [None] * n
    mem_s = "-"
    out = []
    for idx, e in enumerate(_replay([None] * n, result.trace), start=1):
        j, o, outcome = e.proposer, e.item, e.outcome.value
        if e.outcome is Outcome.DISPLACED_HOLDER:
            held[e.displaced] = None
            outcome = f"{agents[e.displaced]} {outcome}"
        if e.outcome is not Outcome.REJECTED:
            held[j] = f"{agents[j]}:{items[o]}"
        if config is not None:
            if e.reset_occurred:
                mems = [None] * n
            mems[o] = f"{items[o]}:" + ">".join([agents[a] for a in e.memory]) if e.memory else None
            mem_s = " ".join(filter(None, mems)) or "none"
        pending_s = ",".join([agents[a] for a in e.pending]) or "-"
        matching_s = " ".join(filter(None, held)) or "-"
        out.append(
            f"{idx} | {agents[j]} -> {items[o]} | {outcome} | {pending_s} | {matching_s} | {mem_s}"
        )
    return "\n".join(out) + "\n"
