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
from typing import Iterator, List, NamedTuple, Optional, Tuple

from .lottery import Stepper
from .mechanisms import _serial_dictatorship, immediate_acceptance, serial_dictatorship_stepper
from .model import AgentOrder, InvalidInstanceError, Matching, Profile, _inverse, _trusted
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
        """(temporary, accept-last, stack), worked out once per configuration.
        ``_setup`` reads them once per profile in an exact-lottery walk and
        once per whole run; three enum comparisons would cost more than the
        rest of that set-up."""
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


# The members, in definition order, as module globals: a read through the enum
# class costs about ten times a global's, and the trace paths read some per event.
_MATCHED, _DISPLACED, _REJECTED = Outcome


class TraceEvent(NamedTuple):
    """One proposal: who approached what, and what happened.

    ``displaced`` is the previous holder when ``outcome`` is DISPLACED_HOLDER.
    ``reset_occurred`` is True only for a MATCHED_UNASSIGNED event under
    temporary memory.  ``pending`` is the pending queue after the proposal
    (next proposer first) and ``memory`` the proposed item's recorded
    preference after it (most-preferred first).  A NamedTuple, so an event
    is immutable and also equals the plain tuple of its fields; change one
    with ``._replace``.
    """

    proposer: int
    item: int
    outcome: Outcome
    displaced: Optional[int] = None
    reset_occurred: bool = False
    pending: Tuple[int, ...] = ()
    memory: Tuple[int, ...] = ()


class EngineResult(NamedTuple):
    """A whole run's matching, its proposal count and its events (``()``
    when the run was not recorded).  A NamedTuple, as ``TraceEvent``, so
    an unrecorded run builds it as one tuple; change one with
    ``._replace``."""

    matching: Matching
    proposal_count: int
    trace: Tuple[TraceEvent, ...]


def run_engine(
    profile: Profile, order: AgentOrder, config: EngineConfig, record: bool = True
) -> EngineResult:
    """Run one deterministic proposal sequence and return the final matching.

    Only the agent side of ``profile`` is used; item preferences are built
    dynamically per ``config``.  With ``record=False`` no trace is kept.
    """
    return _result(config, profile, order, record)


# Gale-Shapley is permanent memory with queue discipline; every proposer is
# recorded from the start, so the acceptance policy never applies.
_GALE_SHAPLEY = EngineConfig(Memory.PERMANENT, Acceptance.ACCEPT_FIRST, Discipline.QUEUE)


def run_gale_shapley(profile: Profile, order: AgentOrder, record: bool = True) -> EngineResult:
    """Agent-proposing deferred acceptance with the profile's item preferences.

    The output matching is stable and does not depend on ``order``; the trace
    and proposal count do.  With ``record=False`` no trace is kept.
    """
    return _result(None, profile, order, record)


def _require_item_prefs(profile: Profile, name: str) -> None:
    if profile.item_prefs is None:
        raise ModeError(f"{name} needs item-side preferences (an @items section)")


def _result(config: Optional[EngineConfig], profile: Profile, order: AgentOrder, record: bool) -> EngineResult:
    """A public run's result, built around ``_run``."""
    log = [0, [] if record else None]
    item_of = _run(config, profile, order, log)
    return EngineResult(_trusted(Matching, item_of), log[0], tuple(log[1] or ()))  # complete by construction


def _run(config: Optional[EngineConfig], profile: Profile, order: AgentOrder, log=None) -> Tuple[int, ...]:
    """One whole run, every agent of ``order`` pending from the start: the
    core of the engine codes and, with ``config`` None, of Gale-Shapley,
    which records the items' stated preferences from the start.  Returns
    the outcome ``item_of``.  A ``log`` ``[0, events]`` gets the proposal
    count in ``log[0]``, and each TraceEvent appended to a list ``events``."""
    n = profile.n
    memory = [()] * n
    if config is None:
        _require_item_prefs(profile, "Gale-Shapley")
        config, memory = _GALE_SHAPLEY, list(profile.item_prefs)
    if len(order.order) != n:
        raise InvalidInstanceError("order length must equal agent count")
    pending = list(order.order)
    holder: List[Optional[int]] = [None] * n
    trace = None if log is None else log[1]
    count = _propose(_setup(profile, config), (holder, [0] * n, memory, pending), pending, 0, trace)
    if log is not None:
        log[0] = count
    return _inverse(holder)  # each agent's item: every item is held


def _setup(profile: Profile, config: EngineConfig) -> tuple:
    """What the proposal loop reads of a profile and a configuration, worked
    out once: ``(prefs, temporary, accept_last, stack, bound, no_memory,
    no_rank)``.  The switches are those of ``EngineConfig.switches``, the
    bound n^3 under temporary memory and n^2 under permanent, and
    ``no_memory`` and ``no_rank`` the lists a temporary-memory reset copies
    in (None under permanent memory, which never resets)."""
    prefs = profile.agent_prefs
    n = len(prefs)
    temporary, accept_last, stack = config.switches
    if temporary:
        return prefs, True, accept_last, stack, n**3, [()] * n, [0] * n
    return prefs, False, accept_last, stack, n**2, None, None


# A queue-discipline whole run appends every re-entry to the list it reads.
# Once the head index has passed this many slots, the consumed head is
# dropped, so the list stays within 2n + 1 + _CONSUMED_LIMIT slots however
# many proposals the run makes; dropping seldom keeps the cost off small runs.
_CONSUMED_LIMIT = 1024


def _propose(
    setup: tuple,
    state: Tuple[list, list, list, Optional[list]],
    pending: list,
    count: int,
    trace: Optional[list],
) -> int:
    """The proposal loop behind every engine entry point.

    ``setup`` is ``_setup``'s, which callers work out once per profile.
    ``state`` is ``(holder, rank, memory, waiting)``, updated in place:
    ``holder[o]`` is the agent holding item o (None while o is free),
    ``rank[j]`` agent j's next position in its list (it approached the items
    above it since the last reset), ``memory[o]`` item o's recorded
    preference as a tuple, most-preferred first, and ``waiting`` the list
    that queue discipline appends rejected and displaced agents to (stack
    discipline never reads it).  The loop reads no agent's item, so it keeps
    none: callers invert ``holder`` once the run is over.

    ``pending`` is a list read from a head index i, and the loop proposes
    until i reaches its end.  The agent in slot i proposes; the slot is
    consumed (i moves on) once that agent holds an item or, under queue
    discipline, once the agent sent back is appended to ``waiting``.  Under
    stack discipline the agent sent back overwrites slot i instead, so it
    proposes next.  A whole run passes one list as both ``pending`` and
    ``waiting``, so a queue re-entry lines up behind every agent pending,
    and the consumed head is dropped now and then (``_CONSUMED_LIMIT``).  An
    exact lottery admits one agent at a time instead: ``pending`` holds just
    that agent, so under queue discipline it makes one proposal, and the
    agents it sends back wait for the later admits.  ``count`` is the number
    of proposals made before; the new count is returned.  A recorded run
    passes a list ``trace`` (else None), to which each proposal's
    TraceEvent is appended; only such a run works out each proposal's
    outcome, from item o's holder before and after it.
    """
    prefs, temporary, accept_last, stack, bound, no_memory, no_rank = setup
    holder, rank, memory, waiting = state
    record = trace is not None
    event = tuple.__new__  # an event from the tuple of its fields, as TraceEvent._make does
    i = 0

    while i < len(pending):
        j = pending[i]
        o = prefs[j][rank[j]]
        rank[j] += 1
        count += 1
        if count > bound:
            raise RuntimeError("proposal bound exceeded; engine semantics broken")
        h = holder[o]
        mem = memory[o]
        if h is None:
            i += 1
            holder[o] = j
            if temporary:
                # Global reset: every item loses its memory and every agent may
                # approach items that rejected it before.
                memory[:] = no_memory
                rank[:] = no_rank
                mem = ()
            elif not mem:
                memory[o] = mem = (j,)
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
                back = h
            else:
                back = j
            if stack:
                pending[i] = back
            else:
                i += 1
                waiting.append(back)
                if i > _CONSUMED_LIMIT:
                    del pending[:i]
                    i = 0
        if record:
            if h is None:
                outcome, displaced = _MATCHED, None
            elif holder[o] == j:
                outcome, displaced = _DISPLACED, h
            else:
                outcome, displaced = _REJECTED, None
            trace.append(event(TraceEvent, (
                j, o, outcome, displaced, temporary and h is None, tuple(pending[i:]), mem,
            )))
    return count


def engine_stepper(config: EngineConfig) -> Stepper:
    """The engine admitting one agent at a time, for ``lottery.exact_counts``.

    A state is ``_propose``'s ``(holder, rank, memory, waiting)`` as tuples;
    the work is the proposal count.  ``begin`` works out the loop's
    ``_setup`` once per profile.  Each admit copies the state into lists and
    passes the loop a one-agent ``pending`` list.  Under stack discipline
    the admitted agent proposes until every agent admitted so far holds an
    item, and ``waiting`` stays ``()``: nothing waits.  Under queue
    discipline it makes one proposal, and the agents it sends back wait
    behind the agents not yet admitted.  Once every agent is admitted,
    ``settle`` lets those still waiting propose from the merged count, as in
    a whole run, and inverts the holders into the outcome; under stack
    discipline it only inverts.  A whole run of an order passes through the
    same states, so it makes the same proposals in the same sequence, and
    the proposal bound fires on the same orders.
    """
    stack = config.switches[2]

    def begin(profile: Profile):
        setup = _setup(profile, config)

        def admit(state, count, agent):
            holder, rank, memory, waiting = state
            # ``[*t]`` copies a tuple without calling ``list``, about 20 ns less a copy
            holder, rank, memory = [*holder], [*rank], [*memory]
            if stack:
                count = _propose(setup, (holder, rank, memory, None), [agent], count, None)
                return (tuple(holder), tuple(rank), tuple(memory), ()), count
            waiting = [*waiting]
            count = _propose(setup, (holder, rank, memory, waiting), [agent], count, None)
            return (tuple(holder), tuple(rank), tuple(memory), tuple(waiting)), count

        def settle(state, count):
            holder, rank, memory, waiting = state
            if waiting:
                holder, pending = list(holder), list(waiting)
                _propose(setup, (holder, list(rank), list(memory), pending), pending, count, None)
            return _inverse(holder)  # each agent's item: every item is held

        n = profile.n
        return ((None,) * n, (0,) * n, ((),) * n, ()), admit, settle

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
    return _trusted(Matching, _boston(mode, profile, order))


def _boston(mode: BostonMode, profile: Profile, order: AgentOrder) -> Tuple[int, ...]:
    """``run_boston_two_sided``'s outcome ``item_of``: the core of BOS-SEQ and BOS-SIM."""
    _require_item_prefs(profile, "two-sided Boston")
    if mode is BostonMode.SEQUENTIAL:
        return _serial_dictatorship(profile, order)
    return immediate_acceptance(profile, order, [_inverse(prefs) for prefs in profile.item_prefs])


def boston_sequential_stepper(profile: Profile):
    """The stepper of sequential two-sided Boston: serial dictatorship's, on
    profiles that have item preferences."""
    _require_item_prefs(profile, "two-sided Boston")
    return serial_dictatorship_stepper(profile)


def _replay(item_of: List[Optional[int]], trace: Tuple[TraceEvent, ...]) -> Iterator[TraceEvent]:
    """Apply each event to the partial matching ``item_of`` in place, then
    yield it; raises if an event does not apply to the state before it."""
    for e in trace:
        if e.outcome is _DISPLACED:
            if item_of[e.displaced] != e.item:
                raise InvalidInstanceError("trace displaces a non-holder")
            item_of[e.displaced] = None
        if e.outcome is not _REJECTED:
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
    agent = agents.__getitem__
    # Kept tokens: "agent:item" per matched agent and "item:agent>agent" per
    # item with a recorded preference; an event rewrites only those it changes,
    # and a rejection leaves the matching column as it was.
    held: List[Optional[str]] = [None] * n
    mems: List[Optional[str]] = [None] * n
    matching_s = mem_s = "-"
    out = []
    events = enumerate(_replay([None] * n, result.trace), start=1)
    for idx, (j, o, outcome, displaced, reset, pending, memory) in events:
        word = outcome._value_  # what ``.value`` reads, without the property
        if outcome is not _REJECTED:
            if outcome is _DISPLACED:
                held[displaced] = None
                word = f"{agents[displaced]} {word}"
            held[j] = f"{agents[j]}:{items[o]}"
            matching_s = " ".join(filter(None, held))
        if config is not None:
            if reset:
                mems = [None] * n
            mems[o] = f"{items[o]}:" + ">".join(map(agent, memory)) if memory else None
            mem_s = " ".join(filter(None, mems)) or "none"
        pending_s = ",".join(map(agent, pending)) or "-"
        out.append(
            f"{idx} | {agents[j]} -> {items[o]} | {word} | {pending_s} | {matching_s} | {mem_s}"
        )
    return "\n".join(out) + "\n"
