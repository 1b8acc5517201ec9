"""Mechanism codes and lookup.

Base codes: the eight engine triples (PFS, PFQ, PLS, PLQ, TFS, TFQ, TLS, TLQ),
SD (serial dictatorship), NB (one-sided naive Boston), PS (probabilistic
serial), GS (Gale-Shapley), BOS-SEQ and BOS-SIM (two-sided Boston).  SD and
PFS compute the same matchings, as do NB and PFQ; both implementations are
kept because their equivalence is a tested property.  BOS-SEQ never reads
the item preferences it requires: it runs serial dictatorship.  BOS-SIM and
NB share one immediate-acceptance loop, with item priorities taken from the
item preferences and from the order respectively.  Each code's ``Runner``
runs its family's core, which returns the outcome ``item_of``: the engine's
``_run`` (the engine codes and GS), ``_serial_dictatorship`` (SD, BOS-SEQ)
or ``immediate_acceptance`` (NB, BOS-SIM).  A code reads the order exactly
when it has a stepper, which admits every agent and then settles each
distinct final state once (NB's is ``naive_boston_stepper``, not PFQ's
engine stepper); GS, BOS-SIM and PS have none.

Modifiers: a trailing ``+G`` reruns the output through top trading cycles
(invalid on PS); its ``Runner`` is the base's core and stepper with
``mechanisms.trade``, so an exact lottery folds the base's outcomes, then
trades each folded outcome once.  A leading ``R-`` marks randomization over
the initial order (an evaluation mode, not a different base mechanism).
``RSD`` means ``R-SD``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .engine import (
    ALL_ENGINE_CODES,
    BostonMode,
    EngineConfig,
    EngineResult,
    _boston,
    _run,
    boston_sequential_stepper,
    engine_stepper,
    run_engine,
    run_gale_shapley,
)
from .lottery import Runner, exact_counts
from .mechanisms import (
    _serial_dictatorship,
    immediate_acceptance,
    naive_boston_stepper,
    probabilistic_serial,
    serial_dictatorship_stepper,
    trade,
)
from .model import AgentOrder, FractionalAssignment, Profile

# A proposal run and its engine configuration, None for GS's stated item preferences.
Traced = Tuple[EngineResult, Optional[EngineConfig]]


@dataclass(frozen=True)
class Mechanism:
    """A mechanism with uniform call surfaces for experiments and the CLI.

    ``run`` is the code's ``Runner``; calling it gives the ``Matching``.  A
    fractional code sets ``_assignment``, and its Runner refuses to run.
    The proposal codes (the eight engine codes and GS) also set ``_trace``,
    the public run with its events if asked, paired with its configuration.
    """

    code: str
    needs_item_prefs: bool
    run: Runner
    _assignment: Optional[Callable[[Profile], FractionalAssignment]] = None
    _trace: Optional[Callable[[Profile, AgentOrder, bool], Traced]] = None

    @property
    def uses_order(self) -> bool:
        return self.run.stepper is not None

    @property
    def kind(self) -> str:
        """``"fractional"`` for a random assignment, else ``"matching"``."""
        return "matching" if self._assignment is None else "fractional"

    def trace(self, profile: Profile, order: AgentOrder, record: bool) -> Optional[Traced]:
        """The proposal run, with its events if ``record`` is set, and its
        configuration; None for a code that makes no proposals."""
        return self._trace and self._trace(profile, order, record)

    def assignment(self, profile: Profile) -> FractionalAssignment:
        """The random assignment: the fractional outcome, or the exact lottery
        of a matching mechanism, its ``exact_counts`` receipt rows over n!."""
        if self._assignment is None:
            return FractionalAssignment(exact_counts(self.run, profile).rows, math.factorial(profile.n))
        return self._assignment(profile)


def _no_run(profile: Profile, order: AgentOrder):
    raise ValueError("PS does not produce discrete matchings")


# The trace lambdas read ``run_engine`` and ``run_gale_shapley`` from this
# module's globals on each call, so a wrapper set there sees every traced run.
def _engine_mech(code: str) -> Mechanism:
    config = EngineConfig.from_code(code)
    return Mechanism(
        code, False, Runner(functools.partial(_run, config), engine_stepper(config)),
        _trace=lambda p, o, record, _c=config: (run_engine(p, o, _c, record), _c),
    )


_BASE = {code: _engine_mech(code) for code in ALL_ENGINE_CODES}
_BASE["SD"] = Mechanism("SD", False, Runner(_serial_dictatorship, serial_dictatorship_stepper))
_BASE["NB"] = Mechanism("NB", False, Runner(immediate_acceptance, naive_boston_stepper))
_BASE["PS"] = Mechanism("PS", False, Runner(_no_run, None), _assignment=probabilistic_serial)
_BASE["GS"] = Mechanism(
    "GS", True, Runner(functools.partial(_run, None), None),
    _trace=lambda p, o, r: (run_gale_shapley(p, o, r), None),
)
_BASE["BOS-SEQ"] = Mechanism(
    "BOS-SEQ", True, Runner(functools.partial(_boston, BostonMode.SEQUENTIAL), boston_sequential_stepper)
)
_BASE["BOS-SIM"] = Mechanism(
    "BOS-SIM", True, Runner(functools.partial(_boston, BostonMode.SIMULTANEOUS), None)
)


def resolve(code: str) -> Tuple[Mechanism, bool]:
    """Resolve a mechanism code; returns (mechanism, randomized).

    Raises ``ValueError`` for unknown codes or ``+G`` on a fractional base.
    """
    original = code.strip()
    code = original.upper()
    randomized = False
    if code == "RSD":
        code = "SD"
        randomized = True
    elif code.startswith("R-"):
        code = code[2:]
        randomized = True
    with_ttc = False
    if code.endswith("+G"):
        code = code[:-2]
        with_ttc = True
    if code not in _BASE:
        raise ValueError(f"unknown mechanism code {original!r}")
    mech = _BASE[code]
    if randomized and mech.kind != "matching":
        raise ValueError(f"R- randomizes the initial order; {code} has no discrete runs")
    if with_ttc:
        if mech.kind != "matching":
            raise ValueError(f"+G is invalid on {code}: no discrete output to trade from")
        mech = Mechanism(code + "+G", mech.needs_item_prefs, Runner(mech.run.run, mech.run.stepper, trade))
    return mech, randomized

