"""Mechanism codes and lookup.

Base codes: the eight engine triples (PFS, PFQ, PLS, PLQ, TFS, TFQ, TLS, TLQ),
SD (serial dictatorship), NB (one-sided naive Boston), PS (probabilistic
serial), GS (Gale-Shapley), BOS-SEQ and BOS-SIM (two-sided Boston).  SD and
PFS compute the same matchings, as do NB and PFQ; both implementations are
kept because their equivalence is a tested property.  BOS-SEQ never reads
the item preferences it requires: it runs serial dictatorship.  BOS-SIM and
NB share one immediate-acceptance loop, with item priorities taken from the
item preferences and from the order respectively.  A code reads the order
exactly when it has a stepper, which admits every agent and then settles
each distinct final state once (NB's is ``naive_boston_stepper``, not PFQ's
engine stepper); GS, BOS-SIM and PS have none.

Modifiers: a trailing ``+G`` reruns the output through top trading cycles
(invalid on PS); its ``Runner`` is the base's with ``mechanisms.trade``, so
an exact lottery folds the base's outcomes, then trades each folded outcome
once.  A leading ``R-`` marks randomization over the initial order (an
evaluation mode, not a different base mechanism).  ``RSD`` means ``R-SD``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .engine import (
    ALL_ENGINE_CODES,
    BostonMode,
    EngineConfig,
    EngineResult,
    boston_sequential_stepper,
    engine_stepper,
    run_boston_two_sided,
    run_engine,
    run_gale_shapley,
)
from .lottery import MatchingMechanism, Runner, Stepper, exact_lottery
from .mechanisms import (
    naive_boston_one_sided,
    naive_boston_stepper,
    probabilistic_serial,
    serial_dictatorship,
    serial_dictatorship_stepper,
    trade,
)
from .model import AgentOrder, FractionalAssignment, Matching, Profile

# A proposal run and its engine configuration, None for GS's stated item preferences.
Traced = Tuple[EngineResult, Optional[EngineConfig]]


@dataclass(frozen=True)
class Mechanism:
    """A mechanism with uniform call surfaces for experiments and the CLI.

    Each code sets ``_run`` for a matching or ``_assignment`` for a
    fractional outcome.  The proposal codes (the eight engine codes and GS)
    also set ``_trace``, the run with its events if asked, paired with its
    configuration; their ``_run`` calls the unrecorded engine run directly,
    so a campaign's runs build no trace and no such pair.  ``_stepper`` admits one
    agent at a time and settles each final state once, for exact lotteries;
    only the codes that read the order (``uses_order``) have one.  A ``+G``
    form sets only its ``base``: its ``run`` is the base's ``Runner`` with
    ``mechanisms.trade`` added, so a campaign runs the base once for both.
    """

    code: str
    needs_item_prefs: bool
    _run: Optional[MatchingMechanism] = None
    _assignment: Optional[Callable[[Profile], FractionalAssignment]] = None
    _trace: Optional[Callable[[Profile, AgentOrder, bool], Traced]] = None
    _stepper: Optional[Stepper] = None
    base: Optional["Mechanism"] = None

    @property
    def uses_order(self) -> bool:
        return self.run.stepper is not None

    @property
    def kind(self) -> str:
        """``"fractional"`` for a random assignment, else ``"matching"``."""
        return "matching" if self._assignment is None else "fractional"

    @functools.cached_property
    def run(self) -> Runner:
        """The matching mechanism, ``run(profile, order)``: the code's own
        run and stepper, or for a ``+G`` form its base's ``Runner``, its
        stepper and the trade."""
        if self.base is not None:
            base = self.base.run
            return Runner(base, base.stepper, trade)
        return Runner(self._run or self._no_run, self._stepper)

    def _no_run(self, profile: Profile, order: AgentOrder) -> Matching:
        raise ValueError(f"{self.code} does not produce discrete matchings")

    def trace(self, profile: Profile, order: AgentOrder, record: bool) -> Optional[Traced]:
        """The proposal run, with its events if ``record`` is set, and its
        configuration; None for a code that makes no proposals."""
        return self._trace and self._trace(profile, order, record)

    def assignment(self, profile: Profile) -> FractionalAssignment:
        """The random assignment: the fractional outcome, or the exact
        uniform-order lottery of a matching mechanism."""
        if self._assignment is None:
            return exact_lottery(self.run, profile).assignment
        return self._assignment(profile)


# The runners are lambdas that read ``run_engine`` and ``run_gale_shapley``
# from this module's globals on each call, so a wrapper set there sees every run.
def _engine_mech(code: str) -> Mechanism:
    config = EngineConfig.from_code(code)
    return Mechanism(
        code,
        needs_item_prefs=False,
        _run=lambda p, o, _c=config: run_engine(p, o, _c, False).matching,
        _trace=lambda p, o, record, _c=config: (run_engine(p, o, _c, record), _c),
        _stepper=engine_stepper(config),
    )


_BASE = {code: _engine_mech(code) for code in ALL_ENGINE_CODES}
_BASE["SD"] = Mechanism("SD", False, _run=serial_dictatorship, _stepper=serial_dictatorship_stepper)
_BASE["NB"] = Mechanism("NB", False, _run=naive_boston_one_sided, _stepper=naive_boston_stepper)
_BASE["PS"] = Mechanism("PS", False, _assignment=probabilistic_serial)
_BASE["GS"] = Mechanism(
    "GS", True,
    _run=lambda p, o: run_gale_shapley(p, o, False).matching,
    _trace=lambda p, o, r: (run_gale_shapley(p, o, r), None),
)
_BASE["BOS-SEQ"] = Mechanism(
    "BOS-SEQ", True,
    _run=lambda p, o: run_boston_two_sided(p, o, BostonMode.SEQUENTIAL),
    _stepper=boston_sequential_stepper,
)
_BASE["BOS-SIM"] = Mechanism(
    "BOS-SIM", True,
    _run=lambda p, o: run_boston_two_sided(p, o, BostonMode.SIMULTANEOUS),
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
        mech = Mechanism(code + "+G", mech.needs_item_prefs, base=mech)
    return mech, randomized

