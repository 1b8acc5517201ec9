"""Mechanism codes and lookup.

Base codes: the eight engine triples (PFS, PFQ, PLS, PLQ, TFS, TFQ, TLS, TLQ),
SD (serial dictatorship), NB (one-sided naive Boston), PS (probabilistic
serial), GS (Gale-Shapley), BOS-SEQ and BOS-SIM (two-sided Boston).  SD and
PFS compute the same matchings, as do NB and PFQ; both implementations are
kept because their equivalence is a tested property.  BOS-SEQ never reads
the item preferences it requires: it runs serial dictatorship.  BOS-SIM and
NB share one immediate-acceptance loop, with item priorities taken from the
item preferences and from the order respectively.  Every code that reads
the order carries a stepper of its own for exact lotteries, ``+G`` forms
included (NB's is ``naive_boston_stepper``, not PFQ's engine stepper); the
others get ``order_free``.

Modifiers: a trailing ``+G`` reruns the output through top trading cycles
(invalid on PS); a leading ``R-`` marks randomization over the initial order
(an evaluation mode, not a different base mechanism).  ``RSD`` means ``R-SD``.
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
from .lottery import MatchingMechanism, Runner, Stepper, exact_lottery, order_free
from .mechanisms import (
    compose_ttc,
    naive_boston_one_sided,
    naive_boston_stepper,
    probabilistic_serial,
    serial_dictatorship,
    serial_dictatorship_stepper,
    ttc_stepper,
)
from .model import AgentOrder, FractionalAssignment, Matching, Profile

# A proposal run and its engine configuration, None for GS's stated item preferences.
Traced = Tuple[EngineResult, Optional[EngineConfig]]


@dataclass(frozen=True)
class Mechanism:
    """A mechanism with uniform call surfaces for experiments and the CLI.

    Each code sets one runner: ``_run`` for a matching, ``_assignment`` for
    a fractional outcome, or ``_trace`` for the proposal codes (the eight
    engine codes and GS).  ``_stepper`` runs a sequential code one admitted
    agent at a time, for exact lotteries; codes that never read the order
    get ``order_free``.
    """

    code: str
    uses_order: bool
    needs_item_prefs: bool
    _run: Optional[MatchingMechanism] = None
    _assignment: Optional[Callable[[Profile], FractionalAssignment]] = None
    _trace: Optional[Callable[[Profile, AgentOrder, bool], Traced]] = None
    _stepper: Optional[Stepper] = None

    @property
    def kind(self) -> str:
        """``"fractional"`` for a random assignment, else ``"matching"``."""
        return "matching" if self._assignment is None else "fractional"

    @functools.cached_property
    def run(self) -> Runner:
        """The matching mechanism, ``run(profile, order)``, carrying its stepper."""
        run = self._run
        if run is None:
            trace = self._trace
            run = (lambda p, o: trace(p, o, False)[0].matching) if trace else self._no_run
        return Runner(run, self._stepper if self.uses_order else order_free(run))

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


def _engine_mech(code: str) -> Mechanism:
    config = EngineConfig.from_code(code)
    return Mechanism(
        code,
        uses_order=True,
        needs_item_prefs=False,
        _trace=lambda p, o, record, _c=config: (run_engine(p, o, _c, record), _c),
        _stepper=engine_stepper(config),
    )


_BASE = {code: _engine_mech(code) for code in ALL_ENGINE_CODES}
_BASE["SD"] = Mechanism(
    "SD", True, False, _run=serial_dictatorship, _stepper=serial_dictatorship_stepper
)
_BASE["NB"] = Mechanism(
    "NB", True, False, _run=naive_boston_one_sided, _stepper=naive_boston_stepper
)
_BASE["PS"] = Mechanism("PS", False, False, _assignment=probabilistic_serial)
_BASE["GS"] = Mechanism(
    "GS", False, True, _trace=lambda p, o, record: (run_gale_shapley(p, o, record), None)
)
_BASE["BOS-SEQ"] = Mechanism(
    "BOS-SEQ", True, True,
    _run=lambda p, o: run_boston_two_sided(p, o, BostonMode.SEQUENTIAL),
    _stepper=boston_sequential_stepper,
)
_BASE["BOS-SIM"] = Mechanism(
    "BOS-SIM", False, True,
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
        mech = Mechanism(
            code + "+G",
            mech.uses_order,
            mech.needs_item_prefs,
            _run=compose_ttc(mech.run.run),
            _stepper=mech._stepper and ttc_stepper(mech._stepper),
        )
    return mech, randomized

