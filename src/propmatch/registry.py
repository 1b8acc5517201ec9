"""Mechanism codes and lookup.

Base codes: the eight engine triples (PFS, PFQ, PLS, PLQ, TFS, TFQ, TLS, TLQ),
SD (serial dictatorship), NB (one-sided naive Boston), PS (probabilistic
serial), GS (Gale-Shapley), BOS-SEQ and BOS-SIM (two-sided Boston).  SD and
PFS compute the same matchings, as do NB and PFQ; both implementations are
kept because their equivalence is a tested property.  BOS-SEQ never reads
the item preferences it requires: it runs serial dictatorship.  BOS-SIM and
NB share one immediate-acceptance loop, with item priorities taken from the
item preferences and from the order respectively.

Modifiers: a trailing ``+G`` reruns the output through top trading cycles
(invalid on PS); a leading ``R-`` marks randomization over the initial order
(an evaluation mode, not a different base mechanism).  ``RSD`` means ``R-SD``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .engine import (
    ALL_ENGINE_CODES,
    BostonMode,
    EngineConfig,
    run_boston_two_sided,
    run_engine,
    run_gale_shapley,
)
from .mechanisms import (
    compose_ttc,
    naive_boston_one_sided,
    probabilistic_serial,
    serial_dictatorship,
)
from .model import AgentOrder, FractionalAssignment, Matching, Profile


@dataclass(frozen=True)
class Mechanism:
    """A mechanism with uniform call surfaces for experiments and the CLI."""

    code: str
    kind: str  # "matching" or "fractional"
    uses_order: bool
    needs_item_prefs: bool
    _run: Optional[Callable[[Profile, AgentOrder], Matching]] = None
    _assignment: Optional[Callable[[Profile], FractionalAssignment]] = None

    def run(self, profile: Profile, order: AgentOrder) -> Matching:
        if self._run is None:
            raise ValueError(f"{self.code} does not produce discrete matchings")
        return self._run(profile, order)

    def assignment(self, profile: Profile) -> FractionalAssignment:
        if self._assignment is None:
            raise ValueError(f"{self.code} is not a fractional mechanism")
        return self._assignment(profile)


def _engine_mech(code: str) -> Mechanism:
    config = EngineConfig.from_code(code)
    return Mechanism(
        code,
        "matching",
        uses_order=True,
        needs_item_prefs=False,
        _run=lambda p, o, _c=config: run_engine(p, o, _c, record=False).matching,
    )


_BASE = {code: _engine_mech(code) for code in ALL_ENGINE_CODES}
_BASE["SD"] = Mechanism("SD", "matching", True, False, _run=serial_dictatorship)
_BASE["NB"] = Mechanism("NB", "matching", True, False, _run=naive_boston_one_sided)
_BASE["PS"] = Mechanism("PS", "fractional", False, False, _assignment=probabilistic_serial)
_BASE["GS"] = Mechanism(
    "GS", "matching", False, True, _run=lambda p, o: run_gale_shapley(p, o, record=False).matching
)
_BASE["BOS-SEQ"] = Mechanism(
    "BOS-SEQ", "matching", True, True,
    _run=lambda p, o: run_boston_two_sided(p, o, BostonMode.SEQUENTIAL),
)
_BASE["BOS-SIM"] = Mechanism(
    "BOS-SIM", "matching", False, True,
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
            "matching",
            mech.uses_order,
            mech.needs_item_prefs,
            _run=compose_ttc(mech._run),
        )
    return mech, randomized

