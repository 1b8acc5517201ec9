"""Proposal-based one- and two-sided matching: a unified engine for eight
dynamic-preference algorithms alongside Gale-Shapley, Boston, Serial
Dictatorship, Probabilistic Serial, and Top Trading Cycles, with exact
rational lotteries, axiom checkers, and welfare experiments.
"""
from .engine import (
    Acceptance,
    BostonMode,
    Discipline,
    EngineConfig,
    EngineResult,
    Memory,
    Outcome,
    TraceEvent,
    run_boston_two_sided,
    run_engine,
    run_gale_shapley,
)
from .lottery import LotteryResult, exact_lottery, sampled_lottery
from .mechanisms import (
    compose_ttc,
    naive_boston_one_sided,
    probabilistic_serial,
    serial_dictatorship,
    top_trading_cycles,
)
from .model import (
    AgentOrder,
    FractionalAssignment,
    InvalidInstanceError,
    Matching,
    Profile,
    matching_to_assignment,
    proportional_assignment,
    profile,
)
from .textio import format_profile, parse_profile

__all__ = [
    "Acceptance",
    "AgentOrder",
    "BostonMode",
    "Discipline",
    "EngineConfig",
    "EngineResult",
    "FractionalAssignment",
    "InvalidInstanceError",
    "LotteryResult",
    "Matching",
    "Memory",
    "Outcome",
    "Profile",
    "TraceEvent",
    "compose_ttc",
    "exact_lottery",
    "format_profile",
    "matching_to_assignment",
    "naive_boston_one_sided",
    "parse_profile",
    "probabilistic_serial",
    "profile",
    "proportional_assignment",
    "run_boston_two_sided",
    "run_engine",
    "run_gale_shapley",
    "sampled_lottery",
    "serial_dictatorship",
    "top_trading_cycles",
]

__version__ = "0.1.0"
