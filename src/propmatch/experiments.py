"""Experiment campaigns: welfare loss, egalitarian welfare, and order bias over
seeded random profiles, emitted as CSV rows.

Config files are flat ``key = value`` text; recognized keys:

    mechanisms       comma-separated codes (R- prefix required for util_loss
                     and egal metrics on matching mechanisms; bare codes for
                     order_bias; PS allowed everywhere it applies)
    n_values         comma-separated instance sizes
    metrics          subset of util_loss, egal, egal_realized, order_bias
    profile_samples  profiles drawn per (n, mechanism, metric)
    order_mode       "exact" or "sampled:K" (orders per profile for expected
                     welfare; exact enumerates all n! orders, n <= 8)
    seed             non-negative integer

Any other key, and a key given twice, is refused.

CSV schema: ``n, mechanism, metric, mean, stderr, samples, orders_mode, seed``.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .lottery import ENUMERATION_LIMIT
from .registry import resolve
from .welfare import METRICS, campaign

KEYS = ("mechanisms", "n_values", "metrics", "profile_samples", "order_mode", "seed")
CSV_HEADER = ("n", "mechanism", "metric", "mean", "stderr", "samples", "orders_mode", "seed")


class ConfigError(ValueError):
    """Invalid experiment configuration.  ``key`` is the config key whose
    value is refused, if one is; ``parse_config`` names its line."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class ExperimentConfig:
    mechanisms: Tuple[str, ...]
    n_values: Tuple[int, ...]
    metrics: Tuple[str, ...]
    profile_samples: int
    order_mode: str  # "exact" or "sampled:K"
    seed: int
    orders: str | int = field(init=False)  # order_mode as order_stream takes it

    def __post_init__(self):
        mode, _, k = self.order_mode.partition(":")
        try:
            orders = "all" if self.order_mode == "exact" else int(k) if mode == "sampled" else None
        except ValueError:
            orders = None
        if orders is None:
            raise ConfigError("order_mode must be 'exact' or 'sampled:K'", "order_mode")
        if orders != "all" and orders < 1:
            raise ConfigError("sampled order count must be >= 1", "order_mode")
        object.__setattr__(self, "orders", orders)


def parse_config(text: str) -> ExperimentConfig:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}  # the line each key is given on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} ({', '.join(KEYS)})")
        if key in values:
            raise ConfigError(f"line {lineno}: {key} given twice")
        values[key] = val.strip()
        lines[key] = lineno

    def integer(key: str, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key} needs an integer, got {text!r}", key) from None

    try:
        mechanisms = tuple(tok.strip() for tok in values.get("mechanisms", "").split(",") if tok.strip())
        n_values = tuple(
            integer("n_values", tok.strip()) for tok in values.get("n_values", "").split(",") if tok.strip()
        )
        metrics = tuple(tok.strip() for tok in values.get("metrics", "").split(",") if tok.strip())
        profile_samples = integer("profile_samples", values.get("profile_samples", "1000"))
        order_mode = values.get("order_mode", "sampled:1")
        seed = integer("seed", values.get("seed", "0"))
        cfg = ExperimentConfig(mechanisms, n_values, metrics, profile_samples, order_mode, seed)
        validate_config(cfg)
    except ConfigError as exc:  # a refused value gets the line of its key, if given
        if exc.key not in lines:
            raise
        raise ConfigError(f"line {lines[exc.key]}: {exc}", exc.key) from None
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if not cfg.mechanisms:
        raise ConfigError("empty mechanism list", "mechanisms")
    if not cfg.n_values or any(n < 1 for n in cfg.n_values):
        raise ConfigError("n_values must be positive", "n_values")
    if not cfg.metrics:
        raise ConfigError("empty metric list", "metrics")
    for m in cfg.metrics:
        if m not in METRICS:
            raise ConfigError(f"unknown metric {m!r}", "metrics")
    if cfg.profile_samples < 1:
        raise ConfigError("profile_samples must be >= 1", "profile_samples")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0", "seed")
    if (cfg.orders == "all" and max(cfg.n_values) > ENUMERATION_LIMIT
            and set(cfg.metrics) != {"order_bias"}):
        raise ConfigError(
            f"order_mode=exact needs n <= {ENUMERATION_LIMIT}, got {max(cfg.n_values)}", "order_mode"
        )
    if "util_loss" in cfg.metrics and min(cfg.n_values) < 2:
        raise ConfigError("util_loss needs n >= 2: with one agent the optimum is 0", "n_values")
    for code in cfg.mechanisms:
        try:
            mech, randomized = resolve(code)  # raises on unknown codes / +G on PS
        except ValueError as exc:
            raise ConfigError(str(exc), "mechanisms") from None
        if mech.needs_item_prefs:
            raise ConfigError(f"{code} needs two-sided profiles; experiments sample one-sided", "mechanisms")
        for metric in cfg.metrics:
            if metric == "order_bias":
                if randomized:
                    raise ConfigError(
                        f"order_bias evaluates a fixed order; drop the R- prefix on {code}", "mechanisms"
                    )
            elif mech.kind == "matching" and not randomized:
                raise ConfigError(f"{metric} needs the randomized version: use R-{code}", "mechanisms")


def run_experiment(cfg: ExperimentConfig) -> List[Tuple]:
    """One CSV row per (n, mechanism, metric); deterministic given the config.

    Each n is one ``welfare.campaign`` pass over its profiles for every cell.
    The mean is exact fraction text and the stderr ``repr(float)``: both parse
    back losslessly.
    """
    validate_config(cfg)
    profiles, seed = cfg.profile_samples, cfg.seed
    sampled_mode = "exact" if cfg.orders == "all" else "sampled"
    keys = [(code, metric) for code in cfg.mechanisms for metric in cfg.metrics]
    mechs = {code: resolve(code)[0] for code in cfg.mechanisms}
    rows: List[Tuple] = []
    for n in cfg.n_values:
        cells = [(mechs[code], metric) for code, metric in keys]
        for (code, metric), stats in zip(keys, campaign(cells, n, profiles, seed, cfg.orders)):
            mode = "fixed" if metric == "order_bias" else sampled_mode
            rows.append((n, code, metric, str(stats.mean), repr(stats.stderr), profiles, mode, seed))
    return rows


def rows_to_csv(rows: Sequence[Tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()
