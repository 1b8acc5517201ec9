"""Experiment config parsing, validation, and deterministic CSV emission."""
from fractions import Fraction

import pytest

from propmatch.experiments import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    rows_to_csv,
    run_experiment,
)

GOOD = """
# welfare campaign
mechanisms      = RSD, R-TLS+G, PS
n_values        = 3, 4
metrics         = util_loss, egal
profile_samples = 20
order_mode      = sampled:2
seed            = 123
"""


class TestParseAndValidate:
    def test_good_config(self):
        cfg = parse_config(GOOD)
        assert cfg.mechanisms == ("RSD", "R-TLS+G", "PS")
        assert cfg.n_values == (3, 4)
        assert cfg.orders == 2

    def test_exact_mode_guard(self):
        cfg = parse_config(GOOD.replace("sampled:2", "exact"))
        assert cfg.orders == "all"
        # Refused when parsed, before any cell of a smaller n runs.
        with pytest.raises(ConfigError, match="exact"):
            parse_config(GOOD.replace("sampled:2", "exact").replace("3, 4", "3, 9"))
        bias_only = GOOD.replace("RSD, R-TLS+G, PS", "SD").replace("util_loss, egal", "order_bias")
        assert parse_config(bias_only.replace("3, 4", "9").replace("sampled:2", "exact")).n_values == (9,)

    @pytest.mark.parametrize(
        "mutation, match",
        [
            (("mechanisms      = RSD, R-TLS+G, PS", "mechanisms      ="), "empty mechanism"),
            (("metrics         = util_loss, egal", "metrics         = banana"), "unknown metric"),
            (("RSD, R-TLS+G, PS", "RSD, R-PS"), "no discrete runs"),
            (("RSD, R-TLS+G, PS", "RSD, PS+G"), "invalid on PS"),
            (("RSD, R-TLS+G, PS", "RSD, GS"), "two-sided"),
            (("RSD, R-TLS+G, PS", "RSD, TLS"), "randomized version"),
            (("sampled:2", "sampled:0"), "order"),
            (("n_values        = 3, 4", "n_values        = 0"), "positive"),
            (("profile_samples = 20", "profile_sample = 5"), "line 6: unknown key 'profile_sample'"),
            (("seed            = 123", "seed = 123\nseeds = 4"), "line 9: unknown key 'seeds'"),
            (("order_mode      = sampled:2", "order_mode = sampled:2\norder_mode = exact"),
             "line 8: order_mode given twice"),
        ],
    )
    def test_rejected_configs(self, mutation, match):
        old, new = mutation
        with pytest.raises((ConfigError, ValueError), match=match):
            parse_config(GOOD.replace(old, new))

    def test_order_bias_wants_bare_codes(self):
        text = GOOD.replace("util_loss, egal", "order_bias")
        with pytest.raises(ConfigError, match="R- prefix"):
            parse_config(text)
        ok = text.replace("RSD, R-TLS+G, PS", "SD, TLS+G, PS")
        assert parse_config(ok).metrics == ("order_bias",)


class TestRun:
    def test_rows_and_determinism(self):
        cfg = parse_config(GOOD)
        rows_a = run_experiment(cfg)
        rows_b = run_experiment(cfg)
        assert rows_a == rows_b
        assert len(rows_a) == len(cfg.n_values) * len(cfg.mechanisms) * len(cfg.metrics)
        csv_text = rows_to_csv(rows_a)
        header, first = csv_text.splitlines()[:2]
        assert header == "n,mechanism,metric,mean,stderr,samples,orders_mode,seed"
        cells = first.split(",")
        assert cells[:3] == ["3", "RSD", "util_loss"]
        assert 0 <= Fraction(cells[3]) <= 1  # lossless exact mean
        float(cells[4])  # stderr parses
        assert cells[5:] == ["20", "sampled", "123"]

    def test_metric_ranges(self):
        cfg = ExperimentConfig(("RSD",), (3,), ("util_loss", "egal"), 25, "exact", 9)
        for row in run_experiment(cfg):
            mean = Fraction(row[3])
            if row[2] == "util_loss":
                assert 0 <= mean <= 1
            else:
                assert 0 <= mean <= Fraction(2, 3)  # (n-1)/n at n=3
        assert {row[6] for row in run_experiment(cfg)} == {"exact"}
