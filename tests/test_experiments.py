"""Experiment config parsing, validation, and deterministic CSV emission."""
from fractions import Fraction

import pytest

from propmatch.experiments import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    rows_to_csv,
    run_experiment,
    validate_config,
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
            (("seed            = 123", "seed            = -5"), "seed must be >= 0"),
            (("n_values        = 3, 4", "n_values        = 4, x"), "line 4: n_values needs an integer, got 'x'"),
            (("profile_samples = 20", "profile_samples = 2o"), "line 6: profile_samples needs an integer, got '2o'"),
            (("seed            = 123", "seed            = 1.5"), r"line 8: seed needs an integer, got '1\.5'"),
            # A value refused after parsing names the line of its key.
            (("sampled:2", "exactly"), r"^line 7: order_mode must be 'exact' or 'sampled:K'$"),
            (("sampled:2", "sampled:0"), "^line 7: sampled order count must be >= 1$"),
            (("3, 4\nmetrics         = util_loss, egal\nprofile_samples = 20\norder_mode      = sampled:2",
              "3, 9\nmetrics         = util_loss, egal\nprofile_samples = 20\norder_mode      = exact"),
             "^line 7: order_mode=exact needs n <= 8, got 9$"),
            (("n_values        = 3, 4", "n_values        = 0"), "^line 4: n_values must be positive$"),
            (("n_values        = 3, 4", "n_values        = 1"), "^line 4: util_loss needs n >= 2"),
            (("profile_samples = 20", "profile_samples = 0"), "^line 6: profile_samples must be >= 1$"),
            (("seed            = 123", "seed            = -5"), "^line 8: seed must be >= 0$"),
            (("util_loss, egal", "banana"), "^line 5: unknown metric 'banana'$"),
            (("metrics         = util_loss, egal", "metrics         ="), "^line 5: empty metric list$"),
            (("mechanisms      = RSD, R-TLS+G, PS", "mechanisms      ="), "^line 3: empty mechanism list$"),
            (("RSD, R-TLS+G, PS", "RSD, BOGUS"), "^line 3: unknown mechanism code 'BOGUS'$"),
            (("RSD, R-TLS+G, PS", "RSD, PS+G"), "^line 3: [+]G is invalid on PS"),
            (("RSD, R-TLS+G, PS", "RSD, GS"), "^line 3: GS needs two-sided profiles"),
            (("RSD, R-TLS+G, PS", "RSD, TLS"), "^line 3: util_loss needs the randomized version: use R-TLS$"),
            (("util_loss, egal", "order_bias"),
             "^line 3: order_bias evaluates a fixed order; drop the R- prefix on RSD$"),
        ],
    )
    def test_rejected_configs(self, mutation, match):
        old, new = mutation
        with pytest.raises((ConfigError, ValueError), match=match):
            parse_config(GOOD.replace(old, new))

    def test_configs_built_in_code_name_no_line(self):
        """Only ``parse_config`` names lines: a config built in code, or a
        key left at its default, is refused with the bare message."""
        with pytest.raises(ConfigError) as exc:
            validate_config(ExperimentConfig(("RSD",), (0,), ("util_loss",), 5, "sampled:1", 0))
        assert str(exc.value) == "n_values must be positive"
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(("RSD",), (3,), ("util_loss",), 5, "exactly", 0)
        assert str(exc.value) == "order_mode must be 'exact' or 'sampled:K'"
        with pytest.raises(ConfigError) as exc:
            parse_config(GOOD.replace("mechanisms      = RSD, R-TLS+G, PS", ""))
        assert str(exc.value) == "empty mechanism list"

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
