"""End-to-end command-line tests: outputs, determinism, exit codes, and the
golden proposal tables for all eight engine codes and Gale-Shapley."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from propmatch import axioms, cli as cli_module, experiments, profile, sampling
from propmatch.cli import main
from propmatch.lottery import exact_lottery
from propmatch.model import AgentOrder
from propmatch.registry import resolve
from propmatch.textio import format_matching, format_profile, parse_profile

DATA = Path(__file__).parent / "data"
BENCH = str(DATA / "bench4.txt")
TWO_SIDED = str(DATA / "two_sided4.txt")
ENGINE_CODES = ("PFS", "PFQ", "PLS", "PLQ", "TFS", "TFQ", "TLS", "TLQ")
ONE_SIDED_CODES = ENGINE_CODES + ("SD", "NB", "PS") + tuple(
    code + "+G" for code in ENGINE_CODES + ("SD", "NB")
)
EXPERIMENT = str(DATA / "experiment3.cfg")
# ``lottery78.txt`` holds the output of ``propmatch lottery FILE CODE`` for
# a uniform n = 7 profile and an n = 8 profile of classes (5, 2, 1), each
# under a line ``== FILE CODE``.
LOTTERY78_CODES = ("SD", "NB") + ENGINE_CODES + ("PLS+G", "TLQ+G")


def golden_blocks(path):
    """The outputs in ``path``, keyed by the (FILE, CODE) of their ``==`` line."""
    blocks = {}
    for line in path.read_text().splitlines(keepends=True):
        if line.startswith("== "):
            block = blocks[tuple(line.split()[1:])] = []
        else:
            block.append(line)
    return {key: "".join(block) for key, block in blocks.items()}


LOTTERY78 = golden_blocks(DATA / "lottery78.txt")


def main_result(capsys, *args):
    """``main``'s exit status, stdout and stderr, in process."""
    try:
        status = main(list(args))
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    return status, out, err


def cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "propmatch.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc.stdout


class TestRun:
    def test_engine_run_output(self):
        out = cli("run", BENCH, "TLS")
        assert out.splitlines()[0] == "1:b 2:a 3:d 4:c; proposals=20"

    def test_explicit_order(self):
        out = cli("run", BENCH, "PFS", "--order", "4,3,2,1")
        assert out.splitlines()[0] == "1:d 2:c 3:a 4:b; proposals=9"

    @pytest.mark.parametrize("code", ENGINE_CODES)
    def test_trace_tables_golden(self, code):
        out = cli("run", BENCH, code, "--trace")
        golden = (DATA / f"trace_{code}.txt").read_text()
        assert out.split("\n", 1)[1] == golden

    @pytest.mark.parametrize("code", ["TLS", "PLQ"])
    def test_trace_golden_past_26_items(self, capsys, code):
        """The whole output, header line included, at n = 27: items are
        named ``o01``..."""
        status, out, err = main_result(capsys, "run", str(DATA / "trace27.txt"), code, "--trace")
        assert (status, err) == (0, "")
        assert out == (DATA / f"trace27_{code}.txt").read_text()

    @pytest.mark.slow
    @pytest.mark.skipif(sys.platform != "linux", reason="reads the child's ru_maxrss in KiB")
    def test_long_trace_written_as_it_is_formatted(self, tmp_path):
        """An identical-list TLQ trace at n = 64 is 72,907 lines, 184 MB.  It
        is written row by row: the run's child, the only child of a fresh
        interpreter that hashes its stdout in chunks, peaks far below the
        594 MB that building the whole table took."""
        path = tmp_path / "identical64.txt"
        path.write_text(format_profile(profile([list(range(64))] * 64)))
        script = textwrap.dedent(f"""
            import hashlib, resource, subprocess, sys
            argv = [sys.executable, "-m", "propmatch.cli", "run", {str(path)!r}, "TLQ", "--trace"]
            child = subprocess.Popen(argv, stdout=subprocess.PIPE)
            digest = hashlib.sha256()
            for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
                digest.update(chunk)
            print(child.wait(), digest.hexdigest(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        status, sha, max_rss_kib = proc.stdout.split()
        assert (status, sha) == ("0", "c07f09f1b938ce8ea4711c882dab3c4a0bdea46f0e9df3b283f9ac56516ad079")
        assert int(max_rss_kib) < 120 * 1024

    def test_gale_shapley(self):
        out = cli("run", TWO_SIDED, "GS")
        assert out.splitlines()[0] == "1:c 2:d 3:a 4:b; proposals=9"

    def test_gale_shapley_trace_golden(self):
        out = cli("run", TWO_SIDED, "GS", "--trace")
        assert out.split("\n", 1)[1] == (DATA / "trace_GS.txt").read_text()

    def test_boston_modes(self):
        assert cli("run", TWO_SIDED, "BOS-SEQ").strip() == "1:a 2:d 3:b 4:c"
        assert cli("run", TWO_SIDED, "BOS-SIM").strip() == "1:a 2:c 3:b 4:d"

    def test_missing_file_is_input_error(self):
        cli("run", "no-such-file.txt", "PFS", expect=2)

    def test_gs_needs_two_sided_profile(self):
        cli("run", BENCH, "GS", expect=2)

    def test_empty_item_section_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "empty_items.txt"
        path.write_text("1: a,b\n2: b,a\n@items\n")
        status, out, err = main_result(capsys, "run", str(path), "GS")
        assert (status, out) == (2, "")
        assert err == f"error: bad profile {path}: @items section has 0 lines, expected 2\n"

    def test_fractional_mechanism_is_usage_error(self):
        cli("run", BENCH, "PS", expect=1)

    def test_unknown_subcommand_is_usage_error(self):
        cli("frobnicate", expect=1)

    @pytest.mark.parametrize("name, padded, code, trace", [
        ("bench4", " pfs", "PFS", ()), ("bench4", " pfs", "PFS", ("--trace",)),
        ("bench4", "tls ", "TLS", ("--trace",)), ("two_sided4", "gs", "GS", ()),
        ("two_sided4", " Gs ", "GS", ("--trace",)), ("bench4", " sd+g", "SD+G", ()),
    ])
    def test_codes_ignore_case_and_spaces(self, capsys, name, padded, code, trace):
        path = str(DATA / f"{name}.txt")
        assert main(["run", path, code, *trace]) == 0
        canonical = capsys.readouterr().out
        assert main(["run", path, padded, *trace]) == 0
        assert capsys.readouterr().out == canonical

    @pytest.mark.parametrize("base", ENGINE_CODES + ("SD", "NB", "GS", "BOS-SEQ", "BOS-SIM"))
    @pytest.mark.parametrize("ttc", ["", "+G"])
    def test_run_prints_the_registry_matching(self, capsys, base, ttc):
        profile = parse_profile(Path(TWO_SIDED).read_text())
        order = AgentOrder((1, 3, 0, 2))
        assert main(["run", TWO_SIDED, base + ttc, "--order", "2,4,1,3"]) == 0
        printed = capsys.readouterr().out.rstrip("\n")
        matching = format_matching(resolve(base + ttc)[0].run(profile, order))
        if not ttc and (base in ENGINE_CODES or base == "GS"):
            head, count = printed.split("; proposals=")
            assert head == matching and int(count) >= profile.n
        else:
            assert printed == matching


class TestParserReuse:
    """``main`` reuses one argument tree per process; each call still sees
    only its own arguments and the module's current ``cmd_*`` functions."""

    def test_built_once(self):
        assert cli_module.build_parser() is cli_module.build_parser()

    def test_defaults_do_not_leak_between_calls(self, capsys):
        args = ("axioms", "TLQ", "--n", "3", "--samples", "2", "--axioms", "topk")
        assert main_result(capsys, *args, "--k", "3")[1].startswith("topk3, TLQ, 3, ")
        assert main_result(capsys, *args)[1].startswith("topk2, TLQ, 3, ")

    def test_usage_error_after_a_successful_call(self, capsys):
        assert main_result(capsys, "run", BENCH, "TLS")[0] == 0
        status, out, err = main_result(capsys, "run", BENCH)
        assert status == 1 and out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: the following arguments are required: mechanism"
        ]

    def test_repeated_run_prints_the_same(self, capsys):
        first = main_result(capsys, "run", BENCH, "TLQ", "--trace")
        assert first[0] == 0 and first[1].split("\n", 1)[1] == (DATA / "trace_TLQ.txt").read_text()
        assert main_result(capsys, "run", BENCH, "TLQ", "--trace") == first

    def test_patched_command_is_called(self, monkeypatch, capsys):
        assert main_result(capsys, "run", BENCH, "SD")[0] == 0
        monkeypatch.setattr(cli_module, "cmd_run", lambda args: 7)
        assert main(["run", BENCH, "SD"]) == 7


# Valid argv for every subcommand, each option given at least once; none is run.
VALID_ARGV = [
    ("run", BENCH, "TLS"),
    ("run", BENCH, "TLS", "--trace", "--order", "4,3,2,1"),
    ("run", "--trace", BENCH, "TLS"),
    ("run", BENCH, "TLS", "--tr"),
    ("lottery", BENCH, "RSD"),
    ("lottery", BENCH, "RSD", "--samples", "5", "--seed", "3"),
    ("axioms", "SD,TLQ", "--n", "3"),
    ("axioms", "SD", "--n=3", "--exhaustive", "--samples", "4", "--seed", "1",
     "--axioms", "topk", "--k", "2"),
    ("experiment", EXPERIMENT),
    ("experiment", EXPERIMENT, "--out", "rows.csv"),
    ("generate", "--n", "3", "--out", "corpus"),
    ("generate", "--out", "corpus", "--n", "3", "--count", "4", "--seed", "2", "--exhaustive"),
    ("compare", "PFS", "SD", "--n", "3"),
    ("compare", "PFS", "SD", "--n", "3", "--exhaustive", "--samples", "5", "--orders", "2",
     "--seed", "9"),
]


class TestDispatch:
    """``main`` hands the arguments after a subcommand straight to its
    parser; the top-level parser reads the rest."""

    @pytest.mark.parametrize("argv", VALID_ARGV)
    def test_command_gets_the_top_level_namespace(self, monkeypatch, argv):
        seen = []
        monkeypatch.setattr(cli_module, f"cmd_{argv[0]}", seen.append)
        main(list(argv))
        assert seen == [cli_module.build_parser().parse_args(list(argv))]
        assert seen[0].command == argv[0]

    @pytest.mark.parametrize(
        "argv",
        [argv + ("--bogus",) for argv in VALID_ARGV[::2]]
        + [
            ("axioms", "SD"),
            ("generate", "--out", "corpus"),
            ("axioms", "SD", "--n", "3", "--k", "two"),
            ("frobnicate",),
            (),
        ],
    )
    def test_usage_error(self, capsys, argv):
        status, out, err = main_result(capsys, *argv)
        assert (status, out) == (1, "")
        assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
        # every fault after a subcommand, an unknown option too, is reported
        # under the subcommand's usage line
        command = f" {argv[0]}" if argv and argv[0] != "frobnicate" else ""
        assert err.startswith(f"usage: propmatch{command} [-h]")

    @pytest.mark.parametrize("argv", [("-h",), ("--help",), ("run", "-h"), ("axioms", "--help")])
    def test_help(self, capsys, argv):
        status, out, err = main_result(capsys, *argv)
        assert (status, err) == (0, "")
        command = f" {argv[0]}" if len(argv) == 2 else ""
        assert out.startswith(f"usage: propmatch{command} [-h]")


class TestLottery:
    def test_exact_matrix(self):
        out = cli("lottery", str(DATA / "lottery4.txt"), "RSD")
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "1/4 1/3 1/6 1/4"
        assert lines[3] == "1/4 0 1/2 1/4"

    def test_fractional_mechanism_prints_eating_outcome(self):
        out = cli("lottery", BENCH, "PS")
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "1/3 1/6 1/4 1/4"

    @pytest.mark.parametrize("code", ONE_SIDED_CODES)
    def test_exact_output_golden(self, capsys, code):
        status, out, err = main_result(capsys, "lottery", str(DATA / "lottery4.txt"), code)
        assert (status, err) == (0, "")
        assert out == (DATA / f"lottery4_{code}.txt").read_text()

    @pytest.mark.parametrize("code", ["GS", "BOS-SEQ", "BOS-SIM", "GS+G", "BOS-SEQ+G", "BOS-SIM+G"])
    def test_two_sided_exact_output_golden(self, capsys, code):
        status, out, err = main_result(capsys, "lottery", str(DATA / "two_sided4.txt"), code)
        assert (status, err) == (0, "")
        assert out == (DATA / f"two_sided4_{code}.txt").read_text()

    @pytest.mark.parametrize("code", LOTTERY78_CODES)
    def test_exact_output_golden_at_n7_and_n8(self, capsys, code):
        for name in ("lottery7.txt", "lottery8.txt"):
            status, out, err = main_result(capsys, "lottery", str(DATA / name), code)
            assert (status, err) == (0, "")
            assert out == LOTTERY78[name, code], (name, code)

    def test_sampled_deterministic_and_seed_recorded(self):
        a = cli("lottery", BENCH, "R-TLS", "--samples", "60", "--seed", "11")
        b = cli("lottery", BENCH, "R-TLS", "--samples", "60", "--seed", "11")
        assert a == b
        assert a.splitlines()[0] == "# samples: 60 seed: 11"

    def test_enumeration_limit_is_exit_3(self, tmp_path):
        big = tmp_path / "big.txt"
        n = 9
        names = "abcdefghi"
        lines = [f"{i + 1}: " + ",".join(names) for i in range(n)]
        big.write_text("\n".join(lines) + "\n")
        cli("lottery", str(big), "RSD", expect=3)

    def test_composition_on_fractional_is_input_error(self):
        cli("lottery", BENCH, "PS+G", expect=2)

    def test_exact_flag_removed(self):
        # Enumeration is the default; --samples selects Monte Carlo.
        cli("lottery", BENCH, "RSD", "--exact", expect=1)


class TestAxioms:
    def test_exhaustive_expost_verdicts(self):
        out = cli("axioms", "PFS,PLS", "--n", "3", "--exhaustive", "--axioms", "expost")
        lines = out.strip().splitlines()
        assert lines[0].startswith("expost, PFS, 3, PASS")
        assert lines[1].startswith("expost, PLS, 3, FAIL")
        # witness columns are populated on failure
        assert "a,b,c" in lines[1]

    def test_topk_axiom(self):
        out = cli("axioms", "TLS,SD", "--n", "3", "--exhaustive", "--axioms", "topk", "--k", "2")
        lines = out.strip().splitlines()
        assert lines[0].startswith("topk2, TLS, 3, PASS")
        assert lines[1].startswith("topk2, SD, 3, FAIL")

    def test_exhaustive_limit(self):
        cli("axioms", "PFS", "--n", "5", "--exhaustive", expect=3)

    def test_sp_fail_witnesses(self):
        out = cli("axioms", "TLS,TFQ,TLS+G", "--n", "3", "--exhaustive", "--axioms", "sp")
        assert out.splitlines() == [
            "sp, TLS, 3, FAIL, a,b,c;a,b,c;a,b,c, -, b,a,c",
            "sp, TFQ, 3, FAIL, a,b,c;a,b,c;b,a,c, -, a,b,c",
            "sp, TLS+G, 3, FAIL, a,b,c;a,b,c;b,c,a, -, b,a,c",
        ]
        out = cli("axioms", "TLS,NB", "--n", "4", "--samples", "20", "--seed", "3", "--axioms", "sp")
        assert out.splitlines() == [
            "sp, TLS, 4, FAIL, c,a,d,b;c,b,d,a;a,c,d,b;a,d,b,c, -, a,c,b,d",
            "sp, NB, 4, FAIL, c,a,d,b;c,b,d,a;a,c,d,b;a,d,b,c, -, c,d,a,b",
        ]

    @pytest.mark.parametrize(
        "args, built",
        [
            # every misreport's orbit is itself swept: one lottery per orbit
            (("--n", "3", "--exhaustive"), 10),
            # k profiles: one lottery per orbit among the truthful profile and
            # its n (n! - 1) misreports, at most 5 * (4 * 23 + 1) = 465
            (("--n", "4", "--samples", "5"), 354),
        ],
    )
    def test_sp_sweep_builds_each_lottery_once(self, monkeypatch, capsys, args, built):
        calls = []

        def counted(mechanism, profile):
            calls.append(profile)
            return exact_lottery(mechanism, profile)

        monkeypatch.setattr(axioms, "exact_lottery", counted)
        assert main(["axioms", "SD", *args, "--axioms", "sp"]) == 0
        assert capsys.readouterr().out.startswith(f"sp, SD, {args[1]}, PASS")
        assert len(calls) == built

    @pytest.mark.parametrize("axiom", [
        ("--axioms", "expost"), ("--axioms", "ordinal"), ("--axioms", "sp"),
        ("--axioms", "topk", "--k", "1"), ("--axioms", "topk", "--k", "2"),
        ("--axioms", "topk", "--k", "3"),
    ], ids=["expost", "ordinal", "sp", "topk1", "topk2", "topk3"])
    @pytest.mark.parametrize("code", ONE_SIDED_CODES)
    def test_orbit_sweep_matches_brute_force(self, monkeypatch, capsys, code, axiom):
        """An exhaustive sweep over one profile per renaming orbit prints, and
        exits with, exactly what the same check prints over every profile."""
        args = ("axioms", code, "--n", "3", "--exhaustive", *axiom)
        orbits = main_result(capsys, *args)
        monkeypatch.setattr(sampling, "orbit_profiles", sampling.all_profiles)
        assert main_result(capsys, *args) == orbits

    @pytest.mark.parametrize("code, axiom, line", [
        ("PFQ", "sp", "sp, PFQ, 4, FAIL, a,b,c,d;a,b,c,d;a,b,c,d;b,a,c,d, -, a,c,b,d"),
        ("TLQ", "topk", "topk2, TLQ, 4, FAIL, a,b,c,d;a,b,c,d;a,c,b,d;b,d,a,c, -, -"),
        ("SD", "topk", "topk2, SD, 4, FAIL, a,b,c,d;a,b,c,d;a,c,b,d;a,d,b,c, -, -"),
    ])
    def test_n4_witnesses(self, capsys, code, axiom, line):
        """The witnesses a sweep over all 331,776 profiles prints."""
        assert main(["axioms", code, "--n", "4", "--exhaustive", "--axioms", axiom]) == 0
        assert capsys.readouterr().out == line + "\n"

    def test_n4_golden(self, capsys):
        """The ``expost``, ``ordinal`` and ``topk2`` lines of every one-sided
        matching code but ``SD+G`` and ``NB+G`` over every n = 4 orbit,
        witnesses included, as the per-order checks print them."""
        codes = ",".join(ENGINE_CODES + ("SD", "NB") + tuple(code + "+G" for code in ENGINE_CODES))
        args = ["axioms", codes, "--n", "4", "--exhaustive", "--axioms", "expost,ordinal,topk", "--k", "2"]
        assert main(args) == 0
        assert capsys.readouterr().out == (DATA / "axioms4.txt").read_text()

    def test_n4_sd_sp_passes(self, capsys):
        assert main(["axioms", "SD", "--n", "4", "--exhaustive", "--axioms", "sp"]) == 0
        assert capsys.readouterr().out == "sp, SD, 4, PASS, -, -, -\n"


class TestGenerateAndExperiment:
    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli("generate", "--n", "4", "--count", "3", "--seed", "9", "--out", str(a))
        cli("generate", "--n", "4", "--count", "3", "--seed", "9", "--out", str(b))
        files_a = sorted(x.name for x in a.iterdir())
        assert files_a == sorted(x.name for x in b.iterdir())
        assert len(files_a) == 3
        for name in files_a:
            assert (a / name).read_text() == (b / name).read_text()

    def test_generate_exhaustive_216(self, tmp_path):
        out = tmp_path / "all3"
        cli("generate", "--n", "3", "--exhaustive", "--out", str(out))
        assert len(list(out.iterdir())) == 216
        assert len({f.read_text() for f in out.iterdir()}) == 216

    def test_generate_writes_each_profile_as_drawn(self, monkeypatch, capsys, tmp_path):
        """Profile i is on disk before profile i + 1 is drawn."""
        out, drawn = tmp_path / "corpus", []
        real = cli_module.profile_stream

        def stream(*args):
            for i, p in enumerate(real(*args)):
                assert i == 0 or (out / f"profile_{i - 1:03d}.txt").exists()
                drawn.append(p)
                yield p

        monkeypatch.setattr(cli_module, "profile_stream", stream)
        assert main(["generate", "--n", "3", "--count", "5", "--seed", "4", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 5 profiles to {out}\n"
        assert [(out / f"profile_{i:03d}.txt").read_text() for i in range(5)] == list(
            map(format_profile, drawn))

    def test_generate_rejects_zero(self, tmp_path):
        cli("generate", "--n", "0", "--out", str(tmp_path / "x"), expect=2)

    @pytest.mark.parametrize(
        "args, code",
        [
            (("--n", "3", "--count", "0"), 2),
            (("--n", "5", "--exhaustive"), 3),
            (("--n", "2", "--exhaustive", "--count", "0"), 2),
            (("--n", "3", "--count", "2", "--seed", "-5"), 2),
            (("--n", "2", "--exhaustive", "--seed", "-5"), 2),
        ],
    )
    def test_generate_refused_before_out_dir(self, tmp_path, args, code):
        out = tmp_path / "D"
        assert cli("generate", *args, "--out", str(out), expect=code) == ""
        assert not out.exists()

    @pytest.mark.parametrize("config", sorted(DATA.glob("experiment34_*.cfg")), ids=lambda p: p.stem)
    def test_experiment_golden(self, capsys, config):
        """Loss and bias campaigns at n = 3 and 4, on three drawn orders a
        profile and on all orders, the pairs with each randomized code beside
        its +G form: the CSV equals the committed one."""
        status, out, err = main_result(capsys, "experiment", str(config))
        assert (status, err) == (0, "")
        assert out == config.with_suffix(".csv").read_text()

    def test_experiment_roundtrip(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "mechanisms = RSD, R-TLQ+G\n"
            "n_values = 4\n"
            "metrics = util_loss, order_bias\n"  # order_bias needs bare codes
            "profile_samples = 50\n"
            "order_mode = sampled:1\n"
            "seed = 5\n"
        )
        cli("experiment", str(config), expect=2)  # validation: R- with order_bias
        config.write_text(
            "mechanisms = RSD, R-TLQ+G\n"
            "n_values = 4\n"
            "metrics = util_loss\n"
            "profile_samples = 50\n"
            "order_mode = sampled:1\n"
            "seed = 5\n"
        )
        a = cli("experiment", str(config))
        b = cli("experiment", str(config))
        assert a == b
        lines = a.strip().splitlines()
        assert lines[0] == "n,mechanism,metric,mean,stderr,samples,orders_mode,seed"
        assert len(lines) == 3
        assert lines[1].startswith("4,RSD,util_loss,")
        assert lines[1].endswith(",50,sampled,5")
        # means parse back losslessly as exact fractions
        from fractions import Fraction
        mean = Fraction(lines[1].split(",")[3])
        assert 0 <= mean <= 1

    def test_experiment_negative_seed_refused_before_out(self, capsys, tmp_path):
        config, out = tmp_path / "neg.cfg", tmp_path / "out.csv"
        config.write_text(Path(EXPERIMENT).read_text() + "seed = -5\n")
        status, stdout, err = main_result(capsys, "experiment", str(config), "--out", str(out))
        assert (status, stdout, err) == (2, "", "error: line 6: seed must be >= 0\n")
        assert not out.exists()

    def test_experiment_empty_mechanisms_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("mechanisms =\nn_values = 4\nmetrics = util_loss\n")
        cli("experiment", str(config), expect=2)

    def test_experiment_exact_beyond_limit_refused_before_any_cell(self, tmp_path):
        config = tmp_path / "big.cfg"
        config.write_text(
            "mechanisms = RSD\nn_values = 3, 9\nmetrics = util_loss\n"
            "profile_samples = 2\norder_mode = exact\n"
        )
        assert cli("experiment", str(config), expect=2) == ""

    def test_experiment_out_refused_before_any_cell(self, monkeypatch, capsys):
        def never(config):
            raise AssertionError("a cell ran before --out was opened")

        monkeypatch.setattr(cli_module, "run_experiment", never)
        status, out, err = main_result(capsys, "experiment", EXPERIMENT, "--out", str(DATA))
        assert (status, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_experiment_loss_on_one_agent_refused(self, tmp_path):
        config = tmp_path / "one.cfg"
        config.write_text("mechanisms = RSD\nn_values = 1\nmetrics = util_loss\n")
        assert cli("experiment", str(config), expect=2) == ""

    def test_experiment_loss_on_one_agent_refused_before_any_cell(
        self, tmp_path, monkeypatch, capsys
    ):
        def never(*args):
            raise AssertionError("a campaign ran before the config was refused")

        monkeypatch.setattr(experiments, "campaign", never)
        config, out = tmp_path / "mixed.cfg", tmp_path / "out.csv"
        config.write_text("mechanisms = RSD\nn_values = 3, 1\nmetrics = util_loss\n")
        status, stdout, err = main_result(capsys, "experiment", str(config), "--out", str(out))
        assert (status, stdout) == (2, "")
        assert err == "error: line 2: util_loss needs n >= 2: with one agent the optimum is 0\n"
        assert not out.exists()


class TestCompare:
    def test_equal_pair(self):
        out = cli("compare", "PFS", "SD", "--n", "3", "--exhaustive")
        assert out.startswith("EQUAL")

    def test_inequal_pair_with_witness(self):
        out = cli("compare", "TFQ", "TLQ", "--n", "3", "--exhaustive")
        assert out.startswith("INEQUAL")
        assert "witness order" in out

    def test_randomized_comparison(self):
        out = cli("compare", "R-PFS", "R-SD", "--n", "3", "--exhaustive")
        assert out.startswith("EQUAL")

    @pytest.mark.parametrize("a, b", [
        ("PFS", "SD"), ("PFQ", "NB"), ("TFQ", "TLQ"), ("PLS", "PLS+G"), ("SD", "TLS+G"),
        ("R-PFS", "R-SD"), ("R-TLS", "R-TLQ"), ("PS", "SD"),
    ])
    def test_orbit_comparison_matches_brute_force(self, monkeypatch, capsys, a, b):
        args = ("compare", a, b, "--n", "3", "--exhaustive")
        orbits = main_result(capsys, *args)
        monkeypatch.setattr(sampling, "orbit_profiles", sampling.all_profiles)
        assert main_result(capsys, *args) == orbits


class TestErrorContract:
    """Every input the library rejects exits 2, order enumeration beyond the
    limit exits 3 and a flag or axiom the command cannot use exits 1, each
    with one ``error:`` line, no traceback and nothing on stdout."""

    @pytest.mark.parametrize(
        "args, code",
        [
            (("axioms", "PFS", "--n", "0"), 2),
            (("compare", "PS", "SD", "--n", "3"), 2),
            (("compare", "GS", "SD", "--n", "3"), 2),
            (("axioms", "PS", "--n", "3", "--axioms", "expost"), 2),
            (("lottery", BENCH, "R-TLS", "--samples", "-5"), 2),
            (("axioms", "TLQ", "--n", "3", "--axioms", "topk", "--k", "9"), 2),
            (("run", BENCH, "TLQ", "--order", "1,2,3"), 2),
            (("run", BENCH, "SD", "--order", "1,1,2,3"), 2),
            (("run", BENCH, "PFS", "--order", "1,2,3,9"), 2),
            (("run", BENCH, "XYZ"), 2),
            (("compare", "R-PFS", "R-SD", "--n", "9", "--samples", "1"), 3),
            (("axioms", "SD", "--n", "9", "--samples", "1", "--axioms", "expost"), 3),
            (("axioms", "SD", "--n", "9", "--samples", "1", "--axioms", "topk"), 3),
            (("axioms", "SD", "--n", "3", "--exhaustive", "--axioms", "expost,bogus"), 1),
            (("axioms", "PS", "--n", "3", "--exhaustive", "--axioms", "ordinal,sp"), 2),
            (("lottery", BENCH, "PS", "--samples", "5"), 1),
            (("run", BENCH, "SD", "--trace"), 1),
            (("run", BENCH, "TLS+G", "--trace"), 1),
            (("axioms", "PS,SD", "--n", "9", "--samples", "1", "--axioms", "ordinal"), 3),
            (("axioms", "SD,TLQ", "--n", "3", "--exhaustive", "--axioms", "expost,topk",
              "--k", "9"), 2),
            (("compare", "TFQ", "TLQ", "--n", "3", "--orders", "0"), 2),
            (("compare", "TFQ", "TLQ", "--n", "3", "--samples", "0"), 2),
            (("axioms", "PLS", "--n", "3", "--samples", "0", "--axioms", "expost"), 2),
            (("compare", "R-PFS", "R-SD", "--n", "3", "--samples", "5", "--orders", "0"), 2),
            (("compare", "PFS", "SD", "--n", "3", "--exhaustive", "--orders", "0"), 2),
            (("axioms", "SD", "--n", "3", "--exhaustive", "--samples", "0", "--axioms", "expost"), 2),
            (("generate", "--n", "2", "--exhaustive", "--count", "0",
              "--out", str(DATA / "never-written")), 2),
            # a path that is a directory or already a file
            (("run", str(DATA), "SD"), 2),
            (("lottery", str(DATA), "SD"), 2),
            (("experiment", str(DATA)), 2),
            (("experiment", EXPERIMENT, "--out", str(DATA)), 2),
            (("generate", "--n", "2", "--out", BENCH), 2),
            # a negative seed, refused also where no sample is drawn
            (("lottery", BENCH, "SD", "--seed", "-1"), 2),
            (("lottery", BENCH, "R-TLS", "--samples", "5", "--seed", "-1"), 2),
            (("axioms", "SD", "--n", "3", "--seed", "-1"), 2),
            (("axioms", "SD", "--n", "3", "--exhaustive", "--seed", "-1"), 2),
            (("compare", "TFQ", "TLQ", "--n", "3", "--seed", "-1"), 2),
            (("compare", "TFQ", "TLQ", "--n", "3", "--exhaustive", "--seed", "-1"), 2),
            (("compare", "R-PFS", "R-SD", "--n", "3", "--samples", "5", "--seed", "-1"), 2),
            (("generate", "--n", "3", "--count", "2", "--seed", "-5",
              "--out", str(DATA / "never-written")), 2),
            # no --samples means exact, so a count of 0 is refused as below 1
            (("lottery", BENCH, "R-SD", "--samples", "0"), 2),
            (("lottery", BENCH, "PS", "--samples", "0"), 1),
            # a lottery code given to run, a two-sided code to a one-sided sweep
            (("run", BENCH, "R-SD"), 1),
            (("axioms", "GS", "--n", "3"), 2),
        ],
    )
    def test_bad_input(self, args, code):
        proc = subprocess.run(
            [sys.executable, "-m", "propmatch.cli", *args], capture_output=True, text=True
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["run", "lottery"])
    def test_undecodable_profile_names_the_file(self, tmp_path, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1: a,b\n2: b,\xe9\n")
        proc = subprocess.run(
            [sys.executable, "-m", "propmatch.cli", command, str(path), "SD"],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: bad profile {path}: 'utf-8' codec can't decode byte 0xe9")

    def test_experiment_config_read_as_utf8_in_any_locale(self, tmp_path):
        """Under the C locale Python's default text encoding is ASCII; a
        config is read as UTF-8 all the same, and one that is not UTF-8 is
        refused naming the file."""
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        config = Path(EXPERIMENT).read_bytes()
        good, bad = tmp_path / "utf8.cfg", tmp_path / "latin1.cfg"
        good.write_bytes(config + "# café\n".encode("utf-8"))
        bad.write_bytes(config + b"# caf\xe9\n")
        proc = subprocess.run(
            [sys.executable, "-m", "propmatch.cli", "experiment", str(good)],
            capture_output=True, text=True, env=env,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert proc.stdout == cli("experiment", EXPERIMENT)
        proc = subprocess.run(
            [sys.executable, "-m", "propmatch.cli", "experiment", str(bad)],
            capture_output=True, text=True, env=env,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: bad config {bad}: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize("args, golden", [
        (("lottery", TWO_SIDED, "GS"), DATA / "two_sided4_GS.txt"),
        (("experiment", EXPERIMENT), None),
    ])
    def test_leading_byte_order_mark_is_ignored(self, capsys, tmp_path, args, golden):
        """Editors such as Notepad start a UTF-8 file with U+FEFF; a profile
        or a config that does reads as the same file without it."""
        command, path, *rest = args
        marked = tmp_path / Path(path).name
        marked.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
        status, out, err = main_result(capsys, command, str(marked), *rest)
        assert (status, err) == (0, "")
        assert out == (golden.read_text() if golden else main_result(capsys, *args)[1])

    def test_closed_stdout_exits_141_silently(self, tmp_path):
        """``run --trace | head -c 100``: the reader closes stdout while the
        table is written; the run ends with 128 + SIGPIPE and no error line."""
        path = tmp_path / "n40.txt"
        path.write_text(format_profile(next(iter(sampling.profile_stream(40, 1, 0)))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "propmatch.cli", "run", str(path), "TLQ", "--trace"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()  # the table is over 64 KiB, more than a pipe holds
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (141, b"")

    def test_repeated_order_name_refused_by_name(self):
        proc = subprocess.run(
            [sys.executable, "-m", "propmatch.cli", "run", BENCH, "SD", "--order", "1,1,2,3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: bad --order '1,1,2,3': name each of the 4 agents once\n"

    def test_trace_table_golden_without_asserts(self):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "propmatch.cli", "run", BENCH, "TLQ", "--trace"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n", 1)[1] == (DATA / "trace_TLQ.txt").read_text()
