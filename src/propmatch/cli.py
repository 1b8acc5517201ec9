"""Command-line front end.

Subcommands: run, lottery, axioms, experiment, generate, compare.
Exit codes: 0 success, 1 usage error, 2 input error, 3 resource-limit refusal,
141 stdout closed by its reader.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from . import textio
from .axioms import (
    SPVerdict,
    check_strategyproofness,
    first_inefficient_order,
    is_lottery_ordinally_efficient,
    is_ordinally_efficient,
    satisfies_conditional_bound,
)
from .engine import format_trace_table
from .experiments import parse_config, rows_to_csv, run_experiment
from .lottery import (
    EnumerationLimitError,
    check_seed,
    equivalent_on,
    order_stream,
    randomized_equivalent_on,
    sampled_lottery,
)
from .model import AgentOrder, InvalidInstanceError, Profile
from .registry import resolve
from .sampling import profile_stream
from .textio import ProfileParseError, format_matching, format_matrix, format_profile

USAGE_ERROR, INPUT_ERROR, LIMIT_ERROR, CLOSED_STDOUT = 1, 2, 3, 141  # 141: 128 + SIGPIPE


class _Parser(argparse.ArgumentParser):
    commands: dict  # on the top-level parser: subcommand name -> its parser

    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _read_profile(path: str) -> Profile:
    try:
        return textio.parse_profile(Path(path).read_text(encoding="utf-8-sig"))
    except (UnicodeDecodeError, ProfileParseError) as exc:
        _fail(f"bad profile {path}: {exc}", INPUT_ERROR)


def _fail(message: str, code: int):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(code)


def _parse_order(arg: str | None, profile: Profile) -> AgentOrder:
    if arg is None:
        return AgentOrder.identity(profile.n)
    names = {textio.agent_name(i): i for i in range(profile.n)}
    tokens = [tok.strip() for tok in arg.split(",")]
    if len(tokens) != profile.n or names.keys() != set(tokens):
        raise InvalidInstanceError(f"bad --order {arg!r}: name each of the {profile.n} agents once")
    return AgentOrder(tuple(names[tok] for tok in tokens))


def _profile_source(args, count: int, exhaustive: str) -> str | int:
    """``exhaustive`` (``"all"`` or ``"orbits"``) under --exhaustive, else
    ``count``.  ``profile_stream`` checks ``count`` and the seed either way, so
    a bad value is refused even when unused."""
    profile_stream(args.n, count, args.seed)
    return exhaustive if args.exhaustive else count


def cmd_run(args) -> int:
    profile = _read_profile(args.profile)
    order = _parse_order(args.order, profile)
    mech, randomized = resolve(args.mechanism)
    if randomized:
        _fail("R- codes are lotteries; use the lottery subcommand", USAGE_ERROR)
    if mech.kind != "matching":
        _fail(f"{mech.code} has fractional output; use the lottery subcommand", USAGE_ERROR)
    traced = mech.trace(profile, order, args.trace)
    if traced is None:
        if args.trace:
            _fail(f"{mech.code} has no proposal trace; drop --trace", USAGE_ERROR)
        print(format_matching(mech.run(profile, order)))
        return 0
    result, config = traced
    print(f"{format_matching(result.matching)}; proposals={result.proposal_count}")
    if args.trace:
        sys.stdout.writelines(format_trace_table(order, result, config))
    return 0


def cmd_lottery(args) -> int:
    """Exact without ``--samples``; with it, receipt frequencies over that many orders."""
    check_seed(args.seed)  # refused even when no samples are drawn
    profile = _read_profile(args.profile)
    mech, _randomized = resolve(args.mechanism)
    if args.samples is None:
        out = format_matrix(mech.assignment(profile))
    elif mech.kind == "fractional":
        _fail(f"{mech.code} has an exact fractional outcome; drop --samples", USAGE_ERROR)
    else:
        freq = sampled_lottery(mech.run, profile, args.samples, args.seed)
        lines = [f"# samples: {args.samples} seed: {args.seed}"]
        lines += [" ".join(str(x) for x in row) for row in freq]
        out = "\n".join(lines) + "\n"
    sys.stdout.write(out)
    return 0


AXIOMS = ("expost", "ordinal", "sp", "topk")
MATCHING_AXIOMS = ("expost", "sp", "topk")


def cmd_axioms(args) -> int:
    n = args.n
    axioms = [a.strip() for a in args.axioms.split(",")]
    for axiom in axioms:
        if axiom not in AXIOMS:
            _fail(f"unknown axiom {axiom!r} ({', '.join(AXIOMS)})", USAGE_ERROR)
    mechs = [(code.strip(), resolve(code)[0]) for code in args.mechanisms.split(",")]
    for _code, mech in mechs:
        if mech.needs_item_prefs:
            _fail(f"{mech.code} needs two-sided profiles; axiom sweeps are one-sided", INPUT_ERROR)
        for axiom in axioms:
            if mech.kind == "fractional" and axiom in MATCHING_AXIOMS:
                _fail(f"the {axiom} axiom needs a matching mechanism; {mech.code} is fractional",
                      INPUT_ERROR)
    source = _profile_source(args, args.samples, "orbits")
    profile_stream(n, source)  # refuses an exhaustive size beyond the limit on the call
    if any(mech.kind == "matching" for _code, mech in mechs):
        order_stream(n)  # every matching axiom enumerates the orders
    if "topk" in axioms and not 1 <= args.k <= n:
        _fail(f"need 1 <= k <= n for the topk axiom, got k={args.k}", INPUT_ERROR)
    for code, mech in mechs:
        for axiom in axioms:
            profiles = profile_stream(n, source, args.seed)
            verdict, witness = _run_axiom_sweep(axiom, mech, profiles, args.k, source == "orbits")
            print(
                textio.format_axiom_report_line(
                    axiom if axiom != "topk" else f"topk{args.k}",
                    code,
                    n,
                    verdict,
                    witness_profile=witness[0],
                    witness_order=witness[1],
                    witness_misreport=witness[2],
                )
            )
    return 0


def _run_axiom_sweep(axiom, mech, profiles, k, exhaustive):
    """``("FAIL", witness)`` for the first of ``profiles`` that fails the
    axiom, else ``("PASS", (None, None, None))``.

    An exhaustive sweep runs over ``sampling.orbit_profiles``: every registry
    code is equivariant under renaming agents and items, so each verdict
    holds on a whole orbit and the first failing profile is its orbit's least.

    ``expost``, ``topk`` and a matching code's ``ordinal`` are decided on the
    folded outcomes of ``lottery.exact_counts``, once per outcome class
    rather than once per order.  This rests on the anonymity a ``Runner``
    promises: renaming agents with identical lists only renames the outcome,
    and none of the three properties changes when such agents swap items.
    The ``expost`` witness is the first failing order of ``order_stream(n)``,
    found by running the orders only once some folded outcome fails.  The
    walk goes to the end, so a code that fails ``topk`` on an early order
    pays for the whole walk.
    """
    # sp: lottery rows by orbit; an exhaustive sweep meets every misreport's
    # orbit again, a sampled one keeps them for one profile
    lotteries = {}
    for profile in profiles:
        if not exhaustive:
            lotteries.clear()
        witness = _axiom_witness(axiom, mech, profile, k, lotteries)
        if witness is not None:
            return "FAIL", witness
    return "PASS", (None, None, None)


def _axiom_witness(axiom, mech, profile, k, lotteries):
    """The witness ``(profile, order, misreport)`` by which ``profile`` fails
    ``axiom`` under ``mech``, or None if it passes: the first order of
    ``order_stream(n)`` whose run is inefficient for ``expost``, the first
    strict-gain misreport of the first agent that has one for ``sp``.  ``k``
    is the ``topk`` bound and ``lotteries`` the ``sp`` memo of
    ``check_strategyproofness``.  ``expost``, ``topk`` and a matching code's
    ``ordinal`` read the folded outcomes of ``exact_counts``; PS's
    ``ordinal`` reads its eating outcome."""
    if axiom == "expost":
        order = first_inefficient_order(mech.run, profile)
        if order is not None:
            return profile, order.order, None
    elif axiom == "ordinal":
        if mech.kind == "fractional":
            efficient = is_ordinally_efficient(mech.assignment(profile), profile)
        else:
            efficient = is_lottery_ordinally_efficient(mech.run, profile)
        if not efficient:
            return profile, None, None
    elif axiom == "sp":
        for agent in range(profile.n):
            report = check_strategyproofness(mech.run, profile, agent, lotteries)
            if report.overall is SPVerdict.NOT_WEAKLY_SP:
                return profile, None, report.best_deviation()
    elif not satisfies_conditional_bound(mech.run, profile, k):  # topk
        return profile, None, None
    return None


def cmd_experiment(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        _fail(f"bad config {args.config}: {exc}", INPUT_ERROR)
    config = parse_config(text)
    if not args.out:
        sys.stdout.write(rows_to_csv(run_experiment(config)))
        return 0
    with open(args.out, "w") as out:  # an unwritable path fails before any cell runs
        out.write(rows_to_csv(run_experiment(config)))
    return 0


def cmd_generate(args) -> int:
    """Write each profile as it is drawn; every input is refused before ``--out`` is made."""
    profiles = profile_stream(args.n, _profile_source(args, args.count, "all"), args.seed)
    total = math.factorial(args.n) ** args.n if args.exhaustive else args.count
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    width = max(3, len(str(total - 1)))
    for i, profile in enumerate(profiles):
        (outdir / f"profile_{i:0{width}d}.txt").write_text(format_profile(profile))
    print(f"wrote {total} profiles to {outdir}")
    return 0


def cmd_compare(args) -> int:
    mech_a, rand_a = resolve(args.mechanism_a)
    mech_b, rand_b = resolve(args.mechanism_b)
    # --exhaustive compares one profile per renaming orbit, as axiom sweeps do
    profiles = profile_stream(args.n, _profile_source(args, args.samples, "orbits"), args.seed)
    order_stream(args.n, args.orders)  # refuses a bad --orders even when it goes unused
    if rand_a or rand_b:
        verdict = randomized_equivalent_on(mech_a.run, mech_b.run, profiles)
    else:
        verdict = equivalent_on(
            mech_a.run, mech_b.run, profiles,
            orders="all" if args.exhaustive else args.orders, seed=args.seed,
        )
    if verdict.equal:
        print("EQUAL over the tested set")
        return 0
    print("INEQUAL; witness profile:")
    sys.stdout.write(format_profile(verdict.profile))
    if verdict.order is not None:
        print("witness order: " + ",".join(textio.agent_name(a) for a in verdict.order.order))
    return 0


@functools.cache
def build_parser() -> _Parser:
    """Built on first use and reused by every ``main`` call; it holds no
    ``cmd_*`` function, so ``main`` looks the subcommand's up at call time.
    ``commands`` maps each subcommand to its own parser."""
    parser = _Parser(prog="propmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("run", help="run one mechanism on one profile")
    p.add_argument("profile")
    p.add_argument("mechanism")
    p.add_argument("--order", help="comma-separated agent names; default: file order")
    p.add_argument("--trace", action="store_true", help="print the proposal table")

    p = sub.add_parser("lottery", help="exact or sampled uniform-order lottery")
    p.add_argument("profile")
    p.add_argument("mechanism")
    p.add_argument("--samples", type=int, help="Monte Carlo order samples; default: all orders")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("axioms", help="axiom sweeps with witnesses")
    p.add_argument("mechanisms", help="comma-separated mechanism codes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--axioms", default="expost,ordinal,sp", help="expost,ordinal,sp,topk")
    p.add_argument("--k", type=int, default=2, help="k for the topk axiom")

    p = sub.add_parser("experiment", help="welfare/bias campaign from a config file")
    p.add_argument("config")
    p.add_argument("--out", help="CSV output path (default: stdout)")

    p = sub.add_parser("generate", help="write a deterministic profile corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--exhaustive", action="store_true", help="all n!^n profiles")

    p = sub.add_parser("compare", help="test two mechanisms for equivalence")
    p.add_argument("mechanism_a")
    p.add_argument("mechanism_b")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=200, help="profiles when not exhaustive")
    p.add_argument("--orders", type=int, default=6, help="orders per profile when not exhaustive")
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    """Parse ``argv`` and run the subcommand.  Library errors end the run here:
    order enumeration beyond the limit exits 3, any other ``ValueError`` (a
    rejected input) and any ``OSError`` (a path that cannot be read or
    written) exit 2, each with one ``error:`` line on stderr; a stdout closed
    by its reader (``run ... | head``) exits 141 with nothing on stderr.

    When ``argv`` starts with a subcommand, its parser reads the rest
    directly and gives the Namespace the top-level parser would; everything
    else (no arguments, ``-h``, an unknown command) goes to the top level."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args = command.parse_args(argv[1:])
        args.command = argv[0]
    try:
        status = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return status
    except EnumerationLimitError as exc:
        _fail(str(exc), LIMIT_ERROR)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the flush at exit stays silent
        sys.exit(CLOSED_STDOUT)
    except (ValueError, OSError) as exc:
        _fail(str(exc), INPUT_ERROR)


if __name__ == "__main__":
    sys.exit(main())
