"""Command-line front end.

Subcommands: run, lottery, axioms, experiment, generate, compare.
Exit codes: 0 success, 1 usage error, 2 input error, 3 resource-limit refusal.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import textio
from .axioms import (
    SPVerdict,
    check_strategyproofness,
    is_ordinally_efficient,
    is_pareto_efficient,
    satisfies_conditional_bound,
)
from .engine import ALL_ENGINE_CODES, EngineConfig, format_trace_table, run_engine, run_gale_shapley
from .experiments import parse_config, rows_to_csv, run_experiment
from .lottery import (
    EnumerationLimitError,
    equivalent_on,
    exact_lottery,
    order_stream,
    randomized_equivalent_on,
    sampled_lottery,
)
from .model import AgentOrder, InvalidInstanceError, Profile
from .registry import resolve
from .sampling import profile_stream
from .textio import ProfileParseError, format_matching, format_matrix, format_profile

USAGE_ERROR, INPUT_ERROR, LIMIT_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _read_profile(path: str) -> Profile:
    try:
        return textio.parse_profile(Path(path).read_text())
    except FileNotFoundError:
        _fail(f"no such file: {path}", INPUT_ERROR)
    except (ProfileParseError, InvalidInstanceError) as exc:
        _fail(f"bad profile {path}: {exc}", INPUT_ERROR)


def _fail(message: str, code: int):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(code)


def _parse_order(arg: str | None, profile: Profile) -> AgentOrder:
    if arg is None:
        return AgentOrder.identity(profile.n)
    names = {textio.agent_name(i): i for i in range(profile.n)}
    tokens = [tok.strip() for tok in arg.split(",")]
    if len(tokens) != profile.n or not names.keys() >= set(tokens):
        raise InvalidInstanceError(f"bad --order {arg!r}: name each of the {profile.n} agents once")
    return AgentOrder(tuple(names[tok] for tok in tokens))


def _profile_source(args, count: int) -> str | int:
    """``"all"`` under --exhaustive, else ``count``.  ``profile_stream``
    checks ``count`` either way, so a bad value is refused even when unused."""
    profile_stream(args.n, count)
    return "all" if args.exhaustive else count


def cmd_run(args) -> int:
    profile = _read_profile(args.profile)
    order = _parse_order(args.order, profile)
    code = args.mechanism.upper()
    if code in ALL_ENGINE_CODES:
        config = EngineConfig.from_code(code)
        result = run_engine(profile, order, config, record=args.trace)
    elif code == "GS":
        config = None
        result = run_gale_shapley(profile, order, record=args.trace)
    else:
        mech, randomized = resolve(args.mechanism)
        if randomized:
            _fail("R- codes are lotteries; use the lottery subcommand", USAGE_ERROR)
        if mech.kind != "matching":
            _fail(f"{mech.code} has fractional output; use the lottery subcommand", USAGE_ERROR)
        if args.trace:
            _fail(f"{mech.code} has no proposal trace; drop --trace", USAGE_ERROR)
        matching = mech.run(profile, order)
        print(format_matching(matching))
        return 0
    print(f"{format_matching(result.matching)}; proposals={result.proposal_count}")
    if args.trace:
        sys.stdout.write(format_trace_table(order, result, config))
    return 0


def cmd_lottery(args) -> int:
    profile = _read_profile(args.profile)
    mech, _randomized = resolve(args.mechanism)
    if mech.kind == "fractional":
        if args.samples:
            _fail(f"{mech.code} has an exact fractional outcome; drop --samples", USAGE_ERROR)
        out = format_matrix(mech.assignment(profile))
    elif args.samples:
        freq = sampled_lottery(mech.run, profile, args.samples, args.seed)
        lines = [f"# samples: {args.samples} seed: {args.seed}"]
        lines += [" ".join(str(x) for x in row) for row in freq]
        out = "\n".join(lines) + "\n"
    else:
        out = format_matrix(exact_lottery(mech.run, profile).assignment)
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
    source = _profile_source(args, args.samples)
    profile_stream(n, source)  # refuses an exhaustive size beyond the limit on the call
    if any(mech.kind == "matching" for _code, mech in mechs):
        order_stream(n)  # every matching axiom enumerates the orders
    if "topk" in axioms and not 1 <= args.k <= n:
        _fail(f"need 1 <= k <= n for the topk axiom, got k={args.k}", INPUT_ERROR)
    for code, mech in mechs:
        for axiom in axioms:
            verdict, witness = _run_axiom_sweep(axiom, mech, n, args, source)
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


def _run_axiom_sweep(axiom, mech, n, args, source):
    total = math.factorial(n) ** n if source == "all" else source
    progress = max(total // 10, 1)
    count = 0
    # sp: each profile's lottery rows; an exhaustive sweep later sweeps every
    # misreport profile, a sampled one almost never does
    lotteries = {}
    for profile in profile_stream(n, source, args.seed):
        count += 1
        if source == "all" and total >= 10000 and count % progress == 0:
            sys.stderr.write(f"  ...{count}/{total} profiles\n")
        if axiom == "expost":
            for order in order_stream(n):
                if not is_pareto_efficient(mech.run(profile, order), profile):
                    return "FAIL", (profile, order.order, None)
        elif axiom == "ordinal":
            if mech.kind == "fractional":
                assignment = mech.assignment(profile)
            else:
                assignment = exact_lottery(mech.run, profile).assignment
            if not is_ordinally_efficient(assignment, profile):
                return "FAIL", (profile, None, None)
        elif axiom == "sp":
            if source != "all":
                lotteries.clear()
            for agent in range(n):
                report = check_strategyproofness(mech.run, profile, agent, lotteries)
                if report.overall is SPVerdict.NOT_WEAKLY_SP:
                    return "FAIL", (profile, None, report.best_deviation())
        elif not satisfies_conditional_bound(mech.run, profile, args.k):  # topk
            return "FAIL", (profile, None, None)
    return "PASS", (None, None, None)


def cmd_experiment(args) -> int:
    try:
        text = Path(args.config).read_text()
    except FileNotFoundError:
        _fail(f"no such file: {args.config}", INPUT_ERROR)
    csv_text = rows_to_csv(run_experiment(parse_config(text)))
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_generate(args) -> int:
    profiles = list(profile_stream(args.n, _profile_source(args, args.count), args.seed))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    width = max(3, len(str(len(profiles) - 1)))
    for i, profile in enumerate(profiles):
        (outdir / f"profile_{i:0{width}d}.txt").write_text(format_profile(profile))
    print(f"wrote {len(profiles)} profiles to {outdir}")
    return 0


def cmd_compare(args) -> int:
    mech_a, rand_a = resolve(args.mechanism_a)
    mech_b, rand_b = resolve(args.mechanism_b)
    profiles = profile_stream(args.n, _profile_source(args, args.samples), args.seed)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="propmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one mechanism on one profile")
    p.add_argument("profile")
    p.add_argument("mechanism")
    p.add_argument("--order", help="comma-separated agent names; default: file order")
    p.add_argument("--trace", action="store_true", help="print the proposal table")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("lottery", help="exact or sampled uniform-order lottery")
    p.add_argument("profile")
    p.add_argument("mechanism")
    p.add_argument("--samples", type=int, default=0, help="Monte Carlo order samples; default: all orders")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lottery)

    p = sub.add_parser("axioms", help="axiom sweeps with witnesses")
    p.add_argument("mechanisms", help="comma-separated mechanism codes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--axioms", default="expost,ordinal,sp", help="expost,ordinal,sp,topk")
    p.add_argument("--k", type=int, default=2, help="k for the topk axiom")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("experiment", help="welfare/bias campaign from a config file")
    p.add_argument("config")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("generate", help="write a deterministic profile corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--exhaustive", action="store_true", help="all n!^n profiles")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("compare", help="test two mechanisms for equivalence")
    p.add_argument("mechanism_a")
    p.add_argument("mechanism_b")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=200, help="profiles when not exhaustive")
    p.add_argument("--orders", type=int, default=6, help="orders per profile when not exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    """Parse ``argv`` and run the subcommand.  Library errors end the run here:
    order enumeration beyond the limit exits 3, any other ``ValueError`` (a
    rejected input) exits 2, each with one ``error:`` line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationLimitError as exc:
        _fail(str(exc), LIMIT_ERROR)
    except ValueError as exc:
        _fail(str(exc), INPUT_ERROR)


if __name__ == "__main__":
    sys.exit(main())
