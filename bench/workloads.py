"""The benchmark's four workloads.

Each workload turns a seed into inputs (``setup``), turns the inputs into one
pass of operations (``ops``), and checks the outputs of a pass (``check``).
Ops call the library through its public entry points, always as
``module.function`` so that the traced pass sees every call.  The program
only ever sees the generated inputs, never the seed itself (the campaign
seed is an input of the campaign config, as it is for users).

How the seed shapes the inputs:

* campaign: the seed of every cell's config, so each run draws fresh
  profiles; 200 profiles per cell average out their cost.
* lottery and trace: a seeded renaming of agents and items (items only for
  trace) of base profiles drawn once.  Renaming leaves the work of every op
  unchanged, so runs at different seeds measure the same work on different
  inputs.  A handful of freshly drawn n = 7 profiles varies by a third in
  cost from seed to seed, more than any bound a regression check could use.
* axioms: the order of the sweeps; the n = 3 sweeps are exhaustive.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from propmatch import cli, engine, experiments, lottery, mechanisms, registry, textio
from propmatch.model import AgentOrder, Profile

DEFAULT_SEED = 7
CAMPAIGN_SAMPLES = 200  # profiles per cell; the pinned C10 campaign uses 10,000
EXPECTED_FILE = Path(__file__).with_name("expected.json")


def expected() -> dict:
    """Outputs recorded from the library at commit ad20ae7 (see record_expected.py)."""
    return json.loads(EXPECTED_FILE.read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"propmatch {' '.join(argv)} exited {status}")
    return buf.getvalue()


def _shuffled(rng: random.Random, n: int) -> tuple:
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def relabel(profile: Profile, agents: tuple, items: tuple) -> Profile:
    """The same problem with agent ``a`` renamed ``agents[a]`` and item ``o``
    renamed ``items[o]``.  Every mechanism here is equivariant under
    relabelling, so a relabelled profile costs exactly the same work."""
    n = profile.n
    agent_prefs = [None] * n
    for a, prefs in enumerate(profile.agent_prefs):
        agent_prefs[agents[a]] = tuple(items[o] for o in prefs)
    item_prefs = None
    if profile.item_prefs is not None:
        item_prefs = [None] * n
        for o, prefs in enumerate(profile.item_prefs):
            item_prefs[items[o]] = tuple(agents[a] for a in prefs)
    return Profile(tuple(agent_prefs), item_prefs and tuple(item_prefs))


# ---------------------------------------------------------------------------
# campaign: the 78 cells of the pinned C10 welfare campaign, fewer profiles.

LOSS_CODES = ("RSD", "R-PFQ", "R-TFS", "R-TFQ", "R-PLS", "R-PLQ", "R-TLS", "R-TLQ",
              "R-PLS+G", "R-PLQ+G", "R-TLS+G", "R-TLQ+G", "PS")
BIAS_CODES = ("SD", "NB", "TFS", "TFQ", "PLS", "PLQ", "TLS", "TLQ",
              "PLS+G", "PLQ+G", "TLS+G", "TLQ+G", "PS")


def cell_label(n: int, metric: str, code: str) -> str:
    return f"{metric} n={n} {code}"


class Campaign:
    """One op = one ``experiments.run_experiment`` call on a one-cell config."""

    name = "campaign"

    def setup(self, seed: int, workdir: Path, small: bool = False):
        samples = 4 if small else CAMPAIGN_SAMPLES
        cells = [(n, metric, code)
                 for n in (4, 6, 8)
                 for metric, codes in (("util_loss", LOSS_CODES), ("order_bias", BIAS_CODES))
                 for code in codes]
        configs = [experiments.ExperimentConfig((code,), (n,), (metric,), samples, "sampled:1", seed)
                   for n, metric, code in cells]
        return {"seed": seed, "samples": samples, "cells": cells, "configs": configs}

    def ops(self, inputs):
        return [(cell_label(*cell), lambda cfg=cfg: experiments.run_experiment(cfg))
                for cell, cfg in zip(inputs["cells"], inputs["configs"])]

    def digest(self, rows) -> str:
        ((n, code, metric, mean, _stderr, samples, _mode, seed),) = rows
        return _sha(f"{n},{code},{metric},{mean},{samples},{seed}")

    def check(self, inputs, outputs):
        pinned = expected()["campaign"]
        if (inputs["seed"], inputs["samples"]) != (pinned["seed"], pinned["profile_samples"]):
            pinned = None
        ok, mean_of = [], {}
        for (n, metric, code), rows in zip(inputs["cells"], outputs):
            (row,) = rows
            mean = Fraction(row[3])
            mean_of[(n, metric, code)] = mean
            good = (row[:3] == (n, code, metric) and row[5] == inputs["samples"]
                    and row[7] == inputs["seed"] and mean >= 0)
            if metric == "order_bias" and code == "PS":
                good = good and mean == 0
            if metric == "util_loss":
                good = good and mean < 1
            if pinned:
                good = good and self.digest(rows) == pinned["digests"][cell_label(n, metric, code)]
            ok.append(good)
        # TTC is individually rational and R-X, R-X+G draw the same orders, so
        # trading can only lower the loss, profile by profile.
        for i, (n, metric, code) in enumerate(inputs["cells"]):
            if metric == "util_loss" and code.endswith("+G"):
                ok[i] = ok[i] and mean_of[(n, metric, code)] <= mean_of[(n, metric, code[:-2])]
        return ok


# ---------------------------------------------------------------------------
# lottery: exact uniform-order lotteries at n = 7 and 8.

# (n, profile kind, codes run on that one profile).  Each kind gets half the
# codes of every memory/acceptance family.  SD/PFS and NB/PFQ are claimed
# equivalent, so their lotteries on a shared profile must agree exactly.
# At n = 8 (40,320 orders) only the cheapest codes run.
LOTTERY_CASES = (
    (7, "uniform", ("PFS", "SD")), (7, "classes", ("PFQ", "NB")),
    (7, "uniform", ("PLQ",)), (7, "classes", ("PLS",)),
    (7, "uniform", ("TFQ",)), (7, "classes", ("TFS",)),
    (7, "uniform", ("TLS",)), (7, "classes", ("TLQ",)),
    (7, "uniform", ("PLS+G",)), (7, "classes", ("TLQ+G",)),
    (8, "uniform", ("SD",)), (8, "classes", ("NB",)),
)
EQUIVALENT = {"SD": "PFS", "NB": "PFQ"}


def class_sizes(n: int) -> tuple:
    """Three identical-preference classes of near-equal size."""
    return tuple(n // 3 + (1 if i < n % 3 else 0) for i in range(3))


class Lottery:
    """One op = one ``lottery.exact_lottery`` over all n! orders."""

    name = "lottery"

    def setup(self, seed: int, workdir: Path, small: bool = False):
        base, rng = random.Random("lottery"), random.Random(f"lottery:{seed}")
        cases = []
        for n, kind, codes in LOTTERY_CASES:
            n -= 2 if small else 0
            if kind == "uniform":
                prefs = [_shuffled(base, n) for _ in range(n)]
            else:
                prefs = [p for k in class_sizes(n) for p in [_shuffled(base, n)] * k]
            profile = relabel(Profile(tuple(prefs)), _shuffled(rng, n), _shuffled(rng, n))
            cases += [(code, kind, profile) for code in codes]
        return {"cases": cases}

    def ops(self, inputs):
        ops = []
        for code, kind, profile in inputs["cases"]:
            mech, _ = registry.resolve(code)
            ops.append((f"{code} n={profile.n} {kind}",
                        lambda m=mech, p=profile: lottery.exact_lottery(m.run, p)))
        return ops

    def digest(self, result) -> str:
        rows = ";".join(" ".join(str(x) for x in row) for row in result.assignment.p)
        support = ";".join(f"{m.item_of}:{w}" for m, w in result.support)
        return _sha(f"{rows}|{support}|{result.order_count}")

    def check(self, inputs, outputs):
        ok = []
        for (code, kind, profile), result in zip(inputs["cases"], outputs):
            n = profile.n
            total = sum(w for _, w in result.support)
            rebuilt = [[Fraction(0)] * n for _ in range(n)]
            for m, w in result.support:
                for a, o in enumerate(m.item_of):
                    rebuilt[a][o] += w
            rows = result.assignment.p
            # Agents with identical preferences are interchangeable under a
            # uniform order, so they receive identical rows.
            prefs = profile.agent_prefs
            symmetric = all(rows[a] == rows[b]
                            for a in range(n) for b in range(a) if prefs[a] == prefs[b])
            ok.append(result.order_count == math.factorial(n) and total == 1
                      and all(w > 0 for _, w in result.support)
                      and [list(r) for r in rows] == rebuilt and symmetric)
        index = {(code, id(profile)): i for i, (code, _, profile) in enumerate(inputs["cases"])}
        for i, (code, _, profile) in enumerate(inputs["cases"]):
            twin = index.get((EQUIVALENT.get(code), id(profile)))
            if twin is not None:
                a, b = outputs[i], outputs[twin]
                ok[i] = ok[i] and a.assignment == b.assignment and a.support == b.support
        return ok


# ---------------------------------------------------------------------------
# axioms: exhaustive n = 3 sweeps through the command line.

C9_CODES = ("PFS", "PFQ", "PLS", "PLQ", "TFS", "TFQ", "TLS", "TLQ", "SD", "NB")
C9_PASSING = {"TLS", "TLQ"}  # only these meet the k = 2 worst-off bound
AXIOM_PAIRS = (
    [(code, "topk") for code in C9_CODES]
    + [(code, "expost") for code in ("PFS", "PFQ", "TFS", "TFQ", "SD", "NB",
                                     "PLS+G", "PLQ+G", "TLS+G", "TLQ+G")]
    + [(code, "ordinal") for code in ("PFS", "PFQ", "TFS", "TFQ", "SD", "NB", "PS",
                                      "PLS+G", "PLQ+G", "TLS+G", "TLQ+G")]
    + [(code, "topk") for code in ("TLS+G", "TLQ+G")]
    + [(code, "sp") for code in ("SD", "PFQ")]
)
# Pairs left out, and why:
# - PS expost, PS topk: crash with a ValueError traceback (ROADMAP open item 4).
# - PS sp: refused with exit 2, sp sweeps need a matching mechanism.
# - GS, BOS-SEQ, BOS-SIM with any axiom: refused with exit 2, two-sided codes
#   cannot run one-sided sweeps.
# - +G codes with sp: about 2 s a sweep; SD and PFQ already cover passing sp.


class Axioms:
    """One op = one in-process ``propmatch axioms CODE --n 3 --exhaustive`` sweep."""

    name = "axioms"

    def setup(self, seed: int, workdir: Path, small: bool = False):
        pairs = [p for p in AXIOM_PAIRS if not (small and p[1] == "sp")]
        random.Random(f"axioms:{seed}").shuffle(pairs)
        return {"pairs": pairs}

    def ops(self, inputs):
        return [(f"{axiom} {code}",
                 lambda code=code, axiom=axiom: _cli(
                     ["axioms", code, "--n", "3", "--exhaustive", "--axioms", axiom, "--k", "2"]))
                for code, axiom in inputs["pairs"]]

    def digest(self, out: str) -> str:
        return _sha(out)

    def check(self, inputs, outputs):
        lines, ok = expected()["axioms"], []
        for (code, axiom), out in zip(inputs["pairs"], outputs):
            line = out.strip()
            good = line == lines[f"{axiom} {code}"]
            if axiom == "topk" and code in C9_CODES:
                verdict = line.split(", ")[3]
                good = good and (verdict == "PASS") == (code in C9_PASSING)
            ok.append(good)
        return ok


# ---------------------------------------------------------------------------
# trace: single runs from the command line, with and without --trace.

TRACE_CODES = engine.ALL_ENGINE_CODES + ("GS",)


class Trace:
    """One op = one in-process ``propmatch run FILE CODE [--trace]``."""

    name = "trace"

    def setup(self, seed: int, workdir: Path, small: bool = False):
        base, rng = random.Random("trace"), random.Random(f"trace:{seed}")
        files = []
        for n in (8,) if small else (8, 16, 24, 32):
            for two_sided in (False, False, True):
                agents = tuple(_shuffled(base, n) for _ in range(n))
                items = tuple(_shuffled(base, n) for _ in range(n)) if two_sided else None
                # Items only: the file order is the proposing order, so
                # renaming agents would change the run.
                profile = relabel(Profile(agents, items), tuple(range(n)), _shuffled(rng, n))
                path = workdir / f"profile_n{n}_{len(files)}.txt"
                path.write_text(textio.format_profile(profile))
                files.append((str(path), profile))
        cases = [(path, profile, code, traced)
                 for path, profile in files
                 for code in TRACE_CODES if code != "GS" or profile.two_sided
                 for traced in (False, True)]
        return {"cases": cases}

    def ops(self, inputs):
        return [(f"{code}{' --trace' if traced else ''} n={profile.n}",
                 lambda argv=["run", path, code] + (["--trace"] if traced else []): _cli(argv))
                for path, profile, code, traced in inputs["cases"]]

    def digest(self, out: str) -> str:
        return _sha(out)

    def check(self, inputs, outputs):
        return [self._check_one(profile, code, traced, out)
                for (_, profile, code, traced), out in zip(inputs["cases"], outputs)]

    @staticmethod
    def _check_one(profile, code, traced, out) -> bool:
        n = profile.n
        head, *table = out.splitlines()
        printed, _, count = head.rpartition("; proposals=")
        order = AgentOrder.identity(n)
        if code == "GS":
            result = engine.run_gale_shapley(profile, order)
            bound = n ** 2
        else:
            result = engine.run_engine(profile, order, engine.EngineConfig.from_code(code))
            bound = n ** 3 if code[0] == "T" else n ** 2
        m = result.matching
        good = (engine.replay_trace(profile, order, result.trace) == m
                and printed == textio.format_matching(m)
                and int(count) == result.proposal_count <= bound
                and len(table) == (result.proposal_count if traced else 0))
        if code == "PFS":
            good = good and m == mechanisms.serial_dictatorship(profile, order)
        elif code == "PFQ":
            good = good and m == mechanisms.naive_boston_one_sided(profile, order)
        elif code == "GS":  # stable: no agent and item both prefer each other
            rank = [{a: r for r, a in enumerate(p)} for p in profile.item_prefs]
            holder = {o: a for a, o in enumerate(m.item_of)}
            good = good and not any(
                rank[o][a] < rank[o][holder[o]]
                for a, prefs in enumerate(profile.agent_prefs)
                for o in prefs[:prefs.index(m.item_of[a])])
        return good


WORKLOADS = {w.name: w for w in (Campaign(), Lottery(), Axioms(), Trace())}
