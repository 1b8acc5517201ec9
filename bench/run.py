#!/usr/bin/env python3
"""propmatch benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (defined in workloads.py, described in BENCHMARK.json): campaign,
lottery, axioms and trace.  Each is a closed loop with one caller: one
process, one thread, and the next op starts when the previous one returns.
Ops run in whole passes until the time spent inside ops reaches --seconds, so
every run measures the same op mix.  The first pass is checked in full; every
later pass must reproduce the first pass's output digests.  An op that raises
or gives a wrong output counts as failed.

Times are reported at reference machine speed.  On a small shared cloud
machine, load from other tenants comes in phases of ten seconds to a minute
that slow all code by up to 1.8 times, which no run length averages away.
So every tenth of a second the run times a fixed loop that uses only the
standard library (``calibration_loop``), and each op time is divided by the
loop's current slowdown against its time on the machine the benchmark was
defined on (a 2-vCPU cloud VM, Python 3.11).  Each op's time is then its
median over the passes of the run.  ops_per_s is ops per pass over the sum
of per-op times; op_p50_ms and op_p90_ms are percentiles of the per-op times
over the op mix.  The as-measured figures are printed alongside.  Over five
seeds, scaling cut the quartile spread of these metrics from about 0.2 to
under 0.08 of the median.

--trace 0 prints the end-to-end metrics.  setup_s is the median over seven
fresh interpreters, each timing its imports plus the workload's input
generation (setup_probe.py), at reference speed like the op times.
--trace 1 runs one untraced pass and one traced pass of the same ops and
prints the per-layer metrics of the traced pass (see tracer.py).  Spans are
written to .bench_build/bench/spans-WORKLOAD/ when the run ends.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics ({name: {value, unit}}).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"
SETUP_PROBES = 7
CAL_REFERENCE_S = 0.0003  # calibration_loop on the reference machine, uncontended
CAL_REPEATS = 5
CAL_EVERY_S = 0.1

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_units(groups) -> dict:
    units = {f"{g}.self_s": "s" for g in groups}
    units.update({
        "engine.run_engine.calls": "count",
        "engine.proposals": "count",
        "engine.ns_per_proposal": "ns",
        "engine.trace_used_ratio": "ratio",
        "welfare.optimal_utilitarian.calls": "count",
        "welfare.optimum_reuse_ratio": "ratio",
        "sampling.profiles": "count",
        "sampling.distinct_ratio": "ratio",
        "lottery.exact_lottery.calls": "count",
        "lottery.orders_run": "count",
        "lottery.useful_order_ratio": "ratio",
        "mechanisms.top_trading_cycles.calls": "count",
        "mechanisms.ttc_changed_ratio": "ratio",
        "model.objects": "count",
        "bench.traced_wall_s": "s",
        "bench.unattributed_s": "s",
        "bench.trace_overhead_ratio": "ratio",
    })
    return units


def calibration_loop():
    """Fixed work with no dependence on the library: shuffles, sets, dicts and
    Fractions, the same kinds of operation the library spends its time on."""
    rng = random.Random(0)
    acc = Fraction(0)
    for i in range(1, 41):
        p = list(range(12))
        rng.shuffle(p)
        seen, pos = set(), {}
        for j, x in enumerate(p):
            seen.add(x)
            pos[x] = j
        acc += Fraction(pos[p[0]] + len(seen), i)
    return acc


def slowdown() -> float:
    """How much slower the machine runs now than the reference machine."""
    best = float("inf")
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best / CAL_REFERENCE_S


def run_passes(workload, inputs, seconds: float, tracer=None) -> dict:
    """Run whole passes until the time inside ops reaches ``seconds``."""
    ops = workload.ops(inputs)
    attempted, failed, passes = 0, 0, 0
    raw = [[] for _ in ops]  # raw[i]: op i's time in every pass, as measured
    scaled = [[] for _ in ops]  # the same at reference speed
    reference = None  # output digests of the first pass
    measured = 0.0
    factor, calibrated = slowdown(), time.perf_counter()
    while True:
        outputs, raised = [], []
        for i, (_label, call) in enumerate(ops):
            if tracer is not None:
                tracer.op, tracer.active = i, True
            t0 = time.perf_counter()
            try:
                out, err = call(), None
            except (Exception, SystemExit) as exc:  # an op that fails is counted, not fatal
                out, err = None, exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            # An op spanning a calibration interval is scaled by the mean of
            # the slowdowns measured before and after it.
            before = factor
            if time.perf_counter() - calibrated > CAL_EVERY_S:
                factor, calibrated = slowdown(), time.perf_counter()
            raw[i].append(dt)
            scaled[i].append(dt / ((before + factor) / 2))
            measured += dt
            outputs.append(out)
            raised.append(err is not None)
        digests = [None if bad else workload.digest(out) for out, bad in zip(outputs, raised)]
        if reference is None:
            reference = digests
            try:
                ok = workload.check(inputs, outputs) if not any(raised) else None
            except Exception:  # a malformed output the checks cannot read
                ok = None
            if ok is None:
                ok = [False] * len(ops)
        else:
            ok = [d is not None and d == r for d, r in zip(digests, reference)]
        attempted += len(ops)
        failed += sum(not (good and not bad) for good, bad in zip(ok, raised))
        passes += 1
        if measured >= seconds:
            break
    return {
        "scaled": scaled, "raw": raw,
        "attempted": attempted, "failed": failed, "passes": passes,
        "labels": [label for label, _ in ops], "measured": measured,
        "digest": hashlib.sha256(" ".join(map(str, reference)).encode()).hexdigest()[:16],
    }


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Set-up time of one fresh interpreter (imports plus input generation),
    as measured."""
    workdir.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(workdir)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload, seed: int, seconds: float, workdir: Path, small: bool = False):
    setups = []
    for i in range(SETUP_PROBES):
        factor = slowdown()
        setups.append((probe_setup(workload.name, seed, workdir / f"probe-{i}"), factor))
    inputs = workload.setup(seed, workdir, small)
    run = run_passes(workload, inputs, seconds)

    def timings(setup_s, op_s) -> dict:
        return {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": len(op_s) / sum(op_s),
            "op_p50_ms": statistics.median(op_s) * 1e3,
            "op_p90_ms": (statistics.quantiles(op_s, n=10)[8] if len(op_s) > 1 else op_s[0]) * 1e3,
        }

    values = timings([s / f for s, f in setups], [statistics.median(t) for t in run["scaled"]])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = timings([s for s, _ in setups], [statistics.median(t) for t in run["raw"]])
    n_ops = len(run["labels"])
    samples = f"{n_ops} ops x {run['passes']} passes"
    notes = {
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
        "ops_per_s": samples,
        "op_p50_ms": samples,
        "op_p90_ms": samples + ("" if n_ops >= 100 else
                                f"; {n_ops} ops leave fewer than 10 beyond the 90th percentile"),
    }
    print(f"workload {workload.name}  seed {seed}  passes {run['passes']}"
          f"  ops {run['attempted']} ({n_ops} per pass)"
          f"  measured {run['measured']:.2f} s  digest {run['digest']}")
    print(f"  {'metric':<12} {'reference':>12} {'measured':>12}")
    for name, (unit, better) in END_TO_END.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<12} {values[name]:>12.4f} {measured.get(name, values[name]):>12.4f}"
              f" {unit:<4} {better} is better{note}")
    print(f"  {'error_rate':<12} {run['failed'] / run['attempted']:>12.4f}"
          f"      ({run['failed']} failed of {run['attempted']} attempted)")
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}
    return run, metrics


def per_layer(workload, seed: int, seconds: float, workdir: Path, small: bool = False):
    """One untraced and one traced pass, whatever ``seconds`` says."""
    from tracer import GROUPS, Tracer

    inputs = workload.setup(seed, workdir, small)
    plain = run_passes(workload, inputs, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(workload, inputs, 0, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(WORK / f"spans-{workload.name}", traced["labels"])

    self_s, calls, counts = tracer.group_self_s(), tracer.group_calls(), tracer.counts
    wall = traced["measured"]

    def ratio(a, b):
        return a / b if b else 0.0

    values = {f"{g}.self_s": self_s[g] for g in GROUPS}
    values.update({
        "engine.run_engine.calls": calls["engine.run_engine"],
        "engine.proposals": counts["proposals"],
        "engine.ns_per_proposal": ratio(self_s["engine.run_engine"] * 1e9, counts["proposals"]),
        "engine.trace_used_ratio": ratio(counts["events_formatted"], counts["events_built"]),
        "welfare.optimal_utilitarian.calls": calls["welfare.optimal_utilitarian"],
        "welfare.optimum_reuse_ratio": ratio(len(tracer.distinct["optimum_profiles"]),
                                             calls["welfare.optimal_utilitarian"]),
        "sampling.profiles": counts["profiles"],
        "sampling.distinct_ratio": ratio(len(tracer.distinct["sampled_profiles"]), counts["profiles"]),
        "lottery.exact_lottery.calls": calls["lottery.exact_lottery"],
        "lottery.orders_run": counts["orders_run"],
        "lottery.useful_order_ratio": ratio(counts["orbits"], counts["orders_run"]),
        "mechanisms.top_trading_cycles.calls": calls["mechanisms.top_trading_cycles"],
        "mechanisms.ttc_changed_ratio": ratio(counts["ttc_changed"],
                                              calls["mechanisms.top_trading_cycles"]),
        "model.objects": calls["model.validate"],
        "bench.traced_wall_s": wall,
        "bench.unattributed_s": wall - sum(self_s.values()),
        "bench.trace_overhead_ratio": (sum(map(sum, traced["scaled"]))
                                       / sum(map(sum, plain["scaled"]))),
    })
    units = per_layer_units(GROUPS)

    print(f"workload {workload.name}  seed {seed}  traced pass of {len(traced['labels'])} ops"
          f"  untraced {plain['measured']:.3f} s  traced {wall:.3f} s"
          f"  spans {len(tracer.span_start)}  digest {traced['digest']}")
    print(f"  {'function':<44} {'calls':>10} {'self_s':>10} {'us/call':>10}")
    for name, n_calls, s in tracer.name_table():
        print(f"  {name:<44} {n_calls:>10} {s:>10.4f} {s / n_calls * 1e6:>10.2f}")
    for name in sorted(units):
        print(f"  {name:<44} {values[name]:>16.6g} {units[name]}")
    run = {"attempted": plain["attempted"] + traced["attempted"],
           "failed": plain["failed"] + traced["failed"], "digest": traced["digest"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return run, metrics


def measure(workload: str, seed: int, seconds: float, trace: int, small: bool = False):
    """One run; returns the result object and the run's details.

    ``small`` shrinks the inputs for the self-test; the benchmark never sets it.
    """
    from workloads import WORKLOADS

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run, metrics = (per_layer if trace else end_to_end)(
            WORKLOADS[workload], seed, seconds, workdir, small)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    return result, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "propmatch" / "__init__.py").is_file():
        print(f"error: no propmatch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
