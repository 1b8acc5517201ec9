"""Fast self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json on shrunken inputs, one pass each, in
both modes.  Checks that each run prints every metric BENCHMARK.json names,
with its unit, that every output passes its checks, and that two runs at one
seed repeat their op counts and output digests exactly.  Takes about 25 s.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            seen = []
            for _ in range(2):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    result, details = run.measure(workload, 3, 0, trace, small=True)
                    print(json.dumps(result))
                printed = json.loads(out.getvalue().splitlines()[-1])
                units = {name: m["unit"] for name, m in printed["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{workload} trace={trace}: metrics {units} != {expected[trace]}")
                if set(printed) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{workload} trace={trace}: result keys {sorted(printed)}")
                if not printed["correct"] or printed["failed"]:
                    problems.append(f"{workload} trace={trace}: {printed['failed']} ops failed")
                seen.append((printed["attempted"], details["digest"]))
            if seen[0] != seen[1]:
                problems.append(f"{workload} trace={trace}: runs differ {seen}")
            print(f"{workload:<9} trace={trace}  ops {seen[0][0]:>4}  digest {seen[0][1]}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
