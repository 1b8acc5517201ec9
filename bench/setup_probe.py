"""Time one cold set-up of a workload in this fresh interpreter.

    PYTHONPATH=src python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Prints the seconds from before the first import of the library (through the
workload module) until the workload's inputs are built.  run.py starts this
script several times and reports the median as setup_s.
"""
import sys
import time


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    t0 = time.perf_counter()
    from pathlib import Path

    from workloads import WORKLOADS

    WORKLOADS[name].setup(seed, Path(workdir))
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
