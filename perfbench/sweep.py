"""Run a set of benchmark runs and keep their output for ``compare.py``.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --out .perfbench/runs/a --seeds 1-10
    python3 perfbench/sweep.py --out .perfbench/runs/b --seeds 1-10 --workloads train-tgn

Runs ``run.py`` once per workload and seed, one at a time, with the run
length from ``BENCHMARK.json``, and saves each run's standard output as
``<out>/<workload>-seed<seed>-trace<t>.out``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Run and record benchmark runs.")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--workloads", nargs="+", default=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    status = 0
    for name in args.workloads:
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            path = os.path.join(args.out, f"{name}-seed{seed}-trace{args.trace}.out")
            with open(path, "w") as fh:
                fh.write(run.stdout)
            last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
            print(f"{name} seed={seed} exit={run.returncode} {last[:160]}", flush=True)
            status = status or run.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
