"""Compare two sets of benchmark runs.

Usage, from the root of a checkout::

    python3 perfbench/compare.py .perfbench/runs/a .perfbench/runs/b

Each argument is a directory of run outputs as ``sweep.py`` writes them.
For every workload and metric it prints each side's median and
quartiles (``statistics.quantiles(values, n=4)``), the quartile spread
as a share of the median, and, for end-to-end metrics, whether the two
medians agree within the metric's bound from ``BENCHMARK.json`` (B
neither worse nor better than A by more than the bound) and whether each
side's spread is within it.  It then reports, per workload, whether the
output digests of runs with the same seed match and whether the failed
share of operations is the same.  Exits 1 when any end-to-end metric
disagrees or spreads beyond its bound, any digest differs, or the two
sets ran for different lengths.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_runs(directory: str):
    """``{(workload, trace): {seed: {"result": dict, "digest": str,
    "seconds": str}}}``."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        if not lines:
            continue
        head = dict(re.findall(r"(\w+)=(\S+)", lines[0]))
        digest = next((re.search(r"digest=(\S+)", ln).group(1)
                       for ln in lines if ln.startswith("digest=")), None)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        key = (head["workload"], int(head["trace"]))
        runs.setdefault(key, {})[int(head["seed"])] = {
            "result": result, "digest": digest, "seconds": head["seconds"]}
    return runs


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def verdict(a: float, b: float, bound: float, better: str) -> str:
    """``agree`` when B is within *bound* of A in either direction, else
    whether B is ``WORSE`` or ``BETTER`` than that."""
    if abs(b - a) <= bound * a:
        return "agree"
    return "WORSE" if (b > a) == (better == "lower") else "BETTER"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    side_a, side_b = load_runs(args.a), load_runs(args.b)

    ok = True
    for key in sorted(set(side_a) | set(side_b)):
        name = f"{key[0]}" + (" (traced)" if key[1] else "")
        a, b = side_a.get(key, {}), side_b.get(key, {})
        if len(a) < 2 or len(b) < 2:
            print(f"{name}: too few runs (A {len(a)}, B {len(b)})")
            continue
        lengths = {r["seconds"] for side in (a, b) for r in side.values()}
        print(f"{name}  (A {len(a)} runs, B {len(b)} runs, seconds {', '.join(sorted(lengths))})")
        if len(lengths) > 1:
            print("  runs of different lengths are not comparable")
            ok = False
            continue
        print(f"  {'metric':24s} {'A median [q1, q3] spread':>40s} "
              f"{'B median [q1, q3] spread':>40s}  bound  verdict")
        metrics = next(iter(a.values()))["result"]["metrics"]
        for metric in metrics:
            spec = e2e.get(metric) or layer.get(metric)
            if spec is None:
                continue
            cells = []
            for side in (a, b):
                values = [r["result"]["metrics"][metric]["value"] for r in side.values()]
                cells.append(summary(values))
            text = ["{:>12.5g} [{:.5g}, {:.5g}] {:5.1%}".format(*c) for c in cells]
            if "bound" in spec:
                bound = spec["bound"]
                said = verdict(cells[0][0], cells[1][0], bound, spec["better"])
                steady = all(c[3] <= bound for c in cells)
                ok = ok and said == "agree" and steady
                said += "" if steady else ", spread > bound"
                print(f"  {metric:24s} {text[0]:>40s} {text[1]:>40s}  {bound:5.2f}  {said}")
            else:
                print(f"  {metric:24s} {text[0]:>40s} {text[1]:>40s}      -  -")
        common = sorted(set(a) & set(b))
        differ = [s for s in common if a[s]["digest"] != b[s]["digest"]]
        share = [sum(r["result"]["failed"] for r in side.values())
                 / sum(r["result"]["attempted"] for r in side.values()) for side in (a, b)]
        incorrect = [s for side in (a, b) for s, r in side.items() if not r["result"]["correct"]]
        print(f"  digests: {len(common) - len(differ)}/{len(common)} seeds match"
              + (f", differ on seeds {differ}" if differ else ""))
        print(f"  failed share: A {share[0]:.6f}  B {share[1]:.6f}"
              + ("" if share[0] == share[1] else "  DIFFERENT"))
        if incorrect:
            print(f"  runs with failed checks on seeds {sorted(set(incorrect))}")
        ok = ok and not differ and share[0] == share[1] and not incorrect
    print("all end-to-end metrics agree" if ok else "DISAGREEMENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
