"""Benchmark entry point: run one workload and print its result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-tgn --seed 1 --seconds 20 --trace 0

Runs the workload in this process with the BLAS thread count fixed at 1
and the checkout's ``src`` as the source of ``repro``.  Durable state,
temporary files and trace output stay under the checkout's
``.perfbench`` directory.  Prints informational ``key=value`` lines,
then, as the last line of standard output, one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced span (see ``layers.py``), and
the spans are written under ``.perfbench/out``.  Exits non-zero, without
a result, when the checkout has no program to measure, when the workload
fails, or after 170 s.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
#: The whole run, set-up included, must end well within three minutes.
TIMEOUT_S = 170

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
    # OpenBLAS reads its thread count when numpy loads it, so set it first.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.makedirs(os.path.join(SCRATCH, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(SCRATCH, "tmp")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    signal.alarm(TIMEOUT_S)  # the default action ends the process

import argparse
import ctypes
import gc
import glob
import json
import resource
import shutil
import time

import numpy as np

import layers
from workloads import WORKLOADS, StepTimer, timed_rounds

#: Every run times at least this many rounds; each time metric is the
#: median over them, so a burst of host load in a few rounds moves little.
MIN_ROUNDS = 5
#: End-to-end metric -> unit, in the order of ``BENCHMARK.json``.
END_TO_END = {"setup_s": "s", "events_per_s": "1/s", "step_p50_ms": "ms",
              "peak_rss_mb": "MB"}


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    threads = blas_threads()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} blas_threads={threads if threads is not None else 'unknown'}")
    if threads not in (None, 1):
        print(f"BLAS runs {threads} threads; the benchmark needs 1", file=sys.stderr)
        return 2
    workdir = os.path.join(SCRATCH, "work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    wl = WORKLOADS[args.workload](args.seed, workdir)
    setup_times = []

    def set_up() -> None:
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    for i in range(wl.setups):
        if i:
            wl.close()
        set_up()
    gc.collect()  # before the timed span, never inside it

    if not args.trace:
        timer = StepTimer()
        # Workloads whose rounds start from a fresh engine set up again
        # before each round, so setup_s samples the whole run.
        between = set_up if wl.setup_every_round else None
        rounds = timed_rounds(wl, timer, args.seconds, MIN_ROUNDS, between)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        steps = timer.durations

        def per_round(of) -> float:
            return float(np.median([of(*r) for r in rounds]))

        values = {
            "setup_s": float(np.median(setup_times)),
            "events_per_s": per_round(lambda events, wall, steps: events / wall),
            "step_p50_ms": 1e3 * per_round(lambda events, wall, steps: np.percentile(steps, 50)),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        # The tail is printed, not reported: see "Steadiness" in README.md.
        print(f"rounds={len(rounds)} steps={len(steps)} span_s={sum(r[1] for r in rounds):.3f} "
              f"pooled_p50_ms={1e3 * np.percentile(steps, 50):.4g} "
              f"pooled_p90_ms={1e3 * np.percentile(steps, 90):.4g} "
              f"setups_s={[round(s, 3) for s in setup_times]} "
              f"rounds_s={[round(r[1], 3) for r in rounds]}")
    else:
        metrics, steps = layers.traced_run(wl, args, os.path.join(SCRATCH, "out"))

    fails = wl.check()
    print(f"digest={wl.digest()} {wl.describe()}")
    for f in fails:
        print(f"CHECK FAILED: {f}")
    wl.close()
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not fails,
        "attempted": len(steps),
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
