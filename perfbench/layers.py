"""The traced run: per-layer metrics from spans around the program's layers.

The timed span is split in two halves of whole rounds.  The first half
runs untraced; the second runs with every entry point in
``tracing.TARGETS`` wrapped.  Per-layer times are per step (training
batch, inference batch or serve request) from the traced half; counts
are per step too, so they do not grow with a faster program doing more
steps in the same time.  ``trace.overhead_pct`` compares the median step
time of the two halves.
"""

from __future__ import annotations

import json
import os
import resource

import numpy as np

from tracing import SpanRecorder
from workloads import StepTimer, timed_rounds
from repro.tensor.device import runtime as device_runtime

#: Metric name -> unit, in the order of ``BENCHMARK.json``.
PER_LAYER = {
    "tensor.backward_ms": "ms",
    "model.forward_ms": "ms",
    "nn.optim_ms": "ms",
    "gc.pause_ms": "ms",
    "gc.freed_objects": "count/step",
    "proc.minor_faults": "count/step",
    "device.transfer_s": "s",
    "op.sample_ms": "ms",
    "op.dedup_ms": "ms",
    "op.aggregate_ms": "ms",
    "op.precompute_ms": "ms",
    "kernel.sample_ms": "ms",
    "kernel.dedup_ms": "ms",
    "kernel.cache_store_ms": "ms",
    "kernel.dedup_reduction": "ratio",
    "serve.score_ms": "ms",
    "serve.sample_ms": "ms",
    "serve.ingest_ms": "ms",
    "serve.commit_ms": "ms",
    "wal.append_ms": "ms",
    "wal.sync_ms": "ms",
    "wal.bytes_per_event": "B",
    "durable.snapshot_ms": "ms",
    "cluster.ship_ms": "ms",
    "cluster.apply_ms": "ms",
    "cluster.gather_ms": "ms",
    "cluster.rpc_calls": "count/step",
    "cluster.supervisor_ms": "ms",
    "integrity.digest_ms": "ms",
    "integrity.scrub_ms": "ms",
    "trace.overhead_pct": "%",
}


def _process_counters(wl) -> dict:
    out = dict(wl.context_totals())
    out["minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out["transfer_s"] = device_runtime.transfer_stats.simulated_seconds
    return out


def traced_run(wl, args, outdir: str):
    """Run both halves; return ``(metrics, step durations)`` and write
    the Chrome trace and flat metrics JSON under *outdir*."""
    half = args.seconds / 2.0
    plain = StepTimer()
    timed_rounds(wl, plain, half)

    recorder = SpanRecorder()
    timer = StepTimer(recorder)
    before = _process_counters(wl)
    recorder.install()
    try:
        events = sum(r[0] for r in timed_rounds(wl, timer, half))
    finally:
        recorder.close()
    after = _process_counters(wl)
    delta = {k: after[k] - before.get(k, 0) for k in after}

    steps = len(timer.durations)
    spans = recorder.totals()

    def ms(name, kind="total"):
        return 1e3 * spans[name][kind] / steps if name in spans else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    rows_in, rows_out = delta.get("dedup_rows_in", 0), delta.get("dedup_rows_out", 0)
    values = {
        "tensor.backward_ms": ms("Tensor.backward"),
        "model.forward_ms": ms("model.forward"),
        "nn.optim_ms": ms("Adam.step"),
        "gc.pause_ms": 1e3 * recorder.gc_pause / steps,
        "gc.freed_objects": recorder.gc_freed / steps,
        "proc.minor_faults": delta["minor_faults"] / steps,
        "device.transfer_s": delta["transfer_s"] / steps,
        "op.sample_ms": ms("TSampler.sample"),
        "op.dedup_ms": ms("op.dedup"),
        "op.aggregate_ms": ms("op.aggregate"),
        "op.precompute_ms": ms("op.precompute"),
        "kernel.sample_ms": 1e3 * delta.get("kernel:sample", 0.0) / steps,
        "kernel.dedup_ms": 1e3 * delta.get("kernel:dedup", 0.0) / steps,
        "kernel.cache_store_ms": 1e3 * delta.get("kernel:cache_store", 0.0) / steps,
        "kernel.dedup_reduction": ratio(rows_in - rows_out, rows_in),
        "serve.score_ms": ms("serve.step", "self"),
        "serve.sample_ms": ms("TSampler.sample_arrays", "direct"),
        "serve.ingest_ms": ms("IngestPipeline.push"),
        "serve.commit_ms": ms("StateCommitter.commit"),
        "wal.append_ms": ms("WriteAheadLog.append", "self"),
        "wal.sync_ms": ms("WriteAheadLog.sync"),
        "wal.bytes_per_event": ratio(recorder.counters.get("WriteAheadLog.append", 0), events),
        "durable.snapshot_ms": ms("DurableStateStore.snapshot"),
        "cluster.ship_ms": ms("ReplicaGroup.ship"),
        "cluster.apply_ms": ms("ShardReplica.apply", "self"),
        "cluster.gather_ms": ms("ServeCluster.gather"),
        "cluster.rpc_calls": sum(spans[n]["calls"] for n in ("SimRpc.call", "SimRpc.ship")
                                 if n in spans) / steps,
        "cluster.supervisor_ms": ms("Supervisor.tick"),
        "integrity.digest_ms": ms("ChunkedDigest.record_rows"),
        "integrity.scrub_ms": ms("Scrubber.scrub"),
        "trace.overhead_pct": 100.0 * (np.median(timer.durations)
                                       / np.median(plain.durations) - 1.0),
    }
    metrics = {name: (float(values[name]), unit) for name, unit in PER_LAYER.items()}

    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"{args.workload}-seed{args.seed}")
    recorder.write_chrome_trace(stem + ".trace.json")
    with open(stem + ".metrics.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "steps": steps,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "spans": spans}, fh, indent=1, sort_keys=True)
    print(f"traced steps={steps} untraced steps={len(plain.durations)} "
          f"spans={len(recorder.names)} overhead_pct={values['trace.overhead_pct']:.2f}")
    print(f"trace written: {stem}.trace.json {stem}.metrics.json")
    return metrics, plain.durations + timer.durations
