"""Span recorder for the traced run.

The recorder wraps callables of the program from the outside (it
replaces class or module attributes and restores them on ``close``), so
the program itself carries no tracing code.  Spans are kept in memory:
name, start, end, parent span and the step (training batch, inference
batch or serve request) they ran in.  At the end they are written as
Chrome trace-event JSON, viewable offline in ``chrome://tracing``.

A span's self time is its duration minus the part covered by its child
spans.  Garbage-collector pauses are recorded through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

import numpy as np

#: (module, class or None, attribute, span name, argument counter or None).
#: A counter maps the call's ``(args, kwargs)`` to an amount added to
#: ``SpanRecorder.counters[span name]``.
TARGETS = [
    ("repro.tensor.tensor", "Tensor", "backward", "Tensor.backward", None),
    ("repro.models.base", "TGNNModel", "forward", "model.forward", None),
    ("repro.nn.optim", "Adam", "step", "Adam.step", None),
    ("repro.core.sampler", "TSampler", "sample", "TSampler.sample", None),
    ("repro.core.sampler", "TSampler", "sample_arrays", "TSampler.sample_arrays", None),
    ("repro.core.op", None, "dedup", "op.dedup", None),
    ("repro.core.op", None, "aggregate", "op.aggregate", None),
    ("repro.core.op", None, "precomputed_times", "op.precompute", None),
    ("repro.core.op", None, "precomputed_zeros", "op.precompute", None),
    ("repro.serve.runtime", "ServeRuntime", "step", "serve.step", None),
    ("repro.cluster.coordinator", "ServeCluster", "step", "serve.step", None),
    ("repro.serve.ingest", "IngestPipeline", "push", "IngestPipeline.push", None),
    ("repro.serve.commit", "StateCommitter", "commit", "StateCommitter.commit", None),
    ("repro.durable.wal", "WriteAheadLog", "append", "WriteAheadLog.append",
     lambda args, kwargs: len(args[1])),
    ("repro.durable.wal", "WriteAheadLog", "sync", "WriteAheadLog.sync", None),
    ("repro.durable.store", "DurableStateStore", "snapshot", "DurableStateStore.snapshot", None),
    ("repro.cluster.replication", "ReplicaGroup", "ship", "ReplicaGroup.ship", None),
    ("repro.cluster.replica", "ShardReplica", "apply", "ShardReplica.apply", None),
    ("repro.cluster.coordinator", "ServeCluster", "_gather", "ServeCluster.gather", None),
    ("repro.cluster.rpc", "SimRpc", "call", "SimRpc.call", None),
    ("repro.cluster.rpc", "SimRpc", "ship", "SimRpc.ship", None),
    ("repro.cluster.supervisor", "Supervisor", "tick", "Supervisor.tick", None),
    ("repro.integrity.digest", "ChunkedDigest", "record_rows", "ChunkedDigest.record_rows", None),
    ("repro.integrity.scrubber", "Scrubber", "maybe_scrub", "Scrubber.scrub", None),
    ("repro.integrity.scrubber", "Scrubber", "scrub_now", "Scrubber.scrub", None),
]


class SpanRecorder:
    """Wraps callables, records their spans and the GC's pauses."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.steps: list = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: number of the step spans are opened in; None between steps
        self.step = None
        self.gc_pause = 0.0
        self.gc_freed = 0
        self._gc_started: Optional[float] = None
        self._stack: list = []
        self._patches: list = []

    # ---- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.steps.append(self.step)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str,
             count: Optional[Callable] = None) -> None:
        original = vars(owner)[attr] if inspect.isclass(owner) else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None:
                recorder.counters[name] += count(args, kwargs)
            i = recorder._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder._close(i)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS` and hook the GC."""
        for module, cls, attr, name, count in TARGETS:
            owner = importlib.import_module(module)
            self.wrap(getattr(owner, cls) if cls else owner, attr, name, count)
        gc.callbacks.append(self._on_gc)

    def close(self) -> None:
        """Restore every wrapped callable and unhook the GC."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            # collections between steps (the benchmark's own) do not count
            self._gc_started = time.perf_counter() if self.step is not None else None
        elif self._gc_started is not None:
            self.gc_pause += time.perf_counter() - self._gc_started
            self.gc_freed += int(info.get("collected", 0))
            self._gc_started = None

    # ---- aggregation ---------------------------------------------------------

    def _arrays(self):
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        return dur, dur - covered, parents

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name, over spans opened inside a step: ``calls``;
        ``self`` seconds; ``total``, the inclusive seconds of calls not
        nested in a call of the same name; and ``direct``, the inclusive
        seconds of calls whose parent is not ``TSampler.sample`` (sampling
        done by serving rather than by a model's block sampler)."""
        dur, self_time, parents = self._arrays()
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0, "direct": 0.0})
        for i, name in enumerate(self.names):
            if self.steps[i] is None:
                continue
            row = out[name]
            row["calls"] += 1
            row["self"] += self_time[i]
            p = parents[i]
            if p < 0 or self.names[p] != "TSampler.sample":
                row["direct"] += dur[i]
            while p >= 0 and self.names[p] != name:
                p = parents[p]
            if p < 0:
                row["total"] += dur[i]
        return dict(out)

    def write_chrome_trace(self, path: str) -> None:
        origin = min(self.starts, default=0.0)
        events = [
            {
                "name": name, "ph": "X", "pid": os.getpid(), "tid": 1,
                "ts": round((self.starts[i] - origin) * 1e6, 3),
                "dur": round((self.ends[i] - self.starts[i]) * 1e6, 3),
                "args": {"id": i, "parent": self.parents[i], "step": self.steps[i]},
            }
            for i, name in enumerate(self.names)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
