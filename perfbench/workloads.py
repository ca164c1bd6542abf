"""The four benchmark workloads.

Each workload has the same life cycle, driven by ``run.py``:

* ``__init__(seed, workdir)`` generates the seeded input (benchmark code,
  not timed);
* ``setup()`` is everything from the first call into the program until
  the first timed step may start, including an untimed warm-up round;
  it runs ``setups`` times before the first round, and again before
  every round when ``setup_every_round`` is set; ``setup_s`` is the
  median;
* ``run_round(timer)`` runs one whole round (an epoch, an inference
  pass, a replay of the request stream), marking step boundaries on
  *timer*, and returns ``(events, wall_seconds)``;
* ``check()`` compares the outputs against computations made apart from
  the program (see ``checks.py``) and returns failure messages;
* ``digest()`` summarises the output of the first timed round, which
  every run with the same seed computes identically.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import time

import numpy as np

from repro import core as tg
from repro.bench.experiments import PAGEABLE_BANDWIDTH, PINNED_BANDWIDTH
from repro.bench.metrics import average_precision as program_average_precision
from repro.bench.trainer import train_epoch
from repro.cluster import ClusterConfig, ServeCluster
from repro.data import NegativeSampler
from repro.models import TGAT, TGN, OptFlags
from repro.nn import Adam
from repro.serve import ServeRuntime, replay, split_batches
from repro.serve.events import EventBatch
from repro.tensor import Tensor, manual_seed, no_grad
from repro.tensor.device import runtime as device_runtime

import checks
from inputs import LASTFM, WIKI, interaction_graph, skewed_stream


class StepTimer:
    """Step boundaries on the wall clock.

    ``mark()`` ends the open step (if any) and opens the next one;
    ``stop()`` ends the open step; ``drop()`` discards it.  With a span
    recorder attached, spans opened inside a step carry its number and
    spans opened between steps carry None.
    """

    def __init__(self, recorder=None):
        self.durations: list = []
        self.recorder = recorder
        self._opened = None

    def _step(self, number) -> None:
        if self.recorder is not None:
            self.recorder.step = number

    def mark(self) -> None:
        now = time.perf_counter()
        if self._opened is not None:
            self.durations.append(now - self._opened)
        self._opened = now
        self._step(len(self.durations))

    def stop(self) -> None:
        if self._opened is not None:
            self.durations.append(time.perf_counter() - self._opened)
        self._opened = None
        self._step(None)

    def drop(self) -> None:
        self._opened = None
        self._step(None)


def timed_rounds(wl, timer: StepTimer, seconds: float, min_rounds: int = 1,
                 between=None):
    """Whole rounds until *seconds* of timed span and *min_rounds* rounds;
    returns ``(events, wall seconds, step durations)`` of each round.
    *between*, if given, is called before every round after the first."""
    rounds = []
    while sum(r[1] for r in rounds) < seconds or len(rounds) < min_rounds:
        if rounds and between is not None:
            between()
        first = len(timer.durations)
        events, wall = wl.run_round(timer)
        rounds.append((events, wall, timer.durations[first:]))
    return rounds


class _ClockedNegatives(NegativeSampler):
    """Negative sampler that marks a step each time a batch draws negatives.

    The trainer draws negatives once at the start of every batch, so the
    marks are the step boundaries of ``train_epoch`` without changing it.
    """

    timer = None

    def sample(self, n):
        if self.timer is not None:
            self.timer.mark()
        return super().sample(n)


def _device_setup() -> None:
    """All data on the simulated device, transfer costs modelled."""
    device_runtime.reset()
    device_runtime.simulate_transfer_cost = True
    device_runtime.pageable_bandwidth = PAGEABLE_BANDWIDTH
    device_runtime.pinned_bandwidth = PINNED_BANDWIDTH


def _graph(data) -> tg.TGraph:
    g = tg.TGraph(data.src, data.dst, data.ts, num_nodes=data.num_nodes)
    g.set_nfeat(Tensor(data.nfeat, device="cuda"))
    g.set_efeat(Tensor(data.efeat, device="cuda"))
    return g


def _context_totals(stats) -> dict:
    """Cumulative kernel seconds and operator counts of one context."""
    out = {f"kernel:{k}": v for k, v in stats.kernel_seconds.items()}
    for key in ("dedup_rows_in", "dedup_rows_out"):
        out[key] = stats.counters.get(key, 0)
    return out


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode() + a.tobytes())
    return h.hexdigest()[:16]


class TrainTGN:
    """TGN link-prediction training, tglite+opt, wiki-shaped graph."""

    name = "train-tgn"
    batch_size = 100
    setups = 3
    setup_every_round = False
    failed = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.data = interaction_graph(WIKI, seed)
        m = len(self.data.src)
        self.train_end, self.val_end = int(0.70 * m), int(0.85 * m)
        self.epoch_losses: list = []
        self.warmup_loss = None

    def setup(self) -> None:
        d = self.data
        _device_setup()
        manual_seed(self.seed)
        self.g = _graph(d)
        self.ctx = tg.TContext(self.g, device="cuda")
        dim_mem = 32
        self.g.set_memory(dim_mem, device="cuda")
        self.g.set_mailbox(TGN.required_mailbox_dim(dim_mem, d.efeat.shape[1]), device="cuda")
        self.model = TGN(
            self.ctx, dim_node=d.nfeat.shape[1], dim_edge=d.efeat.shape[1],
            dim_time=32, dim_embed=32, dim_mem=dim_mem, num_layers=2, num_heads=2,
            num_nbrs=10, dropout=0.1, sampling="recent", opt=OptFlags.all(),
        )
        self.model.to("cuda")
        self.optimizer = Adam(self.model.parameters(), lr=1e-3)
        self.negatives = _ClockedNegatives(d.items, seed=self.seed)
        self.warmup_loss = self._epoch()

    def _epoch(self) -> float:
        self.model.reset_state()
        _, loss = train_epoch(self.model, self.g, self.optimizer, self.negatives,
                              self.batch_size, start=0, stop=self.train_end)
        return loss

    def run_round(self, timer: StepTimer):
        self.negatives.timer = timer
        t0 = time.perf_counter()
        loss = self._epoch()
        timer.stop()
        wall = time.perf_counter() - t0
        self.negatives.timer = None
        self.epoch_losses.append(loss)
        return self.train_end, wall

    def check(self):
        # Validation continues from the memory state training left behind,
        # as the program's training protocol evaluates.
        self.model.eval()
        negatives = NegativeSampler(self.data.items, seed=self.seed)
        pos, neg = [], []
        with no_grad():
            for batch in tg.iter_batches(self.g, self.batch_size,
                                         start=self.train_end, stop=self.val_end):
                batch.neg_nodes = negatives.sample(len(batch))
                p, n = self.model(batch)
                pos.append(p.data.copy())
                neg.append(n.data.copy())
        scores = np.concatenate(pos + neg)
        labels = np.concatenate([np.ones(sum(map(len, pos))), np.zeros(sum(map(len, neg)))])
        self.val_ap = program_average_precision(labels, scores)
        return checks.check_train(self.epoch_losses, labels, scores, self.val_ap)

    def context_totals(self) -> dict:
        return _context_totals(self.ctx.stats())

    def digest(self) -> str:
        return _sha(np.array([self.warmup_loss, self.epoch_losses[0]]))

    def describe(self) -> str:
        return (f"epochs={len(self.epoch_losses)} first_loss={self.epoch_losses[0]!r} "
                f"last_loss={self.epoch_losses[-1]!r} val_ap={self.val_ap!r}")

    def close(self) -> None:
        device_runtime.reset()


class InferTGAT:
    """TGAT test-split inference, tglite+opt, lastfm-shaped graph."""

    name = "infer-tgat"
    batch_size = 300
    setups = 3
    setup_every_round = False
    failed = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.data = interaction_graph(LASTFM, seed)
        m = len(self.data.src)
        self.val_end = int(0.85 * m)
        self.first_scores = None
        self.last_scores = None
        # reset_state() empties the embedding cache and its hit counts,
        # so timed passes add theirs up here.
        self.cache_hits = self.cache_lookups = 0

    def _build(self, opt: OptFlags):
        d = self.data
        manual_seed(self.seed)
        g = _graph(d)
        ctx = tg.TContext(g, device="cuda")
        model = TGAT(ctx, dim_node=d.nfeat.shape[1], dim_edge=d.efeat.shape[1],
                     dim_time=32, dim_embed=32, num_layers=2, num_heads=2,
                     num_nbrs=10, dropout=0.1, sampling="recent", opt=opt)
        model.to("cuda")
        model.eval()
        return g, ctx, model

    def setup(self) -> None:
        _device_setup()
        self.g, self.ctx, self.model = self._build(OptFlags.all())
        self.negatives = NegativeSampler(self.data.items, seed=self.seed)
        self._pass(self.model, self.g, self.negatives, StepTimer())

    def _pass(self, model, g, negatives, timer: StepTimer) -> np.ndarray:
        model.reset_state()
        negatives.reset()
        pos, neg = [], []
        with no_grad():
            for batch in tg.iter_batches(g, self.batch_size, start=self.val_end):
                timer.mark()
                batch.neg_nodes = negatives.sample(len(batch))
                p, n = model(batch)
                pos.append(p.data.copy())
                neg.append(n.data.copy())
        timer.stop()
        return np.concatenate(pos + neg)

    def run_round(self, timer: StepTimer):
        t0 = time.perf_counter()
        scores = self._pass(self.model, self.g, self.negatives, timer)
        wall = time.perf_counter() - t0
        stats = self.ctx.stats()
        self.cache_hits += stats.cache_hits
        self.cache_lookups += stats.cache_lookups
        if self.first_scores is None:
            self.first_scores = scores
        self.last_scores = scores
        return len(self.data.src) - self.val_end, wall

    def check(self):
        # The reference: the same weights through plain tglite (no dedup,
        # cache or time precompute) on a graph and context of its own.
        g, _, ref = self._build(OptFlags.preload_only())
        ref.load_state_dict(self.model.state_dict())
        reference = self._pass(ref, g, NegativeSampler(self.data.items, seed=self.seed),
                               StepTimer())
        fails = checks.check_infer(self.first_scores, reference)
        fails += [f"last pass: {f}" for f in checks.check_infer(self.last_scores, reference)]
        return fails

    def context_totals(self) -> dict:
        return _context_totals(self.ctx.stats())

    def digest(self) -> str:
        return _sha(self.first_scores)

    def describe(self) -> str:
        return f"cache_hit_rate={self.cache_hits / max(self.cache_lookups, 1)!r}"

    def close(self) -> None:
        device_runtime.reset()


class _Serving:
    """One seeded request stream replayed at 1x offered load per round.

    Every round serves the whole stream on a fresh engine with a fresh
    durable directory, so rounds do identical work; building the engine
    is outside the timed span.
    """

    num_nodes = 500
    requests = 300
    batch_size = 50
    dim = 16
    warmup_requests = 100
    # A set-up is short here, so one before each round, spread over the
    # whole run, keeps its median steady.
    setups = 1
    setup_every_round = True

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.stream = skewed_stream(seed, self.num_nodes,
                                    self.requests * self.batch_size, self.dim)
        self.oracle = checks.last_event_memory(self.stream, len(self.stream.ts), self.dim)
        self.fails: list = []
        self.round_digests: list = []
        self.failed = 0  # requests not answered ok
        self.totals: dict = {}
        self._dirs = 0

    def setup(self) -> None:
        s = self.stream
        self.g = tg.TGraph(s.src, s.dst, s.ts, num_nodes=s.num_nodes)
        self.g.csr()
        self.batches = split_batches(EventBatch(s.eids, s.src, s.dst, s.ts, s.payload),
                                     self.batch_size)
        engine, _ = self._engine()
        replay(engine, self.batches[: self.warmup_requests], load=1.0)
        engine.close()
        self._clean()

    def _durable_dir(self) -> str:
        self._dirs += 1
        return os.path.join(self.workdir, f"{self.name}-{self._dirs}")

    def _clean(self) -> None:
        for entry in os.listdir(self.workdir):
            if entry.startswith(self.name + "-"):
                shutil.rmtree(os.path.join(self.workdir, entry))

    def run_round(self, timer: StepTimer):
        # The previous round's engine is garbage now; collecting it here,
        # outside the timed span, keeps peak_rss_mb the peak of one round
        # rather than growing with the number of rounds a run fits in.
        gc.collect()
        engine, ctx = self._engine()
        timer.mark()
        t0 = time.perf_counter()
        results = replay(engine, self.batches, load=1.0,
                         on_result=lambda *_: timer.mark())
        wall = time.perf_counter() - t0
        timer.drop()
        statuses = [r.status for r in results]
        self.failed += sum(1 for s in statuses if s != "ok")
        memory = self._memory(engine)
        st = engine.ingest.stats
        ledger = {"offered": len(self.stream.ts), "pushed": st.pushed,
                  "accepted": st.accepted, "duplicates": st.duplicates,
                  "quarantined": st.quarantined_total}
        fails = checks.check_serve(memory, self.oracle, statuses, len(self.batches),
                                   ledger, int(ctx.counters.get("serve:zero_rows", 0)))
        self.fails += [f"round {len(self.round_digests)}: {f}" for f in fails]
        self.round_digests.append(_sha(*memory))
        for key, value in _context_totals(ctx.stats()).items():
            self.totals[key] = self.totals.get(key, 0) + value
        engine.close()
        self._clean()
        return len(self.stream.ts), wall

    def context_totals(self) -> dict:
        return self.totals

    def check(self):
        return self.fails

    def digest(self) -> str:
        return self.round_digests[0]

    def describe(self) -> str:
        same = len(set(self.round_digests)) == 1
        return f"rounds={len(self.round_digests)} identical_rounds={same}"

    def close(self) -> None:
        self._clean()


class ServeRuntimeWorkload(_Serving):
    """One ServeRuntime with its write-ahead log on (default fsync policy)."""

    name = "serve-runtime"

    def _engine(self):
        ctx = tg.TContext(self.g)
        engine = ServeRuntime(
            self.g, ctx, tg.Memory(self.num_nodes, self.dim),
            tg.TSampler(10, seed=self.seed),
            mailbox=tg.Mailbox(self.num_nodes, self.dim),
            deadline=2e-2, durable_dir=self._durable_dir(),
        )
        return engine, ctx

    def _memory(self, engine):
        return engine.memory.data.data, engine.memory.time


class ServeClusterWorkload(_Serving):
    """ServeCluster: 4 shards x replication factor 2, hash partitioning,
    scrubbing on."""

    name = "serve-cluster"

    def _engine(self):
        ctx = tg.TContext(self.g)
        config = ClusterConfig(num_shards=4, partition="hash", seed=self.seed,
                               replication_factor=2,
                               durable_root=self._durable_dir())
        engine = ServeCluster(self.g, ctx, tg.TSampler(10, seed=self.seed), self.dim,
                              config=config, mailbox_slots=1, deadline=2e-2)
        return engine, ctx

    def _memory(self, engine):
        return engine.memory_image()


WORKLOADS = {w.name: w for w in (TrainTGN, InferTGAT, ServeRuntimeWorkload,
                                 ServeClusterWorkload)}
