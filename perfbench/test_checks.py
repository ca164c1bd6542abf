"""Each output check accepts a correct output and rejects a planted wrong
one, and the metrics a run prints are the ones ``BENCHMARK.json`` lists.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

import checks
import layers
import run
from inputs import skewed_stream
from repro.bench.metrics import average_precision as program_ap
from repro.core import Mailbox, Memory, TContext, TGraph, TSampler
from repro.serve import ServeRuntime, replay, split_batches
from repro.serve.events import EventBatch


# ---- average precision ------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_average_precision_matches_the_program(seed):
    rng = np.random.default_rng(seed)
    labels = rng.random(400) < 0.5
    scores = np.round(rng.random(400) + 0.3 * labels, 2)  # many ties
    assert math.isclose(checks.average_precision(labels, scores),
                        program_ap(labels, scores), rel_tol=1e-12)


def test_average_precision_known_values():
    assert checks.average_precision([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1]) == pytest.approx(
        0.5 * (1.0 + 2.0 / 3.0))
    assert checks.average_precision([1, 1, 0], [0.5, 0.5, 0.5]) == pytest.approx(2.0 / 3.0)


# ---- train-tgn ---------------------------------------------------------------

def _train_outputs():
    rng = np.random.default_rng(0)
    labels = np.concatenate([np.ones(200), np.zeros(200)])
    scores = labels + rng.normal(0, 0.8, size=400)
    return labels, scores, program_ap(labels, scores)


def test_train_accepts_a_good_run():
    labels, scores, ap = _train_outputs()
    assert checks.check_train([1.2, 1.0, 0.9], labels, scores, ap) == []


@pytest.mark.parametrize("losses", [[1.2, float("nan"), 0.9], [1.0, float("inf")],
                                    [0.9, 1.0, 1.1], [1.0, 1.0], [1.0]])
def test_train_rejects_bad_losses(losses):
    labels, scores, ap = _train_outputs()
    assert checks.check_train(losses, labels, scores, ap)


def test_train_rejects_a_program_ap_that_disagrees():
    labels, scores, ap = _train_outputs()
    assert checks.check_train([1.2, 0.9], labels, scores, ap + 1e-6)


def test_train_rejects_chance_level_ap():
    labels, scores, _ = _train_outputs()
    flipped = -scores
    assert checks.check_train([1.2, 0.9], labels, flipped, program_ap(labels, flipped))


# ---- infer-tgat --------------------------------------------------------------

def test_infer_accepts_identical_scores():
    ref = np.random.default_rng(1).random(600).astype(np.float32)
    assert checks.check_infer(ref.copy(), ref) == []


def test_infer_rejects_a_one_ulp_difference():
    ref = np.random.default_rng(1).random(600).astype(np.float32)
    out = ref.copy()
    out[123] = np.nextafter(out[123], np.float32(2))
    assert checks.check_infer(out, ref) == ["1 of 600 scores differ from the reference path"]


def test_infer_rejects_signed_zero_and_shape_and_dtype_changes():
    ref = np.zeros(10, dtype=np.float32)
    out = ref.copy()
    out[3] = -0.0
    assert checks.check_infer(out, ref)
    assert checks.check_infer(ref[:9], ref)
    assert checks.check_infer(ref.astype(np.float64), ref)


# ---- serving -----------------------------------------------------------------

def test_last_event_memory_matches_a_plain_loop():
    stream = skewed_stream(3, 40, 500, 4)
    data, time = checks.last_event_memory(stream, 300, 4)
    want_data = np.zeros((40, 4), dtype=np.float32)
    want_time = np.zeros(40)
    for i in range(300):
        for node in (stream.src[i], stream.dst[i]):
            want_data[node] = stream.payload[i]
            want_time[node] = stream.ts[i]
    assert np.array_equal(data, want_data) and np.array_equal(time, want_time)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A real ServeRuntime replay of a small skewed stream."""
    stream = skewed_stream(5, 60, 1000, 8)
    g = TGraph(stream.src, stream.dst, stream.ts, num_nodes=60)
    engine = ServeRuntime(g, TContext(g), Memory(60, 8), TSampler(5, seed=5),
                          mailbox=Mailbox(60, 8), deadline=2e-2,
                          durable_dir=str(tmp_path_factory.mktemp("wal")))
    batches = split_batches(EventBatch(stream.eids, stream.src, stream.dst, stream.ts,
                                       stream.payload), 50)
    results = replay(engine, batches, load=1.0)
    engine.close()
    st = engine.ingest.stats
    ledger = {"offered": 1000, "pushed": st.pushed, "accepted": st.accepted,
              "duplicates": st.duplicates, "quarantined": st.quarantined_total}
    memory = (engine.memory.data.data.copy(), engine.memory.time.copy())
    oracle = checks.last_event_memory(stream, 1000, 8)
    return memory, oracle, [r.status for r in results], len(batches), ledger


def test_serve_accepts_the_program_output(served):
    assert checks.check_serve(*served, zero_rows=0) == []


def test_serve_rejects_a_wrong_row(served):
    (data, time), oracle, statuses, requests, ledger = served
    data = data.copy()
    data[int(np.argmax(time))] += 1.0
    assert checks.check_serve((data, time), oracle, statuses, requests, ledger, 0)


def test_serve_rejects_a_stale_time(served):
    (data, time), oracle, statuses, requests, ledger = served
    time = time.copy()
    time[int(np.argmax(time))] -= 0.5
    assert checks.check_serve((data, time), oracle, statuses, requests, ledger, 0)


def test_serve_rejects_unanswered_or_failed_requests(served):
    memory, oracle, statuses, requests, ledger = served
    assert checks.check_serve(memory, oracle, statuses[:-1], requests, ledger, 0)
    assert checks.check_serve(memory, oracle, ["shed"] + statuses[1:], requests, ledger, 0)


def test_serve_rejects_an_unbalanced_ledger(served):
    memory, oracle, statuses, requests, ledger = served
    assert checks.check_serve(memory, oracle, statuses, requests,
                              dict(ledger, accepted=ledger["accepted"] - 1), 0)
    assert checks.check_serve(memory, oracle, statuses, requests,
                              dict(ledger, offered=ledger["offered"] + 1), 0)


def test_serve_rejects_zero_filled_rows(served):
    assert checks.check_serve(*served, zero_rows=1)


# ---- the result line matches BENCHMARK.json -----------------------------------

def test_printed_metrics_match_benchmark_json():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert run.END_TO_END == {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert layers.PER_LAYER == {m["name"]: m["unit"] for m in bench["per_layer"]}
