"""Output checks, computed apart from the program.

Each ``check_*`` function takes what a workload produced plus what the
benchmark computed on its own, and returns a list of failure messages
(empty when the output is correct).  None of them compares against a
stored copy of an earlier run: they use independent oracles (an AP
implementation, a last-event-wins memory model) or properties the
method must have (finite losses that fall, bit-identical scores with
the optimizations off).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np


def average_precision(labels: np.ndarray, scores: np.ndarray) -> float:
    """AP as the sum over score thresholds of precision times recall gained.

    Equal scores form one threshold: all their positives count at once,
    at the precision reached after the whole group.
    """
    labels = np.asarray(labels, dtype=bool).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    positives = int(labels.sum())
    if positives == 0:
        return 0.0
    # groups of equal score, highest score first
    values, group = np.unique(-scores, return_inverse=True)
    seen = np.cumsum(np.bincount(group, minlength=len(values)))
    hits = np.cumsum(np.bincount(group, weights=labels, minlength=len(values)))
    gained = np.diff(np.concatenate([[0.0], hits]))
    return float(np.sum(gained / positives * (hits / seen)))


def last_event_memory(stream, num_events: int, dim: int):
    """Memory after committing the first *num_events* events of *stream*.

    Every event writes its payload row and time to both endpoints; a
    node keeps the row of the latest event that touched it.  Nodes never
    touched stay zero at time zero.
    """
    ts = stream.ts[:num_events]
    if np.any(np.diff(ts) <= 0):
        raise ValueError("oracle needs strictly increasing event times")
    latest = np.full(stream.num_nodes, -1, dtype=np.int64)
    order = np.arange(num_events)
    np.maximum.at(latest, stream.src[:num_events], order)
    np.maximum.at(latest, stream.dst[:num_events], order)
    touched = latest >= 0
    data = np.zeros((stream.num_nodes, dim), dtype=np.float32)
    time = np.zeros(stream.num_nodes, dtype=np.float64)
    data[touched] = stream.payload[latest[touched]]
    time[touched] = ts[latest[touched]]
    return data, time


def check_train(epoch_losses: Sequence[float], labels: np.ndarray,
                scores: np.ndarray, program_ap: float) -> List[str]:
    """TGN training: finite falling loss, and a validation AP both
    implementations agree on and that beats chance."""
    fails = []
    if not all(math.isfinite(x) for x in epoch_losses):
        fails.append(f"non-finite epoch loss in {list(epoch_losses)}")
    elif len(epoch_losses) < 2:
        fails.append("fewer than two timed epochs")
    elif not epoch_losses[-1] < epoch_losses[0]:
        fails.append(f"loss did not fall: first epoch {epoch_losses[0]!r}, "
                     f"last {epoch_losses[-1]!r}")
    ap = average_precision(labels, scores)
    if not math.isclose(ap, program_ap, rel_tol=1e-9, abs_tol=1e-12):
        fails.append(f"validation AP {program_ap!r} from the program != {ap!r}")
    if not ap > 0.5:
        fails.append(f"validation AP {ap!r} not above chance")
    return fails


def check_infer(scores: np.ndarray, reference: np.ndarray) -> List[str]:
    """TGAT inference: every score bit-identical to the unoptimized path."""
    scores = np.asarray(scores)
    reference = np.asarray(reference)
    if scores.shape != reference.shape:
        return [f"score shape {scores.shape} != reference {reference.shape}"]
    if scores.dtype != reference.dtype:
        return [f"score dtype {scores.dtype} != reference {reference.dtype}"]
    bits = np.ascontiguousarray(scores).view(np.uint8).reshape(len(scores), -1)
    want = np.ascontiguousarray(reference).view(np.uint8).reshape(len(reference), -1)
    bad = int((bits != want).any(axis=1).sum())
    return [f"{bad} of {len(scores)} scores differ from the reference path"] if bad else []


def check_serve(memory, oracle, statuses: Sequence[str], requests: int,
                ledger: Dict[str, int], zero_rows: int) -> List[str]:
    """Serving: final memory equals the last-event-wins oracle, every
    request answered ``ok``, the ingestion ledger balances, no zero-fill."""
    fails = []
    (data, time), (want_data, want_time) = memory, oracle
    if data.shape != want_data.shape or not np.array_equal(data, want_data):
        rows = (np.flatnonzero((data != want_data).any(axis=1)).size
                if data.shape == want_data.shape else "all")
        fails.append(f"memory rows differ from the oracle: {rows}")
    if time.shape != want_time.shape or not np.array_equal(time, want_time):
        fails.append("memory times differ from the oracle")
    not_ok = sum(1 for s in statuses if s != "ok")
    if len(statuses) != requests or not_ok:
        fails.append(f"{len(statuses)} answers to {requests} requests, "
                     f"{not_ok} not ok")
    if not (ledger["offered"] == ledger["pushed"]
            == ledger["accepted"] + ledger["duplicates"] + ledger["quarantined"]):
        fails.append(f"ingestion ledger unbalanced: {ledger}")
    if zero_rows:
        fails.append(f"serve:zero_rows is {zero_rows}")
    return fails
