"""Seeded inputs for the benchmark workloads.

Every input is generated here, by the benchmark, from the ``--seed``
argument; the program under test only ever receives the arrays.  The
generators follow the shape of the paper's datasets (bipartite user-item
interactions, Zipf popularity, repeat visits) but are independent of
``repro.data``, so a change to the program's own generators cannot
silently change what the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GraphShape:
    """Size and make-up of one interaction graph."""

    num_nodes: int
    num_edges: int
    dim_node: int
    dim_edge: int
    t_max: float
    user_fraction: float
    repeat_prob: float
    popularity_exp: float = 1.1
    activity_exp: float = 1.0


#: Same node/edge counts, feature widths and time span as the program's
#: ``wiki`` and ``lastfm`` datasets.
WIKI = GraphShape(461, 3149, 172, 172, 2.7e6, user_fraction=0.85, repeat_prob=0.55)
LASTFM = GraphShape(99, 25862, 128, 128, 1.4e8, user_fraction=0.5, repeat_prob=0.8)


@dataclass
class InteractionGraph:
    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray
    nfeat: np.ndarray
    efeat: np.ndarray
    num_nodes: int
    items: np.ndarray  # negative-sampling candidates (the item side)


def _zipf(n: int, exponent: float) -> np.ndarray:
    w = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return w / w.sum()


def interaction_graph(shape: GraphShape, seed: int) -> InteractionGraph:
    """A bipartite, time-sorted interaction graph with repeat visits.

    Each event picks a user by Zipf activity; with probability
    ``repeat_prob`` the user revisits one of its last few partners
    (recency-biased), otherwise it picks an item by Zipf popularity.
    Node ids are shuffled so popularity is not aligned with id order.
    """
    rng = np.random.default_rng([seed, 1])
    num_users = int(round(shape.num_nodes * shape.user_fraction))
    users = rng.permutation(num_users)
    items = num_users + rng.permutation(shape.num_nodes - num_users)
    m = shape.num_edges
    src = users[rng.choice(num_users, size=m, p=_zipf(num_users, shape.activity_exp))]
    dst = items[rng.choice(len(items), size=m, p=_zipf(len(items), shape.popularity_exp))]
    repeat = rng.random(m) < shape.repeat_prob
    back = np.minimum(rng.geometric(0.5, size=m) - 1, 7)
    history: dict = {}
    for i in range(m):
        u = int(src[i])
        seen = history.setdefault(u, [])
        if repeat[i] and seen:
            dst[i] = seen[-1 - min(int(back[i]), len(seen) - 1)]
        else:
            seen.append(int(dst[i]))
            del seen[:-32]
    ts = np.cumsum(rng.exponential(1.0, size=m))
    ts = ts / ts[-1] * shape.t_max
    nfeat = rng.standard_normal((shape.num_nodes, shape.dim_node)).astype(np.float32)
    efeat = rng.standard_normal((m, shape.dim_edge)).astype(np.float32)
    return InteractionGraph(
        src.astype(np.int64), dst.astype(np.int64), ts, nfeat, efeat,
        shape.num_nodes, np.sort(items).astype(np.int64),
    )


@dataclass
class EventStream:
    eids: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray
    payload: np.ndarray
    num_nodes: int


def skewed_stream(seed: int, num_nodes: int, num_events: int, dim: int,
                  exponent: float = 1.2) -> EventStream:
    """A clean serving stream whose endpoints follow Zipf popularity.

    Timestamps are strictly increasing (exponential gaps), payload rows
    are ``dim`` wide so they are committed verbatim as memory rows.
    """
    rng = np.random.default_rng([seed, 2])
    p = _zipf(num_nodes, exponent)
    src = rng.permutation(num_nodes)[rng.choice(num_nodes, size=num_events, p=p)]
    dst = rng.permutation(num_nodes)[rng.choice(num_nodes, size=num_events, p=p)]
    ts = 1.0 + np.cumsum(rng.exponential(1.0, size=num_events))
    payload = rng.standard_normal((num_events, dim)).astype(np.float32)
    return EventStream(np.arange(num_events, dtype=np.int64), src.astype(np.int64),
                       dst.astype(np.int64), ts, payload, num_nodes)
