"""Per-pair and per-edge Python loops: references for the array kernels.

The temporal filter's common-neighbour gap, the calibration split, the
classifier labels and the weighted metrics' weight matrix are all computed
with array kernels (sorted-key probes, an expansion pass, ``isin``).  This
module keeps the loops they replaced — a set intersection per pair, a
tuple membership test per candidate, a ``has_edge`` call per pair or edge
— sharing no code with the kernels beyond the public snapshot accessors
(and, for the filter mask, the node-level features of ``pair_activity``),
so the parity suites can compare the two with ``np.array_equal``.

The edge weights the weighted metrics synthesize have a loop here too:
one neighbour-set intersection and one lognormal draw per edge.  So do
the triangle count and clustering coefficient of ``repro.graph.stats``:
a membership test per pair of a node's neighbours, and the average over
a node sample drawn from the node list.

``measure_mechanisms`` keeps its edge-by-edge replay: a dict-of-sets
tracker bumps the common-neighbour count of every unconnected 2-hop pair
as each edge arrives, and an edge closes a 2-hop pair when its own count
is positive at creation.
"""

from __future__ import annotations

import bisect

import numpy as np
import scipy.sparse as sp

from repro.temporal.activity import pair_activity
from repro.utils.pairs import canonical_pair
from repro.utils.rng import ensure_rng


def cn_time_gap(snapshot, u: int, v: int) -> float:
    """Days since ``(u, v)`` last gained a common neighbour (inf if none)."""
    nu, nv = snapshot.neighbors(u), snapshot.neighbors(v)
    common = nu & nv if len(nu) < len(nv) else nv & nu
    if not common:
        return np.inf
    trace = snapshot.trace
    latest = max(
        max(trace.edge_time(u, w), trace.edge_time(v, w)) for w in common
    )
    return snapshot.time - latest


def cn_time_gaps(snapshot, pairs: np.ndarray) -> np.ndarray:
    """:func:`cn_time_gap` of every pair, one loop iteration each."""
    return np.asarray(
        [cn_time_gap(snapshot, int(u), int(v)) for u, v in pairs], dtype=np.float64
    ).reshape(len(pairs))


def filter_mask(params, snapshot, pairs: np.ndarray) -> np.ndarray:
    """The Section 6.2 keep-mask with the CN gap computed pair by pair.

    Node-level features come from :func:`pair_activity` with no gap pass
    (they were vectorised before the gap kernel existed); criterion 4 is
    evaluated with :func:`cn_time_gap` for the node-level survivors only.
    """
    if len(pairs) == 0:
        return np.zeros(0, dtype=bool)
    activity = pair_activity(
        snapshot, pairs, window=params.window,
        cn_gap_mask=np.zeros(len(pairs), dtype=bool),
    )
    keep = (
        (activity.active_idle < params.d_act)
        & (activity.inactive_idle < params.d_inact)
        & (activity.recent_edges >= params.min_new_edges)
    )
    for i in np.flatnonzero(keep):
        gap = cn_time_gap(snapshot, int(pairs[i, 0]), int(pairs[i, 1]))
        if np.isfinite(gap) and not gap < params.d_cn:
            keep[i] = False
    return keep


def positive_mask(truth, candidates: np.ndarray) -> np.ndarray:
    """Ordered-tuple membership of each candidate row in ``truth``."""
    return np.fromiter(
        ((int(u), int(v)) in truth for u, v in candidates),
        dtype=bool,
        count=len(candidates),
    )


def labeled_pairs(future, pairs: np.ndarray) -> np.ndarray:
    """1 where ``future.has_edge(u, v)``, else 0."""
    return np.fromiter(
        (1 if future.has_edge(int(u), int(v)) else 0 for u, v in pairs),
        dtype=np.int64,
        count=len(pairs),
    )


def synthesize_weights(snapshot, seed: int = 0, gain: float = 0.5, noise: float = 0.3):
    """Per-edge weights: a neighbour-set intersection and one lognormal
    draw per edge, in edge-creation order."""
    rng = np.random.default_rng(seed)
    now = snapshot.time
    span = max(1e-9, now - snapshot.trace.start_time)
    weights = {}
    for (u, v), t in zip(snapshot.edges(), snapshot.edge_times().tolist()):
        embeddedness = len(snapshot.neighbors(u) & snapshot.neighbors(v))
        base = 1.0 + gain * embeddedness + (1.0 - (now - t) / span)
        weights[(u, v)] = float(base * rng.lognormal(0.0, noise))
    return weights


def weight_matrix(snapshot, weights, alpha: float) -> sp.csr_matrix:
    """Per-edge validation and COO assembly, item by item in dict order."""
    pos = snapshot.node_pos
    n = len(pos)
    rows, cols, data = [], [], []
    for (u, v), w in weights.items():
        if not snapshot.has_edge(u, v):
            raise ValueError(f"weight given for non-edge {(u, v)}")
        if w <= 0:
            raise ValueError(f"weights must be positive, got {w} for {(u, v)}")
        value = w**alpha
        rows.extend((pos[u], pos[v]))
        cols.extend((pos[v], pos[u]))
        data.extend((value, value))
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def triangle_count(snapshot, node: int) -> int:
    """Linked pairs among ``node``'s neighbours, one membership test each."""
    neigh_list = list(snapshot.neighbors(node))
    count = 0
    for i, u in enumerate(neigh_list):
        nu = snapshot.neighbors(u)
        for v in neigh_list[i + 1 :]:
            if v in nu:
                count += 1
    return count


def local_clustering(snapshot, node: int) -> float:
    """Closed wedges / possible wedges at ``node``."""
    k = len(snapshot.neighbors(node))
    if k < 2:
        return 0.0
    return 2.0 * triangle_count(snapshot, node) / (k * (k - 1))


def average_clustering(snapshot, sample_size=None, seed=None) -> float:
    """Mean :func:`local_clustering`, over a node sample when ``sample_size``
    is below the node count."""
    nodes = snapshot.node_list
    if not nodes:
        return 0.0
    if sample_size is not None and sample_size < len(nodes):
        rng = ensure_rng(seed)
        nodes = list(rng.choice(nodes, size=sample_size, replace=False))
    return float(np.mean([local_clustering(snapshot, u) for u in nodes]))


class IncrementalNeighborhood:
    """Streaming adjacency plus the CN count of every unconnected 2-hop
    pair, updated in ``O(deg(u) + deg(v))`` dict bumps per inserted edge."""

    def __init__(self) -> None:
        self.adj: dict[int, set[int]] = {}
        self.edges: set = set()
        #: unconnected pair -> number of common neighbours (> 0 only).
        self.cn: dict = {}

    def common_neighbors(self, u: int, v: int) -> int:
        """CN count of an unconnected pair (0 if beyond two hops)."""
        return self.cn.get(canonical_pair(u, v), 0)

    def _bump(self, a: int, b: int) -> None:
        pair = canonical_pair(a, b)
        if a != b and pair not in self.edges:
            self.cn[pair] = self.cn.get(pair, 0) + 1

    def add_edge(self, u: int, v: int) -> None:
        """Insert a new edge: a 2-path u-v-x for every neighbour x of v and
        v-u-x for every neighbour x of u."""
        pair = canonical_pair(u, v)
        self.adj.setdefault(u, set())
        self.adj.setdefault(v, set())
        # The pair stops being a candidate the moment it becomes an edge.
        self.cn.pop(pair, None)
        for x in self.adj[v]:
            self._bump(u, x)
        for x in self.adj[u]:
            self._bump(v, x)
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.edges.add(pair)


def measure_mechanisms(trace) -> dict:
    """``repro.generators.fit.measure_mechanisms`` replayed edge by edge
    through :class:`IncrementalNeighborhood`."""
    tracker = IncrementalNeighborhood()
    closures_first, closures_second = 0, 0
    newcomer_edges = 0
    idle_samples: list = []
    half = trace.num_edges // 2
    logs: dict = {}  # every node's sorted edge times, whole trace
    for u, v, t in trace.edges():
        logs.setdefault(u, []).append(t)
        logs.setdefault(v, []).append(t)

    def idle_time(node, now):
        """Time since the node's last edge at or before ``now`` (since its
        arrival if there is none)."""
        times = logs.get(node, [])
        i = bisect.bisect_right(times, now)
        return now - (times[i - 1] if i else trace.node_arrival_time(node))

    for index, (u, v, t) in enumerate(trace.edges()):
        if tracker.common_neighbors(u, v) > 0:
            if index < half:
                closures_first += 1
            else:
                closures_second += 1
        if min(t - trace.node_arrival_time(u), t - trace.node_arrival_time(v)) < 1.0:
            newcomer_edges += 1
        else:
            idle_samples.append(
                min(idle_time(u, t - 1e-9), idle_time(v, t - 1e-9))
            )
        tracker.add_edge(u, v)
    edges = trace.num_edges
    return {
        "triadic_share": (closures_first + closures_second) / edges,
        "triadic_share_first_half": closures_first / max(1, half),
        "triadic_share_second_half": closures_second / max(1, edges - half),
        "newcomer_share": newcomer_edges / edges,
        "median_initiator_idle": float(np.median(idle_samples)) if idle_samples else 0.0,
    }
