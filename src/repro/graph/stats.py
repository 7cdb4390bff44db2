"""Structural statistics of snapshots.

These serve two roles in the paper:

- the network-evolution figures (Figs. 2-4: average degree, average path
  length, average clustering coefficient over time), and
- the feature vector of the Section 4.3 meta-classifiers that pick the best
  link prediction algorithm for a network (node/edge counts, degree
  distribution moments and percentiles, clustering, path length,
  assortativity).

Everything is implemented from first principles on the snapshot's columnar
structure (degree array, CSR adjacency, edge columns).  Triangle counts and
clustering coefficients are array reads of the per-node triangle counts of
:func:`repro.metrics.kernels.node_triangle_counts`, which come from the
same common-neighbour expansion the link-prediction metrics score with
(or, on a snapshot the delta engine materialised, from its maintained
counts); networkx is only used in the test suite to cross-validate results.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.graph.snapshots import Snapshot
from repro.utils.rng import ensure_rng


def average_degree(snapshot: Snapshot) -> float:
    """Mean node degree, ``2|E| / |V|``."""
    if snapshot.num_nodes == 0:
        return 0.0
    return 2.0 * snapshot.num_edges / snapshot.num_nodes


def degree_statistics(snapshot: Snapshot, percentiles: tuple[float, ...] = (50, 90, 99)):
    """Return ``(mean, std, {p: value})`` of the degree distribution."""
    degrees = snapshot.degree_array()
    if degrees.size == 0:
        return 0.0, 0.0, {p: 0.0 for p in percentiles}
    pct = {p: float(np.percentile(degrees, p)) for p in percentiles}
    return float(degrees.mean()), float(degrees.std()), pct


def node_clustering(snapshot: Snapshot) -> np.ndarray:
    """Clustering coefficient of every node, aligned with ``node_list``.

    ``2 * triangles / (k * (k - 1))`` from the kernels' per-node triangle
    counts, and 0 where the degree ``k < 2``.
    """
    from repro.metrics.kernels import node_triangle_counts

    k = snapshot.degree_array()
    out = np.zeros(len(k), dtype=np.float64)
    wedged = k >= 2
    out[wedged] = (
        2.0 * node_triangle_counts(snapshot)[wedged] / (k[wedged] * (k[wedged] - 1))
    )
    return out


def local_clustering(snapshot: Snapshot, node: int) -> float:
    """Clustering coefficient of one node: closed wedges / possible wedges."""
    return float(node_clustering(snapshot)[snapshot.node_pos[node]])


def average_clustering(
    snapshot: Snapshot,
    sample_size: int | None = None,
    seed: "int | np.random.Generator | None" = None,
) -> float:
    """Mean local clustering coefficient, optionally over a node sample.

    ``sample_size`` averages a uniform node sample instead (the standard
    estimator), drawn as positions into ``node_list``.
    """
    coefficients = node_clustering(snapshot)
    if len(coefficients) == 0:
        return 0.0
    if sample_size is not None and sample_size < len(coefficients):
        rng = ensure_rng(seed)
        coefficients = coefficients[
            rng.choice(len(coefficients), size=sample_size, replace=False)
        ]
    return float(np.mean(coefficients))


def triangle_count(snapshot: Snapshot, node: int) -> int:
    """Number of triangles that include ``node``.

    This is the ``N_triangle`` term of the local naive Bayes metrics
    (BCN/BAA/BRA, Table 3).
    """
    from repro.metrics.kernels import node_triangle_counts

    return int(node_triangle_counts(snapshot)[snapshot.node_pos[node]])


def bfs_distances(snapshot: Snapshot, source: int, max_depth: int | None = None) -> dict[int, int]:
    """Hop distances from ``source`` to every reachable node (bounded BFS)."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        du = dist[u]
        if max_depth is not None and du >= max_depth:
            continue
        for v in snapshot.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                frontier.append(v)
    return dist


def average_path_length(
    snapshot: Snapshot,
    sample_size: int = 100,
    seed: "int | np.random.Generator | None" = None,
) -> float:
    """Estimate the mean shortest-path length between reachable node pairs.

    Runs BFS from a uniform sample of sources and averages distances to all
    reached nodes — the standard estimator for Fig. 3 at scale.  Unreachable
    pairs are ignored (the traces are dominated by one giant component).
    """
    nodes = snapshot.node_list
    if len(nodes) < 2:
        return 0.0
    rng = ensure_rng(seed)
    size = min(sample_size, len(nodes))
    sources = rng.choice(nodes, size=size, replace=False)
    total, count = 0, 0
    for s in sources:
        for node, d in bfs_distances(snapshot, int(s)).items():
            if node != s:
                total += d
                count += 1
    return total / count if count else 0.0


def degree_assortativity(snapshot: Snapshot) -> float:
    """Pearson correlation of degrees across edge endpoints.

    Positive for the friendship networks (Renren, Facebook), consistently
    negative for the subscription-style YouTube network — the structural
    split Section 4.2 builds its analysis on.
    """
    if snapshot.num_edges == 0:
        return 0.0
    degrees = snapshot.degree_array()
    iu, iv = snapshot.edge_indices()
    # Count each undirected edge in both orientations so the measure is
    # symmetric (Newman's definition).
    x_arr = np.concatenate((degrees[iu], degrees[iv]))
    y_arr = np.concatenate((degrees[iv], degrees[iu]))
    sx, sy = x_arr.std(), y_arr.std()
    if sx == 0 or sy == 0:
        return 0.0
    return float(((x_arr - x_arr.mean()) * (y_arr - y_arr.mean())).mean() / (sx * sy))


def degree_ccdf(snapshot: Snapshot) -> tuple[np.ndarray, np.ndarray]:
    """Complementary CDF of the degree distribution.

    Returns ``(degrees, fraction_of_nodes_with_degree_>= d)`` — the
    log-log view in which the subscription network's supernode tail is a
    straight line and the friendship networks bend.
    """
    degrees = snapshot.degree_array()
    if degrees.size == 0:
        return np.zeros(0), np.zeros(0)
    unique, counts = np.unique(degrees, return_counts=True)
    # Nodes with degree >= unique[i] = suffix sum of the counts.
    at_least = np.cumsum(counts[::-1])[::-1]
    return unique, at_least / degrees.size


def hill_tail_exponent(snapshot: Snapshot, tail_fraction: float = 0.1) -> float:
    """Hill estimator of the degree distribution's power-law tail exponent.

    Estimates ``alpha`` of ``P(deg >= d) ~ d^-alpha`` from the top
    ``tail_fraction`` of degrees.  Heavy supernode tails (subscription
    networks) give small alpha (~1-2); friendship networks with degree
    saturation give larger values.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    degrees = np.sort(snapshot.degree_array())[::-1]
    k = max(2, int(round(tail_fraction * len(degrees))))
    tail = degrees[:k]
    threshold = tail[-1]
    if threshold <= 0:
        raise ValueError("tail contains degree-0 nodes; increase tail_fraction")
    logs = np.log(tail / threshold)
    mean_log = float(logs[:-1].mean()) if k > 1 else 0.0
    if mean_log <= 0:
        return float("inf")  # degenerate flat tail
    return 1.0 / mean_log


@dataclass
class GraphFeatures:
    """Feature vector of one snapshot, as used by the Section 4.3 classifier."""

    num_nodes: int
    num_edges: int
    avg_degree: float
    degree_std: float
    degree_p50: float
    degree_p90: float
    degree_p99: float
    clustering: float
    avg_path_length: float
    assortativity: float

    FIELD_NAMES: tuple[str, ...] = field(
        default=(
            "num_nodes",
            "num_edges",
            "avg_degree",
            "degree_std",
            "degree_p50",
            "degree_p90",
            "degree_p99",
            "clustering",
            "avg_path_length",
            "assortativity",
        ),
        repr=False,
    )

    def as_array(self) -> np.ndarray:
        return np.asarray([getattr(self, name) for name in self.FIELD_NAMES], dtype=np.float64)


def graph_features(
    snapshot: Snapshot,
    clustering_sample: int | None = 400,
    path_sample: int = 50,
    seed: "int | np.random.Generator | None" = 0,
) -> GraphFeatures:
    """Compute the full Section 4.3 feature vector for one snapshot."""
    rng = ensure_rng(seed)
    mean, std, pct = degree_statistics(snapshot)
    return GraphFeatures(
        num_nodes=snapshot.num_nodes,
        num_edges=snapshot.num_edges,
        avg_degree=mean,
        degree_std=std,
        degree_p50=pct[50],
        degree_p90=pct[90],
        degree_p99=pct[99],
        clustering=average_clustering(snapshot, sample_size=clustering_sample, seed=rng),
        avg_path_length=average_path_length(snapshot, sample_size=path_sample, seed=rng),
        assortativity=degree_assortativity(snapshot),
    )
