"""Fit a GrowthConfig to an observed trace.

The presets are calibrated by hand to the paper's three networks.  For a
*new* trace (loaded with :mod:`repro.graph.io`), ``fit_growth_config``
measures the mechanisms the engine models and returns a config whose
synthetic output mimics the observation:

- size trajectory: seed/total node and edge counts, duration;
- **triadic share**: the fraction of new edges that close a 2-hop pair at
  creation time — measured exactly by one common-neighbour expansion over
  the final graph's edges (an edge closed a 2-hop pair iff some common
  neighbour's two edges to its endpoints are both older, a time-respecting
  path); measured separately for the first and second half of the trace to
  capture the lambda_2 trend (``triadic_prob_final``);
- **newcomer share**: edges created by a node less than a day old;
- **recency**: median initiator idle time at edge creation, mapped to the
  recent-actor share;
- assortativity sign, mapped to degree-matched target choice.

The fit is deliberately method-of-moments simple: the goal is a starting
point whose structural signatures are in the right region, not a maximum
likelihood estimate.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.generators.base import GrowthConfig
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot
from repro.graph.stats import degree_assortativity
from repro.metrics.kernels import csr_edge_column, expansion_of


def measure_mechanisms(trace: TemporalGraph) -> dict[str, float]:
    """One pass over the trace measuring the engine's target mixture.

    Returns a dict with ``triadic_share`` (overall, first and second half),
    ``newcomer_share``, and ``median_initiator_idle``.
    """
    return _mechanisms(trace, Snapshot(trace, trace.num_edges))


def _mechanisms(trace: TemporalGraph, snapshot: Snapshot) -> dict[str, float]:
    """:func:`measure_mechanisms` over the trace's full snapshot."""
    if trace.num_edges < 10:
        raise ValueError("trace too short to measure mechanisms")
    # The full snapshot holds the edges in creation order, so an edge's
    # position is its creation index.  Edge i closed a 2-hop pair iff some
    # common neighbour z had both of its edges to the endpoints before i:
    # z joined the pair at the later of those two edges, and the earliest
    # z over the final graph's common neighbours decides (an exact integer
    # minimum per edge).
    iu, iv = snapshot.edge_indices()
    edges = len(iu)
    pair_ids, _, walked, probed = expansion_of(snapshot, iu, iv)
    order = csr_edge_column(snapshot, np.arange(edges))
    first_common = np.full(edges, edges, dtype=np.int64)
    np.minimum.at(first_common, pair_ids, np.maximum(order[walked], order[probed]))
    closes = first_common < np.arange(edges)
    half = edges // 2
    closures_first = int(np.count_nonzero(closes[:half]))
    closures_second = int(np.count_nonzero(closes[half:]))
    newcomer_edges = 0
    idle_samples: list[float] = []
    # Each node's edge times so far.  Just before t a node's idle time
    # runs from its last edge at or before t - 1e-9, or from its arrival
    # if there is none; this edge's own time is logged first because it
    # counts when t - 1e-9 rounds to t.
    logs: dict[int, list[float]] = {}

    def idle(node: int, now: float) -> float:
        times = logs[node]
        i = bisect.bisect_right(times, now)
        return now - (times[i - 1] if i else trace.node_arrival_time(node))

    for u, v, t in trace.edges():
        logs.setdefault(u, []).append(t)
        logs.setdefault(v, []).append(t)
        # Newcomer: an endpoint that arrived less than a day before t.
        if min(t - trace.node_arrival_time(u), t - trace.node_arrival_time(v)) < 1.0:
            newcomer_edges += 1
        else:
            idle_samples.append(min(idle(u, t - 1e-9), idle(v, t - 1e-9)))
    return {
        "triadic_share": (closures_first + closures_second) / edges,
        "triadic_share_first_half": closures_first / max(1, half),
        "triadic_share_second_half": closures_second / max(1, edges - half),
        "newcomer_share": newcomer_edges / edges,
        "median_initiator_idle": float(np.median(idle_samples)) if idle_samples else 0.0,
    }


def fit_growth_config(trace: TemporalGraph, name: str = "fitted") -> GrowthConfig:
    """Method-of-moments GrowthConfig for an observed trace."""
    snapshot = Snapshot(trace, trace.num_edges)
    mechanisms = _mechanisms(trace, snapshot)
    assortativity = degree_assortativity(snapshot)
    duration = max(1.0, trace.end_time - trace.start_time)

    nodes = sorted(trace.nodes(), key=trace.node_arrival_time)
    n_seed = max(2, sum(1 for u in nodes if trace.node_arrival_time(u) <= trace.start_time + 1.0))
    seed_edges = max(1, trace.edge_index_at_time(trace.start_time + 1.0))
    seed_edges = min(seed_edges, n_seed * (n_seed - 1) // 2)
    if seed_edges >= trace.num_edges:
        # Burst traces (everything in the first day): treat the first tenth
        # of the stream as the seed.
        seed_edges = max(1, trace.num_edges // 10)
        n_seed = max(n_seed, int(np.ceil((1 + np.sqrt(1 + 8 * seed_edges)) / 2)))

    triadic_first = min(0.9, mechanisms["triadic_share_first_half"])
    triadic_second = min(0.9, mechanisms["triadic_share_second_half"])
    newcomer = min(0.8, mechanisms["newcomer_share"])
    # Short initiator idle => strong recency reinforcement.
    recency = 0.6 if mechanisms["median_initiator_idle"] < duration / 20 else 0.3
    recency = min(recency, 0.95 - newcomer)

    return GrowthConfig(
        name=name,
        n_seed=n_seed,
        seed_edges=seed_edges,
        total_nodes=max(trace.num_nodes, n_seed),
        total_edges=trace.num_edges,
        duration_days=duration,
        newcomer_prob=newcomer,
        recent_initiator_prob=recency,
        triadic_prob=triadic_first,
        triadic_prob_final=triadic_second,
        preferential_prob=min(0.2, max(0.0, 1.0 - max(triadic_first, triadic_second) - 0.1)),
        assortative_matching=0.7 if assortativity > 0.05 else 0.0,
        degree_saturation=60.0 if assortativity > 0.05 else 0.0,
    )
