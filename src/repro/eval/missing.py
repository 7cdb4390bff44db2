"""Missing-link detection — the problem the paper is careful *not* to solve.

Section 2 distinguishes predicting *future* links from detecting *missing*
links: "given a partially observed graph, identify link status for
unobserved pairs" [17, 29].  Most of the older literature evaluated on the
missing-link task, which is systematically easier because the hidden edges
are drawn from the same distribution as the observed ones; this module
implements it so the two protocols can be compared on equal footing (see
``benchmarks/bench_ablation_task_protocol.py``).

Protocol: hide a uniform fraction of the snapshot's edges, score candidates
on the remaining graph, and measure recovery of the hidden set.
"""

from __future__ import annotations

import numpy as np

from repro.eval.accuracy import StepOutcome, score_prediction
from repro.eval.experiment import evaluate_step, rank_top_k
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot
from repro.metrics.base import SimilarityMetric
from repro.utils.pairs import Pair
from repro.utils.rng import ensure_rng


def hide_edges(
    snapshot: Snapshot,
    fraction: float,
    rng: "int | np.random.Generator | None" = None,
) -> tuple[Snapshot, set[Pair]]:
    """Return a snapshot with a uniform ``fraction`` of its edges hidden.

    Timestamps of the surviving edges are preserved, so temporal filters
    still work on the reduced snapshot.  Nodes isolated by the removal drop
    out of the snapshot view (snapshots only contain nodes with at least one
    edge, matching the prediction protocol) — a detector cannot recover a
    hidden edge whose endpoint it can no longer see, which is part of what
    makes the task realistic.
    """
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    generator = ensure_rng(rng)
    edges = sorted(snapshot.edges())
    n_hide = max(1, int(round(fraction * len(edges))))
    hidden_idx = generator.choice(len(edges), size=n_hide, replace=False)
    hidden = {edges[int(i)] for i in hidden_idx}
    reduced = TemporalGraph()
    for node in snapshot.nodes():
        reduced.add_node(node, snapshot.trace.node_arrival_time(node))
    kept_events = [
        (u, v, t)
        for u, v, t in snapshot.trace.edge_slice(0, snapshot.cutoff)
        if ((u, v) if u < v else (v, u)) not in hidden
    ]
    for u, v, t in kept_events:
        reduced.add_edge(u, v, t)
    return Snapshot(reduced, reduced.num_edges), hidden


def detect_missing_links(
    metric: "SimilarityMetric | str",
    observed: Snapshot,
    hidden: "set[Pair]",
    rng: "int | np.random.Generator | None" = None,
) -> StepOutcome:
    """Top-k recovery of ``hidden`` from the ``observed`` partial graph.

    ``k = |hidden|``, mirroring the paper's ground-truth-k convention for
    the future-link task so the two protocols are directly comparable.
    """
    _metric, top = rank_top_k(metric, observed, len(hidden), ensure_rng(rng))
    predicted = {(int(u), int(v)) for u, v in top}
    return score_prediction(observed, predicted, hidden)


def missing_vs_future(
    metric_name: str,
    previous: Snapshot,
    truth: "set[Pair]",
    hide_fraction: float = 0.1,
    rng: "int | np.random.Generator | None" = None,
) -> tuple[float, float]:
    """Accuracy-ratio pair ``(missing_task, future_task)`` for one metric.

    The classic observation — and the reason the paper insists on the
    future-link protocol — is that the same metric looks substantially
    better on the missing-link task.
    """
    generator = ensure_rng(rng)
    observed, hidden = hide_edges(previous, hide_fraction, generator)
    missing = detect_missing_links(metric_name, observed, hidden, generator)
    future = evaluate_step(metric_name, previous, truth, rng=generator)
    return missing.ratio, future.outcome.ratio
