"""Local naive Bayes metrics: BCN, BAA, BRA [26] (Table 3).

The local naive Bayes model refines the common-neighbour family by weighting
each common neighbour ``w`` with its *role function*

    R_w = (N_triangle(w) + 1) / (N_non_triangle(w) + 1),

where ``N_triangle(w)`` counts triangles through ``w`` and
``N_non_triangle(w) = C(deg(w), 2) - N_triangle(w)`` counts the open wedges
centred on ``w``.  Intuitively a neighbour whose friendships tend to close
into triangles is stronger evidence that the pair will connect.  With the
prior constant ``s = |V|(|V|-1) / (2|E|) - 1`` the three scores are

    BCN(u,v) = |CN| * log(s) + sum_w log(R_w)
    BAA(u,v) = sum_w (log(s) + log(R_w)) / log(deg(w))
    BRA(u,v) = sum_w (log(s) + log(R_w)) / deg(w)

each a weighted 2-hop path count, so they share the common-neighbour
expansion kernel of :mod:`repro.metrics.kernels` with CN/AA/RA.  The
triangle counts come from
:func:`~repro.metrics.kernels.node_triangle_counts`: on a snapshot the
delta engine materialised they are its maintained counts, already in the
cache, and otherwise the same kernel sums each node's per-edge
common-neighbour counts.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.snapshots import Snapshot
from repro.metrics.base import SimilarityMetric, cached, degrees, register
from repro.metrics.kernels import node_triangle_counts


def role_function(snapshot: Snapshot) -> np.ndarray:
    """``R_w`` of [26] for every node."""
    def compute() -> np.ndarray:
        deg = degrees(snapshot)
        tri = node_triangle_counts(snapshot)
        wedges = deg * (deg - 1) / 2.0
        non_tri = wedges - tri
        return (tri + 1.0) / (non_tri + 1.0)

    return cached(snapshot, "role_function", compute)


def prior_constant(snapshot: Snapshot) -> float:
    """``s = |V|(|V|-1)/(2|E|) - 1`` — the class-prior odds of a non-edge."""
    n, e = snapshot.num_nodes, snapshot.num_edges
    if e == 0:
        raise ValueError("prior constant undefined for an edgeless snapshot")
    return n * (n - 1) / (2.0 * e) - 1.0


class _LocalNaiveBayesMetric(SimilarityMetric):
    """Shared fit/score for the three LNB variants."""

    candidate_strategy = "two_hop"

    def _neighbour_weights(self, snapshot: Snapshot, log_s: float) -> np.ndarray:
        raise NotImplementedError

    def fit(self, snapshot: Snapshot):
        self.snapshot = snapshot
        log_s = math.log(prior_constant(snapshot))
        self._weights = self._neighbour_weights(snapshot, log_s)
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        return block.weighted(self._weights, self.name).copy()


@register
class BayesCommonNeighbors(_LocalNaiveBayesMetric):
    """BCN [26]: ``|CN| log(s) + sum_w log(R_w)``."""

    name = "BCN"

    def _neighbour_weights(self, snapshot: Snapshot, log_s: float) -> np.ndarray:
        # log(s) + log(R_w) per intermediate node folds both terms into a
        # single weighted path count.
        return log_s + np.log(role_function(snapshot))


@register
class BayesAdamicAdar(_LocalNaiveBayesMetric):
    """BAA [26]: ``sum_w (log(s) + log(R_w)) / log(deg(w))``."""

    name = "BAA"

    def _neighbour_weights(self, snapshot: Snapshot, log_s: float) -> np.ndarray:
        deg = degrees(snapshot)
        base = log_s + np.log(role_function(snapshot))
        out = np.zeros_like(base)
        mask = deg > 1
        out[mask] = base[mask] / np.log(deg[mask])
        return out


@register
class BayesResourceAllocation(_LocalNaiveBayesMetric):
    """BRA [26]: ``sum_w (log(s) + log(R_w)) / deg(w)``."""

    name = "BRA"

    def _neighbour_weights(self, snapshot: Snapshot, log_s: float) -> np.ndarray:
        deg = degrees(snapshot)
        base = log_s + np.log(role_function(snapshot))
        out = np.zeros_like(base)
        mask = deg > 0
        out[mask] = base[mask] / deg[mask]
        return out
