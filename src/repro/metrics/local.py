"""Common-neighbourhood heuristics: CN, JC, AA, RA (Table 3).

All four reduce to weighted 2-hop path counts — a sum of a per-node weight
over each pair's common neighbours — read from the candidate block's
shared common-neighbour expansion (:mod:`repro.metrics.kernels`):

======  ==========================  =====================
metric  weight on intermediate w    normalisation
======  ==========================  =====================
CN      1                           —
JC      1                           / |Γ(u) ∪ Γ(v)|
AA      1 / log(deg(w))             —
RA      1 / deg(w)                  —
======  ==========================  =====================
"""

from __future__ import annotations

import numpy as np

from repro.graph.snapshots import Snapshot
from repro.metrics.base import (
    SimilarityMetric,
    degrees,
    register,
)


def inv_log_degree_weights(deg: np.ndarray) -> np.ndarray:
    """``1 / log(deg)`` with degree-1 nodes zeroed.

    A degree-1 node can never be a common neighbour of a distinct pair, so
    zeroing it changes no pair score while avoiding division by log(1)=0.
    """
    out = np.zeros_like(deg)
    mask = deg > 1
    out[mask] = 1.0 / np.log(deg[mask])
    return out


def inv_degree_weights(deg: np.ndarray) -> np.ndarray:
    """``1 / deg`` with isolated nodes zeroed (the RA weight vector)."""
    out = np.zeros_like(deg)
    mask = deg > 0
    out[mask] = 1.0 / deg[mask]
    return out


@register
class CommonNeighbors(SimilarityMetric):
    """CN [32]: ``|Γ(u) ∩ Γ(v)|``."""

    name = "CN"
    candidate_strategy = "two_hop"

    def fit(self, snapshot: Snapshot) -> "CommonNeighbors":
        self.snapshot = snapshot
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        return block.counts().copy()


@register
class JaccardCoefficient(SimilarityMetric):
    """JC [23]: ``|Γ(u) ∩ Γ(v)| / |Γ(u) ∪ Γ(v)|``."""

    name = "JC"
    candidate_strategy = "two_hop"

    def fit(self, snapshot: Snapshot) -> "JaccardCoefficient":
        self.snapshot = snapshot
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        cn = block.counts()
        deg_u, deg_v = block.degrees()
        union = deg_u + deg_v - cn
        out = np.zeros_like(cn)
        np.divide(cn, union, out=out, where=union > 0)
        return out


@register
class AdamicAdar(SimilarityMetric):
    """AA [2]: ``sum over common neighbours w of 1 / log(deg(w))``."""

    name = "AA"
    candidate_strategy = "two_hop"

    def fit(self, snapshot: Snapshot) -> "AdamicAdar":
        self.snapshot = snapshot
        self._weights = inv_log_degree_weights(degrees(snapshot))
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        return block.weighted(self._weights, self.name).copy()


@register
class ResourceAllocation(SimilarityMetric):
    """RA [45]: ``sum over common neighbours w of 1 / deg(w)``."""

    name = "RA"
    candidate_strategy = "two_hop"

    def fit(self, snapshot: Snapshot) -> "ResourceAllocation":
        self.snapshot = snapshot
        self._weights = inv_degree_weights(degrees(snapshot))
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        return block.weighted(self._weights, self.name).copy()
