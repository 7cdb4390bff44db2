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
    pairs_to_indices,
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


#: snapshot-cache key under which the delta engine seeds its CN counts:
#: ``{"keys": sorted packed position keys, "CN": float64 counts}``.
DELTA_SCORES_KEY = "delta_scores"


def delta_backed_scores(
    snapshot: Snapshot, pairs: np.ndarray
) -> "np.ndarray | None":
    """Serve CN scores from the delta engine's maintained counts, if possible.

    Returns None — and the caller counts from the block's common-neighbour
    expansion — when the snapshot was not materialised by the delta
    engine, a pair's endpoint is unknown, or a pair is missing from the
    table (the table covers exactly the 2-hop candidate set; anything
    outside it scores 0, but the expansion handles arbitrary pairs
    uniformly, so it keeps that job).
    """
    table = snapshot.cache.get(DELTA_SCORES_KEY)
    if table is None:
        return None
    # Fast path: scoring the snapshot's own candidate enumeration — the
    # overwhelmingly common call — needs no key lookup at all, because the
    # table rows are maintained in exactly that (row-major) order.
    if pairs is snapshot.cache.get("pairs_two_hop") and len(pairs) == len(
        table["keys"]
    ):
        return table["CN"].copy()
    from repro.utils.pairs import encode_position_pairs

    try:
        rows, cols = pairs_to_indices(snapshot, pairs)
    except KeyError:
        return None
    wanted = encode_position_pairs(rows, cols)
    keys = table["keys"]
    pos = np.searchsorted(keys, wanted)
    safe = np.minimum(pos, max(len(keys) - 1, 0))
    if len(keys) == 0 or not np.all(keys[safe] == wanted):
        return None
    return np.ascontiguousarray(table["CN"][safe])


@register
class CommonNeighbors(SimilarityMetric):
    """CN [32]: ``|Γ(u) ∩ Γ(v)|``."""

    name = "CN"
    candidate_strategy = "two_hop"

    def fit(self, snapshot: Snapshot) -> "CommonNeighbors":
        self.snapshot = snapshot
        return self

    def score_block(self, block) -> np.ndarray:
        snapshot = self._require_fit()
        warm = delta_backed_scores(snapshot, block.pairs)
        if warm is not None:
            return warm
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
