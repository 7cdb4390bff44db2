"""Preferential attachment: PA [6] (Table 3).

``score(u, v) = deg(u) * deg(v)`` — the "rich get richer" heuristic.  The
paper finds it near-useless on friendship networks (link creation there
requires joint effort from both endpoints) and marginally better on the
subscription-style YouTube network.
"""

from __future__ import annotations

import numpy as np

from repro.graph.snapshots import Snapshot
from repro.metrics.base import SimilarityMetric, degrees, register


@register
class PreferentialAttachment(SimilarityMetric):
    """PA [6]: degree product."""

    name = "PA"
    candidate_strategy = "all"

    def fit(self, snapshot: Snapshot) -> "PreferentialAttachment":
        self.snapshot = snapshot
        self._deg = degrees(snapshot)
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        deg_u, deg_v = block.degrees()
        return deg_u * deg_v

    def top_pairs_fast(self, limit: int) -> np.ndarray:
        """Candidate shortlist: non-edges among the highest-degree nodes.

        This mirrors the paper's "top-K node pairs" optimisation: the top
        PA scores can only involve top-degree nodes, so scoring the full
        candidate set is unnecessary.  Returns up to ``limit`` pairs sorted
        by descending degree product.
        """
        snapshot = self._require_fit()
        nodes = np.asarray(snapshot.node_list)
        order = np.argsort(-self._deg, kind="stable")
        m = max(4, int(np.ceil(np.sqrt(4 * limit))))
        while True:
            m = min(m, len(nodes))
            chosen = order[:m]
            pairs = []
            for i in range(len(chosen)):
                for j in range(i + 1, len(chosen)):
                    u, v = int(nodes[chosen[i]]), int(nodes[chosen[j]])
                    if not snapshot.has_edge(u, v):
                        pairs.append((u, v) if u < v else (v, u))
            if pairs:
                arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
                scores = self.score(arr)
                top = arr[np.argsort(-scores, kind="stable")][:limit]
                top_scores = np.sort(scores)[::-1][:limit]
                # Any pair outside the shortlist scores at most
                # deg(best node) * deg(first excluded node); the shortlist
                # answer is exact once the k-th best inside beats that bound.
                if m >= len(nodes):
                    return top
                outside_bound = self._deg[order[0]] * self._deg[order[m]]
                if len(top_scores) >= limit and top_scores[-1] >= outside_bound:
                    return top
            elif m >= len(nodes):
                return np.zeros((0, 2), dtype=np.int64)
            m *= 2
