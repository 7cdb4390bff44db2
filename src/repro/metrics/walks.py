"""Random-walk metrics: PPR and LRW (Table 3).

- **PPR** [5]: ``pi_{u,v} + pi_{v,u}`` where ``pi_{u,v}`` is the stationary
  probability that a random walk from ``u`` with restart probability
  ``alpha`` is at ``v``.  At snapshot scale the full PPR matrix
  ``alpha * (I - (1-alpha) P)^{-1}`` is obtained with one dense solve.
- **LRW** [25]: ``deg(u)/(2|E|) * pi_uv(m) + deg(v)/(2|E|) * pi_vu(m)``
  where ``pi_uv(m)`` is the m-step transition probability — a *local*
  random walk that only explores an m-hop ball.
"""

from __future__ import annotations

import numpy as np

from repro.graph.snapshots import Snapshot
from repro.metrics.base import (
    SimilarityMetric,
    cached,
    degrees,
    dense_adjacency,
    register,
)

#: Restart probability suggested by [5] and used in the paper.
PPR_ALPHA = 0.15


def transition_matrix(snapshot: Snapshot) -> np.ndarray:
    """Row-stochastic dense transition matrix ``P = D^{-1} A``."""
    def compute() -> np.ndarray:
        a = dense_adjacency(snapshot)
        deg = degrees(snapshot)
        inv = np.zeros_like(deg)
        np.divide(1.0, deg, out=inv, where=deg > 0)
        return a * inv[:, None]

    return cached(snapshot, "P", compute)


@register
class PersonalizedPageRank(SimilarityMetric):
    """PPR [5] with restart probability ``alpha`` (paper: 0.15)."""

    name = "PPR"
    candidate_strategy = "all"

    def __init__(self, alpha: float = PPR_ALPHA) -> None:
        super().__init__()
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha

    def fit(self, snapshot: Snapshot) -> "PersonalizedPageRank":
        self.snapshot = snapshot
        key = f"ppr_{self.alpha}"

        def compute() -> np.ndarray:
            p = transition_matrix(snapshot)
            n = p.shape[0]
            # pi_u solves pi_u (I - (1-a) P) = a e_u for every u at once.
            system = np.eye(n) - (1.0 - self.alpha) * p
            return self.alpha * np.linalg.inv(system)

        self._pi = cached(snapshot, key, compute)
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        rows, cols = block.rows, block.cols
        return self._pi[rows, cols] + self._pi[cols, rows]


@register
class LocalRandomWalk(SimilarityMetric):
    """LRW [25] with ``m`` walk steps (default 3)."""

    name = "LRW"
    candidate_strategy = "two_hop"

    def __init__(self, steps: int = 3) -> None:
        super().__init__()
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.steps = steps

    def fit(self, snapshot: Snapshot) -> "LocalRandomWalk":
        self.snapshot = snapshot
        key = f"lrw_{self.steps}"

        def compute() -> np.ndarray:
            p = transition_matrix(snapshot)
            pm = p.copy()
            for _ in range(self.steps - 1):
                pm = pm @ p
            return pm

        self._pm = cached(snapshot, key, compute)
        self._deg = degrees(snapshot)
        self._two_e = 2.0 * snapshot.num_edges
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        rows, cols = block.rows, block.cols
        forward = self._deg[rows] / self._two_e * self._pm[rows, cols]
        backward = self._deg[cols] / self._two_e * self._pm[cols, rows]
        return forward + backward
