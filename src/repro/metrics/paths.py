"""Path-based metrics: SP, LP and the two Katz approximations (Table 3).

- **SP** scores a pair by (negated) shortest-path hop count.  As the paper
  notes, its top score goes to *every* 2-hop pair, so its prediction is
  effectively a random draw among them — it is included as the cautionary
  baseline of Section 4.2.
- **LP** [45] counts ``|paths^2| + eps * |paths^3|``; the tiny ``eps``
  (paper value 1e-4) means 3-hop paths only break ties between equal 2-hop
  counts.
- **Katz** [18] sums all paths with exponentially decaying weight
  ``beta^len``.  The closed form ``(I - beta*A)^{-1} - I`` does not scale,
  so the paper evaluates two approximations: ``Katz_lr`` (low-rank, via the
  top-r spectrum of A [1]) and ``Katz_sc`` (scalable proximity estimation
  [38], here a truncated series over paths of length <= l_max).  Matching
  the paper, Katz_lr is the more accurate and the more expensive of the two.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import shortest_path

from repro.graph.snapshots import Snapshot
from repro.metrics.base import (
    SimilarityMetric,
    adjacency,
    cached,
    dense_adjacency,
    register,
    two_hop_matrix,
)

#: Paper-tuned parameters (Section 3.2).
LP_EPSILON = 1e-4
KATZ_BETA = 1e-3


@register
class ShortestPath(SimilarityMetric):
    """SP: negated hop count (fewer hops = higher score)."""

    name = "SP"
    candidate_strategy = "all"

    def fit(self, snapshot: Snapshot) -> "ShortestPath":
        self.snapshot = snapshot
        self._dist = cached(
            snapshot,
            "sp_dist",
            lambda: shortest_path(adjacency(snapshot), method="D", unweighted=True),
        )
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        dist = self._dist[block.rows, block.cols]
        # Unreachable pairs (inf) get -inf so they rank last.
        return np.where(np.isinf(dist), -np.inf, -dist)


@register
class LocalPath(SimilarityMetric):
    """LP [45]: ``|paths^2| + eps * |paths^3|``."""

    name = "LP"
    candidate_strategy = "two_hop"

    def __init__(self, epsilon: float = LP_EPSILON) -> None:
        super().__init__()
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        self.epsilon = epsilon

    def fit(self, snapshot: Snapshot) -> "LocalPath":
        self.snapshot = snapshot
        # A^3 = A @ A^2 computed dense: nnz(A^3) approaches n^2 in these
        # small-world snapshots, so dense is both smaller and faster here.
        self._a3 = cached(
            snapshot,
            "A3_dense",
            lambda: adjacency(snapshot) @ two_hop_matrix(snapshot).toarray(),
        )
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        # 2-hop counts come from the shared expansion (exact integers, so
        # order-independent); only the 3-hop term still reads the dense A^3.
        p2 = block.counts()
        p3 = self._a3[block.rows, block.cols]
        return p2 + self.epsilon * p3


@register
class KatzLowRank(SimilarityMetric):
    """Katz_lr [1]: low-rank spectral approximation of the Katz index.

    With ``A = U diag(lam) U^T`` (top-r eigenpairs), the Katz series
    ``sum_l beta^l A^l`` becomes ``U diag(beta*lam / (1 - beta*lam)) U^T``.
    """

    name = "Katz_lr"
    candidate_strategy = "all"

    def __init__(self, beta: float = KATZ_BETA, rank: int = 50) -> None:
        super().__init__()
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.beta = beta
        self.rank = rank

    def fit(self, snapshot: Snapshot) -> "KatzLowRank":
        self.snapshot = snapshot
        n = snapshot.num_nodes
        r = min(self.rank, max(1, n - 2))
        key = f"katz_lr_{self.beta}_{r}"

        def compute() -> tuple[np.ndarray, np.ndarray]:
            a = adjacency(snapshot)
            if n <= r + 2:
                lam, vec = np.linalg.eigh(a.toarray())
            else:
                lam, vec = spla.eigsh(a, k=r, which="LM")
            factor = self.beta * lam / (1.0 - self.beta * lam)
            return vec, factor

        self._vec, self._factor = cached(snapshot, key, compute)
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        left = self._vec[block.rows] * self._factor
        return np.einsum("ij,ij->i", left, self._vec[block.cols])


@register
class KatzTruncated(SimilarityMetric):
    """Katz_sc [38]: truncated-series proximity estimation.

    Sums ``beta^l * |paths^l|`` for ``l <= l_max`` using dense matrix
    powers; this is the "scalable" Katz variant of the paper (cheap, less
    accurate than the low-rank spectral form, as the paper observes).
    """

    name = "Katz_sc"
    candidate_strategy = "all"

    def __init__(self, beta: float = KATZ_BETA, max_length: int = 4) -> None:
        super().__init__()
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        if max_length < 2:
            raise ValueError(f"max_length must be >= 2, got {max_length}")
        self.beta = beta
        self.max_length = max_length

    def fit(self, snapshot: Snapshot) -> "KatzTruncated":
        self.snapshot = snapshot
        key = f"katz_sc_{self.beta}_{self.max_length}"

        def compute() -> np.ndarray:
            a_sparse = adjacency(snapshot)
            power = dense_adjacency(snapshot).copy()
            total = self.beta * power
            weight = self.beta
            for _ in range(self.max_length - 1):
                power = a_sparse @ power
                weight *= self.beta
                total += weight * power
            return total

        self._matrix = cached(snapshot, key, compute)
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        return self._matrix[block.rows, block.cols]
