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
from scipy.sparse.csgraph import shortest_path

from repro.graph.snapshots import Snapshot
from repro.metrics.base import (
    SimilarityMetric,
    adjacency,
    adjacency_spectrum,
    dense_adjacency,
    matrix_entries,
    register,
)
from repro.metrics.kernels import sliced_rows

#: Paper-tuned parameters (Section 3.2).
LP_EPSILON = 1e-4
KATZ_BETA = 1e-3
#: Katz_lr's spectrum size; Rescal reads the same spectrum (see
#: :func:`~repro.metrics.base.adjacency_spectrum`).
KATZ_RANK = 50


def path_counts(snapshot: Snapshot, p: "int | None", max_length: int):
    """Yield ``A, A^2, ..., A^max_length`` as dense float64, or their row ``p``.

    The entries are exact integer path counts, so a row computed alone
    (``A @ row`` repeatedly; ``A`` is symmetric) is bitwise that row of
    the full powers.
    """
    a = adjacency(snapshot)
    power = dense_adjacency(snapshot) if p is None else a[p].toarray().ravel()
    yield power
    for _ in range(max_length - 1):
        power = a @ power
        yield power


@register
class ShortestPath(SimilarityMetric):
    """SP: negated hop count (fewer hops = higher score)."""

    name = "SP"
    candidate_strategy = "all"

    def fit(self, snapshot: Snapshot) -> "ShortestPath":
        self.snapshot = snapshot
        return self

    def score_block(self, block) -> np.ndarray:
        snapshot = self._require_fit()
        dist = matrix_entries(
            snapshot,
            "sp_dist",
            block.rows,
            block.cols,
            lambda p: shortest_path(
                adjacency(snapshot), method="D", unweighted=True, indices=p
            ),
        )
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
        return self

    def _three_hop(self, p: "int | None") -> np.ndarray:
        *_, a3 = path_counts(self.snapshot, p, 3)
        return a3

    def score_block(self, block) -> np.ndarray:
        snapshot = self._require_fit()
        # 2-hop counts come from the shared expansion (exact integers, so
        # order-independent); only the 3-hop term reads a dense A^3.
        p2 = block.counts()
        p3 = matrix_entries(
            snapshot, "A3_dense", block.rows, block.cols, self._three_hop
        )
        return p2 + self.epsilon * p3


@register
class KatzLowRank(SimilarityMetric):
    """Katz_lr [1]: low-rank spectral approximation of the Katz index.

    With ``A = U diag(lam) U^T`` (top-r eigenpairs), the Katz series
    ``sum_l beta^l A^l`` becomes ``U diag(beta*lam / (1 - beta*lam)) U^T``.
    """

    name = "Katz_lr"
    candidate_strategy = "all"

    def __init__(self, beta: float = KATZ_BETA, rank: int = KATZ_RANK) -> None:
        super().__init__()
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.beta = beta
        self.rank = rank

    def fit(self, snapshot: Snapshot) -> "KatzLowRank":
        self.snapshot = snapshot
        r = min(self.rank, max(1, snapshot.num_nodes - 2))
        lam, self._vec = adjacency_spectrum(snapshot, r)
        self._factor = self.beta * lam / (1.0 - self.beta * lam)
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        vec, factor, rows, cols = self._vec, self._factor, block.rows, block.cols
        return sliced_rows(
            len(block),
            lambda s: np.einsum("ij,ij->i", vec[rows[s]] * factor, vec[cols[s]]),
        )


@register
class KatzTruncated(SimilarityMetric):
    """Katz_sc [38]: truncated-series proximity estimation.

    Sums ``beta^l * |paths^l|`` for ``l <= l_max`` over dense matrix
    powers (or one row of them, for a block that shares one node); this
    is the "scalable" Katz variant of the paper (cheap, less accurate
    than the low-rank spectral form, as the paper observes).
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
        return self

    def _series(self, p: "int | None") -> np.ndarray:
        powers = path_counts(self.snapshot, p, self.max_length)
        total = self.beta * next(powers)
        weight = self.beta
        for power in powers:
            weight *= self.beta
            total += weight * power
        return total

    def score_block(self, block) -> np.ndarray:
        snapshot = self._require_fit()
        return matrix_entries(
            snapshot,
            f"katz_sc_{self.beta}_{self.max_length}",
            block.rows,
            block.cols,
            self._series,
        )
