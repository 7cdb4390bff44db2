"""Random-walk metrics: PPR and LRW (Table 3).

- **PPR** [5]: ``pi_{u,v} + pi_{v,u}`` where ``pi_{u,v}`` is the stationary
  probability that a random walk from ``u`` with restart probability
  ``alpha`` is at ``v``.  The full PPR matrix is
  ``alpha * (I - (1-alpha) P)^{-1} = alpha * S D`` with the symmetric
  ``S = (D - (1-alpha) A)^{-1}``, so one Cholesky inverse of that positive
  definite matrix serves every pair as ``alpha * S_uv * (d_u + d_v)``,
  read off the upper triangle LAPACK leaves (``S_uv`` at
  ``(min, max)``), so ``S`` is never mirrored.
- **LRW** [25]: ``deg(u)/(2|E|) * pi_uv(m) + deg(v)/(2|E|) * pi_vu(m)``
  where ``pi_uv(m)`` is the m-step transition probability — a *local*
  random walk that only explores an m-hop ball.  ``P^m`` is a chain of
  sparse-times-dense products, and a read of one node computes only that
  node's row (over its ball) and column (``m`` sparse matrix-vector
  products), bit for bit those of the whole product.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from repro.graph.snapshots import Snapshot
from repro.metrics.base import (
    SimilarityMetric,
    adjacency,
    cached,
    degrees,
    matrix_entries,
    register,
)

#: Restart probability suggested by [5] and used in the paper.
PPR_ALPHA = 0.15


def transition_matrix(snapshot: Snapshot) -> sp.csr_matrix:
    """Row-stochastic sparse transition matrix ``P = D^{-1} A`` (CSR)."""
    def compute() -> sp.csr_matrix:
        a = adjacency(snapshot)
        deg = degrees(snapshot)
        inv = np.zeros_like(deg)
        np.divide(1.0, deg, out=inv, where=deg > 0)
        data = a.data * np.repeat(inv, np.diff(a.indptr))
        return sp.csr_matrix((data, a.indices, a.indptr), shape=a.shape)

    return cached(snapshot, "P", compute)


def walk_power(p: sp.csr_matrix, steps: int, hub: "int | None") -> np.ndarray:
    """``P^steps`` as ``P @ (... @ (P @ P_dense))``, or its row ``hub``.

    scipy's CSR products start each output entry at 0 and add the row's
    terms in CSR order, times a dense matrix or times a CSR one (which
    skips only the exact zeros).  Row ``hub`` of ``P @ M`` is
    ``P[hub, N(hub)] @ M[N(hub)]``, so the row needs each intermediate
    product only on the hub's ball, one hop wider per step: the innermost
    one as ``P[ball] @ P``, the outer ones with the ball's CSR columns
    renumbered into the next ball.  So the row is bitwise the whole
    product's.
    """
    if hub is None:
        power = p.toarray()
        for _ in range(steps - 1):
            power = p @ power
        return power
    if steps == 1:
        return p[[hub]].toarray()[0]
    ball = np.array([hub])
    rings = []
    for _ in range(steps - 2):
        rows = p[ball]
        rings.append((ball, rows))
        ball = np.unique(rows.indices)
    power = (p[ball] @ p).toarray()
    for outer, rows in reversed(rings):
        local = sp.csr_matrix(
            (rows.data, np.searchsorted(ball, rows.indices), rows.indptr),
            shape=(len(outer), len(ball)),
        )
        power = local @ power
        ball = outer
    return power[0]


def walk_column(p: sp.csr_matrix, steps: int, hub: int) -> np.ndarray:
    """Column ``hub`` of :func:`walk_power`'s whole product: ``steps`` CSR
    matrix-vector products from the unit vector ``e_hub``, each summing an
    entry in the CSR order the whole product uses."""
    power = np.zeros(p.shape[0])
    power[hub] = 1.0
    for _ in range(steps):
        power = p @ power
    return power


def ppr_kernel(snapshot: Snapshot, alpha: float) -> np.ndarray:
    """``S = (D - (1-alpha) A)^{-1}`` in its upper triangle; ``PPR = alpha * S D``.

    The matrix is strictly diagonally dominant with a positive diagonal,
    hence positive definite: one Cholesky factorisation and its inverse
    (LAPACK ``dpotrf``/``dpotri``, upper triangle).  ``S`` is symmetric,
    so only entries ``[i, j]`` with ``i <= j`` are defined; the strict
    lower triangle is LAPACK scratch.  A degree-0 node of a sampled view
    gets diagonal 1, so its row of ``S`` is the unit vector and its
    scores are exactly 0.
    """
    deg = degrees(snapshot)
    system = adjacency(snapshot).toarray()
    system *= -(1.0 - alpha)
    np.fill_diagonal(system, np.where(deg > 0, deg, 1.0))
    # ``system`` is symmetric: its transpose is the Fortran-ordered buffer
    # LAPACK factors in place.
    factor, info = lapack.dpotrf(system.T, lower=0, clean=0, overwrite_a=1)
    if info == 0:
        inverse, info = lapack.dpotri(factor, lower=0, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"PPR system is not positive definite ({info})")
    return inverse


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
        self._s = cached(
            snapshot, f"ppr_{self.alpha}", lambda: ppr_kernel(snapshot, self.alpha)
        )
        self._deg = degrees(snapshot)
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        rows, cols = block.rows, block.cols
        upper = self._s[np.minimum(rows, cols), np.maximum(rows, cols)]
        return self.alpha * upper * (self._deg[rows] + self._deg[cols])


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
        self._deg = degrees(snapshot)
        self._two_e = 2.0 * snapshot.num_edges
        return self

    def _entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        snapshot = self.snapshot
        return matrix_entries(
            snapshot,
            f"lrw_{self.steps}",
            rows,
            cols,
            lambda hub: walk_power(transition_matrix(snapshot), self.steps, hub),
            lambda hub: walk_column(transition_matrix(snapshot), self.steps, hub),
        )

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        rows, cols = block.rows, block.cols
        forward = self._deg[rows] / self._two_e * self._entries(rows, cols)
        backward = self._deg[cols] / self._two_e * self._entries(cols, rows)
        return forward + backward
