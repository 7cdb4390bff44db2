"""Similarity-metric interface and registry.

Every metric-based prediction algorithm of Table 3 implements the same tiny
protocol:

- ``fit(snapshot)`` precomputes whatever per-snapshot state the metric needs
  (degree and weight vectors, embeddings, walk matrices, ...);
- ``score_block(block)`` returns one similarity score per pair of a
  :class:`~repro.metrics.kernels.CandidateBlock`, where a higher score
  means the pair is more likely to connect next.

``score(pairs)`` — the entry point for an ``(n, 2)`` array of node ids —
is implemented once, here, by routing through
:func:`~repro.metrics.kernels.score_pairs`, so every caller ranks through
the same kernel path.

``candidate_strategy`` declares the candidate set over which the metric's
top-k prediction is meaningful: the neighbourhood metrics are exactly zero
beyond two hops, so enumerating all pairs for them would only add random
tie-breaking noise (this matches how the paper's C++ implementations scope
their computation).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import telemetry
from repro.graph.snapshots import Snapshot


#: process-wide cache instrumentation (see :func:`cache_stats`).  Counters
#: rather than per-snapshot state so the experiment runner can report hit
#: rates across a whole run — including runs whose snapshots live in worker
#: processes — with a single pair of integers.
_CACHE_COUNTS = {"hits": 0, "misses": 0}


def cache_stats() -> dict[str, int]:
    """Snapshot of the process-wide memoisation counters.

    Returns ``{"hits": ..., "misses": ...}`` accumulated by :func:`cached`
    since interpreter start (or the last :func:`reset_cache_stats`).
    """
    return dict(_CACHE_COUNTS)


def reset_cache_stats() -> None:
    """Zero the process-wide cache counters (used by tests and workers)."""
    _CACHE_COUNTS["hits"] = 0
    _CACHE_COUNTS["misses"] = 0


def cached(snapshot: Snapshot, key: str, compute: Callable[[], object]):
    """Memoise an expensive per-snapshot precomputation on the snapshot.

    Several metrics share the same building blocks (dense adjacency, A^2,
    degree vectors); caching them on the snapshot means a full 14-metric
    evaluation pays for each block once.
    """
    if key not in snapshot.cache:
        _CACHE_COUNTS["misses"] += 1
        if telemetry.tracer.enabled:
            with telemetry.tracer.span(
                "metrics.cache_compute", key=key, snapshot=snapshot.index
            ):
                snapshot.cache[key] = compute()
            telemetry.metrics.counter("metrics.cache_misses", key=key).inc()
        else:
            snapshot.cache[key] = compute()
    else:
        _CACHE_COUNTS["hits"] += 1
        if telemetry.metrics.enabled:
            telemetry.metrics.counter("metrics.cache_hits", key=key).inc()
    return snapshot.cache[key]


def adjacency(snapshot: Snapshot) -> sp.csr_matrix:
    """Cached sparse adjacency matrix of the snapshot."""
    return cached(snapshot, "A", snapshot.adjacency_matrix)


def dense_adjacency(snapshot: Snapshot) -> np.ndarray:
    """Cached dense float64 adjacency (snapshots are capped at a few
    thousand nodes, where dense linear algebra is the fastest option)."""
    return cached(snapshot, "A_dense", lambda: adjacency(snapshot).toarray())


def two_hop_matrix(snapshot: Snapshot) -> sp.csr_matrix:
    """Cached sparse ``A^2`` (entry ``uv`` = number of common neighbours)."""
    def compute() -> sp.csr_matrix:
        a = adjacency(snapshot)
        return (a @ a).tocsr()

    return cached(snapshot, "A2", compute)


def eigsh_start(n: int) -> np.ndarray:
    """Fixed ARPACK start vector for ``scipy.sparse.linalg.eigsh``.

    Without ``v0`` recent scipy draws the start vector from a fresh
    ``default_rng()`` — OS entropy — so two fits of one snapshot could
    differ in their last bits.  This is the same uniform draw, seeded.
    """
    return np.random.default_rng(0).uniform(-1.0, 1.0, n)


def adjacency_spectrum(snapshot: Snapshot, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached ``(eigenvalues, eigenvectors)`` of the adjacency, ascending.

    The ``k`` eigenpairs of largest magnitude by ARPACK (``eigsh`` from
    :func:`eigsh_start`), or all ``n`` of them by a dense ``eigh`` when
    ``n <= k + 2``, where ARPACK cannot run.  Keyed by ``k`` alone, so
    every metric asking for one size shares one eigensolve per snapshot
    and reads the same arrays whichever asks first.
    """
    def compute() -> tuple[np.ndarray, np.ndarray]:
        a = adjacency(snapshot)
        n = a.shape[0]
        if n <= k + 2:
            return np.linalg.eigh(a.toarray())
        return spla.eigsh(a, k=k, which="LM", v0=eigsh_start(n))

    return cached(snapshot, f"spectrum_{k}", compute)


def degrees(snapshot: Snapshot) -> np.ndarray:
    """Cached degree vector aligned with ``snapshot.node_list``."""
    return cached(snapshot, "deg", snapshot.degree_array)


def matrix_entries(
    snapshot: Snapshot,
    key: str,
    rows: np.ndarray,
    cols: np.ndarray,
    compute: "Callable[[int | None], np.ndarray]",
    column: "Callable[[int], np.ndarray] | None" = None,
) -> np.ndarray:
    """Entries ``M[rows[i], cols[i]]`` of a per-snapshot ``n x n`` matrix.

    ``compute(p)`` returns row ``p`` of ``M``, or the whole matrix when
    ``p`` is None; ``column(p)`` returns column ``p`` and defaults to
    ``compute``, which is right for a symmetric ``M``.  When every pair
    shares one node (a served ``/predict`` read) only that node's row and
    column are computed, memoised in a per-snapshot dict under
    ``key@rows`` (one cache key, so telemetry labels do not grow with the
    nodes read); otherwise the whole matrix is, once, under ``key``.
    Both answer bit for bit alike only if a row and a column computed
    alone equal those of the whole matrix — true of the exact integer
    path algebra (hop counts, powers of ``A``) and of the sparse walk
    products, which sum every entry in the same CSR order either way.
    """
    matrix = snapshot.cache.get(key)
    if matrix is None and len(rows):
        for hub in (int(rows[0]), int(cols[0])):
            on_row = rows == hub
            if np.all(on_row | (cols == hub)):
                memo = snapshot.cache.setdefault(f"{key}@rows", {})
                if hub not in memo:
                    row = compute(hub)
                    memo[hub] = (row, row if column is None else column(hub))
                row, col = memo[hub]
                return np.where(on_row, row[cols], col[rows])
    matrix = cached(snapshot, key, lambda: compute(None))
    return matrix[rows, cols]


def pairs_to_indices(snapshot: Snapshot, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map an ``(n, 2)`` array of node ids to matrix row/col indices.

    A single vectorised gather against the snapshot's sorted node-id
    table (two ``searchsorted`` calls) instead of a Python dict lookup
    per pair; unknown ids raise ``KeyError`` exactly as a dict would.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if len(pairs) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    rows = snapshot.positions_of(pairs[:, 0])
    cols = snapshot.positions_of(pairs[:, 1])
    return rows, cols


def matrix_values(matrix: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Extract ``matrix[rows[i], cols[i]]`` for all i, as a 1-D array."""
    if rows.size == 0:
        return np.zeros(0, dtype=np.float64)
    return np.asarray(matrix[rows, cols]).ravel().astype(np.float64)


class SimilarityMetric(ABC):
    """Base class for the 14 metric-based predictors (Table 3)."""

    #: registry key and display name, e.g. "CN", "Katz_lr".
    name: str = "?"
    #: "two_hop" (score is zero beyond 2 hops) or "all" (globally defined).
    candidate_strategy: str = "two_hop"

    def __init__(self) -> None:
        self.snapshot: Snapshot | None = None

    @abstractmethod
    def fit(self, snapshot: Snapshot) -> "SimilarityMetric":
        """Precompute per-snapshot state; returns self for chaining."""

    @abstractmethod
    def score_block(self, block) -> np.ndarray:
        """Score one :class:`~repro.metrics.kernels.CandidateBlock`.

        ``block`` carries shared, memoised state (position columns, the
        common-neighbour expansion, degree gathers) that every metric
        scoring the same block reuses.  The scores of a pair must not
        depend on which block it lands in: the kernel-parity suite checks
        every registered metric split into many blocks against one block.
        """

    def score(self, pairs: np.ndarray) -> np.ndarray:
        """Score candidate pairs; ``pairs`` is an ``(n, 2)`` node-id array."""
        from repro.metrics.kernels import score_pairs

        snapshot = self._require_fit()
        return score_pairs(self, snapshot, np.asarray(pairs, dtype=np.int64))

    def _require_fit(self) -> Snapshot:
        if self.snapshot is None:
            raise RuntimeError(f"{self.name}: call fit(snapshot) before score()")
        return self.snapshot

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


#: registry: metric name -> zero-argument factory.
_REGISTRY: dict[str, Callable[[], SimilarityMetric]] = {}


def register(cls):
    """Class decorator adding a metric to the global registry."""
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate metric name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_metric(name: str, **kwargs) -> SimilarityMetric:
    """Instantiate a registered metric by name (e.g. ``get_metric("AA")``)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown metric {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def all_metric_names() -> list[str]:
    """Names of every registered metric, sorted."""
    return sorted(_REGISTRY)
