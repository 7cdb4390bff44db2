"""Batched scoring kernels over shared CSR neighbour intersections.

Every metric scores through this module: :func:`score_pairs` splits a
pair array into :class:`CandidateBlock` slices and calls the metric's
``score_block`` on each (``SimilarityMetric.score`` is a thin wrapper
over it).  A block carries lazily computed, memoised state that *every*
metric scoring it reuses:

- the position columns (``rows`` / ``cols``) — one ``pairs_to_indices``
  per block instead of one per metric;
- the **common-neighbour expansion** — for each pair, the positions of its
  common neighbours, as two flat arrays ``(pair_ids, neighbors)``.  CN is
  a segment count over it; AA/RA/BCN/BAA/BRA/LP are segment sums of a
  per-node weight vector over it; JC adds a degree gather.  One expansion
  replaces six sparse matrix products.

The sums are bitwise identical to sampling ``A @ diag(w) @ A`` — the
formulation the kernels replaced, kept as the reference oracle in
``tests/matrix_oracle.py`` — and the delta engine and the serving layer
both advertise bit-identical scores, so the equality is load-bearing.  It
hinges on accumulation order: scipy's SMMP ``csr_matmat`` emits each
intermediate row's columns in *reverse* order (its linked-list
accumulator pushes at the head), so ``(A @ diag(w) @ A)[u, v]`` sums
``w`` over the common neighbours in **descending** position order.  The
expansion therefore enumerates each adjacency segment back-to-front, and
the per-pair ``np.bincount`` accumulation replays the exact same float
additions the sparse product performs — equality is bitwise, not
approximate, which ``tests/test_kernel_parity.py`` enforces for every
registered metric.

:func:`score_pairs` emits ``kernels.block`` spans plus block-size/latency
histograms for every caller: the experiment runner, the classifier
features, the delta engine's rescoring, the serving hot path and
``SimilarityMetric.score``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import telemetry
from repro.graph.snapshots import Snapshot
from repro.metrics.base import cached, degrees, pairs_to_indices
from repro.telemetry.metrics import SIZE_BUCKETS
from repro.utils.pairs import encode_position_pairs

#: default pairs per candidate block; override with REPRO_KERNEL_BLOCK_PAIRS.
#: Sized so one block's expansion (pairs x avg min-degree int32 columns)
#: stays comfortably in cache-friendly territory on the benchmark presets.
DEFAULT_BLOCK_PAIRS = 262_144


def block_pair_limit() -> int:
    """Pairs per block, honouring the ``REPRO_KERNEL_BLOCK_PAIRS`` override."""
    raw = os.environ.get("REPRO_KERNEL_BLOCK_PAIRS")
    if not raw:
        return DEFAULT_BLOCK_PAIRS
    limit = int(raw)
    if limit < 1:
        raise ValueError(f"REPRO_KERNEL_BLOCK_PAIRS must be >= 1, got {limit}")
    return limit


def adjacency_keys(snapshot: Snapshot) -> np.ndarray:
    """Sorted packed ``row * SHIFT + col`` keys of every directed edge.

    The sorted-key form turns "is ``v`` adjacent to ``u``" into one
    ``searchsorted`` probe; CSR rows are already sorted, so the key array
    is sorted by construction (no extra sort pass).
    """
    def compute() -> np.ndarray:
        indptr, indices = snapshot.csr_structure()
        n = len(indptr) - 1
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        return encode_position_pairs(rows, indices)

    return cached(snapshot, "adj_keys", compute)


def dense_probe_matrix(snapshot: Snapshot) -> np.ndarray:
    """Cached dense boolean adjacency for O(1) membership probes.

    Worth its n^2-bool footprint only on small dense snapshots (the same
    regime as the dense enumeration strategy); callers gate on
    :meth:`~repro.graph.snapshots.Snapshot.csr_stats`.
    """
    def compute() -> np.ndarray:
        indptr, indices = snapshot.csr_structure()
        n = len(indptr) - 1
        dense = np.zeros((n, n), dtype=bool)
        row_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        dense[row_ids, indices] = True
        return dense

    return cached(snapshot, "adj_bool_dense", compute)


def use_dense_probe(snapshot: Snapshot) -> bool:
    """Whether ``snapshot`` is small and dense enough for n x n probe tables.

    The regime of the dense enumeration strategy: there a cached dense
    matrix gather beats a ``searchsorted`` over the packed edge keys.
    """
    from repro.metrics.candidates import DENSE_MAX_NODES, DENSE_MIN_DENSITY

    stats = snapshot.csr_stats()
    return stats.nodes <= DENSE_MAX_NODES and stats.density >= DENSE_MIN_DENSITY


def probe_sorted_keys(
    keys: np.ndarray, probe: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact membership of ``probe`` in the sorted unique array ``keys``.

    Returns ``(hit, at)``: ``keys[at[i]] == probe[i]`` wherever ``hit[i]``,
    so ``at`` also indexes any column aligned with ``keys``.
    """
    if len(keys) == 0:
        return np.zeros(len(probe), dtype=bool), np.zeros(len(probe), dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
    return keys[at] == probe, at


def smaller_side_expansion(
    indptr: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk each pair's smaller-degree endpoint's CSR row, back-to-front.

    Returns ``(pair_ids, flat, other)``, one entry per walked neighbour:
    the pair's index, the neighbour's CSR position (``indices[flat]`` is
    the neighbour) and the pair's other endpoint, which callers probe for
    adjacency to that neighbour.  Element ``j`` of a pair whose walked
    endpoint is ``w`` reads CSR position ``indptr[w + 1] - 1 - j``.
    """
    deg = np.diff(indptr)
    expand_rows = deg[rows] <= deg[cols]
    left = np.where(expand_rows, rows, cols)
    right = np.where(expand_rows, cols, rows)
    counts = deg[left]
    total = int(counts.sum())
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    local = np.arange(total, dtype=np.int64) - offsets
    flat = np.repeat(indptr[left] + counts - 1, counts) - local
    pair_ids = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
    return pair_ids, flat, np.repeat(right, counts)


def common_neighbor_expansion(
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    adj_keys: "np.ndarray | None" = None,
    adj_bool: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Common-neighbour positions of each ``(rows[i], cols[i])`` pair.

    Returns ``(pair_ids, neighbors)``: for every pair ``i`` and every node
    ``w`` adjacent to both endpoints, one entry ``pair_ids == i``,
    ``neighbors == position of w``.  Within a pair, neighbours appear in
    **descending** position order — the order scipy's sparse product
    accumulates in, which is what makes downstream ``np.bincount`` sums
    bitwise-identical to matrix sampling (see the module docstring).

    The smaller-degree endpoint's adjacency list is expanded and the other
    endpoint membership-probed, so the work is
    ``sum_i min(deg(u_i), deg(v_i))`` probes regardless of which side is
    the hub.  The probe is one boolean fancy-index gather when a dense
    ``adj_bool`` matrix is supplied (small dense snapshots), else a
    ``searchsorted`` against the packed sorted edge keys.  Membership is
    exact either way — the probe selects, never computes — so the choice
    cannot affect a single output bit.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if len(rows) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    pair_ids, flat, other = smaller_side_expansion(indptr, rows, cols)
    neighbors = indices[flat]
    if adj_bool is not None:
        hit = adj_bool[other, neighbors]
    else:
        if adj_keys is None:
            n = len(indptr) - 1
            all_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            adj_keys = encode_position_pairs(all_rows, indices)
        hit, _ = probe_sorted_keys(adj_keys, encode_position_pairs(other, neighbors))
    return pair_ids[hit], neighbors[hit]


def intersection_counts(
    pair_ids: np.ndarray, num_pairs: int
) -> np.ndarray:
    """``|Γ(u) ∩ Γ(v)|`` per pair from an expansion (exact integers)."""
    return np.bincount(pair_ids, minlength=num_pairs).astype(np.float64)


def weighted_counts(
    pair_ids: np.ndarray,
    neighbors: np.ndarray,
    weights: np.ndarray,
    num_pairs: int,
) -> np.ndarray:
    """``sum_w weights[w]`` over each pair's common neighbours.

    ``np.bincount`` accumulates sequentially in array order; with the
    expansion's descending neighbour order this replays the sparse
    product's float additions exactly (bitwise parity, not allclose).
    """
    if len(pair_ids) == 0:
        return np.zeros(num_pairs, dtype=np.float64)
    return np.bincount(
        pair_ids, weights=weights[neighbors], minlength=num_pairs
    )


class CandidateBlock:
    """One slice of a candidate set with shared, memoised scoring state.

    Metrics receive blocks through :meth:`SimilarityMetric.score_block`;
    everything a metric asks for (positions, expansion, counts, weighted
    sums) is computed once per block and reused by every later metric
    scoring the same block — the whole point of the kernel layer.
    """

    __slots__ = (
        "snapshot", "pairs", "_rows", "_cols", "_expansion", "_counts",
        "_weighted",
    )

    def __init__(self, snapshot: Snapshot, pairs: np.ndarray) -> None:
        self.snapshot = snapshot
        self.pairs = pairs
        self._rows: "np.ndarray | None" = None
        self._cols: "np.ndarray | None" = None
        self._expansion: "tuple[np.ndarray, np.ndarray] | None" = None
        self._counts: "np.ndarray | None" = None
        self._weighted: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            self._rows, self._cols = pairs_to_indices(self.snapshot, self.pairs)
        return self._rows

    @property
    def cols(self) -> np.ndarray:
        if self._cols is None:
            self._rows, self._cols = pairs_to_indices(self.snapshot, self.pairs)
        return self._cols

    def expansion(self) -> tuple[np.ndarray, np.ndarray]:
        """Memoised common-neighbour expansion of this block's pairs."""
        if self._expansion is None:
            indptr, indices = self.snapshot.csr_structure()
            if use_dense_probe(self.snapshot):
                self._expansion = common_neighbor_expansion(
                    indptr, indices, self.rows, self.cols,
                    adj_bool=dense_probe_matrix(self.snapshot),
                )
            else:
                self._expansion = common_neighbor_expansion(
                    indptr, indices, self.rows, self.cols,
                    adj_keys=adjacency_keys(self.snapshot),
                )
        return self._expansion

    def counts(self) -> np.ndarray:
        """Common-neighbour counts (CN) for every pair; treat as read-only."""
        if self._counts is None:
            pair_ids, _ = self.expansion()
            self._counts = intersection_counts(pair_ids, len(self.pairs))
        return self._counts

    def weighted(self, weights: np.ndarray, key: str) -> np.ndarray:
        """Weighted common-neighbour sums, memoised per weight-vector key.

        ``key`` names the weight vector (metric name by convention) so
        repeat scoring of the same block — the runner sweeps metrics over
        a shared block list — hits the memo; treat results as read-only.
        """
        out = self._weighted.get(key)
        if out is None:
            pair_ids, neighbors = self.expansion()
            out = weighted_counts(pair_ids, neighbors, weights, len(self.pairs))
            self._weighted[key] = out
        return out

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """``(deg[rows], deg[cols])`` gathered from the cached degree column."""
        deg = degrees(self.snapshot)
        return deg[self.rows], deg[self.cols]


def blocks_for(snapshot: Snapshot, pairs: np.ndarray) -> "list[CandidateBlock]":
    """Split a candidate array into scoring blocks, memoised per snapshot.

    When ``pairs`` *is* one of the snapshot's cached candidate arrays
    (the common case: every metric in a sweep scores the same enumeration)
    the block list is cached on the snapshot, so expansions computed while
    scoring the first metric are reused by all later ones.  A candidate
    set at or below the block limit stays a single block wrapping the
    original array object — preserving identity fast paths downstream
    (e.g. the delta engine's warm-table shortcut).
    """
    limit = block_pair_limit()

    def build() -> "list[CandidateBlock]":
        if len(pairs) <= limit:
            return [CandidateBlock(snapshot, pairs)]
        return [
            CandidateBlock(snapshot, pairs[start : start + limit])
            for start in range(0, len(pairs), limit)
        ]

    for cache_key, blocks_key in (
        ("pairs_two_hop", "kernel_blocks_two_hop"),
        ("pairs_all", "kernel_blocks_all"),
    ):
        if pairs is snapshot.cache.get(cache_key):
            entry = snapshot.cache.get(blocks_key)
            # Revalidate on both the source array and the block limit (the
            # limit is env-tunable, so a cached split may be stale).
            if entry is None or entry[0] != limit or entry[1] is not pairs:
                entry = (limit, pairs, build())
                snapshot.cache[blocks_key] = entry
            return entry[2]
    return build()


def score_pairs(metric, snapshot: Snapshot, pairs: np.ndarray) -> np.ndarray:
    """Score ``pairs`` under a fitted metric via the block protocol.

    The one scoring route, shared by the experiment runner, the serving
    hot path, and ``SimilarityMetric.score``: one :class:`CandidateBlock`
    pipeline with ``kernels.block`` spans and per-block size/latency
    telemetry.
    """
    if len(pairs) == 0:
        return np.zeros(0, dtype=np.float64)
    blocks = blocks_for(snapshot, pairs)
    record = telemetry.metrics.enabled
    traced = telemetry.tracer.enabled
    parts = []
    for i, block in enumerate(blocks):
        started = time.perf_counter() if record else 0.0
        if traced:
            with telemetry.tracer.span(
                "kernels.block", metric=metric.name, block=i, pairs=len(block)
            ):
                scores = metric.score_block(block)
        else:
            scores = metric.score_block(block)
        if record:
            elapsed = time.perf_counter() - started
            telemetry.metrics.counter("kernels.blocks", metric=metric.name).inc()
            telemetry.metrics.histogram(
                "kernels.block_pairs", bounds=SIZE_BUCKETS
            ).observe(len(block))
            telemetry.metrics.histogram(
                "kernels.block_seconds", metric=metric.name
            ).observe(elapsed)
        parts.append(np.asarray(scores, dtype=np.float64))
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)
