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
  per-node weight vector over it; JC adds a degree gather;
- the expansion's **edge positions** — for each entry, the CSR positions of
  the edges ``(u, w)`` and ``(v, w)``, which the walk and the membership
  probe find along the way.  WCN/WAA/WRA sum an edge-aligned
  column (``scaling[w] * weight^alpha``, one value per CSR entry) over
  both, one segment sum per side.  One expansion replaces every sparse
  matrix product these metrics used to sample.

The expansion (:func:`common_neighbor_expansion`, run on a snapshot by
:func:`expansion_of`) is the one walk over CSR rows for common neighbours
in the package.  The temporal filter's CN time gap reads it too, and so
do :func:`edge_common_neighbors` (an edge's embeddedness, the triangles it
closes) and :func:`node_triangle_counts` (the role function of BCN/BAA/BRA
and the clustering coefficients of :mod:`repro.graph.stats`).

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

Block lists — and so everything memoised on them — are cached on the
snapshot for the candidate arrays the snapshot itself caches: the 2-hop
and all-pairs enumerations, and the arrays a memoised filter mask
(:func:`memoised_mask`) keeps of them (:func:`kept_pairs`).  A metric
sweep with and without the temporal filter therefore pays one expansion,
one CN count and one weighted sum per weight key for each candidate set.

:func:`score_pairs` emits ``kernels.block`` spans plus block-size/latency
histograms for every caller: the experiment runner, the classifier
features, the serving hot path and
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

#: rows per slice when a low-rank metric gathers factor rows for a block,
#: so its ``rows x rank`` temporaries stay small on an ``all`` candidate set.
FACTOR_SLICE_ROWS = 4096


def sliced_rows(n: int, score_slice) -> np.ndarray:
    """``score_slice(s)`` over consecutive row slices ``s`` of ``range(n)``.

    Each row's score depends on that row alone, so the concatenation is
    bitwise what one call over all rows returns.
    """
    out = np.empty(n, dtype=np.float64)
    for start in range(0, n, FACTOR_SLICE_ROWS):
        part = slice(start, start + FACTOR_SLICE_ROWS)
        out[part] = score_slice(part)
    return out


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


def use_dense_probe(snapshot: Snapshot) -> bool:
    """Whether ``snapshot`` is small and dense enough for n x n probe tables.

    The regime of the dense enumeration strategy: there a cached dense
    table gather beats a ``searchsorted`` over the packed edge keys.
    """
    from repro.metrics.candidates import DENSE_MAX_NODES, DENSE_MIN_DENSITY

    stats = snapshot.csr_stats()
    return stats.nodes <= DENSE_MAX_NODES and stats.density >= DENSE_MIN_DENSITY


def csr_edge_column(snapshot: Snapshot, values: np.ndarray) -> np.ndarray:
    """Per-edge ``values`` (``edge_indices`` order) aligned with the CSR.

    Each edge's value lands at both of its CSR entries: one stable sort
    of the packed ``(row, col)`` keys of both edge directions, cached per
    snapshot, orders them, because CSR rows hold their columns sorted.
    """
    def order() -> np.ndarray:
        iu, iv = snapshot.edge_indices()
        keys = encode_position_pairs(
            np.concatenate((iu, iv)), np.concatenate((iv, iu))
        )
        return np.argsort(keys, kind="stable")

    return np.concatenate((values, values))[cached(snapshot, "csr_edge_order", order)]


def dense_edge_positions(snapshot: Snapshot) -> np.ndarray:
    """Cached ``n x n`` CSR position of every edge, ``-1`` for non-edges.

    The dense membership probe: one gather answers both "is ``(u, w)`` an
    edge" and "where is it in the CSR".  Worth its n^2-int32 footprint only
    on small dense snapshots (the same regime as the dense enumeration
    strategy); callers gate on :func:`use_dense_probe`.
    """
    def compute() -> np.ndarray:
        indptr, indices = snapshot.csr_structure()
        n = len(indptr) - 1
        dense = np.full((n, n), -1, dtype=np.int32)
        row_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        dense[row_ids, indices] = np.arange(len(indices), dtype=np.int32)
        return dense

    return cached(snapshot, "dense_edge_positions", compute)


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


def common_neighbor_expansion(
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    adj_keys: "np.ndarray | None" = None,
    adj_positions: "np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Common-neighbour positions of each ``(rows[i], cols[i])`` pair.

    Returns ``(pair_ids, neighbors, walked, probed)``: for every pair ``i``
    and every node ``w`` adjacent to both endpoints, one entry
    ``pair_ids == i``, ``neighbors == position of w``, and the CSR
    positions of the pair's two edges to ``w`` — ``walked`` from the
    endpoint whose row was walked, ``probed`` from the other.  Within a
    pair, neighbours appear in **descending** position order — the order
    scipy's sparse product accumulates in, which is what makes downstream
    ``np.bincount`` sums bitwise-identical to matrix sampling (see the
    module docstring).

    The smaller-degree endpoint's adjacency list is walked back-to-front
    and the other endpoint membership-probed, so the work is
    ``sum_i min(deg(u_i), deg(v_i))`` probes regardless of which side is
    the hub.  The probe is one gather from the raveled dense
    ``adj_positions`` table when one is supplied (small dense snapshots),
    else a ``searchsorted`` against the packed sorted edge keys
    ``adj_keys``; either way it also yields the probed edge's CSR
    position.  Membership is exact either way — the probe selects, never
    computes — so the choice cannot affect a single output bit.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if len(rows) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    deg = np.diff(indptr)
    expand_rows = deg[rows] <= deg[cols]
    left = np.where(expand_rows, rows, cols)
    right = np.where(expand_rows, cols, rows)
    counts = deg[left]
    # A pair whose walked row is w fills slots ends - deg(w) .. ends - 1 of
    # the flat arrays; slot g reads CSR position indptr[w] + ends - 1 - g.
    flat = np.repeat(indptr[left] + np.cumsum(counts) - 1, counts)
    flat -= np.arange(len(flat), dtype=np.int64)
    pair_ids = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
    neighbors = indices[flat]
    if adj_positions is not None:
        probe = np.repeat(right * len(adj_positions), counts)
        probe += neighbors
        at = adj_positions.ravel()[probe]
        hit = np.flatnonzero(at >= 0)
    else:
        member, at = probe_sorted_keys(
            adj_keys, encode_position_pairs(np.repeat(right, counts), neighbors)
        )
        hit = np.flatnonzero(member)
    return pair_ids[hit], neighbors[hit], flat[hit], at[hit]


def expansion_of(
    snapshot: Snapshot, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`common_neighbor_expansion` of position pairs of ``snapshot``,
    probing through the snapshot's cached position table or edge keys."""
    indptr, indices = snapshot.csr_structure()
    if use_dense_probe(snapshot):
        return common_neighbor_expansion(
            indptr, indices, rows, cols,
            adj_positions=dense_edge_positions(snapshot),
        )
    return common_neighbor_expansion(
        indptr, indices, rows, cols, adj_keys=adjacency_keys(snapshot)
    )


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


def edge_common_neighbors(snapshot: Snapshot) -> np.ndarray:
    """Cached, read-only ``|Γ(u) ∩ Γ(v)|`` of every edge, ``edge_indices`` order.

    One expansion over the snapshot's own edges: the count of an edge is
    the number of triangles it closes, and an edge's embeddedness.
    """
    def compute() -> np.ndarray:
        iu, iv = snapshot.edge_indices()
        counts = intersection_counts(expansion_of(snapshot, iu, iv)[0], len(iu))
        counts.flags.writeable = False
        return counts

    return cached(snapshot, "edge_common_neighbors", compute)


def node_triangle_counts(snapshot: Snapshot) -> np.ndarray:
    """Cached, read-only triangles through each node, aligned with ``node_list``.

    Every triangle through ``w`` is closed by two of ``w``'s edges, so the
    count is half the sum of :func:`edge_common_neighbors` over the edges
    incident to ``w``.  The counts are exact integers held as float64
    (any summation order of integers below 2^53 is exact), so they equal
    ``diag(A^3) / 2`` bit for bit.  A snapshot from
    :meth:`~repro.graph.delta.DeltaGraph.materialize` arrives with them
    cached: the delta engine keeps them up to date per inserted edge.
    """
    def compute() -> np.ndarray:
        iu, iv = snapshot.edge_indices()
        counts = edge_common_neighbors(snapshot)
        triangles = np.bincount(
            np.concatenate((iu, iv)),
            weights=np.concatenate((counts, counts)),
            minlength=snapshot.num_nodes,
        ) / 2.0
        triangles.flags.writeable = False
        return triangles

    return cached(snapshot, "triangles", compute)


class CandidateBlock:
    """One slice of a candidate set with shared, memoised scoring state.

    Metrics receive blocks through :meth:`SimilarityMetric.score_block`;
    everything a metric asks for (positions, expansion, counts, weighted
    sums) is computed once per block and reused by every later metric
    scoring the same block — the whole point of the kernel layer.
    """

    __slots__ = (
        "snapshot", "pairs", "_rows", "_cols", "_expansion", "_counts",
        "_weighted", "_edge_weighted",
    )

    def __init__(self, snapshot: Snapshot, pairs: np.ndarray) -> None:
        self.snapshot = snapshot
        self.pairs = pairs
        self._rows: "np.ndarray | None" = None
        self._cols: "np.ndarray | None" = None
        self._expansion: "tuple[np.ndarray, ...] | None" = None
        self._counts: "np.ndarray | None" = None
        self._weighted: dict[str, np.ndarray] = {}
        self._edge_weighted: dict[str, tuple[np.ndarray, np.ndarray]] = {}

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

    def _entries(self) -> "tuple[np.ndarray, ...]":
        """Memoised :func:`common_neighbor_expansion` of this block's pairs."""
        if self._expansion is None:
            self._expansion = expansion_of(self.snapshot, self.rows, self.cols)
        return self._expansion

    def expansion(self) -> tuple[np.ndarray, np.ndarray]:
        """``(pair_ids, neighbors)`` of this block's common-neighbour expansion."""
        return self._entries()[:2]

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

    def edge_weighted(self, column: np.ndarray, key: str) -> np.ndarray:
        """``sum_w column[(u, w)] + sum_w column[(v, w)]`` for every pair.

        ``column`` holds one value per CSR entry.  Each side is its own
        segment sum over the expansion's edge positions, in its
        descending-neighbour order, and the two are added last: the
        additions ``W @ A + A @ W`` performs for a symmetric edge matrix
        ``W`` (with ``diag(scaling)`` folded into ``column``).  The sides are
        the walked and the probed endpoint's, which is ``u``'s or ``v``'s per
        pair; one float addition is commutative, so the sum is bitwise the
        same either way.  Memoised per ``key`` while ``column`` is the same
        array; treat results as read-only.
        """
        entry = self._edge_weighted.get(key)
        if entry is None or entry[0] is not column:
            pair_ids, _, walked, probed = self._entries()
            n = len(self.pairs)
            out = weighted_counts(pair_ids, walked, column, n) + weighted_counts(
                pair_ids, probed, column, n
            )
            entry = (column, out)
            self._edge_weighted[key] = entry
        return entry[1]

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """``(deg[rows], deg[cols])`` gathered from the cached degree column."""
        deg = degrees(self.snapshot)
        return deg[self.rows], deg[self.cols]


#: snapshot-cache keys of the candidate enumerations a snapshot memoises.
CANDIDATE_KEYS = ("pairs_two_hop", "pairs_all")
#: snapshot-cache entry mapping ``id`` of a memoised kept array to its key.
KEPT_INDEX = "kept_pairs_index"
#: snapshot-cache entry mapping ``id`` of a memoised keep-mask to its key.
MASK_INDEX = "keep_mask_index"


def candidate_cache_key(snapshot: Snapshot, pairs: np.ndarray):
    """The snapshot-cache key under which ``pairs`` is memoised, or None.

    The identity rule: ``pairs`` must *be* the cached array object — one
    of the snapshot's candidate enumerations, or an array
    :func:`kept_pairs` memoised — not merely equal to it.
    """
    for key in CANDIDATE_KEYS:
        if pairs is snapshot.cache.get(key):
            return key
    key = snapshot.cache.get(KEPT_INDEX, {}).get(id(pairs))
    entry = snapshot.cache.get(key) if key is not None else None
    return key if entry is not None and entry[2] is pairs else None


def memoised_mask(snapshot: Snapshot, pairs: np.ndarray, key, compute) -> np.ndarray:
    """A keep-mask over ``pairs``, memoised read-only under ``snapshot.cache[key]``.

    ``compute()`` builds the mask when the entry is missing or was built
    for another array.  The mask joins the identity rule of
    :func:`kept_pairs`, which memoises the array it keeps; ``key`` must
    name the mask's parameters and source, e.g.
    ``("temporal_filter_mask", params, "pairs_two_hop")``.
    """
    entry = snapshot.cache.get(key)
    if entry is None or entry[0] is not pairs:
        mask = compute()
        mask.flags.writeable = False
        entry = (pairs, mask)
        snapshot.cache[key] = entry
        snapshot.cache.setdefault(MASK_INDEX, {})[id(mask)] = key
    return entry[1]


def kept_pairs(snapshot: Snapshot, pairs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``pairs[mask]``, memoised when ``mask`` is a memoised keep-mask.

    A filter that memoises its mask through :func:`memoised_mask` (see
    :class:`~repro.temporal.filters.TemporalFilter`) gets its kept array
    memoised, read-only, per mask key; the array joins the identity rule
    of :func:`candidate_cache_key`, so :func:`blocks_for` caches its blocks
    and every metric of a filtered sweep shares one expansion.  The rule
    holds for the mask too: it must *be* the memoised mask, built for
    these very ``pairs``.  Any other mask — an ad hoc filter's, which may
    change between calls, read-only or not — gets a fresh ``pairs[mask]``.
    """
    source = snapshot.cache.get(MASK_INDEX, {}).get(id(mask))
    entry = snapshot.cache.get(source) if source is not None else None
    if entry is None or entry[0] is not pairs or entry[1] is not mask:
        return pairs[mask]
    key = ("kept_pairs", source)
    entry = snapshot.cache.get(key)
    if entry is None or entry[0] is not pairs or entry[1] is not mask:
        kept = pairs[mask]
        kept.flags.writeable = False
        entry = (pairs, mask, kept)
        snapshot.cache[key] = entry
        snapshot.cache.setdefault(KEPT_INDEX, {})[id(kept)] = key
    return entry[2]


def blocks_for(snapshot: Snapshot, pairs: np.ndarray) -> "list[CandidateBlock]":
    """Split a candidate array into scoring blocks, memoised per snapshot.

    When ``pairs`` *is* one of the snapshot's cached candidate arrays
    (:func:`candidate_cache_key`; the common case: every metric in a
    sweep scores the same enumeration, filtered or not) the block list is
    cached on the snapshot, so expansions computed while scoring the first
    metric are reused by all later ones.  A candidate set at or below the
    block limit stays a single block wrapping the original array object,
    so identity-keyed caches downstream still recognise it.
    """
    limit = block_pair_limit()

    def build() -> "list[CandidateBlock]":
        if len(pairs) <= limit:
            return [CandidateBlock(snapshot, pairs)]
        return [
            CandidateBlock(snapshot, pairs[start : start + limit])
            for start in range(0, len(pairs), limit)
        ]

    key = candidate_cache_key(snapshot, pairs)
    if key is None:
        return build()
    blocks_key = ("kernel_blocks", key)
    entry = snapshot.cache.get(blocks_key)
    # Revalidate on both the source array and the block limit (the limit
    # is env-tunable, so a cached split may be stale).
    if entry is None or entry[0] != limit or entry[1] is not pairs:
        entry = (limit, pairs, build())
        snapshot.cache[blocks_key] = entry
    return entry[2]


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
