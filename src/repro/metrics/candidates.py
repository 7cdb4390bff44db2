"""Candidate-pair enumeration, with density-adaptive strategy selection.

Link prediction scores *unconnected* node pairs.  Which pairs are worth
scoring depends on the metric: the common-neighbourhood family is identically
zero beyond two hops, while PA / Rescal / Katz / PPR are defined globally.

The 2-hop enumeration picks one of two interchangeable strategies from
the snapshot's CSR statistics (:meth:`~repro.graph.snapshots.Snapshot.csr_stats`):

- **sparse** — upper triangle of sparse ``A^2`` with a CSR-sampled edge
  knockout; memory O(nnz(A^2)).  The default for sparse graphs, where it
  beats any dense formulation by a wide margin.
- **dense** — one float32 GEMM over a dense 0/1 adjacency plus boolean
  masks.  On small dense graphs (facebook-like: thousands of nodes, ≥ 1%
  density) BLAS wins decisively over sparse products whose ``A^2`` is
  nearly full anyway.

Both produce the *identical* row-major candidate array (the
differential suite asserts array equality), so the choice is purely a
performance decision.
The all-pairs set is generated from triangular-index arithmetic with a
byte-per-pair knockout mask — no dense float adjacency on that path.
A one-node query (``candidate_pairs(..., node=u)``, the serving read)
builds neither set: it reads ``u``'s CSR neighbourhood and returns the
same rows the full set holds for ``u``, in the same order.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import telemetry
from repro.graph.snapshots import Snapshot
from repro.metrics.base import adjacency, cached, two_hop_matrix
from repro.telemetry.metrics import SIZE_BUCKETS
from repro.utils.rng import ensure_rng

#: strategy-selection thresholds (see DESIGN.md "Batched kernels &
#: density-adaptive enumeration" for the measured crossover they encode).
DENSE_MAX_NODES = 4096
DENSE_MIN_DENSITY = 0.01

#: snapshot-cache key recording which strategy enumerated the 2-hop pairs.
ENUM_STRATEGY_KEY = "enum_strategy"


def _empty_pairs() -> np.ndarray:
    return np.zeros((0, 2), dtype=np.int64)


# ---------------------------------------------------------------------------
# 2-hop enumeration strategies (identical output, different cost shapes)
# ---------------------------------------------------------------------------
def choose_enumeration_strategy(snapshot: Snapshot) -> str:
    """Pick the 2-hop enumeration strategy from CSR statistics."""
    stats = snapshot.csr_stats()
    if 2 <= stats.nodes <= DENSE_MAX_NODES and stats.density >= DENSE_MIN_DENSITY:
        return "dense"
    return "sparse"


def _sparse_two_hop_positions(snapshot: Snapshot) -> tuple[np.ndarray, np.ndarray]:
    """Upper triangle of sparse ``A^2``, existing edges knocked out."""
    a = adjacency(snapshot)
    a2 = two_hop_matrix(snapshot)
    upper = sp.triu(a2, k=1).tocoo()
    if upper.nnz == 0:
        return (np.zeros(0, dtype=np.int64),) * 2
    connected = np.asarray(a[upper.row, upper.col]).ravel() > 0
    reachable = upper.data > 0  # guard explicit zeros
    keep = reachable & ~connected
    rows, cols = upper.row[keep], upper.col[keep]
    order = np.lexsort((cols, rows))
    return rows[order].astype(np.int64), cols[order].astype(np.int64)


def _dense_two_hop_positions(snapshot: Snapshot) -> tuple[np.ndarray, np.ndarray]:
    """One float32 GEMM over the dense 0/1 adjacency."""
    indptr, indices = snapshot.csr_structure()
    n = snapshot.num_nodes
    adj = np.zeros((n, n), dtype=np.float32)
    row_ids = np.repeat(np.arange(n), np.diff(indptr))
    adj[row_ids, indices] = 1.0
    counts = adj @ adj
    cand = (counts > 0) & (adj == 0.0)
    cand &= ~np.tri(n, dtype=bool)  # strict upper triangle
    rows, cols = np.nonzero(cand)  # C-order scan = row-major pair order
    return rows.astype(np.int64), cols.astype(np.int64)


_ENUM_IMPLS = {
    "sparse": _sparse_two_hop_positions,
    "dense": _dense_two_hop_positions,
}


def two_hop_positions(snapshot: Snapshot) -> tuple[np.ndarray, np.ndarray]:
    """The unconnected 2-hop pairs as row-major ``(rows, cols)``, uncached.

    The strategy is chosen by :func:`choose_enumeration_strategy` (both
    return the same arrays), recorded under :data:`ENUM_STRATEGY_KEY`
    and counted in telemetry.
    """
    strategy = choose_enumeration_strategy(snapshot)
    snapshot.cache[ENUM_STRATEGY_KEY] = strategy
    if telemetry.metrics.enabled:
        telemetry.metrics.counter("candidates.enum_strategy", strategy=strategy).inc()
    return _ENUM_IMPLS[strategy](snapshot)


def two_hop_pairs(snapshot: Snapshot) -> np.ndarray:
    """All unconnected pairs at distance exactly 2, as node-id pairs.

    These are the pairs "most algorithms' predictions are dominated by"
    (Section 4.2); the 2-hop edge ratio lambda_2 is measured against them.

    The row-major (node_list-ordered) id pairs of
    :func:`two_hop_positions`, cached per snapshot.
    """
    def compute() -> np.ndarray:
        rows, cols = two_hop_positions(snapshot)
        if len(rows) == 0:
            return _empty_pairs()
        ids = snapshot.node_ids
        return np.column_stack((ids[rows], ids[cols]))

    return cached(snapshot, "pairs_two_hop", compute)


def all_nonedge_pairs(snapshot: Snapshot) -> np.ndarray:
    """Every unconnected node pair (upper triangle), as node-id pairs."""
    def compute() -> np.ndarray:
        ids = snapshot.node_ids
        n = len(ids)
        if n < 2:
            return _empty_pairs()
        # Row i owns the triangular index range [offsets[i], offsets[i+1]):
        # its pairs (i, j) for j in (i, n).
        counts = (n - 1) - np.arange(n, dtype=np.int64)
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts))
        )
        keep = np.ones(int(offsets[-1]), dtype=bool)
        iu, iv = snapshot.edge_indices()
        keep[offsets[iu] + (iv - iu - 1)] = False
        linear = np.flatnonzero(keep)
        if len(linear) == 0:
            return _empty_pairs()
        rows = np.searchsorted(offsets, linear, side="right") - 1
        cols = linear - offsets[rows] + rows + 1
        return np.column_stack((ids[rows], ids[cols]))

    return cached(snapshot, "pairs_all", compute)


def prewarm_candidate_caches(
    snapshot: Snapshot, strategies: "tuple[str, ...]" = ("two_hop",)
) -> None:
    """Materialise the candidate caches a run will need, ahead of time.

    The parallel experiment runner calls this once per snapshot per worker
    process so every ``(metric, step, seed)`` work cell dispatched to that
    worker finds the sparse adjacency, packed adjacency keys, and
    candidate-pair arrays already cached, instead of each first-arriving
    cell paying the build.  (``A^2`` is not prewarmed: the kernel
    layer's expansion serves the neighbourhood metrics without it, and
    what does need it — LP's fit, the sparse enumeration — builds it on
    first use.)
    """
    from repro.metrics.kernels import adjacency_keys

    adjacency(snapshot)
    adjacency_keys(snapshot)
    for strategy in set(strategies):
        candidate_pairs(snapshot, strategy)


def _node_candidate_pairs(snapshot: Snapshot, strategy: str, node: int) -> np.ndarray:
    """The rows of ``candidate_pairs(snapshot, strategy)`` that touch ``node``.

    Read from ``node``'s CSR neighbourhood alone, without building or
    scanning the snapshot's candidate array: ``"all"`` keeps every
    position but ``node`` and its neighbours, ``"two_hop"`` the
    neighbours of its neighbours minus the same.  Rows are ``(min, max)``
    id pairs sorted by the other endpoint, which is exactly their order
    in the row-major full array.  An unknown ``node`` raises ``KeyError``.
    """
    position = int(snapshot.positions_of(np.asarray([node]))[0])
    indptr, indices = snapshot.csr_structure()
    neighbours = indices[indptr[position] : indptr[position + 1]]
    if strategy == "two_hop":
        keep = np.zeros(snapshot.num_nodes, dtype=bool)
        starts = indptr[neighbours]
        counts = indptr[neighbours + 1] - starts
        # the CSR positions of every neighbour's row, concatenated
        flat = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        keep[indices[flat + np.arange(len(flat))]] = True
    else:
        keep = np.ones(snapshot.num_nodes, dtype=bool)
    keep[neighbours] = False
    keep[position] = False
    others = np.flatnonzero(keep)
    ids = snapshot.node_ids
    return np.column_stack(
        (ids[np.minimum(others, position)], ids[np.maximum(others, position)])
    )


def candidate_pairs(
    snapshot: Snapshot, strategy: str, node: "int | None" = None
) -> np.ndarray:
    """Dispatch on a metric's ``candidate_strategy``.

    With ``node``, only the pairs touching it, in the same order
    (:func:`_node_candidate_pairs`); the full array is neither built nor
    read.
    """
    if strategy not in ("two_hop", "all"):
        raise ValueError(f"unknown candidate strategy {strategy!r}")
    if node is not None:
        return _node_candidate_pairs(snapshot, strategy, node)
    if strategy == "two_hop":
        pairs = two_hop_pairs(snapshot)
    else:
        pairs = all_nonedge_pairs(snapshot)
    if telemetry.metrics.enabled:
        # Candidate-set size distributions are the §4.2 quantity the paper
        # uses to explain accuracy; record them per enumeration strategy.
        telemetry.metrics.histogram(
            "candidates.pairs", bounds=SIZE_BUCKETS, strategy=strategy
        ).observe(len(pairs))
    return pairs


def num_nonedge_pairs(snapshot: Snapshot) -> int:
    """``C(|V|, 2) - |E|``: the size of the random predictor's pool."""
    n = snapshot.num_nodes
    return n * (n - 1) // 2 - snapshot.num_edges


def random_nonedge_pairs(
    snapshot: Snapshot,
    k: int,
    rng: "int | np.random.Generator | None" = None,
    exclude: "set[tuple[int, int]] | None" = None,
) -> list[tuple[int, int]]:
    """Draw ``k`` distinct unconnected pairs uniformly at random.

    This is the paper's random-prediction baseline and also the filler used
    when a metric has fewer scorable candidates than the prediction budget.
    ``exclude`` removes pairs already predicted by the metric proper.

    Rejection sampling with *batched* RNG draws: each round draws a block
    of index pairs and eliminates self-pairs and existing edges with
    vectorised array operations, leaving only dedup/exclusion to a thin
    Python loop over the survivors.
    """
    generator = ensure_rng(rng)
    ids = snapshot.node_ids
    n = len(ids)
    excluded: set[tuple[int, int]] = set()
    if exclude:
        excluded = {(u, v) if u < v else (v, u) for u, v in exclude if u != v}
        # Only pairs actually in the non-edge pool shrink it; excluded
        # existing edges or foreign nodes must not drive it negative.
        blocked = sum(
            1
            for u, v in excluded
            if snapshot.has_node(u)
            and snapshot.has_node(v)
            and not snapshot.has_edge(u, v)
        )
    else:
        blocked = 0
    available = max(0, num_nonedge_pairs(snapshot) - blocked)
    k = min(k, available)
    if k <= 0 or n < 2:
        return []
    matrix = snapshot.adjacency_matrix()
    chosen: set[tuple[int, int]] = set()
    result: list[tuple[int, int]] = []
    # The non-edge pool vastly outnumbers k in every realistic snapshot,
    # so a couple of rounds suffice.
    while len(result) < k:
        block = max(32, 2 * (k - len(result)))
        draw = generator.integers(n, size=(block, 2))
        i, j = draw[:, 0], draw[:, 1]
        distinct = i != j
        lo = np.minimum(i[distinct], j[distinct])
        hi = np.maximum(i[distinct], j[distinct])
        if len(lo) == 0:
            continue
        nonedge = np.asarray(matrix[lo, hi]).ravel() == 0
        us = ids[lo[nonedge]].tolist()
        vs = ids[hi[nonedge]].tolist()
        for u, v in zip(us, vs):
            pair = (u, v)
            if pair in chosen or pair in excluded:
                continue
            chosen.add(pair)
            result.append(pair)
            if len(result) == k:
                break
    return result
