"""Matrix-product reference scorer for the kernel-parity checks.

The metrics score only through ``score_block`` over the shared
common-neighbour expansion of :mod:`repro.metrics.kernels`.  For the eight
metrics whose kernel replaced a sparse product — CN, JC, AA, RA, BCN, BAA,
BRA and LP's 2-hop term — this module keeps that older formulation:
build ``A @ diag(w) @ A`` with scipy and sample it at the pair positions.
It shares no code with the expansion, yet the kernel promises to match it
bit for bit (scipy's SMMP product sums each pair's common neighbours in
descending position order, and the expansion replays that order), so the
parity suites compare the two with ``np.array_equal``.

WCN, WAA and WRA sum an edge-aligned weight column over the expansion;
their reference is the product their fit built before that:
``W^a @ diag(g) @ A + A @ diag(g) @ W^a`` from the per-item weight matrix
of ``tests/loop_oracle.py``, sampled at the pair positions.

SP, LP's 3-hop term, Katz_sc and LRW compute one row (LRW: and one
column) of their matrix when a block's pairs share a node, and the whole
matrix otherwise; their reference is the whole-matrix formula:
``shortest_path`` over every source, the sparse ``A`` times a dense
``A^2``, the truncated Katz series over dense powers, and LRW's
``P @ (P @ P_dense)`` with a CSR ``P``.

PPR and LRW are float fits, and their sparse and Cholesky formulations
replaced dense ones that round differently: ``alpha * (I - (1-alpha) P)^-1``
by ``np.linalg.inv`` and dense ``P^m`` by repeated GEMMs.  Those formulas
stay here as tolerance oracles (:func:`dense_walk_scores`), checked to a
relative ``DENSE_WALK_RTOL``, not bit for bit.

Rescal starts its ALS from the top-``rank`` eigenvectors by magnitude of
the spectrum it shares with Katz_lr (``eigsh`` at ``max(50, rank)``), no
longer from its own ``eigsh(k=rank)``.  The two inits span the same space
but round differently, so :func:`own_spectrum_rescal_scores` keeps the
own-spectrum Rescal as a tolerance oracle: scores within
``RESCAL_INIT_RTOL`` of the largest score.

Every other metric's kernel gathers from a matrix its ``fit`` built, at
the block's positions; its reference is that gather over one block
holding all the pairs, which is what the metric's own ``score`` did
before the kernels existed.

The local naive Bayes metrics' triangle counts come from the per-edge
common-neighbour counts of the kernels; their reference is the sparse
``(A @ A) ∘ A`` row sum they were computed with before, and the role
function and BCN/BAA/BRA weights are rebuilt from it here.

Products are rebuilt on every call rather than cached on the snapshot, so
the oracle neither reads nor seeds state the code under test uses.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import shortest_path

from repro.metrics.base import SimilarityMetric, eigsh_start, pairs_to_indices
from repro.metrics.kernels import CandidateBlock
from repro.metrics.rescal import rescal_als
from tests import loop_oracle

#: metrics whose kernel sums a per-node weight over common neighbours.
WEIGHTED_TWO_HOP = frozenset({"AA", "RA", "BCN", "BAA", "BRA"})
#: metrics whose kernel sums a per-edge weight over common neighbours.
WEIGHTED_EDGES = frozenset({"WCN", "WAA", "WRA"})
#: every metric the matrix formulation covers.
MATRIX_METRICS = (
    WEIGHTED_TWO_HOP | WEIGHTED_EDGES | {"CN", "JC", "LP", "SP", "Katz_sc", "LRW"}
)
#: relative tolerance of the sparse and Cholesky walk fits against the
#: dense formulas they replaced.
DENSE_WALK_RTOL = 1e-12
#: Rescal from the shared spectrum against Rescal from its own
#: ``eigsh(k=rank)``: the largest score difference, over the largest score.
RESCAL_INIT_RTOL = 1e-9


def weighted_two_hop(snapshot, weights: np.ndarray) -> sp.csr_matrix:
    """``A @ diag(weights) @ A`` for a per-node weight vector."""
    a = snapshot.adjacency_matrix()
    return (a @ sp.diags(weights) @ a).tocsr()


def weighted_edge_product(snapshot, metric) -> sp.csr_matrix:
    """``W^a @ diag(g) @ A + A @ diag(g) @ W^a`` of a weighted-trio metric.

    ``W^a`` holds the caller's weights (or the seed-0 synthesized ones)
    raised to ``metric.alpha``; ``g`` is the metric's per-node scaling of
    the strengths ``W^1`` row sums.
    """
    weights = metric.weights
    if weights is None:
        weights = loop_oracle.synthesize_weights(snapshot)
    w = loop_oracle.weight_matrix(snapshot, weights, metric.alpha)
    raw = loop_oracle.weight_matrix(snapshot, weights, 1.0)
    with np.errstate(divide="ignore"):
        scaling = metric._node_scaling(
            snapshot, np.asarray(raw.sum(axis=1)).ravel()
        )
    a = snapshot.adjacency_matrix()
    diag = sp.diags(scaling)
    return (w @ diag @ a + a @ diag @ w).tocsr()


def node_triangle_counts(snapshot) -> np.ndarray:
    """Triangles through each node: ``(A @ A) ∘ A`` summed per row, halved.

    Each row sum counts the closed 2-paths at a node, twice its triangles.
    """
    a = snapshot.adjacency_matrix()
    return np.asarray((a @ a).multiply(a).sum(axis=1)).ravel() / 2.0


def role_function(snapshot) -> np.ndarray:
    """``R_w = (N_triangle + 1) / (N_non_triangle + 1)`` from the triangles above."""
    deg = snapshot.degree_array()
    tri = node_triangle_counts(snapshot)
    wedges = deg * (deg - 1) / 2.0
    return (tri + 1.0) / ((wedges - tri) + 1.0)


def naive_bayes_weights(snapshot, name: str) -> np.ndarray:
    """The per-node weight a BCN / BAA / BRA score sums over common neighbours."""
    deg = snapshot.degree_array()
    n, e = snapshot.num_nodes, snapshot.num_edges
    base = math.log(n * (n - 1) / (2.0 * e) - 1.0) + np.log(role_function(snapshot))
    if name == "BCN":
        return base
    out = np.zeros_like(base)
    if name == "BAA":
        mask = deg > 1
        out[mask] = base[mask] / np.log(deg[mask])
    else:
        mask = deg > 0
        out[mask] = base[mask] / deg[mask]
    return out


def naive_bayes_scores(snapshot, name: str, pairs: np.ndarray) -> np.ndarray:
    """BCN / BAA / BRA of ``pairs``, from the matrix-product triangle counts."""
    rows, cols = pairs_to_indices(snapshot, np.asarray(pairs, dtype=np.int64))
    weights = naive_bayes_weights(snapshot, name)
    return sample(weighted_two_hop(snapshot, weights), rows, cols)


def sample(matrix: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``matrix[rows[i], cols[i]]`` for every i, as float64."""
    if rows.size == 0:
        return np.zeros(0, dtype=np.float64)
    return np.asarray(matrix[rows, cols]).ravel().astype(np.float64)


def katz_series(a: sp.csr_matrix, beta: float, max_length: int) -> np.ndarray:
    """``sum_{l <= max_length} beta^l A^l`` over dense matrix powers."""
    power = a.toarray()
    total = beta * power
    weight = beta
    for _ in range(max_length - 1):
        power = a @ power
        weight *= beta
        total += weight * power
    return total


def dense_transition(snapshot) -> np.ndarray:
    """Dense ``P = D^-1 A`` (a degree-0 node's row is 0)."""
    deg = snapshot.degree_array()
    inv = np.zeros_like(deg)
    np.divide(1.0, deg, out=inv, where=deg > 0)
    return snapshot.adjacency_matrix().toarray() * inv[:, None]


def walk_product(snapshot, steps: int) -> np.ndarray:
    """``P^steps`` as ``P @ (... @ (P @ P_dense))`` with a CSR ``P``."""
    power = dense_transition(snapshot)
    p = sp.csr_matrix(power)
    for _ in range(steps - 1):
        power = p @ power
    return power


def lrw_from(snapshot, pm: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """LRW scores ``deg_u/2|E| P^m_uv + deg_v/2|E| P^m_vu`` from a matrix ``P^m``."""
    deg = snapshot.degree_array()
    two_e = 2.0 * snapshot.num_edges
    return deg[rows] / two_e * pm[rows, cols] + deg[cols] / two_e * pm[cols, rows]


def dense_walk_scores(metric: SimilarityMetric, pairs: np.ndarray) -> np.ndarray:
    """PPR or LRW scores of ``pairs`` by the dense formulas.

    PPR: ``pi_uv + pi_vu`` of ``pi = alpha * (I - (1-alpha) P)^-1`` by
    ``np.linalg.inv``.  LRW: ``P^m`` by ``m - 1`` dense products.  Compare
    with ``rtol=DENSE_WALK_RTOL``.
    """
    snapshot = metric.snapshot
    assert snapshot is not None, "fit the metric first"
    rows, cols = pairs_to_indices(snapshot, np.asarray(pairs, dtype=np.int64))
    p = dense_transition(snapshot)
    if metric.name == "PPR":
        system = np.eye(p.shape[0]) - (1.0 - metric.alpha) * p
        pi = metric.alpha * np.linalg.inv(system)
        return pi[rows, cols] + pi[cols, rows]
    assert metric.name == "LRW", metric.name
    pm = p.copy()
    for _ in range(metric.steps - 1):
        pm = pm @ p
    return lrw_from(snapshot, pm, rows, cols)


def own_spectrum_rescal_scores(metric: SimilarityMetric, pairs: np.ndarray) -> np.ndarray:
    """Rescal scores of ``pairs``, its ALS started from ``eigsh(k=rank)``.

    Needs ``n > rank + 2`` (ARPACK's range).  Compare with an absolute
    tolerance of ``RESCAL_INIT_RTOL`` times the largest score.
    """
    snapshot = metric.snapshot
    assert snapshot is not None and metric.name == "Rescal"
    a = snapshot.adjacency_matrix()
    n = a.shape[0]
    rank = min(metric.rank, max(1, n - 2))
    assert n > rank + 2, "eigsh needs n > rank + 2"
    _, x = spla.eigsh(a, k=rank, which="LM", v0=eigsh_start(n))
    x, r = rescal_als(
        a, x, iterations=metric.iterations, regularization=metric.regularization
    )
    rows, cols = pairs_to_indices(snapshot, np.asarray(pairs, dtype=np.int64))
    xr = x @ r
    return np.einsum("ij,ij->i", xr[rows], x[cols]) + np.einsum(
        "ij,ij->i", xr[cols], x[rows]
    )


def oracle_scores(metric: SimilarityMetric, pairs: np.ndarray) -> np.ndarray:
    """Reference scores of ``pairs`` under a fitted ``metric``."""
    snapshot = metric.snapshot
    assert snapshot is not None, "fit the metric first"
    pairs = np.asarray(pairs, dtype=np.int64)
    if metric.name not in MATRIX_METRICS:
        if len(pairs) == 0:
            return np.zeros(0, dtype=np.float64)
        block = CandidateBlock(snapshot, pairs)
        return np.asarray(metric.score_block(block), dtype=np.float64)
    rows, cols = pairs_to_indices(snapshot, pairs)
    a = snapshot.adjacency_matrix()
    if metric.name == "SP":
        dist = shortest_path(a, method="D", unweighted=True)[rows, cols]
        return np.where(np.isinf(dist), -np.inf, -dist)
    if metric.name == "Katz_sc":
        return katz_series(a, metric.beta, metric.max_length)[rows, cols]
    if metric.name == "LRW":
        return lrw_from(snapshot, walk_product(snapshot, metric.steps), rows, cols)
    if metric.name in WEIGHTED_EDGES:
        return sample(weighted_edge_product(snapshot, metric), rows, cols)
    if metric.name in WEIGHTED_TWO_HOP:
        # The weight vector is the metric's fitted state; what the oracle
        # checks is the accumulation over common neighbours.
        return sample(weighted_two_hop(snapshot, metric._weights), rows, cols)
    a2 = (a @ a).tocsr()
    cn = sample(a2, rows, cols)
    if metric.name == "CN":
        return cn
    if metric.name == "JC":
        deg = snapshot.degree_array()
        union = deg[rows] + deg[cols] - cn
        out = np.zeros_like(cn)
        np.divide(cn, union, out=out, where=union > 0)
        return out
    # LP: 2-hop paths from A^2, 3-hop paths from the dense A @ A^2.
    a3 = a @ a2.toarray()
    return cn + metric.epsilon * a3[rows, cols]
