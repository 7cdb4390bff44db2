"""Weighted-network link prediction (the paper's future-work item [27]).

The paper's evaluation is purely topological; its Section 7 names edge
weights — and the weak-tie effect of Lü & Zhou, "Link prediction in
weighted networks: The role of weak ties" [27] — as the first extension.
This module provides:

- :func:`synthesize_weights` — interaction weights for a snapshot, since
  the traces record only link creation.  Weight of an edge grows with its
  *embeddedness* (shared neighbourhood) and the endpoints' activity, the
  standard empirical regularities of tie strength;
- weighted variants of the common-neighbourhood metrics with the weak-tie
  exponent ``alpha`` of [27]:

      WCN_a(u,v) = sum over common neighbours z of (w(u,z)^a + w(z,v)^a)
      WAA_a      = ... / log(1 + s(z))
      WRA_a      = ... / s(z)

  where ``s(z)`` is z's strength (sum of its edge weights).  ``alpha = 1``
  uses raw weights, ``alpha = 0`` collapses to the unweighted metric x2,
  and [27]'s finding is that small (even negative) alpha — *weak ties* —
  often predicts best.
"""

from __future__ import annotations

import numpy as np

from repro.graph.snapshots import Snapshot
from repro.metrics.base import SimilarityMetric, cached, register
from repro.metrics.kernels import (
    adjacency_keys,
    csr_edge_column,
    edge_common_neighbors,
    probe_sorted_keys,
)
from repro.utils.pairs import Pair, canonical_pair, encode_position_pairs
from repro.utils.rng import ensure_rng

WeightMap = "dict[Pair, float]"


def synthetic_edge_weights(
    snapshot: Snapshot,
    seed: "int | np.random.Generator | None" = 0,
    embeddedness_gain: float = 0.5,
    noise: float = 0.3,
) -> np.ndarray:
    """:func:`synthesize_weights` as a column in ``edge_indices`` order.

    The embeddedness ``|CN(u,v)|`` of every edge is the kernels' cached
    per-edge common-neighbour count (exact integers, as ``A^2`` sampled
    them), and one lognormal draw per edge, in edge-creation order,
    supplies the noise.
    """
    rng = ensure_rng(seed)
    now = snapshot.time
    span = max(1e-9, now - snapshot.trace.start_time)
    embeddedness = edge_common_neighbors(snapshot)
    age = (now - snapshot.edge_times()) / span  # 0 = fresh
    base = 1.0 + embeddedness_gain * embeddedness + (1.0 - age)
    return base * rng.lognormal(0.0, noise, size=len(base))


def synthesize_weights(
    snapshot: Snapshot,
    seed: "int | np.random.Generator | None" = 0,
    embeddedness_gain: float = 0.5,
    noise: float = 0.3,
) -> dict[Pair, float]:
    """Plausible interaction weights for a snapshot's edges.

    ``weight(u,v) = 1 + embeddedness_gain * |CN(u,v)| + recency bonus +
    lognormal noise`` — strong ties are embedded and recently active, the
    two regularities the weak-ties literature builds on.  Weights are
    strictly positive.
    """
    values = synthetic_edge_weights(snapshot, seed, embeddedness_gain, noise)
    return {
        pair: float(w) for pair, w in zip(snapshot.edges(), values.tolist())
    }


def _power(values: np.ndarray, alpha: float) -> np.ndarray:
    """``values ** alpha`` with the items' own ``**`` (an object-array
    power; a float64 array's items become Python floats), because numpy's
    float64 power can differ from Python's in the last bit."""
    powered = np.asarray(values, dtype=object) ** alpha
    return np.asarray(powered.tolist(), dtype=np.float64)


def _weight_items(
    snapshot: Snapshot, weights: "dict[Pair, float]"
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Validate ``weights``; ``(positions, values, at)`` of its items.

    ``positions`` holds each item's endpoint positions, ``values`` its
    weights (an object array of the dict's own values), ``at`` the CSR
    position of its edge ``(u, v)``.  Validation is vectorised but reports
    the first offending item in dict order, as an item-by-item check would.
    """
    ends = np.asarray(list(weights), dtype=np.int64).reshape(-1, 2)
    values = np.fromiter(weights.values(), dtype=object, count=len(weights))
    positions, present = snapshot.lookup_positions(ends)
    self_pair = ends[:, 0] == ends[:, 1]
    edge, at = probe_sorted_keys(
        adjacency_keys(snapshot),
        encode_position_pairs(positions[:, 0], positions[:, 1]),
    )
    non_edge = ~self_pair & ~(present.all(axis=1) & edge)
    bad = self_pair | non_edge | (values.astype(np.float64) <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        (u, v), w = list(weights.items())[i]
        if self_pair[i]:
            canonical_pair(u, v)  # raises the self-pair ValueError
        if non_edge[i]:
            raise ValueError(f"weight given for non-edge {(u, v)}")
        raise ValueError(f"weights must be positive, got {w} for {(u, v)}")
    return positions, values, at


def _weight_columns(
    snapshot: Snapshot, weights: "dict[Pair, float]", alpha: float
) -> "tuple[np.ndarray, np.ndarray]":
    """CSR-aligned columns ``(w^alpha, w)`` of a weight dict.

    Each holds one value per CSR entry — an edge's value at both of its
    entries, ``0`` for an edge the dict leaves out — the entries of the
    symmetric matrix of ``w(u,v)^alpha`` and of its ``alpha = 1``
    counterpart.  An edge given as both ``(u, v)`` and ``(v, u)`` holds the
    sum of the two, as that matrix's duplicate COO triplets do.
    """
    positions, values, at = _weight_items(snapshot, weights)
    back = np.searchsorted(
        adjacency_keys(snapshot),
        encode_position_pairs(positions[:, 1], positions[:, 0]),
    )
    both = np.concatenate((at, back))
    size = len(snapshot.csr_structure()[1])
    powered, raw = _power(values, alpha), values.astype(np.float64)
    return (
        np.bincount(both, weights=np.concatenate((powered, powered)), minlength=size),
        np.bincount(both, weights=np.concatenate((raw, raw)), minlength=size),
    )


def _strength(snapshot: Snapshot, raw: np.ndarray) -> np.ndarray:
    """Sum of each node's edge weights, from a CSR-aligned raw column.

    Summed as the raw weight matrix's ``sum(axis=1)`` sums: scipy reduces
    each row's stored entries, so edges missing from the weights (zeros in
    the column) are dropped first.
    """
    import scipy.sparse as sp

    indptr, indices = snapshot.csr_structure()
    n = len(indptr) - 1
    matrix = sp.csr_matrix((raw, indices, indptr), shape=(n, n), copy=True)
    matrix.eliminate_zeros()
    return np.asarray(matrix.sum(axis=1)).ravel()


class _WeightedNeighbourhoodMetric(SimilarityMetric):
    """Shared machinery: ``score = sum_z g(z) * (w(u,z)^a + w(z,v)^a)``.

    The sum runs over the kernel expansion: an edge-aligned column holds
    ``g(z) * w(x,z)^a`` at the CSR entry of every edge ``(x, z)``, and
    :meth:`~repro.metrics.kernels.CandidateBlock.edge_weighted` sums it
    over the edges ``(u, z)`` and ``(v, z)`` of each pair's common
    neighbours, bit for bit as ``W^a diag(g) A + A diag(g) W^a`` sampled
    at the pair.  Subclasses supply the per-node denominator ``g(z)``.
    """

    candidate_strategy = "two_hop"

    def __init__(
        self, weights: "dict[Pair, float] | None" = None, alpha: float = 1.0
    ) -> None:
        super().__init__()
        self.weights = weights
        self.alpha = alpha

    def _node_scaling(self, snapshot: Snapshot, strength: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fit(self, snapshot: Snapshot):
        """Fit on the caller's weights, or on deterministic synthesized ones.

        The registry instantiates metrics with no arguments, so the
        registered WCN/WAA/WRA fall back to :func:`synthetic_edge_weights`
        (seed 0, cached per snapshot) — the traces record only link
        creation, never interaction volume.  Those weights are a pure
        function of the snapshot, so the fitted column is cached per
        ``(snapshot, name, alpha)`` like every other global fit.
        """
        self.snapshot = snapshot
        if self.weights is not None:
            self._column = self._scaled(
                snapshot, *_weight_columns(snapshot, self.weights, self.alpha)
            )
            return self

        def column() -> np.ndarray:
            values = cached(
                snapshot,
                "synthetic_edge_weights",
                lambda: synthetic_edge_weights(snapshot),
            )
            return self._scaled(
                snapshot,
                csr_edge_column(snapshot, _power(values, self.alpha)),
                csr_edge_column(snapshot, values),
            )

        self._column = cached(
            snapshot, f"weighted_edge_column:{self.name}:{self.alpha!r}", column
        )
        return self

    def _scaled(
        self, snapshot: Snapshot, powered: np.ndarray, raw: np.ndarray
    ) -> np.ndarray:
        """``g(z) * w(x,z)^a`` per CSR entry ``(x, z)``; 0 where unweighted."""
        scaling = self._node_scaling(snapshot, _strength(snapshot, raw))
        _, indices = snapshot.csr_structure()
        out = np.zeros_like(powered)
        # g(z) may be inf at a node with no weighted edge; its entries stay 0.
        np.multiply(scaling[indices], powered, out=out, where=powered != 0)
        return out

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        key = f"{self.name}:{self.alpha!r}"
        return block.edge_weighted(self._column, key).copy()


@register
class WeightedCommonNeighbors(_WeightedNeighbourhoodMetric):
    """WCN [27]: ``sum_z w(u,z)^a + w(z,v)^a``."""

    name = "WCN"

    def _node_scaling(self, snapshot, strength):
        return np.ones_like(strength)


@register
class WeightedAdamicAdar(_WeightedNeighbourhoodMetric):
    """WAA [27]: ``sum_z (w(u,z)^a + w(z,v)^a) / log(1 + s(z))``."""

    name = "WAA"

    def _node_scaling(self, snapshot, strength):
        return 1.0 / np.log1p(strength)


@register
class WeightedResourceAllocation(_WeightedNeighbourhoodMetric):
    """WRA [27]: ``sum_z (w(u,z)^a + w(z,v)^a) / s(z)``."""

    name = "WRA"

    def _node_scaling(self, snapshot, strength):
        out = np.zeros_like(strength)
        mask = strength > 0
        out[mask] = 1.0 / strength[mask]
        return out
