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
from repro.metrics.base import (
    SimilarityMetric,
    adjacency,
    cached,
    matrix_values,
    register,
    two_hop_matrix,
)
from repro.metrics.kernels import adjacency_keys, probe_sorted_keys
from repro.utils.pairs import Pair, canonical_pair, encode_position_pairs
from repro.utils.rng import ensure_rng

WeightMap = "dict[Pair, float]"


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
    rng = ensure_rng(seed)
    a2 = two_hop_matrix(snapshot)
    now = snapshot.time
    span = max(1e-9, now - snapshot.trace.start_time)
    iu, iv = snapshot.edge_indices()
    embeddedness = matrix_values(a2, iu, iv)
    times = snapshot.edge_times()
    age = (now - times) / span  # 0 = fresh
    base = 1.0 + embeddedness_gain * embeddedness + (1.0 - age)
    values = base * rng.lognormal(0.0, noise, size=len(base))
    return {
        pair: float(w) for pair, w in zip(snapshot.edges(), values.tolist())
    }


def weight_matrix(snapshot: Snapshot, weights: "dict[Pair, float]", alpha: float):
    """Symmetric sparse matrix of ``w(u,v)^alpha`` over the snapshot edges.

    Validation is vectorised but reports the first offending item in dict
    order, as an item-by-item check would.  ``w ** alpha`` is taken with
    the items' own ``**`` (an object-array power), because numpy's float64
    power can differ from Python's in the last bit.
    """
    import scipy.sparse as sp

    n = snapshot.num_nodes
    ends = np.asarray(list(weights), dtype=np.int64).reshape(-1, 2)
    values = np.fromiter(weights.values(), dtype=object, count=len(weights))
    positions, present = snapshot.lookup_positions(ends)
    self_pair = ends[:, 0] == ends[:, 1]
    edge, _ = probe_sorted_keys(
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
    # Triplets interleave (u, v), (v, u) per item, in dict order.
    data = np.repeat(np.asarray((values**alpha).tolist()), 2)
    rows, cols = positions.ravel(), positions[:, ::-1].ravel()
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


class _WeightedNeighbourhoodMetric(SimilarityMetric):
    """Shared machinery: ``score = sum_z g(z) * (W^a A + A W^a)[u,v]``.

    ``(W^a @ A)[u,v] = sum_z w(u,z)^a A[z,v]`` sums the u-side weights over
    common neighbours; adding the transpose term gives the
    ``w(u,z)^a + w(z,v)^a`` form of [27].  Subclasses supply the per-node
    denominator ``g(z)`` as a diagonal scaling.
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
        registered WCN/WAA/WRA fall back to :func:`synthesize_weights`
        (seed 0, cached per snapshot) — the traces record only link
        creation, never interaction volume.  Those weights are a pure
        function of the snapshot, so the fitted product is cached per
        ``(snapshot, name, alpha)`` like every other global fit.
        """
        self.snapshot = snapshot
        if self.weights is not None:
            self._matrix = self._product(snapshot, self.weights)
            return self

        def product():
            weights = cached(
                snapshot, "synthetic_weights", lambda: synthesize_weights(snapshot)
            )
            return self._product(snapshot, weights)

        self._matrix = cached(
            snapshot, f"weighted_product:{self.name}:{self.alpha!r}", product
        )
        return self

    def _product(self, snapshot: Snapshot, weights: "dict[Pair, float]"):
        import scipy.sparse as sp

        w = weight_matrix(snapshot, weights, self.alpha)
        raw_strength = np.asarray(
            weight_matrix(snapshot, weights, 1.0).sum(axis=1)
        ).ravel()
        scaling = self._node_scaling(snapshot, raw_strength)
        a = adjacency(snapshot)
        diag = sp.diags(scaling)
        # sum_z scaling(z) * (w(u,z)^a + w(z,v)^a) for z adjacent to both.
        return (w @ diag @ a + a @ diag @ w).tocsr()

    def score_block(self, block) -> np.ndarray:
        # Edge-weighted sums are a different kernel shape (per-edge rather
        # than per-node weights), so the block contributes its shared
        # position columns; the fitted product supplies the values.
        self._require_fit()
        return matrix_values(self._matrix, block.rows, block.cols)


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
