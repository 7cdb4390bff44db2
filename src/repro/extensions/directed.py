"""Directed link prediction (the paper's future-work item [43]).

Section 7 notes that "link direction [43] can improve prediction
performance" — subscription edges in particular are one-way.  The growth
engine records who initiated every edge (``GrowthEngine.directions``); this
module turns that into directed structure and directed metric variants:

- **in/out degrees** — a creator's popularity is its in-degree, a
  subscriber's activity its out-degree, a distinction undirected PA blurs;
- **directed preferential attachment** — ``out(u) * in(v)``, scoring the
  likely orientation of the pair;
- **directed common-neighbourhood overlaps** (the structural features of
  Yin et al. [43]): shared followees ``|out(u) ∩ out(v)|``, shared
  followers ``|in(u) ∩ in(v)|``, and the transitive-path count
  ``|out(u) ∩ in(v)|`` — all computed as sparse products of the directed
  adjacency ``D`` (``D Dᵀ``, ``Dᵀ D``, ``D D``).

All metric classes score *unordered* candidate pairs — the evaluation
framework is orientation-free — by taking the better of the two
orientations, so they drop straight into ``evaluate_step``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.generators.base import GrowthConfig, GrowthEngine
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot
from repro.metrics.base import (
    SimilarityMetric,
    cached,
    matrix_values,
)
from repro.utils.pairs import Pair


def generate_directed_trace(
    config: GrowthConfig, seed=None
) -> tuple[TemporalGraph, "dict[Pair, tuple[int, int]]"]:
    """Run the growth engine and return ``(trace, directions)``."""
    engine = GrowthEngine(config, seed=seed)
    trace = engine.run()
    return trace, dict(engine.directions)


class DirectedView:
    """Directed adjacency of a snapshot, from a direction map.

    Edges whose pair is missing from ``directions`` (e.g. edges of a
    hand-built trace) default to the canonical orientation ``u -> v``.
    """

    def __init__(self, snapshot: Snapshot, directions: "dict[Pair, tuple[int, int]]"):
        self.snapshot = snapshot
        pos = snapshot.node_pos
        n = len(pos)
        rows, cols = [], []
        for pair in snapshot.edges():
            src, dst = directions.get(pair, pair)
            if {src, dst} != set(pair):
                raise ValueError(f"direction {src}->{dst} does not match edge {pair}")
            rows.append(pos[src])
            cols.append(pos[dst])
        data = np.ones(len(rows))
        #: sparse directed adjacency, D[i, j] = 1 iff i -> j.
        self.matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        self._out_deg = np.asarray(self.matrix.sum(axis=1)).ravel()
        self._in_deg = np.asarray(self.matrix.sum(axis=0)).ravel()

    def out_degree(self, node: int) -> int:
        return int(self._out_deg[self.snapshot.node_pos[node]])

    def in_degree(self, node: int) -> int:
        return int(self._in_deg[self.snapshot.node_pos[node]])

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degrees aligned with ``snapshot.node_list``."""
        return self._out_deg

    @property
    def in_degrees(self) -> np.ndarray:
        """In-degrees aligned with ``snapshot.node_list``."""
        return self._in_deg

    def reciprocity(self) -> float:
        """Fraction of directed edges whose reverse also exists.

        Always 0 for views built from a first-creation trace (each pair
        appears once); meaningful when callers merge several views.
        """
        total = self.matrix.nnz
        if not total:
            return 0.0
        mutual = int(self.matrix.multiply(self.matrix.T).nnz)
        return mutual / total


def directed_view(snapshot: Snapshot, directions) -> DirectedView:
    """Cached :class:`DirectedView` for a snapshot + direction map."""
    return cached(
        snapshot,
        f"directed_view_{id(directions)}",
        lambda: DirectedView(snapshot, directions),
    )


class _DirectedMetric(SimilarityMetric):
    """Base: scores unordered pairs by the better of the two orientations."""

    def __init__(self, directions: "dict[Pair, tuple[int, int]]") -> None:
        super().__init__()
        self.directions = directions

    def fit(self, snapshot: Snapshot):
        self.snapshot = snapshot
        self._dv = directed_view(snapshot, self.directions)
        self._prepare(self._dv)
        return self

    def _prepare(self, dv: DirectedView) -> None:
        raise NotImplementedError

    def _oriented_scores(self, rows, cols) -> np.ndarray:
        raise NotImplementedError

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        rows, cols = block.rows, block.cols
        return np.maximum(
            self._oriented_scores(rows, cols), self._oriented_scores(cols, rows)
        )


class DirectedPreferentialAttachment(_DirectedMetric):
    """dPA: ``out(u) * in(v)`` — an active source meets a popular sink."""

    name = "dPA"
    candidate_strategy = "all"

    def _prepare(self, dv: DirectedView) -> None:
        self._out = dv.out_degrees
        self._in = dv.in_degrees

    def _oriented_scores(self, rows, cols) -> np.ndarray:
        return self._out[rows] * self._in[cols]


class _DirectedOverlapMetric(_DirectedMetric):
    """Overlap counts via one sparse product of the directed adjacency."""

    candidate_strategy = "two_hop"  # all three overlaps imply a common
    # undirected neighbour, so only 2-hop pairs can score non-zero.

    def _product(self, d: sp.csr_matrix) -> sp.csr_matrix:
        raise NotImplementedError

    def _prepare(self, dv: DirectedView) -> None:
        self._matrix = self._product(dv.matrix).tocsr()

    def _oriented_scores(self, rows, cols) -> np.ndarray:
        return matrix_values(self._matrix, rows, cols)


class SharedFollowees(_DirectedOverlapMetric):
    """dOUT: ``|out(u) ∩ out(v)|`` — subscribed to the same accounts."""

    name = "dOUT"

    def _product(self, d):
        return d @ d.T


class SharedFollowers(_DirectedOverlapMetric):
    """dIN: ``|in(u) ∩ in(v)|`` — accounts with a common audience."""

    name = "dIN"

    def _product(self, d):
        return d.T @ d


class TransitivePaths(_DirectedOverlapMetric):
    """dTRANS: ``|out(u) ∩ in(v)|`` — directed 2-paths ``u -> w -> v``."""

    name = "dTRANS"

    def _product(self, d):
        return d @ d
