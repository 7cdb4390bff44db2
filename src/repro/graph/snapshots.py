"""Constant-edge-delta snapshot sequencing (Section 3.2 of the paper).

The paper discretises each trace into a sequence of snapshots
``(G_1, ..., G_T)`` such that every snapshot adds the same number of new
edges (the *snapshot delta*).  Prediction then runs on each consecutive pair:
observe ``G_{t-1}``, predict the new edges among its nodes that appear in
``G_t``.

A :class:`Snapshot` is an immutable static view of the trace after its first
``cutoff`` edge events.  It is **columnar**: construction is a zero-copy
slice of the parent trace's event columns, and the derived structure —
sorted node-id table, CSR adjacency, degree array — is built lazily with
vectorised ``searchsorted`` / ``bincount`` / ``lexsort`` kernels on first
use.  Building a whole :func:`snapshot_sequence` therefore costs one
amortised pass over the stream (the trace-level
:meth:`~repro.graph.dyngraph.TemporalGraph.stream_index`) plus O(1) per
snapshot, instead of a per-snapshot dict-of-sets rebuild from event 0.

It keeps a reference to the parent :class:`~repro.graph.dyngraph.TemporalGraph`
so the temporal features of Section 6 (:mod:`repro.temporal.activity`: idle
time, recent activity) read the trace's event columns *as of the snapshot
time* without copying history.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import telemetry
from repro.graph.dyngraph import TemporalGraph
from repro.utils.pairs import Pair, canonical_pair


def _isin_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Vectorised membership of ``values`` in a sorted id ``table``."""
    if len(table) == 0:
        return np.zeros(len(values), dtype=bool)
    pos = np.searchsorted(table, values)
    pos = np.minimum(pos, len(table) - 1)
    return table[pos] == values


@dataclass(frozen=True)
class CsrStats:
    """Cheap structural statistics of a snapshot's CSR adjacency.

    Everything the density-adaptive candidate enumerator needs to choose a
    strategy, derived in O(n) from structure that the metrics build anyway:

    - ``density`` is the undirected edge density ``2|E| / (n(n-1))``
      (``nnz`` counts both directions, so it equals ``nnz / (n(n-1))``);
    - ``two_hop_work`` is ``sum_k deg(k)^2`` — the number of multiply-adds
      a sparse ``A @ A`` performs, i.e. the cost of the sparse 2-hop
      enumeration path.
    """

    nodes: int
    edges: int
    nnz: int
    density: float
    max_degree: int
    two_hop_work: int


class Snapshot:
    """Static view of a temporal graph after its first ``cutoff`` edges."""

    def __init__(self, trace: TemporalGraph, cutoff: int, index: int = 0) -> None:
        if not 0 < cutoff <= trace.num_edges:
            raise ValueError(
                f"cutoff must be in [1, {trace.num_edges}], got {cutoff}"
            )
        u, v, t = trace.columns()
        self._init_core(
            trace,
            cutoff,
            index,
            float(t[cutoff - 1]),
            eu=u[:cutoff],
            ev=v[:cutoff],
            et=t[:cutoff],
            node_ids=None,
        )

    def _init_core(
        self,
        trace: TemporalGraph,
        cutoff: int,
        index: int,
        time: float,
        *,
        eu: np.ndarray,
        ev: np.ndarray,
        et: np.ndarray,
        node_ids: "np.ndarray | None",
    ) -> None:
        """The single init path shared by :class:`Snapshot` and
        :class:`SnapshotView` — every per-instance field is assigned here,
        so a new field cannot silently desynchronise between the two."""
        self.trace = trace
        self.cutoff = cutoff
        self.index = index
        self.time = time
        #: canonical (u < v) endpoint id columns and times of the edges
        #: visible in this snapshot, in creation order (array views —
        #: zero-copy for a plain prefix snapshot).
        self._eu = eu
        self._ev = ev
        self._et = et
        #: sorted unique node ids; None = derive lazily from the trace's
        #: stream index (views pass their restricted id table eagerly).
        self._ids = node_ids
        # Lazily built vectorised structure.
        self._iu: "np.ndarray | None" = None  # _eu remapped to positions
        self._iv: "np.ndarray | None" = None
        self._indptr: "np.ndarray | None" = None  # CSR adjacency structure
        self._indices: "np.ndarray | None" = None
        self._deg: "np.ndarray | None" = None
        self._csr: "sp.csr_matrix | None" = None
        self._adj: dict[int, set[int]] = {}  # per-node memoised neighbour sets
        self._node_list: "list[int] | None" = None
        self._node_pos: "dict[int, int] | None" = None
        #: scratch space for per-snapshot precomputations shared across
        #: metrics (sparse adjacency, A^2, feature matrices, ...); any
        #: hashable key — see repro.metrics.base.cached.  Not pickled.
        self.cache: dict = {}

    # ------------------------------------------------------------------
    # Columnar structure (lazy, vectorised)
    # ------------------------------------------------------------------
    @property
    def node_ids(self) -> np.ndarray:
        """Sorted unique node ids, as an int64 array (the remap table)."""
        if self._ids is None:
            index = self.trace.stream_index()
            mask = index.first_seen < self.cutoff
            ids = index.node_ids[mask]
            # Global dense id -> snapshot position, reused for the edge
            # column remap below (avoids re-searchsorting per snapshot).
            pos_map = np.cumsum(mask) - 1
            self._iu = pos_map[index.eu[: self.cutoff]]
            self._iv = pos_map[index.ev[: self.cutoff]]
            self._ids = ids
        return self._ids

    def edge_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoint columns as positions into :attr:`node_ids`."""
        ids = self.node_ids
        if self._iu is None:
            self._iu = np.searchsorted(ids, self._eu)
            self._iv = np.searchsorted(ids, self._ev)
        return self._iu, self._iv

    def edge_times(self) -> np.ndarray:
        """Creation-time column, aligned with :meth:`edges` order."""
        return self._et

    def _structure(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency structure ``(indptr, indices)`` over positions."""
        if self._indptr is None:
            if telemetry.tracer.enabled:
                with telemetry.tracer.span(
                    "snapshot.csr_build",
                    snapshot=self.index,
                    nodes=self.num_nodes,
                    edges=self.num_edges,
                ):
                    self._build_structure()
                telemetry.metrics.counter("snapshot.csr_builds").inc()
            else:
                self._build_structure()
        return self._indptr, self._indices

    def _build_structure(self) -> None:
        n = len(self.node_ids)
        iu, iv = self.edge_indices()
        rows = np.concatenate((iu, iv))
        cols = np.concatenate((iv, iu))
        counts = np.bincount(rows, minlength=n)
        order = np.lexsort((cols, rows))
        self._indices = cols[order]
        self._indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64))
        )
        self._deg = counts.astype(np.int64)

    def csr_structure(self) -> tuple[np.ndarray, np.ndarray]:
        """Public view of the CSR adjacency ``(indptr, indices)``.

        Used by the graph-integrity auditor (:mod:`repro.graph.audit`) to
        check degree totals against the edge columns without reaching into
        private state; treat the returned arrays as read-only.
        """
        return self._structure()

    def csr_stats(self) -> CsrStats:
        """Structural statistics driving enumeration-strategy selection."""
        self._structure()
        n = len(self.node_ids)
        deg = self._deg
        nnz = int(len(self._indices))
        possible = n * (n - 1)
        return CsrStats(
            nodes=n,
            edges=self.num_edges,
            nnz=nnz,
            density=(nnz / possible) if possible else 0.0,
            max_degree=int(deg.max()) if n else 0,
            two_hop_work=int(np.dot(deg, deg)),
        )

    def lookup_positions(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised node id -> position lookup that tolerates unknown ids.

        Returns ``(positions, present)``, both shaped like ``values``; the
        position of an absent id is a placeholder, so mask with ``present``.
        """
        values = np.asarray(values, dtype=np.int64)
        ids = self.node_ids
        if len(ids) == 0:
            return np.zeros(values.shape, dtype=np.int64), np.zeros(values.shape, dtype=bool)
        pos = np.minimum(np.searchsorted(ids, values), len(ids) - 1)
        return pos, ids[pos] == values

    def positions_of(self, values: np.ndarray) -> np.ndarray:
        """Vectorised node id -> position lookup (raises on unknown ids)."""
        values = np.asarray(values, dtype=np.int64)
        pos, present = self.lookup_positions(values)
        if not present.all():
            raise KeyError(int(values[~present][0]))
        return pos

    # ------------------------------------------------------------------
    # Static-graph queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self._eu)

    def nodes(self) -> Iterator[int]:
        return iter(self.node_list)

    def edges(self) -> Iterator[Pair]:
        """Iterate canonical ``(u, v)`` pairs in edge-creation order."""
        return zip(self._eu.tolist(), self._ev.tolist())

    def neighbors(self, node: int) -> set[int]:
        cached = self._adj.get(node)
        if cached is not None:
            return cached
        i = self._position(node)
        indptr, indices = self._structure()
        result = set(self.node_ids[indices[indptr[i] : indptr[i + 1]]].tolist())
        self._adj[node] = result
        return result

    def degree(self, node: int) -> int:
        i = self._position(node)
        self._structure()
        return int(self._deg[i])

    def has_node(self, node: int) -> bool:
        if self._node_pos is not None:
            return node in self._node_pos
        ids = self.node_ids
        i = np.searchsorted(ids, node)
        return bool(i < len(ids) and ids[i] == node)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = canonical_pair(u, v)
        if not (self.has_node(u) and self.has_node(v)):
            return False
        indptr, indices = self._structure()
        i, target = self._position(u), self._position(v)
        row = indices[indptr[i] : indptr[i + 1]]
        j = np.searchsorted(row, target)
        return bool(j < len(row) and row[j] == target)

    def _position(self, node: int) -> int:
        """Position of one node id (KeyError on unknown, like a dict)."""
        if self._node_pos is not None:
            return self._node_pos[node]
        ids = self.node_ids
        i = int(np.searchsorted(ids, node))
        if i >= len(ids) or ids[i] != node:
            raise KeyError(node)
        return i

    def __contains__(self, node: int) -> bool:
        return self.has_node(node)

    # ------------------------------------------------------------------
    # Node indexing and matrix forms (used by the matrix/walk metrics)
    # ------------------------------------------------------------------
    @property
    def node_list(self) -> list[int]:
        """Nodes in a stable sorted order (defines matrix row indices)."""
        if self._node_list is None:
            self._node_list = self.node_ids.tolist()
        return self._node_list

    @property
    def node_pos(self) -> dict[int, int]:
        """Mapping node id -> row index in :meth:`adjacency_matrix`."""
        if self._node_pos is None:
            self._node_pos = {node: i for i, node in enumerate(self.node_list)}
        return self._node_pos

    def adjacency_matrix(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency in CSR form, rows ordered by node_list.

        Built once from the edge columns with vectorised kernels and
        cached; treat the returned matrix as read-only.
        """
        if self._csr is None:
            indptr, indices = self._structure()
            n = len(self.node_ids)
            data = np.ones(len(indices), dtype=np.float64)
            self._csr = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        return self._csr

    def degree_array(self) -> np.ndarray:
        """Degrees aligned with :attr:`node_list` (fresh float64 copy)."""
        self._structure()
        return self._deg.astype(np.float64)

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export as a networkx ``Graph`` (used for cross-validation tests)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self.node_list)
        g.add_edges_from(self.edges())
        return g

    def subgraph(self, nodes: Iterable[int]) -> "SnapshotView":
        """Restrict the snapshot to a node subset (snowball samples, §5.1)."""
        return SnapshotView(self, set(nodes))

    # ------------------------------------------------------------------
    # Pickling (worker transport)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Ship the compact columns; drop scratch caches and lazy structure.

        The CSR structure, neighbour sets, and metric cache are all
        derivable (and often huge), so a pickled snapshot is little more
        than three array views plus its trace — the representation the
        parallel runner counts on when shipping work to processes.
        """
        return {
            "trace": self.trace,
            "cutoff": self.cutoff,
            "index": self.index,
            "time": self.time,
            "eu": np.ascontiguousarray(self._eu),
            "ev": np.ascontiguousarray(self._ev),
            "et": np.ascontiguousarray(self._et),
            "node_ids": None if self._ids is None else np.ascontiguousarray(self._ids),
        }

    def __setstate__(self, state: dict) -> None:
        self._init_core(
            state["trace"],
            state["cutoff"],
            state["index"],
            state["time"],
            eu=state["eu"],
            ev=state["ev"],
            et=state["et"],
            node_ids=state["node_ids"],
        )

    def __repr__(self) -> str:
        return (
            f"Snapshot(index={self.index}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, time={self.time:.2f}d)"
        )


class SnapshotView(Snapshot):
    """A snapshot restricted to a node subset, preserving temporal access.

    Used for snowball-sampled evaluation (Section 5.1): metric and classifier
    features are computed among sampled nodes only, but idle times etc. still
    come from the full trace.
    """

    def __init__(self, base: Snapshot, nodes: set[int]) -> None:
        ids = np.asarray(sorted(nodes), dtype=np.int64).reshape(-1)
        present = _isin_sorted(ids, base.node_ids)
        if not present.all():
            raise ValueError(
                f"{int((~present).sum())} nodes not present in base snapshot"
            )
        keep = _isin_sorted(base._eu, ids) & _isin_sorted(base._ev, ids)
        self._init_core(
            base.trace,
            base.cutoff,
            base.index,
            base.time,
            eu=base._eu[keep],
            ev=base._ev[keep],
            et=base._et[keep],
            node_ids=ids,
        )


def snapshot_sequence(
    trace: TemporalGraph,
    delta: int,
    start: int | None = None,
    max_snapshots: int | None = None,
) -> list[Snapshot]:
    """Slice ``trace`` into snapshots separated by ``delta`` new edges.

    ``start`` is the edge count of the first snapshot; it defaults to
    ``delta`` (i.e. the first snapshot is the trace's first ``delta`` edges).
    Matching Table 2 of the paper, the caller picks ``delta`` so the sequence
    has enough snapshots (> 15) without making inter-snapshot gaps too long.

    A trailing partial snapshot (fewer than ``delta`` new edges) is dropped,
    keeping the "constant new edges per snapshot" invariant exact.

    Construction is amortised: the trace's stream index is built once and
    every snapshot is an O(1) trio of column views over it (per-snapshot
    CSR structure materialises lazily, on first adjacency/degree query).
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if start is None:
        start = delta
    if start <= 0:
        raise ValueError(f"start must be positive, got {start}")
    with telemetry.tracer.span(
        "snapshot.sequence", delta=delta, edges=trace.num_edges
    ) as span:
        if trace.num_edges:
            trace.stream_index()  # warm the shared remap table once
        cutoffs = range(start, trace.num_edges + 1, delta)
        snaps = [Snapshot(trace, c, index=i) for i, c in enumerate(cutoffs)]
        if max_snapshots is not None:
            snaps = snaps[:max_snapshots]
        span.set(snapshots=len(snaps))
    return snaps


def new_edges_between(previous: Snapshot, current: Snapshot) -> set[Pair]:
    """Ground truth for one prediction step.

    Returns the edges present in ``current`` but not in ``previous`` whose
    *both* endpoints already existed in ``previous`` — the paper's prediction
    target explicitly excludes edges created by nodes that join after ``t``.
    """
    if current.cutoff <= previous.cutoff:
        raise ValueError("current snapshot must extend the previous one")
    u, v, _ = current.trace.columns()
    eu = u[previous.cutoff : current.cutoff]
    ev = v[previous.cutoff : current.cutoff]
    known = _isin_sorted(eu, previous.node_ids) & _isin_sorted(ev, previous.node_ids)
    return set(zip(eu[known].tolist(), ev[known].tolist()))
