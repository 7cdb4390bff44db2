"""Incremental delta engine over the columnar temporal core.

The paper evaluates on static prefix snapshots, but its central empirical
observation — new edges form almost entirely inside the 2-hop neighbourhood
of recently active nodes (Sections 4.2 and 6) — is exactly the locality
that makes *incremental* maintenance cheap.  :class:`DeltaGraph` wraps a
:class:`~repro.graph.dyngraph.TemporalGraph` and, per applied edge batch,
updates every derived columnar structure in place instead of rebuilding:

- the ``u``/``v``/``t`` event columns and the :class:`StreamIndex` remap
  (``node_ids``, dense endpoint columns, ``first_seen``), re-installed into
  the trace's caches so plain :class:`~repro.graph.snapshots.Snapshot`
  construction never re-derives them;
- CSR adjacency and degree columns, repaired only for the touched rows;
- the number of triangles through each node.  Every triangle belongs to
  its latest edge in the stream, so one array pass per batch finds each
  new triangle exactly once: from each new edge, walk the earlier edges
  of its lower-degree end and probe the CSR keys for the closing edge.

That is all the engine keeps: ``O(nodes + edges)`` state, so a write
costs what it touches.  ``DeltaGraph(trace)`` (and unpickling, which
rebuilds) is the first write: the empty engine absorbs the whole stream
as one batch through the same code :meth:`DeltaGraph.apply` runs, so the
build runs no candidate enumeration.

``materialize()`` returns a snapshot **byte-identical** to a full rebuild
at the same cutoff — columns, CSR structure, candidate enumeration order,
and metric scores.  It installs only what a served read uses: the
structure columns and the triangle counts the BCN/BAA/BRA role function
reads (exact integers: every float64 in ``diag(A^3) / 2`` is an integer
below 2^53).  Every metric, CN included, scores on the materialised
snapshot through the same kernels as the batch path
(:mod:`repro.metrics.kernels`), on candidates it enumerates itself.
``tests/test_delta_equivalence.py`` enforces this on randomized streams.

The adjacency is keyed by packed ``row * S + col``
position keys (:data:`~repro.utils.pairs.PAIR_POSITION_SHIFT`): integer
keys sort exactly like row-major ``(row, col)`` tuples, and because node
insertion remaps positions *monotonically*, patching the key array after
new nodes arrive is a decode / gather / re-encode — never a re-sort.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.graph.dyngraph import StreamIndex, TemporalGraph
from repro.graph.snapshots import Snapshot, _isin_sorted
from repro.metrics.kernels import block_pair_limit
from repro.utils.pairs import (
    PAIR_POSITION_SHIFT,
    decode_position_pairs,
    encode_position_pairs,
)

@dataclass(frozen=True)
class DeltaReport:
    """Outcome of one :meth:`DeltaGraph.apply` batch."""

    #: edges actually inserted into the stream.
    applied: int
    #: events skipped because the pair already existed.
    duplicates: int
    #: events skipped because ``u == v``.
    self_loops: int
    #: node ids first seen in this batch.
    new_nodes: int


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _triangle_corners(
    adj_keys: np.ndarray, key_order: np.ndarray, deg: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """The corners of every triangle the new edges ``(a[i], b[i])`` close.

    The array form of inserting the edges one at a time: a triangle
    belongs to its latest edge, so new edge ``i`` closes the triangles
    ``(a[i], b[i], w)`` whose other two edges both precede it in the
    stream (old, or earlier in the batch).  It walks the row of its
    lower-degree end, keeping the edges before ``i``, and probes each
    neighbour ``w`` as the key ``(other end, w)`` with one
    ``searchsorted`` over ``adj_keys``; each hit whose probed edge also
    precedes ``i`` is one triangle, found once.  ``adj_keys`` and ``deg``
    already include the batch; ``key_order`` gives each key's index in
    the batch, -1 for an older edge.  Returns the three corners of each
    triangle, concatenated.  The walk runs in blocks of
    :func:`~repro.metrics.kernels.block_pair_limit` steps.
    """
    swap = deg[a] > deg[b]
    low, high = np.where(swap, b, a), np.where(swap, a, b)
    lens = deg[low]
    starts = np.cumsum(lens) - lens
    # walk step j of edge k reads adj_keys[row start of low[k] + j - starts[k]]
    shift = np.searchsorted(adj_keys, encode_position_pairs(low, 0)) - starts
    last = len(adj_keys) - 1
    parts = [np.zeros(0, dtype=np.int64)]
    limit = block_pair_limit()
    lo = 0
    while lo < len(a):
        hi = max(int(np.searchsorted(starts, starts[lo] + limit, side="right")), lo + 1)
        owner = np.repeat(np.arange(lo, hi), lens[lo:hi])
        slot = np.arange(starts[lo], starts[lo] + len(owner)) + shift[owner]
        earlier = key_order[slot] < owner
        owner = owner[earlier]
        w = adj_keys[slot[earlier]] & (PAIR_POSITION_SHIFT - 1)
        probe = encode_position_pairs(high[owner], w)
        at = np.minimum(np.searchsorted(adj_keys, probe), last)
        closed = (adj_keys[at] == probe) & (key_order[at] < owner)
        owner = owner[closed]
        parts.append(np.concatenate((low[owner], high[owner], w[closed])))
        lo = hi
    return np.concatenate(parts)


class DeltaGraph:
    """Incrementally maintained columnar state over a growing trace.

    All positional arrays live in the dense position space of the sorted
    ``_node_ids`` table; ``_adj_keys`` holds the *doubled* adjacency as
    sorted packed keys (one ``row*S+col`` per direction — exactly the CSR
    ``indices`` column with its ``indptr`` implied by ``cumsum(_deg)``),
    ``_deg`` the degrees and ``_tri`` the triangles through each node;
    no array is sized by the candidate set.  One code path,
    :meth:`_absorb`, builds and updates them all: the build is the empty
    engine's first write.  The graph-integrity auditor
    (:func:`repro.graph.audit.audit_delta`) recomputes every one of these
    structures from the event columns and cross-checks them.
    """

    def __init__(self, trace: "TemporalGraph | None" = None) -> None:
        self.trace = trace if trace is not None else TemporalGraph()
        self._rebuild_from_trace()

    def _rebuild_from_trace(self) -> None:
        """Derive every maintained structure from the wrapped trace.

        Starts from the empty engine and absorbs the whole stream as one
        batch (:meth:`_absorb`, the code every :meth:`apply` runs after
        inserting its events), so no candidate enumeration or
        common-neighbour expansion runs.  From here on :meth:`apply` keeps
        the state current without ever rebuilding.
        """
        empty = _frozen(np.zeros(0, dtype=np.int64))
        self._cu = self._cv = empty
        self._ct = _frozen(np.zeros(0, dtype=np.float64))
        self._node_ids = self._eu = self._ev = self._first_seen = empty
        self._deg = np.zeros(0, dtype=np.int64)
        self._tri = np.zeros(0, dtype=np.int64)
        self._adj_keys = np.zeros(0, dtype=np.int64)
        self._absorb(0)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._node_ids)

    @property
    def num_edges(self) -> int:
        return len(self._ct)

    def __repr__(self) -> str:
        return f"DeltaGraph(nodes={self.num_nodes}, edges={self.num_edges})"

    def _check_in_sync(self) -> None:
        if len(self._ct) != self.trace.num_edges:
            raise RuntimeError(
                "wrapped trace was modified outside the DeltaGraph; "
                "construct a fresh DeltaGraph(trace) to resynchronise"
            )

    # ------------------------------------------------------------------
    # apply()
    # ------------------------------------------------------------------
    def apply(self, batch: Iterable[tuple[int, int, float]]) -> DeltaReport:
        """Insert an edge batch and update every maintained structure.

        Self-loops and duplicate pairs in the stream are skipped (and
        counted in the report); timestamps must be finite, non-negative,
        and non-decreasing across the surviving events — validated for the
        whole batch *before* any mutation, so a bad batch never leaves the
        engine half-applied.
        """
        events = [(int(u), int(v), float(t)) for u, v, t in batch]
        if telemetry.tracer.enabled:
            with telemetry.tracer.span("delta.apply", events=len(events)) as span:
                report = self._apply(events)
                span.set(applied=report.applied, new_nodes=report.new_nodes)
        else:
            report = self._apply(events)
        if telemetry.metrics.enabled:
            telemetry.metrics.counter("delta.edges_applied").inc(report.applied)
            telemetry.metrics.counter("delta.edges_skipped").inc(
                report.duplicates + report.self_loops
            )
        return report

    def _apply(self, events: "list[tuple[int, int, float]]") -> DeltaReport:
        trace = self.trace
        self._check_in_sync()
        # All-or-nothing validation before the first mutation.
        last = trace.end_time if trace.num_edges else None
        for u, v, t in events:
            if not math.isfinite(t) or t < 0:
                raise ValueError(f"timestamp {t!r} is not finite and non-negative")
            if u == v:
                continue
            if last is not None and t < last:
                raise ValueError(
                    f"edge timestamps must be non-decreasing: got {t} after {last}"
                )
            last = t

        start_edges = trace.num_edges
        duplicates = self_loops = 0
        for u, v, t in events:
            if u == v:
                self_loops += 1
            elif not trace.add_edge(u, v, t):
                duplicates += 1
        applied = trace.num_edges - start_edges
        new_nodes = self._absorb(start_edges) if applied else 0
        return DeltaReport(
            applied=applied,
            duplicates=duplicates,
            self_loops=self_loops,
            new_nodes=new_nodes,
        )

    def _absorb(self, start_edges: int) -> int:
        """Patch every maintained structure for the trace's events from
        ``start_edges`` on, install the trace-level caches, and return
        the number of node ids they introduce.

        The one update path: :meth:`apply` runs it after inserting its
        events, and the build runs it on the empty engine for the whole
        stream.
        """
        trace = self.trace
        end_edges = trace.num_edges
        new_u = np.asarray(trace._us[start_edges:end_edges], dtype=np.int64)
        new_v = np.asarray(trace._vs[start_edges:end_edges], dtype=np.int64)
        new_t = np.asarray(trace._ts[start_edges:end_edges], dtype=np.float64)
        self._cu = _frozen(np.concatenate((self._cu, new_u)))
        self._cv = _frozen(np.concatenate((self._cv, new_v)))
        self._ct = _frozen(np.concatenate((self._ct, new_t)))

        batch_ids = np.unique(np.concatenate((new_u, new_v)))
        fresh = batch_ids[~_isin_sorted(batch_ids, self._node_ids)]
        old_count = len(self._node_ids)
        adj_keys = self._adj_keys
        if len(fresh):
            insert_at = np.searchsorted(self._node_ids, fresh)
            node_ids = np.insert(self._node_ids, insert_at, fresh)
            if len(node_ids) >= PAIR_POSITION_SHIFT:
                raise ValueError(
                    f"node table too large for packed pair keys "
                    f"({len(node_ids)} >= 2^31)"
                )
            deg = np.insert(self._deg, insert_at, 0)
            tri = np.insert(self._tri, insert_at, 0)
        else:
            node_ids = self._node_ids
            deg, tri = self._deg, self._tri
        # A new id below the old maximum shifts the positions after it.
        # They shift monotonically, so gathering through the old->new map
        # patches dense columns and packed keys while preserving their
        # sort order — no re-sort anywhere.  Ids past the old maximum (the
        # usual case) move nothing.
        old_positions = None
        eu, ev = self._eu, self._ev
        if len(fresh) and insert_at[0] < old_count:
            old_positions = np.searchsorted(node_ids, self._node_ids)
            eu, ev = old_positions[eu], old_positions[ev]
            r, c = decode_position_pairs(adj_keys)
            adj_keys = encode_position_pairs(old_positions[r], old_positions[c])

        count = len(node_ids)
        batch_eu = np.searchsorted(node_ids, new_u)
        batch_ev = np.searchsorted(node_ids, new_v)
        eu = _frozen(np.concatenate((eu, batch_eu)))
        ev = _frozen(np.concatenate((ev, batch_ev)))

        # first_seen: scatter the old table, then fold in batch positions.
        first_seen = np.full(count, end_edges, dtype=np.int64)
        if old_count:
            if old_positions is None:
                first_seen[:old_count] = self._first_seen
            else:
                first_seen[old_positions] = self._first_seen
        batch_order = np.arange(start_edges, end_edges, dtype=np.int64)
        np.minimum.at(first_seen, batch_eu, batch_order)
        np.minimum.at(first_seen, batch_ev, batch_order)
        first_seen = _frozen(first_seen)

        np.add.at(deg, batch_eu, 1)
        np.add.at(deg, batch_ev, 1)

        # CSR repair: splice both directions of each new edge into the
        # sorted key array — only the touched rows move — and note each
        # new key's index in the batch (-1 for older edges).  The event
        # columns hold canonical pairs and positions follow id order, so
        # batch_eu < batch_ev.
        new_keys = encode_position_pairs(batch_eu, batch_ev)
        added = np.concatenate((new_keys, encode_position_pairs(batch_ev, batch_eu)))
        added_order = np.argsort(added)
        added = added[added_order]
        at = np.searchsorted(adj_keys, added)
        adj_keys = np.insert(adj_keys, at, added)
        key_order = np.full(len(adj_keys), -1)
        key_order[at + np.arange(len(added))] = added_order % len(new_keys)

        corners = _triangle_corners(adj_keys, key_order, deg, batch_eu, batch_ev)
        tri += np.bincount(corners, minlength=count)

        # Commit and re-install the trace-level caches so every Snapshot
        # built on this trace sees the incrementally maintained columns.
        self._node_ids = _frozen(node_ids) if len(fresh) else node_ids
        self._eu, self._ev, self._first_seen = eu, ev, first_seen
        self._deg, self._tri = deg, tri
        self._adj_keys = adj_keys
        trace._install_stream_caches(
            (self._cu, self._cv, self._ct),
            StreamIndex(self._node_ids, eu, ev, first_seen),
        )
        return len(fresh)

    def _csr_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Maintained CSR ``(indptr, indices)`` over node positions."""
        indptr = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(self._deg, dtype=np.int64))
        )
        return indptr, decode_position_pairs(self._adj_keys)[1]

    # ------------------------------------------------------------------
    # materialize()
    # ------------------------------------------------------------------
    def materialize(self) -> Snapshot:
        """A full-cutoff snapshot carrying what a served read uses.

        Byte-identical to ``Snapshot(rebuilt_trace, num_edges)`` plus the
        lazily built caches it installs: node table, position columns,
        CSR adjacency, degrees, and the per-node triangle counts
        (``triangles``, as
        :func:`~repro.metrics.kernels.node_triangle_counts` returns them).
        Everything else, the candidate arrays included, the snapshot
        builds on first use exactly as a rebuilt one would; a read
        enumerates only its node's neighbourhood.
        """
        self._check_in_sync()
        if self.num_edges == 0:
            raise ValueError("cannot materialize a snapshot of an empty stream")
        if telemetry.tracer.enabled:
            with telemetry.tracer.span(
                "delta.materialize", nodes=self.num_nodes, edges=self.num_edges
            ):
                snapshot = self._materialize()
            telemetry.metrics.counter("delta.materializations").inc()
            return snapshot
        return self._materialize()

    def _materialize(self) -> Snapshot:
        snapshot = Snapshot(self.trace, self.num_edges)
        snapshot._ids = self._node_ids
        snapshot._iu = self._eu
        snapshot._iv = self._ev
        indptr, indices = self._csr_parts()
        snapshot._indptr = indptr
        snapshot._indices = indices
        snapshot._deg = self._deg.copy()
        snapshot.cache["triangles"] = _frozen(self._tri.astype(np.float64))
        return snapshot

    # ------------------------------------------------------------------
    # Audit / pickling
    # ------------------------------------------------------------------
    def audit(self):
        """Run the 11 core invariants plus the 4 delta-structure checks."""
        from repro.graph.audit import audit_delta

        return audit_delta(self)

    def __getstate__(self) -> dict:
        # The trace's compact stream pickle is the whole state; every
        # maintained array is re-derived (bitwise) on load.
        return {"trace": self.trace}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["trace"])

