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
- CSR adjacency, degree, and last-activity columns, repaired only for the
  touched rows;
- the unconnected 2-hop candidate set with exact common-neighbour counts,
  maintained in ``O(deg(u) + deg(v))`` bump work per inserted edge;
- the number of triangles through each node: an inserted edge ``(a, b)``
  closes one triangle per common neighbour ``z``, found by the same walk
  that collects the candidate bumps.

``materialize()`` returns a snapshot **byte-identical** to a full rebuild
at the same cutoff — columns, CSR structure, candidate enumeration order,
and metric scores.  CN is served from the maintained counts and the
BCN/BAA/BRA role function reads the maintained triangle counts; both are
exact integers (every float64 in ``A @ A`` or ``diag(A^3) / 2`` is an
integer below 2^53).  Every other metric, AA and RA included, scores on
the materialised snapshot through the same kernels as the batch path
(:mod:`repro.metrics.kernels`).  ``tests/test_delta_equivalence.py``
enforces this on randomized streams.

Candidate pairs are keyed by packed ``row * S + col``
position keys (:data:`~repro.utils.pairs.PAIR_POSITION_SHIFT`): integer
keys sort exactly like row-major ``(row, col)`` tuples, and because node
insertion remaps positions *monotonically*, patching a key array after new
nodes arrive is a decode / gather / re-encode — never a re-sort.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.graph.dyngraph import StreamIndex, TemporalGraph
from repro.graph.snapshots import Snapshot, _isin_sorted
from repro.utils.pairs import (
    PAIR_POSITION_SHIFT,
    Pair,
    canonical_pair,
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
    #: size of the maintained unconnected 2-hop candidate set.
    candidates: int


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class DeltaGraph:
    """Incrementally maintained columnar state over a growing trace.

    All positional arrays live in the dense position space of the sorted
    ``_node_ids`` table; ``_adj_keys`` holds the *doubled* adjacency as
    sorted packed keys (one ``row*S+col`` per direction — exactly the CSR
    ``indices`` column with its ``indptr`` implied by ``cumsum(_deg)``),
    ``_cand_keys``/``_cand_cn`` the sorted unconnected 2-hop pairs
    with exact common-neighbour counts, and ``_tri`` the triangles through
    each node.  The graph-integrity auditor
    (:func:`repro.graph.audit.audit_delta`) recomputes every one of these
    structures from the event columns and cross-checks them.
    """

    def __init__(self, trace: "TemporalGraph | None" = None) -> None:
        self.trace = trace if trace is not None else TemporalGraph()
        self._rebuild_from_trace()

    # ------------------------------------------------------------------
    # Initial build (vectorised, reuses the batch machinery once)
    # ------------------------------------------------------------------
    def _rebuild_from_trace(self) -> None:
        """Derive every maintained structure from the wrapped trace.

        Runs the proven batch kernels (stream index, common-neighbour expansion)
        exactly once; from here on :meth:`apply` keeps the state current
        without ever rebuilding.
        """
        trace = self.trace
        num_edges = trace.num_edges
        self._cu, self._cv, self._ct = trace.columns()
        empty_i = _frozen(np.zeros(0, dtype=np.int64))
        if num_edges == 0:
            self._node_ids = empty_i
            self._eu = empty_i
            self._ev = empty_i
            self._first_seen = empty_i
            self._deg = np.zeros(0, dtype=np.int64)
            self._tri = np.zeros(0, dtype=np.int64)
            self._last_active = np.zeros(0, dtype=np.float64)
            self._adj_keys = np.zeros(0, dtype=np.int64)
            self._cand_keys = np.zeros(0, dtype=np.int64)
            self._cand_cn = np.zeros(0, dtype=np.int64)
            return
        index = trace.stream_index()
        if len(index.node_ids) >= PAIR_POSITION_SHIFT:
            raise ValueError(
                f"node table too large for packed pair keys "
                f"({len(index.node_ids)} >= 2^31)"
            )
        self._node_ids = index.node_ids
        self._eu = index.eu
        self._ev = index.ev
        self._first_seen = index.first_seen
        n = len(index.node_ids)
        doubled_rows = np.concatenate((index.eu, index.ev))
        doubled_cols = np.concatenate((index.ev, index.eu))
        self._adj_keys = np.sort(encode_position_pairs(doubled_rows, doubled_cols))
        self._deg = np.bincount(doubled_rows, minlength=n).astype(np.int64)
        last = np.full(n, -np.inf)
        np.maximum.at(last, index.eu, self._ct)
        np.maximum.at(last, index.ev, self._ct)
        self._last_active = last
        # Candidate set + exact CN counts via the kernel expansion, in
        # chunks that bound its working set; no A^2 is materialised.
        from repro.metrics.base import pairs_to_indices
        from repro.metrics.candidates import two_hop_pairs
        from repro.metrics.kernels import (
            block_pair_limit,
            common_neighbor_expansion,
            intersection_counts,
            node_triangle_counts,
        )

        snap = Snapshot(trace, num_edges)
        self._tri = node_triangle_counts(snap).astype(np.int64)
        pairs = two_hop_pairs(snap)
        rows, cols = pairs_to_indices(snap, pairs)
        self._cand_keys = encode_position_pairs(rows, cols)
        indptr, indices = snap.csr_structure()
        limit = block_pair_limit()
        cn_parts = [np.zeros(0, dtype=np.int64)]
        for start in range(0, len(rows), limit):
            r = rows[start : start + limit]
            c = cols[start : start + limit]
            pair_ids, _, _, _ = common_neighbor_expansion(
                indptr, indices, r, c, adj_keys=self._adj_keys
            )
            cn_parts.append(intersection_counts(pair_ids, len(r)).astype(np.int64))
        self._cand_cn = np.concatenate(cn_parts)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._node_ids)

    @property
    def num_edges(self) -> int:
        return len(self._ct)

    @property
    def num_candidates(self) -> int:
        return len(self._cand_keys)

    def __repr__(self) -> str:
        return (
            f"DeltaGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"candidates={self.num_candidates})"
        )

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
            if not np.isfinite(t) or t < 0:
                raise ValueError(f"timestamp {t!r} is not finite and non-negative")
            if u == v:
                continue
            if last is not None and t < last:
                raise ValueError(
                    f"edge timestamps must be non-decreasing: got {t} after {last}"
                )
            last = t

        # -- phase 1: stream insertion + CN and triangle bump collection --
        # Bumps are gathered against the *live* dict adjacency before each
        # insertion (a new edge (u, v) creates a 2-path u-v-x per existing
        # neighbour x of v, and v-u-x per neighbour x of u).  A neighbour
        # x of b whose pair (a, x) is already an edge is a common neighbour
        # z: the new edge closes the triangle (a, b, z).
        start_edges = trace.num_edges
        pending: dict[Pair, int] = {}
        closed: dict[int, int] = {}
        removed: list[Pair] = []
        duplicates = self_loops = 0
        adj = trace._adj
        edge_times = trace._edge_times
        for u, v, t in events:
            if u == v:
                self_loops += 1
                continue
            pair = canonical_pair(u, v)
            if pair in edge_times:
                duplicates += 1
                continue
            a, b = pair
            common = 0
            for x in adj.get(b, ()):
                if x != a:
                    p = canonical_pair(a, x)
                    if p not in edge_times:
                        pending[p] = pending.get(p, 0) + 1
                    else:
                        closed[x] = closed.get(x, 0) + 1
                        common += 1
            if common:
                closed[a] = closed.get(a, 0) + common
                closed[b] = closed.get(b, 0) + common
            for x in adj.get(a, ()):
                if x != b:
                    p = canonical_pair(b, x)
                    if p not in edge_times:
                        pending[p] = pending.get(p, 0) + 1
            # The pair stops being a candidate the moment it becomes an edge.
            pending.pop(pair, None)
            removed.append(pair)
            trace.add_edge(u, v, t)

        end_edges = trace.num_edges
        if end_edges == start_edges:
            return DeltaReport(
                applied=0,
                duplicates=duplicates,
                self_loops=self_loops,
                new_nodes=0,
                candidates=len(self._cand_keys),
            )

        # -- phase 2: vectorised column / index / structure patching ------
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
        cand_keys = self._cand_keys
        if len(fresh):
            insert_at = np.searchsorted(self._node_ids, fresh)
            node_ids = np.insert(self._node_ids, insert_at, fresh)
            if len(node_ids) >= PAIR_POSITION_SHIFT:
                raise ValueError(
                    f"node table too large for packed pair keys "
                    f"({len(node_ids)} >= 2^31)"
                )
            # Positions shift monotonically, so gathering through the
            # old->new map patches dense columns and packed keys while
            # preserving their sort order — no re-sort anywhere.
            old_to_new = np.searchsorted(node_ids, self._node_ids)
            eu = old_to_new[self._eu]
            ev = old_to_new[self._ev]
            if len(adj_keys):
                r, c = decode_position_pairs(adj_keys)
                adj_keys = encode_position_pairs(old_to_new[r], old_to_new[c])
            if len(cand_keys):
                r, c = decode_position_pairs(cand_keys)
                cand_keys = encode_position_pairs(old_to_new[r], old_to_new[c])
            deg = np.insert(self._deg, insert_at, 0)
            tri = np.insert(self._tri, insert_at, 0)
            last_active = np.insert(self._last_active, insert_at, -np.inf)
            old_positions = old_to_new
        else:
            node_ids = self._node_ids
            eu, ev = self._eu, self._ev
            deg, tri, last_active = self._deg, self._tri, self._last_active
            old_positions = None

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
        np.maximum.at(last_active, batch_eu, new_t)
        np.maximum.at(last_active, batch_ev, new_t)
        if closed:
            tri_ids = np.fromiter(closed.keys(), dtype=np.int64, count=len(closed))
            tri[np.searchsorted(node_ids, tri_ids)] += np.fromiter(
                closed.values(), dtype=np.int64, count=len(closed)
            )

        # CSR repair: splice both directions of each new edge into the
        # sorted key array — only the touched rows move.
        added = np.concatenate(
            (
                encode_position_pairs(batch_eu, batch_ev),
                encode_position_pairs(batch_ev, batch_eu),
            )
        )
        added.sort()
        adj_keys = np.insert(adj_keys, np.searchsorted(adj_keys, added), added)

        # Candidate set: drop pairs that just became edges, then apply the
        # collected CN bumps.
        cand_cn = self._cand_cn
        if removed:
            removed_arr = np.asarray(removed, dtype=np.int64)
            removed_keys = encode_position_pairs(
                np.searchsorted(node_ids, removed_arr[:, 0]),
                np.searchsorted(node_ids, removed_arr[:, 1]),
            )
            pos = np.searchsorted(cand_keys, removed_keys)
            safe = np.minimum(pos, max(len(cand_keys) - 1, 0))
            member = (
                (pos < len(cand_keys)) & (cand_keys[safe] == removed_keys)
                if len(cand_keys)
                else np.zeros(len(removed_keys), dtype=bool)
            )
            drop = pos[member]
            if len(drop):
                cand_keys = np.delete(cand_keys, drop)
                cand_cn = np.delete(cand_cn, drop)
        if pending:
            pend_arr = np.asarray(list(pending.keys()), dtype=np.int64)
            pend_delta = np.asarray(list(pending.values()), dtype=np.int64)
            pend_keys = encode_position_pairs(
                np.searchsorted(node_ids, pend_arr[:, 0]),
                np.searchsorted(node_ids, pend_arr[:, 1]),
            )
            order = np.argsort(pend_keys)
            pend_keys, pend_delta = pend_keys[order], pend_delta[order]
            pos = np.searchsorted(cand_keys, pend_keys)
            safe = np.minimum(pos, max(len(cand_keys) - 1, 0))
            member = (
                (pos < len(cand_keys)) & (cand_keys[safe] == pend_keys)
                if len(cand_keys)
                else np.zeros(len(pend_keys), dtype=bool)
            )
            bump_at = pos[member]
            cand_cn[bump_at] += pend_delta[member]
            enter_keys = pend_keys[~member]
            if len(enter_keys):
                enter_at = np.searchsorted(cand_keys, enter_keys)
                cand_keys = np.insert(cand_keys, enter_at, enter_keys)
                cand_cn = np.insert(cand_cn, enter_at, pend_delta[~member])

        # Commit and re-install the trace-level caches so every Snapshot
        # built on this trace sees the incrementally maintained columns.
        self._node_ids = _frozen(node_ids) if len(fresh) else node_ids
        self._eu, self._ev, self._first_seen = eu, ev, first_seen
        self._deg, self._tri, self._last_active = deg, tri, last_active
        self._adj_keys = adj_keys
        self._cand_keys, self._cand_cn = cand_keys, cand_cn
        self.trace._install_stream_caches(
            (self._cu, self._cv, self._ct),
            StreamIndex(self._node_ids, eu, ev, first_seen),
        )
        return DeltaReport(
            applied=end_edges - start_edges,
            duplicates=duplicates,
            self_loops=self_loops,
            new_nodes=len(fresh),
            candidates=len(cand_keys),
        )

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
        """A full-cutoff snapshot seeded entirely from maintained state.

        Byte-identical to ``Snapshot(rebuilt_trace, num_edges)`` plus its
        lazily built structure and metric caches: node table, position
        columns, CSR adjacency, candidate enumeration (``pairs_two_hop``),
        the CN counts, the per-node triangle counts (``triangles``, as
        :func:`~repro.metrics.kernels.node_triangle_counts` returns them),
        and the vectorised idle-time column.  The
        candidates go over as the engine's packed keys, validated (a
        corrupted array raises here) and decoded once by
        :func:`~repro.metrics.candidates.seed_candidate_cache`.
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
        from repro.metrics.candidates import seed_candidate_cache
        from repro.metrics.local import DELTA_SCORES_KEY

        seed_candidate_cache(snapshot, self._cand_keys)
        snapshot.cache[DELTA_SCORES_KEY] = {
            "keys": self._cand_keys.copy(),
            "CN": self._cand_cn.astype(np.float64),
        }
        snapshot.cache["triangles"] = _frozen(self._tri.astype(np.float64))
        # now - last is exactly the activity kernel's subtraction; every
        # stream node has an edge at or before the snapshot time, so the
        # never-active fallback cannot trigger at full cutoff.
        snapshot.cache["node_idle_times"] = snapshot.time - self._last_active
        return snapshot

    # ------------------------------------------------------------------
    # Audit / pickling
    # ------------------------------------------------------------------
    def audit(self):
        """Run the 12 core invariants plus the delta-structure checks."""
        from repro.graph.audit import audit_delta

        return audit_delta(self)

    def __getstate__(self) -> dict:
        # The trace's compact stream pickle is the whole state; every
        # maintained array is re-derived (bitwise) on load.
        return {"trace": self.trace}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["trace"])

