"""Timestamped, growing, undirected graphs.

A :class:`TemporalGraph` records the complete edge-creation history of a
network: an append-only stream of ``(u, v, t)`` events, exactly the shape of
the Facebook / Renren / YouTube traces the paper works from ("detailed
timestamps capture the time when specific edges were created").  Timestamps
are floats measured in *days* since the trace start.

The event stream is stored **columnar**: three parallel append-only columns
``u[]``, ``v[]``, ``t[]`` (exposed as contiguous NumPy arrays by
:meth:`TemporalGraph.columns`) plus a compact node-id remap table
(:meth:`TemporalGraph.stream_index`).  Snapshots are views over a stream
prefix, and the slicing/temporal queries below are ``searchsorted`` / slice
operations over the columns instead of per-event Python work.

The stream is the graph: besides the columns a trace keeps only a
pair -> creation-time index (duplicate rejection, :meth:`has_edge`,
:meth:`edge_time`) and each node's arrival time (the node set, including
nodes registered before their first edge).  Snapshots (Section 3.2) and the
temporal analysis of Section 6 (idle times, recent-edge counts,
common-neighbour arrival gaps, :mod:`repro.temporal.activity`) read the
columns directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.utils.pairs import Pair, canonical_pair


@dataclass(frozen=True)
class StreamIndex:
    """Compact node-id remap table over one trace's full event stream.

    Built once per trace (amortised over every snapshot of a sequence) and
    cached until new edges are appended:

    - ``node_ids`` — sorted unique node ids appearing in the stream;
    - ``eu`` / ``ev`` — the event columns remapped to dense indices into
      ``node_ids`` (so vectorised kernels never hash raw ids);
    - ``first_seen`` — per dense node id, the stream index of the event
      that introduced the node (the key that lets a snapshot at cutoff
      ``c`` recover its node set as ``first_seen < c`` without a scan).
    """

    node_ids: np.ndarray
    eu: np.ndarray
    ev: np.ndarray
    first_seen: np.ndarray


class TemporalGraph:
    """An undirected graph built from a time-ordered edge-creation stream.

    Edges must be appended in non-decreasing timestamp order, mirroring how a
    real trace is recorded.  Nodes are integers; a node exists from the
    moment its first edge is created (or from an explicit
    :meth:`add_node` call, modelling account creation before first link).
    """

    #: provenance of the load when this graph came from
    #: :func:`repro.ingest.load_trace` (an ``IngestReport``), else None.
    ingest_report = None

    def __init__(self) -> None:
        # Columnar event stream: parallel append buffers, canonical u < v.
        self._us: list[int] = []
        self._vs: list[int] = []
        self._ts: list[float] = []
        self._edge_times: dict[Pair, float] = {}
        # Node -> arrival time, in arrival order: the node set.
        self._node_arrival: dict[int, float] = {}
        # Lazily materialised column arrays / remap table, keyed by the
        # stream length they were built at (append invalidates by length).
        self._cols: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None
        self._cols_len: int = -1
        self._index: "StreamIndex | None" = None
        self._index_len: int = -1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: int, t: float = 0.0) -> None:
        """Register ``node`` as existing from time ``t`` (idempotent)."""
        self._node_arrival.setdefault(node, t)

    def add_edge(self, u: int, v: int, t: float) -> bool:
        """Append edge ``(u, v)`` created at time ``t``.

        Returns ``True`` if the edge was new, ``False`` if it already existed
        (duplicate events in a trace are ignored, as the paper's traces only
        record first creation).  Raises ``ValueError`` on out-of-order
        timestamps or self-loops.
        """
        if u == v:
            raise ValueError(f"self-loop ({u}, {u}) rejected")
        if self._ts and t < self._ts[-1]:
            raise ValueError(
                f"edge timestamps must be non-decreasing: got {t} after {self._ts[-1]}"
            )
        pair = canonical_pair(u, v)
        if pair in self._edge_times:
            return False
        self._node_arrival.setdefault(u, t)
        self._node_arrival.setdefault(v, t)
        self._us.append(pair[0])
        self._vs.append(pair[1])
        self._ts.append(t)
        self._edge_times[pair] = t
        return True

    @classmethod
    def from_stream(cls, stream: Iterable[tuple[int, int, float]]) -> "TemporalGraph":
        """Build a graph from an iterable of ``(u, v, t)`` events."""
        graph = cls()
        for u, v, t in stream:
            graph.add_edge(u, v, t)
        return graph

    @classmethod
    def from_columns(
        cls,
        u: np.ndarray,
        v: np.ndarray,
        t: np.ndarray,
        *,
        validated: bool = False,
    ) -> "TemporalGraph":
        """Build a graph directly from ``(u, v, t)`` event columns.

        With ``validated=False`` this is just :meth:`from_stream` on the
        zipped columns — every event goes through :meth:`add_edge`'s
        checks.  With ``validated=True`` the caller guarantees what the
        ingest pipeline (:func:`repro.ingest.load_trace`) establishes —
        times sorted non-decreasing, no self-loops, no duplicate pairs —
        and construction skips the per-event validation: endpoints are
        canonicalised vectorised, the column caches are seeded from the
        input arrays, and the pair index and arrivals are built without a
        per-event Python loop.  Violating the contract corrupts invariants
        that :func:`repro.graph.audit.audit_graph` exists to catch.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        t = np.asarray(t, dtype=np.float64)
        if not validated:
            return cls.from_stream(zip(u.tolist(), v.tolist(), t.tolist()))
        graph = cls()
        graph._load_columns(u, v, t)
        # Nodes arrive in first-appearance order (ties within one event
        # resolve to the smaller endpoint first), so ``nodes()`` lists them
        # in the order canonical ``add_edge`` calls would.
        index = graph.stream_index()
        first = index.first_seen
        second = index.eu[first] != np.arange(len(first))
        order = np.lexsort((second, first))
        graph._node_arrival = dict(
            zip(index.node_ids[order].tolist(), t[first[order]].tolist())
        )
        return graph

    def _load_columns(self, u: np.ndarray, v: np.ndarray, t: np.ndarray) -> None:
        """Load trusted columns and the pair index into a fresh graph;
        the caller sets the node arrivals."""
        us = np.minimum(u, v)
        vs = np.maximum(u, v)
        pu, pv, pt = us.tolist(), vs.tolist(), t.tolist()
        self._us, self._vs, self._ts = pu, pv, pt
        self._edge_times = dict(zip(zip(pu, pv), pt))
        cols = (
            np.ascontiguousarray(us),
            np.ascontiguousarray(vs),
            np.ascontiguousarray(t),
        )
        for arr in cols:
            arr.flags.writeable = False
        self._cols = cols
        self._cols_len = len(pu)

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The event stream as contiguous ``(u, v, t)`` column arrays.

        Rebuilt lazily only when edges were appended since the last call;
        the returned arrays are read-only so snapshot views can alias them
        safely (appends never mutate an already-built prefix).
        """
        n = len(self._us)
        if self._cols is None or self._cols_len != n:
            u = np.asarray(self._us, dtype=np.int64)
            v = np.asarray(self._vs, dtype=np.int64)
            t = np.asarray(self._ts, dtype=np.float64)
            for arr in (u, v, t):
                arr.flags.writeable = False
            self._cols = (u, v, t)
            self._cols_len = n
        return self._cols

    def stream_index(self) -> StreamIndex:
        """Cached :class:`StreamIndex` over the current stream.

        One O(E log E) vectorised pass shared by every snapshot built on
        this trace — the amortisation that makes ``snapshot_sequence``
        O(E + Σ nnz) instead of restarting from event 0 per snapshot.
        """
        n = len(self._us)
        if self._index is None or self._index_len != n:
            u, v, _ = self.columns()
            node_ids = np.unique(np.concatenate((u, v)))
            eu = np.searchsorted(node_ids, u)
            ev = np.searchsorted(node_ids, v)
            first_seen = np.full(len(node_ids), n, dtype=np.int64)
            order = np.arange(n, dtype=np.int64)
            np.minimum.at(first_seen, eu, order)
            np.minimum.at(first_seen, ev, order)
            for arr in (node_ids, eu, ev, first_seen):
                arr.flags.writeable = False
            self._index = StreamIndex(node_ids, eu, ev, first_seen)
            self._index_len = n
        return self._index

    def _install_stream_caches(
        self,
        cols: "tuple[np.ndarray, np.ndarray, np.ndarray]",
        index: StreamIndex,
    ) -> None:
        """Install externally maintained column / index caches.

        The delta engine (:mod:`repro.graph.delta`) patches the column
        arrays and :class:`StreamIndex` incrementally per batch; this hook
        lets it hand the results back so :meth:`columns` and
        :meth:`stream_index` serve them instead of rebuilding from the raw
        lists.  Lengths must match the current stream — the caches are
        keyed by stream length, so a stale install would silently poison
        every snapshot built afterwards.
        """
        n = len(self._us)
        if any(len(arr) != n for arr in cols):
            raise ValueError(
                f"column cache length mismatch: stream has {n} events"
            )
        if len(index.eu) != n or len(index.ev) != n:
            raise ValueError(
                f"stream index length mismatch: stream has {n} events"
            )
        if len(index.node_ids) != len(index.first_seen):
            raise ValueError("node_ids and first_seen lengths differ")
        self._cols = cols
        self._cols_len = n
        self._index = index
        self._index_len = n

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._node_arrival)

    @property
    def num_edges(self) -> int:
        return len(self._us)

    @property
    def start_time(self) -> float:
        """Timestamp of the first edge (0.0 for an empty graph)."""
        return self._ts[0] if self._ts else 0.0

    @property
    def end_time(self) -> float:
        """Timestamp of the last edge (0.0 for an empty graph)."""
        return self._ts[-1] if self._ts else 0.0

    def nodes(self) -> Iterator[int]:
        return iter(self._node_arrival)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over ``(u, v, t)`` events in creation order."""
        return zip(self._us, self._vs, self._ts)

    def has_node(self, node: int) -> bool:
        return node in self._node_arrival

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_pair(u, v) in self._edge_times

    def node_arrival_time(self, node: int) -> float:
        """Time the node entered the network."""
        return self._node_arrival[node]

    def edge_time(self, u: int, v: int) -> float:
        """Creation time of an existing edge."""
        pair = canonical_pair(u, v)
        try:
            return self._edge_times[pair]
        except KeyError:
            raise KeyError(f"edge {pair} not in graph") from None

    # ------------------------------------------------------------------
    # Slicing
    # ------------------------------------------------------------------
    def edge_index_at_time(self, t: float) -> int:
        """Number of edges created at or before time ``t``.

        A binary search over the cached time column — O(log E) after the
        first call instead of rebuilding a timestamp list per query.
        """
        _, _, times = self.columns()
        return int(np.searchsorted(times, t, side="right"))

    def prefix(self, num_edges: int) -> "TemporalGraph":
        """Return a new graph containing only the first ``num_edges`` events."""
        if not 0 <= num_edges <= len(self._us):
            raise ValueError(
                f"num_edges must be in [0, {len(self._us)}], got {num_edges}"
            )
        return TemporalGraph.from_stream(
            zip(self._us[:num_edges], self._vs[:num_edges], self._ts[:num_edges])
        )

    def edge_slice(self, start: int, stop: int) -> list[tuple[int, int, float]]:
        """Events with stream indices in ``[start, stop)``."""
        return list(zip(self._us[start:stop], self._vs[start:stop], self._ts[start:stop]))

    def copy(self) -> "TemporalGraph":
        clone = TemporalGraph()
        clone._load_columns(*self.columns())
        # Isolated nodes, explicit arrival times and node order.
        clone._node_arrival = dict(self._node_arrival)
        return clone

    # ------------------------------------------------------------------
    # Pickling (worker transport)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Ship only the event columns plus the node arrivals.

        The pair index is derivable from the stream, so excluding it
        makes worker pickles a fraction of the naive size; it is rebuilt
        on load.  The arrivals keep isolated nodes and the node order.
        """
        return {
            "stream": (
                np.asarray(self._us, dtype=np.int64),
                np.asarray(self._vs, dtype=np.int64),
                np.asarray(self._ts, dtype=np.float64),
            ),
            "node_arrival": dict(self._node_arrival),
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        us, vs, ts = state["stream"]
        # The pickled stream came from a live graph, so the validated
        # contract (sorted, loop-free, duplicate-free) holds and the
        # column loader can rebuild the pair index.
        self._load_columns(
            np.asarray(us, dtype=np.int64),
            np.asarray(vs, dtype=np.int64),
            np.asarray(ts, dtype=np.float64),
        )
        self._node_arrival = state["node_arrival"]

    def __contains__(self, node: int) -> bool:
        return node in self._node_arrival

    def __repr__(self) -> str:
        return (
            f"TemporalGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"span=[{self.start_time:.2f}, {self.end_time:.2f}] days)"
        )
