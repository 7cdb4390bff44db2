"""Equivalence suite for the columnar array-backed core.

Every query the columnar ``TemporalGraph`` / ``Snapshot`` stack answers with
``searchsorted`` / CSR / scatter kernels is checked here against an
independent dict-of-sets reference implementation built edge-by-edge from
the same hypothesis-generated stream — adjacency, degrees, candidate
enumeration, temporal activity, snapshot deltas, and views.  A pickle
round-trip section covers the compact worker-transport state.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot, SnapshotView, new_edges_between, snapshot_sequence
from repro.metrics.candidates import all_nonedge_pairs, two_hop_pairs
from repro.temporal.activity import node_idle_times, node_recent_edges


# ---------------------------------------------------------------------------
# Independent dict-of-sets reference core
# ---------------------------------------------------------------------------
class ReferenceCore:
    """Naive per-event reference: dict-of-sets adjacency + Python loops."""

    def __init__(self, stream, cutoff):
        self.events = list(stream)[:cutoff]
        self.adj: dict[int, set[int]] = {}
        self.edge_time: dict[tuple[int, int], float] = {}
        self.node_times: dict[int, list[float]] = {}
        for u, v, t in self.events:
            a, b = (u, v) if u < v else (v, u)
            self.adj.setdefault(a, set()).add(b)
            self.adj.setdefault(b, set()).add(a)
            self.edge_time[(a, b)] = t
            self.node_times.setdefault(a, []).append(t)
            self.node_times.setdefault(b, []).append(t)
        self.time = self.events[-1][2] if self.events else 0.0

    def nodes(self):
        return sorted(self.adj)

    def degree(self, u):
        return len(self.adj[u])

    def two_hop(self):
        pairs = set()
        for u in self.adj:
            for w in self.adj[u]:
                for v in self.adj[w]:
                    if v > u and v not in self.adj[u]:
                        pairs.add((u, v))
        return pairs

    def nonedges(self):
        nodes = self.nodes()
        return {
            (u, v)
            for i, u in enumerate(nodes)
            for v in nodes[i + 1 :]
            if v not in self.adj[u]
        }

    def idle(self, u, now):
        times = [t for t in self.node_times[u] if t <= now]
        return now - max(times) if times else np.inf

    def recent(self, u, now, window):
        return sum(1 for t in self.node_times[u] if now - window < t <= now)


@st.composite
def traces(draw, max_nodes=10, max_edges=24):
    """Random streams with sparse non-contiguous ids and duplicate pairs."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    count = draw(st.integers(min_value=1, max_value=max_edges))
    raw = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=count,
            max_size=count,
        ).filter(lambda pairs: any(a != b for a, b in pairs))
    )
    times = sorted(
        draw(
            st.lists(
                st.floats(0, 50, allow_nan=False, allow_infinity=False),
                min_size=len(raw),
                max_size=len(raw),
            )
        )
    )
    # Sparse ids exercise the remap table; duplicates exercise dedup.
    return [
        (3 * a + 7, 3 * b + 7, t) for (a, b), t in zip(raw, times) if a != b
    ]


def build_both(stream, cutoff=None):
    trace = TemporalGraph.from_stream(stream)
    cutoff = trace.num_edges if cutoff is None else cutoff
    snapshot = Snapshot(trace, cutoff)
    # The reference must see the deduplicated stream the trace kept.
    reference = ReferenceCore(trace.edges(), cutoff)
    return trace, snapshot, reference


# ---------------------------------------------------------------------------
# Structural equivalence
# ---------------------------------------------------------------------------
class TestStructure:
    @given(traces())
    @settings(max_examples=80, deadline=None)
    def test_nodes_degrees_neighbors(self, stream):
        _, snapshot, ref = build_both(stream)
        assert snapshot.node_list == ref.nodes()
        for u in ref.nodes():
            assert snapshot.degree(u) == ref.degree(u)
            assert snapshot.neighbors(u) == ref.adj[u]

    @given(traces())
    @settings(max_examples=80, deadline=None)
    def test_has_edge_matches(self, stream):
        _, snapshot, ref = build_both(stream)
        nodes = ref.nodes()
        for u in nodes:
            for v in nodes:
                if u == v:
                    continue  # self-pairs raise by contract
                expected = (min(u, v), max(u, v)) in ref.edge_time
                assert snapshot.has_edge(u, v) == expected

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_matrix_matches(self, stream):
        _, snapshot, ref = build_both(stream)
        matrix = snapshot.adjacency_matrix().toarray()
        nodes = ref.nodes()
        for i, u in enumerate(nodes):
            for j, v in enumerate(nodes):
                assert matrix[i, j] == (1.0 if v in ref.adj[u] else 0.0)

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_prefix_snapshot_matches(self, stream):
        trace = TemporalGraph.from_stream(stream)
        for cutoff in range(1, trace.num_edges + 1):
            snapshot = Snapshot(trace, cutoff)
            ref = ReferenceCore(trace.edges(), cutoff)
            assert snapshot.node_list == ref.nodes()
            assert {
                (u, v) for u, v in snapshot.edges()
            } == set(ref.edge_time)


# ---------------------------------------------------------------------------
# Candidate enumeration equivalence
# ---------------------------------------------------------------------------
class TestCandidates:
    @given(traces())
    @settings(max_examples=80, deadline=None)
    def test_two_hop_pairs_match(self, stream):
        _, snapshot, ref = build_both(stream)
        got = {tuple(p) for p in two_hop_pairs(snapshot).tolist()}
        assert got == ref.two_hop()

    @given(traces())
    @settings(max_examples=80, deadline=None)
    def test_all_nonedge_pairs_match(self, stream):
        _, snapshot, ref = build_both(stream)
        got = {tuple(p) for p in all_nonedge_pairs(snapshot).tolist()}
        assert got == ref.nonedges()

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_candidate_order_is_row_major(self, stream):
        """Pair order feeds RNG tie-breaking, so it must be deterministic:
        sorted by snapshot position of u, then of v."""
        _, snapshot, _ = build_both(stream)
        for pairs in (two_hop_pairs(snapshot), all_nonedge_pairs(snapshot)):
            if len(pairs) < 2:
                continue
            rows = snapshot.positions_of(pairs[:, 0])
            cols = snapshot.positions_of(pairs[:, 1])
            keys = list(zip(rows.tolist(), cols.tolist()))
            assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Temporal equivalence
# ---------------------------------------------------------------------------
class TestTemporal:
    @given(traces(), st.floats(0.5, 20))
    @settings(max_examples=80, deadline=None)
    def test_idle_and_recent_match_reference(self, stream, window):
        _, snapshot, ref = build_both(stream)
        idle = node_idle_times(snapshot)
        recent = node_recent_edges(snapshot, window)
        for i, u in enumerate(snapshot.node_list):
            assert idle[i] == ref.idle(u, snapshot.time)
            assert recent[i] == ref.recent(u, snapshot.time, window)

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_new_edges_between_matches(self, stream):
        trace = TemporalGraph.from_stream(stream)
        if trace.num_edges < 2:
            return
        mid = trace.num_edges // 2
        previous = Snapshot(trace, mid)
        current = Snapshot(trace, trace.num_edges)
        known = set(previous.node_list)
        expected = {
            (u, v)
            for u, v, _ in trace.edge_slice(mid, trace.num_edges)
            if u in known and v in known
        }
        assert new_edges_between(previous, current) == expected


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------
class TestViews:
    @given(traces(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_view_matches_filtered_reference(self, stream, rnd):
        _, snapshot, ref = build_both(stream)
        nodes = ref.nodes()
        keep = sorted(rnd.sample(nodes, max(1, len(nodes) // 2)))
        view = SnapshotView(snapshot, keep)
        assert view.node_list == keep
        kept = set(keep)
        expected_edges = {
            (u, v) for (u, v) in ref.edge_time if u in kept and v in kept
        }
        assert set(view.edges()) == expected_edges
        for u in keep:
            assert view.neighbors(u) == ref.adj[u] & kept


# ---------------------------------------------------------------------------
# Pickle round-trips (worker transport)
# ---------------------------------------------------------------------------
def assert_same_graph(built: TemporalGraph, trace: TemporalGraph) -> None:
    """``built`` holds the same stream, node set and arrivals as ``trace``."""
    assert list(built.edges()) == list(trace.edges())
    assert built.num_nodes == trace.num_nodes
    assert set(built.nodes()) == set(trace.nodes())
    for u in trace.nodes():
        assert built.node_arrival_time(u) == trace.node_arrival_time(u)
    for u, v, t in trace.edges():
        assert built.has_edge(u, v) and built.has_edge(v, u)
        assert built.edge_time(v, u) == t


class TestPickle:
    """Every way to build a trace — events one by one, trusted columns,
    unpickling, ``copy()`` — gives the same graph."""

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_trace_round_trip(self, stream):
        trace = TemporalGraph.from_stream(stream)
        built = {
            "from_columns": TemporalGraph.from_columns(
                *trace.columns(), validated=True
            ),
            "pickle": pickle.loads(pickle.dumps(trace)),
            "copy": trace.copy(),
        }
        for graph in built.values():
            assert_same_graph(graph, trace)

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_validated_load_lists_nodes_in_first_appearance_order(self, stream):
        trace = TemporalGraph.from_stream(stream)
        expected = []
        for u, v, _ in trace.edges():  # canonical: smaller endpoint first
            expected.extend(x for x in (u, v) if x not in expected)
        loaded = TemporalGraph.from_columns(*trace.columns(), validated=True)
        assert list(loaded.nodes()) == expected
        assert list(TemporalGraph.from_stream(trace.edges()).nodes()) == expected

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_snapshot_round_trip_drops_cache(self, stream):
        trace = TemporalGraph.from_stream(stream)
        snapshot = Snapshot(trace, trace.num_edges)
        two_hop_pairs(snapshot)  # populate the cache
        assert snapshot.cache
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.cache == {}
        assert clone.node_list == snapshot.node_list
        assert list(clone.edges()) == list(snapshot.edges())
        assert clone.time == snapshot.time
        np.testing.assert_array_equal(
            clone.degree_array(), snapshot.degree_array()
        )

    def test_trace_pickle_preserves_isolated_nodes(self):
        trace = TemporalGraph()
        trace.add_node(7, t=0.25)  # arrives before its first edge
        trace.add_edge(7, 2, 1.0)
        trace.add_edge(2, 3, 1.5)
        trace.add_node(99, t=0.5)
        for clone in (pickle.loads(pickle.dumps(trace)), trace.copy()):
            assert_same_graph(clone, trace)
            assert list(clone.nodes()) == list(trace.nodes())
            assert clone.has_node(99)
            assert clone.node_arrival_time(99) == 0.5
            assert clone.node_arrival_time(7) == 0.25

    def test_snapshot_sequence_snapshots_pickle_compactly(self):
        stream = [(i, i + 1, float(i)) for i in range(20)]
        trace = TemporalGraph.from_stream(stream)
        for snapshot in snapshot_sequence(trace, delta=5):
            clone = pickle.loads(pickle.dumps(snapshot))
            assert clone.node_list == snapshot.node_list
            assert clone.cutoff == snapshot.cutoff
