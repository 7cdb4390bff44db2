"""Unit tests for repro.graph.dyngraph.TemporalGraph."""

import pytest

from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot
from repro.temporal.activity import node_idle_times, node_recent_edges


class TestConstruction:
    def test_empty_graph(self):
        g = TemporalGraph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.start_time == 0.0
        assert g.end_time == 0.0

    def test_add_edge_creates_nodes(self):
        g = TemporalGraph()
        assert g.add_edge(1, 2, 0.5)
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.has_edge(2, 1)

    def test_duplicate_edge_ignored(self):
        g = TemporalGraph()
        g.add_edge(1, 2, 0.0)
        assert not g.add_edge(2, 1, 1.0)
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = TemporalGraph()
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge(3, 3, 0.0)

    def test_out_of_order_timestamp_rejected(self):
        g = TemporalGraph()
        g.add_edge(0, 1, 5.0)
        with pytest.raises(ValueError, match="non-decreasing"):
            g.add_edge(1, 2, 4.0)

    def test_equal_timestamps_allowed(self):
        g = TemporalGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        assert g.num_edges == 2

    def test_add_node_idempotent(self):
        g = TemporalGraph()
        g.add_node(5, 1.0)
        g.add_node(5, 9.0)
        assert g.node_arrival_time(5) == 1.0

    def test_from_stream(self, tiny_trace):
        assert tiny_trace.num_nodes == 8
        assert tiny_trace.num_edges == 12


class TestQueries:
    def test_neighbors(self, tiny_trace):
        full = Snapshot(tiny_trace, tiny_trace.num_edges)
        assert full.neighbors(0) == {1, 2, 3, 7}

    def test_degree(self, tiny_trace):
        full = Snapshot(tiny_trace, tiny_trace.num_edges)
        assert full.degree(0) == 4
        assert full.degree(7) == 2

    def test_contains(self, tiny_trace):
        assert 0 in tiny_trace
        assert 99 not in tiny_trace

    def test_edge_time_lookup(self, tiny_trace):
        assert tiny_trace.edge_time(2, 0) == 2.0
        assert tiny_trace.edge_time(6, 7) == 10.0

    def test_edge_time_missing_raises(self, tiny_trace):
        with pytest.raises(KeyError):
            tiny_trace.edge_time(0, 6)

    def test_start_and_end_time(self, tiny_trace):
        assert tiny_trace.start_time == 0.0
        assert tiny_trace.end_time == 11.0

    def test_edges_are_in_order(self, tiny_trace):
        times = [t for _, _, t in tiny_trace.edges()]
        assert times == sorted(times)


class TestTemporalQueries:
    """Section 6's node activity, read from the event columns as of a
    snapshot's time by :mod:`repro.temporal.activity`."""

    def test_node_edge_times_sorted(self, tiny_trace):
        u, v, t = tiny_trace.columns()
        assert t[(u == 0) | (v == 0)].tolist() == [0.0, 2.0, 5.0, 11.0]

    def test_idle_time_after_last_edge(self, tiny_trace):
        # Node 3's last edge was at t=5; the full snapshot is at t=11.
        assert _idle(Snapshot(tiny_trace, 12), 3) == 6.0

    def test_idle_time_mid_history(self, tiny_trace):
        # As of t=4 (the first five edges), node 0's last edge was at t=2.
        assert _idle(Snapshot(tiny_trace, 5), 0) == 2.0

    def test_recent_edge_count_window(self, tiny_trace):
        # Node 0 edges at 0, 2, 5, 11; window (6, 11] catches only t=11.
        assert _recent(Snapshot(tiny_trace, 12), 0, window=5.0) == 1

    def test_recent_edge_count_full_history(self, tiny_trace):
        assert _recent(Snapshot(tiny_trace, 12), 0, window=100.0) == 4

    def test_recent_edge_count_respects_now(self, tiny_trace):
        # As of t=3 (the first four edges) node 0 has edges at 0 and 2.
        assert _recent(Snapshot(tiny_trace, 4), 0, window=100.0) == 2


def _idle(snapshot, node):
    return node_idle_times(snapshot)[snapshot.node_pos[node]]


def _recent(snapshot, node, window):
    return node_recent_edges(snapshot, window)[snapshot.node_pos[node]]


class TestSlicing:
    def test_edge_index_at_time(self, tiny_trace):
        assert tiny_trace.edge_index_at_time(2.0) == 3
        assert tiny_trace.edge_index_at_time(1.5) == 2
        assert tiny_trace.edge_index_at_time(100.0) == 12

    def test_prefix(self, tiny_trace):
        p = tiny_trace.prefix(3)
        assert p.num_edges == 3
        assert p.num_nodes == 3  # nodes 0, 1, 2

    def test_prefix_bounds(self, tiny_trace):
        with pytest.raises(ValueError):
            tiny_trace.prefix(13)
        with pytest.raises(ValueError):
            tiny_trace.prefix(-1)

    def test_edge_slice(self, tiny_trace):
        events = tiny_trace.edge_slice(2, 4)
        assert events == [(0, 2, 2.0), (2, 3, 3.0)]

    def test_copy_preserves_structure(self, tiny_trace):
        clone = tiny_trace.copy()
        assert clone.num_nodes == tiny_trace.num_nodes
        assert clone.num_edges == tiny_trace.num_edges
        clone.add_edge(0, 6, 12.0)
        assert not tiny_trace.has_edge(0, 6)

    def test_copy_preserves_isolated_nodes(self):
        g = TemporalGraph()
        g.add_edge(0, 1, 0.0)
        g.add_node(9, 0.5)
        clone = g.copy()
        assert clone.has_node(9)
        assert clone.node_arrival_time(9) == 0.5
