"""Unit tests for repro.graph.snapshots."""

import numpy as np
import pytest

from repro.graph.snapshots import (
    Snapshot,
    SnapshotView,
    new_edges_between,
    snapshot_sequence,
)
from repro.temporal.activity import node_idle_times, node_recent_edges


class TestSnapshot:
    def test_full_cutoff(self, tiny_trace):
        s = Snapshot(tiny_trace, tiny_trace.num_edges)
        assert s.num_nodes == 8
        assert s.num_edges == 12
        assert s.time == 11.0

    def test_partial_cutoff(self, tiny_trace):
        s = Snapshot(tiny_trace, 4)
        assert s.num_edges == 4
        assert s.num_nodes == 4  # nodes 0..3
        assert s.time == 3.0
        assert not s.has_edge(3, 4)

    def test_cutoff_bounds(self, tiny_trace):
        with pytest.raises(ValueError):
            Snapshot(tiny_trace, 0)
        with pytest.raises(ValueError):
            Snapshot(tiny_trace, 13)

    def test_neighbors_and_degree(self, tiny_trace):
        s = Snapshot(tiny_trace, 6)
        assert s.neighbors(0) == {1, 2, 3}
        assert s.degree(2) == 3

    def test_node_list_sorted_and_pos_consistent(self, tiny_snapshot):
        nl = tiny_snapshot.node_list
        assert nl == sorted(nl)
        for node, idx in tiny_snapshot.node_pos.items():
            assert nl[idx] == node

    def test_adjacency_matrix_symmetric(self, tiny_snapshot):
        a = tiny_snapshot.adjacency_matrix()
        assert (a != a.T).nnz == 0
        assert a.sum() == 2 * tiny_snapshot.num_edges
        assert a.diagonal().sum() == 0

    def test_degree_array_matches_adjacency(self, tiny_snapshot):
        a = tiny_snapshot.adjacency_matrix()
        assert np.array_equal(
            tiny_snapshot.degree_array(), np.asarray(a.sum(axis=1)).ravel()
        )

    def test_temporal_passthrough(self, tiny_trace):
        s = Snapshot(tiny_trace, 6)  # time = 5.0
        # Node 1's edges before t=5: at 0.0 and 1.0.
        assert node_idle_times(s)[s.node_pos[1]] == 4.0
        assert node_recent_edges(s, window=10.0)[s.node_pos[1]] == 2

    def test_to_networkx_roundtrip(self, tiny_snapshot):
        g = tiny_snapshot.to_networkx()
        assert g.number_of_nodes() == tiny_snapshot.num_nodes
        assert g.number_of_edges() == tiny_snapshot.num_edges


class TestSnapshotView:
    def test_subgraph_restricts_edges(self, tiny_snapshot):
        view = tiny_snapshot.subgraph({0, 1, 2, 3})
        assert view.num_nodes == 4
        assert view.num_edges == 5  # 0-1,1-2,0-2,2-3,0-3
        assert not view.has_edge(2, 6)

    def test_subgraph_unknown_node_rejected(self, tiny_snapshot):
        with pytest.raises(ValueError):
            tiny_snapshot.subgraph({0, 99})

    def test_view_keeps_snapshot_time(self, tiny_snapshot):
        view = tiny_snapshot.subgraph({0, 1})
        assert view.time == tiny_snapshot.time

    def test_view_temporal_queries_use_full_trace(self, tiny_snapshot):
        view = tiny_snapshot.subgraph({0, 1})
        # Node 0's idle time comes from the full trace, not the view.
        assert node_idle_times(view)[view.node_pos[0]] == 0.0

    def test_view_is_snapshot(self, tiny_snapshot):
        assert isinstance(tiny_snapshot.subgraph({0, 1}), SnapshotView)


class TestSnapshotSequence:
    def test_constant_delta(self, tiny_trace):
        snaps = snapshot_sequence(tiny_trace, delta=3)
        assert [s.cutoff for s in snaps] == [3, 6, 9, 12]
        assert [s.index for s in snaps] == [0, 1, 2, 3]

    def test_custom_start(self, tiny_trace):
        snaps = snapshot_sequence(tiny_trace, delta=4, start=4)
        assert [s.cutoff for s in snaps] == [4, 8, 12]

    def test_partial_tail_dropped(self, tiny_trace):
        snaps = snapshot_sequence(tiny_trace, delta=5)
        assert [s.cutoff for s in snaps] == [5, 10]

    def test_max_snapshots(self, tiny_trace):
        snaps = snapshot_sequence(tiny_trace, delta=2, max_snapshots=3)
        assert len(snaps) == 3

    def test_invalid_delta(self, tiny_trace):
        with pytest.raises(ValueError):
            snapshot_sequence(tiny_trace, delta=0)

    def test_invalid_start(self, tiny_trace):
        with pytest.raises(ValueError):
            snapshot_sequence(tiny_trace, delta=2, start=0)


class TestNewEdgesBetween:
    def test_excludes_new_node_edges(self, tiny_trace):
        prev = Snapshot(tiny_trace, 4)   # nodes 0..3
        curr = Snapshot(tiny_trace, 8)   # adds 3-4, 0-3, 4-5, 1-4
        truth = new_edges_between(prev, curr)
        # 3-4 involves new node 4; 4-5 and 1-4 involve node 4/5 (new).
        assert truth == {(0, 3)}

    def test_all_existing_nodes(self, tiny_trace):
        prev = Snapshot(tiny_trace, 11)
        curr = Snapshot(tiny_trace, 12)
        assert new_edges_between(prev, curr) == {(0, 7)}

    def test_requires_ordering(self, tiny_trace):
        prev = Snapshot(tiny_trace, 8)
        curr = Snapshot(tiny_trace, 4)
        with pytest.raises(ValueError):
            new_edges_between(prev, curr)

    def test_ground_truth_pairs_are_canonical(self, tiny_trace):
        prev = Snapshot(tiny_trace, 11)
        curr = Snapshot(tiny_trace, 12)
        for u, v in new_edges_between(prev, curr):
            assert u < v
