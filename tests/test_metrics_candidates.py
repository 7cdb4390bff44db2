"""Tests for candidate-pair enumeration."""

import networkx as nx
import pytest

from repro.metrics.candidates import (
    all_nonedge_pairs,
    candidate_pairs,
    num_nonedge_pairs,
    random_nonedge_pairs,
    two_hop_pairs,
)


class TestTwoHopPairs:
    def test_matches_networkx_distance_two(self, tiny_snapshot):
        g = tiny_snapshot.to_networkx()
        expected = set()
        for u in g:
            lengths = nx.single_source_shortest_path_length(g, u, cutoff=2)
            for v, d in lengths.items():
                if d == 2:
                    expected.add((min(u, v), max(u, v)))
        ours = {tuple(p) for p in two_hop_pairs(tiny_snapshot)}
        assert ours == expected

    def test_no_existing_edges(self, facebook_snapshots):
        s = facebook_snapshots[0]
        for u, v in two_hop_pairs(s)[:200]:
            assert not s.has_edge(int(u), int(v))

    def test_canonical_and_unique(self, facebook_snapshots):
        s = facebook_snapshots[0]
        pairs = two_hop_pairs(s)
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert len({tuple(p) for p in pairs}) == len(pairs)


class TestAllNonedgePairs:
    def test_count_formula(self, tiny_snapshot):
        pairs = all_nonedge_pairs(tiny_snapshot)
        n = tiny_snapshot.num_nodes
        assert len(pairs) == n * (n - 1) // 2 - tiny_snapshot.num_edges
        assert len(pairs) == num_nonedge_pairs(tiny_snapshot)

    def test_superset_of_two_hop(self, tiny_snapshot):
        all_set = {tuple(p) for p in all_nonedge_pairs(tiny_snapshot)}
        two_set = {tuple(p) for p in two_hop_pairs(tiny_snapshot)}
        assert two_set <= all_set


class TestCandidateDispatch:
    def test_strategies(self, tiny_snapshot):
        assert len(candidate_pairs(tiny_snapshot, "all")) >= len(
            candidate_pairs(tiny_snapshot, "two_hop")
        )

    def test_unknown_strategy(self, tiny_snapshot):
        with pytest.raises(ValueError, match="unknown candidate strategy"):
            candidate_pairs(tiny_snapshot, "five_hop")


class TestRandomNonedgePairs:
    def test_returns_k_distinct_nonedges(self, tiny_snapshot):
        pairs = random_nonedge_pairs(tiny_snapshot, 5, rng=0)
        assert len(pairs) == 5
        assert len(set(pairs)) == 5
        for u, v in pairs:
            assert u < v
            assert not tiny_snapshot.has_edge(u, v)

    def test_respects_exclusion(self, tiny_snapshot):
        exclude = {tuple(p) for p in all_nonedge_pairs(tiny_snapshot)[:10]}
        pairs = random_nonedge_pairs(tiny_snapshot, 6, rng=0, exclude=exclude)
        assert not (set(pairs) & exclude)

    def test_caps_at_available(self, tiny_snapshot):
        available = num_nonedge_pairs(tiny_snapshot)
        pairs = random_nonedge_pairs(tiny_snapshot, available + 50, rng=0)
        assert len(pairs) == available

    def test_deterministic(self, tiny_snapshot):
        a = random_nonedge_pairs(tiny_snapshot, 4, rng=3)
        b = random_nonedge_pairs(tiny_snapshot, 4, rng=3)
        assert a == b
