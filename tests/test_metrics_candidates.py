"""Tests for candidate-pair enumeration."""

import networkx as nx
import numpy as np
import pytest

from repro.graph.delta import DeltaGraph
from repro.graph.snapshots import Snapshot
from repro.metrics.base import pairs_to_indices
from repro.metrics.candidates import (
    ENUM_STRATEGY_KEY,
    all_nonedge_pairs,
    candidate_pairs,
    num_nonedge_pairs,
    random_nonedge_pairs,
    seed_candidate_cache,
    two_hop_pairs,
)
from repro.utils.pairs import encode_position_pairs


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


def engine_keys(snapshot) -> np.ndarray:
    """The packed position keys of the snapshot's 2-hop candidates, as the
    delta engine keeps them."""
    rows, cols = pairs_to_indices(snapshot, two_hop_pairs(snapshot))
    return encode_position_pairs(rows, cols)


class TestSeedCandidateCache:
    """Validation of the packed position keys seeded by the delta engine."""

    def test_engine_keys_decode_to_enumeration(self, tiny_snapshot):
        canon = two_hop_pairs(tiny_snapshot).copy()
        keys = engine_keys(tiny_snapshot)
        fresh = Snapshot(tiny_snapshot.trace, tiny_snapshot.cutoff)
        seed_candidate_cache(fresh, keys)
        assert np.array_equal(two_hop_pairs(fresh), canon)
        assert fresh.cache[ENUM_STRATEGY_KEY] == "seeded"

    def test_bad_shape_rejected(self, tiny_snapshot):
        with pytest.raises(ValueError, match="1-D"):
            seed_candidate_cache(tiny_snapshot, np.asarray([[0, 1], [0, 2]]))

    def test_float_dtype_rejected(self, tiny_snapshot):
        with pytest.raises(ValueError, match="integer"):
            seed_candidate_cache(tiny_snapshot, np.asarray([1.5, 2.5]))

    def test_unsorted_keys_rejected(self, tiny_snapshot):
        keys = engine_keys(tiny_snapshot)
        keys[[0, 1]] = keys[[1, 0]]
        with pytest.raises(ValueError, match="strictly increasing"):
            seed_candidate_cache(tiny_snapshot, keys)

    def test_duplicate_pair_rejected(self, tiny_snapshot):
        keys = engine_keys(tiny_snapshot)
        with pytest.raises(ValueError, match="strictly increasing"):
            seed_candidate_cache(tiny_snapshot, np.insert(keys, 1, keys[1]))

    def test_reversed_pair_rejected(self, tiny_snapshot):
        with pytest.raises(ValueError, match="row < col"):
            seed_candidate_cache(tiny_snapshot, encode_position_pairs([4], [0]))

    def test_self_pair_rejected(self, tiny_snapshot):
        with pytest.raises(ValueError, match="row < col"):
            seed_candidate_cache(tiny_snapshot, encode_position_pairs([3], [3]))

    def test_unknown_node_rejected(self, tiny_snapshot):
        n = tiny_snapshot.num_nodes
        with pytest.raises(ValueError, match="outside"):
            seed_candidate_cache(tiny_snapshot, encode_position_pairs([0], [n]))

    def test_negative_position_rejected(self, tiny_snapshot):
        with pytest.raises(ValueError, match="outside"):
            seed_candidate_cache(tiny_snapshot, encode_position_pairs([-1], [2]))

    def test_empty_seed_accepted(self, tiny_snapshot):
        seed_candidate_cache(tiny_snapshot, np.zeros(0, dtype=np.int64))
        assert two_hop_pairs(tiny_snapshot).shape == (0, 2)

    def test_corrupted_engine_keys_raise_at_materialize(self, tiny_snapshot):
        """The engine's keys are validated, not trusted."""
        delta = DeltaGraph(tiny_snapshot.trace)
        assert delta.num_candidates >= 2
        delta._cand_keys = delta._cand_keys.copy()
        delta._cand_keys[[0, 1]] = delta._cand_keys[[1, 0]]
        with pytest.raises(ValueError, match="strictly increasing"):
            delta.materialize()


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
