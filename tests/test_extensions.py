"""Tests for the extension modules (weighted metrics, incremental updates)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extensions.weighted import (
    WeightedAdamicAdar,
    WeightedCommonNeighbors,
    WeightedResourceAllocation,
    synthesize_weights,
)
from repro.graph.delta import IncrementalNeighborhood
from repro.graph.snapshots import Snapshot
from repro.metrics.base import get_metric
from repro.metrics.candidates import two_hop_pairs
from tests.conftest import build_trace
from tests.test_properties import edge_streams


class TestSynthesizeWeights:
    def test_positive_weight_per_edge(self, facebook_snapshots):
        s = facebook_snapshots[0]
        weights = synthesize_weights(s, seed=0)
        assert set(weights) == set(s.edges())
        assert all(w > 0 for w in weights.values())

    def test_embedded_edges_weigh_more(self, facebook_snapshots):
        """On average, high-CN edges get higher weight (tie strength)."""
        s = facebook_snapshots[-1]
        weights = synthesize_weights(s, seed=0, noise=0.01)
        from repro.metrics.base import two_hop_matrix

        a2 = two_hop_matrix(s)
        pos = s.node_pos
        embedded, loose = [], []
        for (u, v), w in weights.items():
            cn = a2[pos[u], pos[v]]
            (embedded if cn >= 5 else loose).append(w)
        if embedded and loose:
            assert np.mean(embedded) > np.mean(loose)

    def test_deterministic(self, facebook_snapshots):
        s = facebook_snapshots[0]
        assert synthesize_weights(s, seed=3) == synthesize_weights(s, seed=3)


class TestWeightMatrix:
    """The caller's ``weights=`` dict, as a weighted metric's fit reads it."""

    def test_symmetric_and_alpha(self, tiny_snapshot):
        import scipy.sparse as sp

        weights = {pair: 2.0 for pair in tiny_snapshot.edges()}
        # WCN's node scaling is 1, so its column is w^alpha per CSR entry.
        column = WeightedCommonNeighbors(weights, alpha=2.0).fit(tiny_snapshot)._column
        indptr, indices = tiny_snapshot.csr_structure()
        n = len(indptr) - 1
        m = sp.csr_matrix((column, indices, indptr), shape=(n, n))
        assert (m != m.T).nnz == 0
        assert np.all(column == 4.0)

    def test_rejects_non_edges(self, tiny_snapshot):
        with pytest.raises(ValueError, match="non-edge"):
            WeightedCommonNeighbors({(0, 5): 1.0}, alpha=1.0).fit(tiny_snapshot)

    def test_rejects_nonpositive(self, tiny_snapshot):
        weights = {pair: 1.0 for pair in tiny_snapshot.edges()}
        weights[next(iter(weights))] = 0.0
        with pytest.raises(ValueError, match="positive"):
            WeightedCommonNeighbors(weights, alpha=1.0).fit(tiny_snapshot)


class TestWeightedMetrics:
    def test_alpha_zero_matches_unweighted_doubled(self, facebook_snapshots):
        """With alpha = 0, WCN = 2 * CN regardless of the weights."""
        s = facebook_snapshots[0]
        weights = synthesize_weights(s, seed=0)
        pairs = two_hop_pairs(s)[:200]
        wcn = WeightedCommonNeighbors(weights, alpha=0.0).fit(s).score(pairs)
        cn = get_metric("CN").fit(s).score(pairs)
        assert wcn == pytest.approx(2.0 * cn)

    def test_uniform_weights_scale_cleanly(self, tiny_snapshot):
        weights = {pair: 3.0 for pair in tiny_snapshot.edges()}
        pairs = two_hop_pairs(tiny_snapshot)
        wcn = WeightedCommonNeighbors(weights, alpha=1.0).fit(tiny_snapshot).score(pairs)
        cn = get_metric("CN").fit(tiny_snapshot).score(pairs)
        assert wcn == pytest.approx(6.0 * cn)  # w^1 + w^1 = 6 per z

    def test_hand_computed_wcn(self, triangle_plus_trace):
        s = Snapshot(triangle_plus_trace, triangle_plus_trace.num_edges)
        weights = {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 3.0, (2, 3): 4.0}
        # Pair (0, 3): common neighbour 2; w(0,2)=3, w(2,3)=4 -> 7.
        score = WeightedCommonNeighbors(weights, alpha=1.0).fit(s).score(
            np.asarray([[0, 3]])
        )
        assert score[0] == pytest.approx(7.0)

    def test_wra_normalises_by_strength(self, triangle_plus_trace):
        s = Snapshot(triangle_plus_trace, triangle_plus_trace.num_edges)
        weights = {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 3.0, (2, 3): 4.0}
        # s(2) = 2 + 3 + 4 = 9; WRA(0,3) = (3 + 4) / 9.
        score = WeightedResourceAllocation(weights, alpha=1.0).fit(s).score(
            np.asarray([[0, 3]])
        )
        assert score[0] == pytest.approx(7.0 / 9.0)

    def test_waa_uses_log_strength(self, triangle_plus_trace):
        s = Snapshot(triangle_plus_trace, triangle_plus_trace.num_edges)
        weights = {(0, 1): 1.0, (1, 2): 2.0, (0, 2): 3.0, (2, 3): 4.0}
        score = WeightedAdamicAdar(weights, alpha=1.0).fit(s).score(
            np.asarray([[0, 3]])
        )
        assert score[0] == pytest.approx(7.0 / np.log1p(9.0))

    def test_weighted_metrics_rank_similarly_to_unweighted(self, facebook_snapshots):
        from scipy.stats import spearmanr

        s = facebook_snapshots[-1]
        weights = synthesize_weights(s, seed=0)
        pairs = two_hop_pairs(s)[:1500]
        wra = WeightedResourceAllocation(weights, alpha=1.0).fit(s).score(pairs)
        ra = get_metric("RA").fit(s).score(pairs)
        assert spearmanr(wra, ra).statistic > 0.5


class TestIncrementalShim:
    def test_package_surface_does_not_warn(self, recwarn):
        """Importing the extensions package itself must stay silent."""
        import importlib

        import repro.extensions

        importlib.reload(repro.extensions)
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
        assert repro.extensions.IncrementalNeighborhood is IncrementalNeighborhood


class TestIncrementalNeighborhood:
    def test_matches_batch_on_tiny_trace(self, tiny_trace, tiny_snapshot):
        inc = IncrementalNeighborhood()
        inc.extend((u, v) for u, v, _ in tiny_trace.edges())
        batch_pairs = {tuple(p) for p in two_hop_pairs(tiny_snapshot)}
        assert {tuple(p) for p in inc.two_hop_pairs()} == batch_pairs
        arr = np.asarray(sorted(batch_pairs), dtype=np.int64)
        cn_batch = get_metric("CN").fit(tiny_snapshot).score(arr)
        assert np.array_equal(inc.cn_scores(arr), cn_batch)

    @given(edge_streams(max_nodes=10, max_edges=30))
    @settings(max_examples=40, deadline=None)
    def test_matches_batch_on_random_streams(self, stream):
        from repro.graph.dyngraph import TemporalGraph

        trace = TemporalGraph.from_stream(stream)
        snapshot = Snapshot(trace, trace.num_edges)
        inc = IncrementalNeighborhood()
        inc.extend((u, v) for u, v, _ in trace.edges())
        batch = {tuple(p) for p in two_hop_pairs(snapshot)}
        assert {tuple(p) for p in inc.two_hop_pairs()} == batch
        if batch:
            arr = np.asarray(sorted(batch), dtype=np.int64)
            cn_batch = get_metric("CN").fit(snapshot).score(arr)
            assert np.array_equal(inc.cn_scores(arr), cn_batch)

    def test_duplicate_edge_rejected(self):
        inc = IncrementalNeighborhood()
        assert inc.add_edge(0, 1)
        assert not inc.add_edge(1, 0)
        assert inc.num_edges == 1

    def test_extend_returns_inserted_count(self):
        inc = IncrementalNeighborhood()
        # 4 events, one a duplicate (orientation-insensitive): 3 inserted.
        assert inc.extend([(0, 1), (1, 2), (0, 1), (2, 0)]) == 3
        assert inc.num_edges == 3
        # A fully duplicate stream inserts nothing.
        assert inc.extend([(1, 0), (2, 1)]) == 0
        assert inc.num_edges == 3

    def test_extend_raises_on_self_loop_mid_stream(self):
        inc = IncrementalNeighborhood()
        with pytest.raises(ValueError, match="self-loop"):
            inc.extend([(0, 1), (2, 2), (1, 3)])
        # Events before the bad one were applied; the rest were not.
        assert inc.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            IncrementalNeighborhood().add_edge(2, 2)

    def test_edge_removes_candidate(self):
        inc = IncrementalNeighborhood()
        inc.extend([(0, 1), (1, 2)])
        assert inc.common_neighbors(0, 2) == 1
        inc.add_edge(0, 2)
        with pytest.raises(ValueError, match="edge"):
            inc.common_neighbors(0, 2)

    def test_top_candidates(self):
        inc = IncrementalNeighborhood()
        # Star around 0 plus an extra wedge 1-9, 2-9.
        inc.extend([(0, i) for i in range(1, 5)])
        inc.extend([(1, 9), (2, 9)])
        top = inc.top_candidates(2)
        # (1,2) closes through {0, 9} and (0,9) through {1, 2}: both count 2.
        assert {pair for pair, _ in top} == {(0, 9), (1, 2)}
        assert all(count == 2 for _, count in top)

    def test_top_candidates_validation(self):
        with pytest.raises(ValueError):
            IncrementalNeighborhood().top_candidates(-1)
