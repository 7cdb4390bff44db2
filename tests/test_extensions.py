"""Tests for the extension modules (weighted metrics, streaming CN counts)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.extensions.weighted import (
    WeightedAdamicAdar,
    WeightedCommonNeighbors,
    WeightedResourceAllocation,
    synthesize_weights,
)
from repro.graph.delta import DeltaGraph
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot
from repro.metrics.base import get_metric
from repro.metrics.candidates import two_hop_pairs
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


class TestIncrementalNeighborhood:
    """A snapshot streamed through ``DeltaGraph()`` agrees with the batch
    2-hop enumeration and CN scores."""

    @staticmethod
    def _assert_matches_batch(trace, snapshot):
        delta = DeltaGraph()
        delta.apply(trace.edges())
        streamed = delta.materialize()
        batch = two_hop_pairs(snapshot)
        assert np.array_equal(two_hop_pairs(streamed), batch)
        if len(batch):
            cn_batch = get_metric("CN").fit(snapshot).score(batch)
            cn_streamed = get_metric("CN").fit(streamed).score(batch)
            assert np.array_equal(cn_streamed, cn_batch)

    def test_matches_batch_on_tiny_trace(self, tiny_trace, tiny_snapshot):
        self._assert_matches_batch(tiny_trace, tiny_snapshot)

    @given(edge_streams(max_nodes=10, max_edges=30))
    @settings(max_examples=40, deadline=None)
    def test_matches_batch_on_random_streams(self, stream):
        trace = TemporalGraph.from_stream(stream)
        self._assert_matches_batch(trace, Snapshot(trace, trace.num_edges))
