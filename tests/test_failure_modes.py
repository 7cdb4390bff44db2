"""Failure-injection and awkward-input tests across the library.

Each test feeds a component an input at the edge of (or beyond) its
contract and checks for a clean outcome: either a correct result or a
specific, early error — never a silent wrong answer.
"""

import numpy as np
import pytest

from repro.classify import ClassificationPredictor, FeatureExtractor
from repro.eval.experiment import evaluate_step
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot, new_edges_between, snapshot_sequence
from repro.metrics.base import all_metric_names, get_metric
from repro.metrics.candidates import all_nonedge_pairs, two_hop_pairs
from repro.temporal import FilterParams, TemporalFilter
from repro.temporal.activity import node_idle_times, node_recent_edges
from tests.conftest import build_trace


@pytest.fixture
def disconnected_snapshot():
    """Two components plus a pendant: awkward for walk/path metrics."""
    trace = build_trace(
        [
            (0, 1, 0.0),
            (1, 2, 1.0),
            (0, 2, 2.0),
            (3, 4, 3.0),
            (4, 5, 4.0),
            (5, 3, 5.0),
            (6, 0, 6.0),
        ]
    )
    return Snapshot(trace, trace.num_edges)


class TestDisconnectedGraphs:
    def test_every_metric_scores_cross_component_pairs(self, disconnected_snapshot):
        pairs = np.asarray([[0, 3], [2, 5], [6, 4]], dtype=np.int64)
        for name in all_metric_names():
            scores = get_metric(name).fit(disconnected_snapshot).score(pairs)
            assert scores.shape == (3,)
            # -inf is allowed (SP); NaN never is.
            assert not np.isnan(scores).any(), name

    def test_neighbourhood_metrics_zero_across_components(self, disconnected_snapshot):
        pairs = np.asarray([[0, 3]], dtype=np.int64)
        for name in ("CN", "JC", "AA", "RA", "BCN", "BAA", "BRA", "LP"):
            assert get_metric(name).fit(disconnected_snapshot).score(pairs)[0] == 0.0

    def test_evaluate_step_runs(self, disconnected_snapshot):
        truth = {(0, 3), (2, 6)}
        result = evaluate_step("RA", disconnected_snapshot, truth, rng=0)
        assert result.outcome.k == 2


class TestDegenerateGraphs:
    def test_single_edge_graph(self):
        trace = build_trace([(0, 1, 0.0)])
        s = Snapshot(trace, 1)
        assert len(two_hop_pairs(s)) == 0
        assert len(all_nonedge_pairs(s)) == 0

    def test_star_graph_metrics(self):
        trace = build_trace([(0, i, float(i)) for i in range(1, 6)])
        s = Snapshot(trace, trace.num_edges)
        pairs = two_hop_pairs(s)
        assert len(pairs) == 10  # all leaf pairs
        cn = get_metric("CN").fit(s).score(pairs)
        assert (cn == 1.0).all()
        # RA through the hub: 1/5 each.
        ra = get_metric("RA").fit(s).score(pairs)
        assert ra == pytest.approx(np.full(10, 0.2))

    def test_complete_graph_has_no_candidates(self):
        events = []
        t = 0.0
        for i in range(5):
            for j in range(i + 1, 5):
                events.append((i, j, t))
                t += 1
        s = Snapshot(build_trace(events), len(events))
        assert len(all_nonedge_pairs(s)) == 0
        result = evaluate_step("CN", s, set(), rng=0)
        assert result.outcome.k == 0

    def test_all_simultaneous_timestamps(self):
        trace = build_trace([(0, 1, 5.0), (1, 2, 5.0), (2, 3, 5.0)])
        s = Snapshot(trace, 3)
        assert s.time == 5.0
        assert node_idle_times(s)[s.node_pos[0]] == 0.0
        assert node_recent_edges(s, window=0.5)[s.node_pos[1]] == 2


class TestFilterEdgeCases:
    def test_filter_on_fresh_graph_keeps_or_drops_cleanly(self):
        trace = build_trace([(0, 1, 0.0), (1, 2, 0.5), (0, 2, 1.0), (2, 3, 1.5)])
        s = Snapshot(trace, 4)
        filt = TemporalFilter(
            FilterParams(d_act=10, d_inact=10, window=10, min_new_edges=0, d_cn=10)
        )
        mask = filt(s, two_hop_pairs(s))
        assert mask.dtype == bool

    def test_impossible_thresholds_drop_everything(self, disconnected_snapshot):
        filt = TemporalFilter(
            FilterParams(d_act=1e-9, d_inact=1e-9, window=1, min_new_edges=99, d_cn=1)
        )
        pairs = all_nonedge_pairs(disconnected_snapshot)
        assert not filt(disconnected_snapshot, pairs).any()

    @pytest.mark.parametrize("path", ("metric", "classifier"))
    @pytest.mark.parametrize("bad", ("scalar", "short"))
    def test_malformed_mask_rejected_by_both_paths(self, facebook_snapshots, path, bad):
        """A filter must return one flag per pair, or the step fails early
        with the same error whichever predictor ranks the pairs."""
        g2, g1, g0 = facebook_snapshots[-3:]
        truth = new_edges_between(g1, g0)

        def bad_filter(snapshot, pairs):
            return True if bad == "scalar" else np.ones(len(pairs) - 1, dtype=bool)

        if path == "classifier":
            predictor = ClassificationPredictor("NB", theta=1 / 10, seed=0)
            predictor.train(g2, g1)
        with pytest.raises(ValueError, match="pair filter returned mask of shape"):
            if path == "metric":
                evaluate_step("CN", g1, truth, rng=0, pair_filter=bad_filter)
            else:
                predictor.predict_step(g1, truth, rng=0, pair_filter=bad_filter)


class TestClassifierEdgeCases:
    def test_training_without_positives_raises(self, facebook_snapshots):
        s = facebook_snapshots[-1]
        predictor = ClassificationPredictor("NB", theta=None)
        # Using the same snapshot as train and label views: no pair can be
        # both unconnected (candidate) and connected (positive).
        with pytest.raises(ValueError, match="positive"):
            predictor.train(s, s)

    def test_feature_extractor_on_single_pair(self, facebook_snapshots):
        s = facebook_snapshots[0]
        pairs = all_nonedge_pairs(s)[:1]
        features = FeatureExtractor(("CN", "SP")).compute(s, pairs)
        assert features.shape == (1, 2)

    def test_scoring_empty_pair_set(self, facebook_snapshots):
        g2, g1 = facebook_snapshots[-3], facebook_snapshots[-2]
        predictor = ClassificationPredictor("NB", theta=1 / 10, seed=0)
        predictor.train(g2, g1)
        assert predictor.score_pairs(g1, np.zeros((0, 2), dtype=np.int64)).shape == (0,)


class TestSequencingEdgeCases:
    def test_delta_equal_to_trace(self, tiny_trace):
        snaps = snapshot_sequence(tiny_trace, delta=tiny_trace.num_edges)
        assert len(snaps) == 1

    def test_delta_larger_than_trace(self, tiny_trace):
        assert snapshot_sequence(tiny_trace, delta=100) == []

    def test_graph_without_edges_has_empty_sequence(self):
        g = TemporalGraph()
        g.add_node(0)
        assert snapshot_sequence(g, delta=1) == []
