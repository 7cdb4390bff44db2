"""Tests for the per-step / per-sequence evaluation loops."""

import numpy as np
import pytest

from repro.eval.experiment import (
    SequenceSummary,
    evaluate_metric_sequence,
    evaluate_step,
    prediction_steps,
)
from repro.graph.snapshots import new_edges_between


class TestPredictionSteps:
    def test_yields_consecutive_pairs(self, facebook_snapshots):
        steps = list(prediction_steps(facebook_snapshots))
        assert len(steps) == len(facebook_snapshots) - 1
        for (prev, curr, truth), s_prev, s_curr in zip(
            steps, facebook_snapshots, facebook_snapshots[1:]
        ):
            assert prev is s_prev
            assert curr is s_curr
            assert truth == new_edges_between(s_prev, s_curr)


class TestEvaluateStep:
    def test_predicts_exactly_k(self, facebook_snapshots):
        prev, _, truth = next(iter(prediction_steps(facebook_snapshots[-2:])))
        result = evaluate_step("RA", prev, truth, rng=0)
        assert len(result.predicted) == len(truth)
        assert result.outcome.k == len(truth)

    def test_predictions_are_nonedges(self, facebook_snapshots):
        prev, _, truth = next(iter(prediction_steps(facebook_snapshots[-2:])))
        result = evaluate_step("RA", prev, truth, rng=0)
        for u, v in result.predicted:
            assert not prev.has_edge(int(u), int(v))

    def test_accepts_metric_instance(self, facebook_snapshots):
        from repro.metrics.base import get_metric

        prev, _, truth = next(iter(prediction_steps(facebook_snapshots[-2:])))
        result = evaluate_step(get_metric("CN"), prev, truth, rng=0)
        assert result.metric == "CN"

    def test_random_fill_when_candidates_scarce(self, tiny_snapshot, tiny_trace):
        """With more truth than 2-hop candidates, the filler kicks in."""
        from repro.metrics.candidates import two_hop_pairs

        n_candidates = len(two_hop_pairs(tiny_snapshot))
        truth = {(i, i + 20) for i in range(n_candidates + 2)}  # fake big truth
        result = evaluate_step("CN", tiny_snapshot, truth, rng=0)
        # The tiny graph only has 16 non-edges total, so the filler can add
        # at most 16 - n_candidates pairs beyond the scored candidates.
        assert result.random_fill == 2
        assert len(result.predicted) == n_candidates + 2

    def test_predicted_does_not_alias_the_candidate_cache(self, tiny_snapshot):
        """With exactly k candidates every one is predicted, as a copy."""
        from repro.metrics.candidates import two_hop_pairs

        truth = {(int(u), int(v)) for u, v in two_hop_pairs(tiny_snapshot)}
        result = evaluate_step("CN", tiny_snapshot, truth, rng=0)
        assert result.random_fill == 0 and len(result.predicted) == len(truth)
        before = tiny_snapshot.cache["pairs_two_hop"].copy()
        result.predicted[:] = -1
        assert np.array_equal(tiny_snapshot.cache["pairs_two_hop"], before)

    def test_pair_filter_restricts_candidates(self, facebook_snapshots):
        prev, _, truth = next(iter(prediction_steps(facebook_snapshots[-2:])))

        def block_everything(snapshot, pairs):
            return np.zeros(len(pairs), dtype=bool)

        result = evaluate_step("RA", prev, truth, rng=0, pair_filter=block_everything)
        # All predictions must be random fill.
        assert result.random_fill == len(truth)

    def test_bad_filter_shape_rejected(self, facebook_snapshots):
        prev, _, truth = next(iter(prediction_steps(facebook_snapshots[-2:])))

        def bad_filter(snapshot, pairs):
            return np.ones(3, dtype=bool)

        with pytest.raises(ValueError, match="mask"):
            evaluate_step("RA", prev, truth, rng=0, pair_filter=bad_filter)

    def test_custom_candidates(self, facebook_snapshots):
        from repro.metrics.candidates import all_nonedge_pairs

        prev, _, truth = next(iter(prediction_steps(facebook_snapshots[-2:])))
        candidates = all_nonedge_pairs(prev)[:50]
        result = evaluate_step("PA", prev, truth, rng=0, candidates=candidates)
        predicted_set = {tuple(p) for p in result.predicted}
        candidate_set = {tuple(p) for p in candidates}
        non_filler = predicted_set & candidate_set
        assert len(non_filler) + result.random_fill == len(truth)

    def test_deterministic(self, facebook_snapshots):
        prev, _, truth = next(iter(prediction_steps(facebook_snapshots[-2:])))
        a = evaluate_step("BRA", prev, truth, rng=5)
        b = evaluate_step("BRA", prev, truth, rng=5)
        assert a.outcome.hits == b.outcome.hits
        assert np.array_equal(a.predicted, b.predicted)


class TestEvaluateSequence:
    def test_one_result_per_step(self, facebook_snapshots):
        results = evaluate_metric_sequence("RA", facebook_snapshots[:4], rng=0)
        assert len(results) == 3
        assert [r.step for r in results] == [0, 1, 2]

    def test_beats_random_on_average(self, facebook_snapshots):
        """Any neighbourhood metric must clearly beat random overall."""
        results = evaluate_metric_sequence("RA", facebook_snapshots, rng=0)
        assert np.mean([r.ratio for r in results]) > 1.0


class TestSequenceSummary:
    def test_from_results(self, facebook_snapshots):
        results = evaluate_metric_sequence("CN", facebook_snapshots[:4], rng=0)
        summary = SequenceSummary.from_results(results)
        assert summary.metric == "CN"
        assert len(summary.ratios) == 3
        assert summary.best_absolute == max(r.absolute for r in results)

    def test_rejects_mixed_metrics(self, facebook_snapshots):
        a = evaluate_metric_sequence("CN", facebook_snapshots[:3], rng=0)
        b = evaluate_metric_sequence("RA", facebook_snapshots[:3], rng=0)
        with pytest.raises(ValueError, match="mix"):
            SequenceSummary.from_results(a + b)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SequenceSummary.from_results([])
