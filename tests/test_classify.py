"""Tests for classification-based prediction (features, sampling, pipeline)."""

import numpy as np
import pytest

from repro.classify import (
    ClassificationPredictor,
    FeatureExtractor,
    labeled_pairs,
    sampled_instance,
    undersample,
)
from repro.classify.sampling import true_imbalance
from repro.eval.experiment import prediction_steps
from repro.metrics import CLASSIFIER_FEATURES
from repro.metrics.candidates import all_nonedge_pairs, two_hop_pairs


@pytest.fixture(scope="module")
def fb_steps(facebook_snapshots):
    return list(prediction_steps(facebook_snapshots))


@pytest.fixture(scope="module")
def instance(facebook_snapshots):
    g2, g1, g0 = facebook_snapshots[-3:]
    return sampled_instance(g2, g1, g0, fraction=1.0)


class TestFeatureExtractor:
    def test_shape_and_column_order(self, facebook_snapshots):
        s = facebook_snapshots[0]
        pairs = all_nonedge_pairs(s)[:40]
        extractor = FeatureExtractor(("CN", "JC", "PA"), log_transform=False)
        features = extractor.compute(s, pairs)
        assert features.shape == (40, 3)
        from repro.metrics.base import get_metric

        assert features[:, 0] == pytest.approx(get_metric("CN").fit(s).score(pairs))
        assert features[:, 2] == pytest.approx(get_metric("PA").fit(s).score(pairs))

    def test_log_transform_on_nonnegative_columns(self, facebook_snapshots):
        s = facebook_snapshots[0]
        pairs = all_nonedge_pairs(s)[:40]
        from repro.metrics.base import get_metric

        raw = get_metric("PA").fit(s).score(pairs)
        logged = FeatureExtractor(("PA",), log_transform=True).compute(s, pairs)
        assert logged[:, 0] == pytest.approx(np.log1p(raw))

    def test_log_transform_skips_signed_columns(self, facebook_snapshots):
        """BCN takes negative values, so log1p must not touch it."""
        s = facebook_snapshots[0]
        pairs = all_nonedge_pairs(s)[:40]
        from repro.metrics.base import get_metric

        raw = get_metric("BCN").fit(s).score(pairs)
        if raw.min() >= 0:
            pytest.skip("BCN non-negative on this snapshot")
        logged = FeatureExtractor(("BCN",), log_transform=True).compute(s, pairs)
        assert logged[:, 0] == pytest.approx(raw)

    def test_all_fourteen_features_finite(self, facebook_snapshots):
        s = facebook_snapshots[0]
        pairs = all_nonedge_pairs(s)[:30]
        features = FeatureExtractor().compute(s, pairs)
        assert features.shape == (30, len(CLASSIFIER_FEATURES))
        assert np.isfinite(features).all()

    def test_sp_infinities_mapped_to_sentinels(self):
        from tests.conftest import build_trace
        from repro.graph.snapshots import Snapshot

        trace = build_trace([(0, 1, 0.0), (2, 3, 1.0)])
        s = Snapshot(trace, trace.num_edges)
        pairs = np.asarray([[0, 2], [0, 3], [1, 2]])
        features = FeatureExtractor(("SP",)).compute(s, pairs)
        assert np.isfinite(features).all()

    def test_empty_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor(())

    def test_bad_pair_shape_rejected(self, facebook_snapshots):
        with pytest.raises(ValueError):
            FeatureExtractor(("CN",)).compute(
                facebook_snapshots[0], np.zeros((3, 3), dtype=np.int64)
            )


class TestLabeling:
    def test_labels_future_edges(self, fb_steps):
        prev, curr, truth = fb_steps[-1]
        pairs = all_nonedge_pairs(prev)
        labels = labeled_pairs(prev, curr, pairs)
        positive = {tuple(p) for p, l in zip(pairs.tolist(), labels) if l == 1}
        assert positive == truth

    def test_imbalance_matches_label_counts(self, fb_steps):
        prev, curr, _ = fb_steps[-1]
        ratio = true_imbalance(prev, curr)
        pairs = all_nonedge_pairs(prev)
        labels = labeled_pairs(prev, curr, pairs)
        assert ratio == pytest.approx(labels.sum() / (len(labels) - labels.sum()))


class TestUndersample:
    def _data(self, n_pos=20, n_neg=5000):
        pairs = np.arange(2 * (n_pos + n_neg)).reshape(-1, 2)
        labels = np.concatenate([np.ones(n_pos, int), np.zeros(n_neg, int)])
        return pairs, labels

    def test_ratio_respected(self):
        pairs, labels = self._data()
        _, sampled = undersample(pairs, labels, theta=1 / 50, rng=0)
        assert sampled.sum() == 20
        assert (sampled == 0).sum() == 1000

    def test_keeps_all_positives(self):
        pairs, labels = self._data()
        out_pairs, out_labels = undersample(pairs, labels, theta=1.0, rng=0)
        pos_original = {tuple(p) for p, l in zip(pairs.tolist(), labels) if l == 1}
        pos_sampled = {tuple(p) for p, l in zip(out_pairs.tolist(), out_labels) if l == 1}
        assert pos_sampled == pos_original

    def test_saturates_at_available_negatives(self):
        pairs, labels = self._data(n_pos=100, n_neg=50)
        _, sampled = undersample(pairs, labels, theta=1 / 10000, rng=0)
        assert (sampled == 0).sum() == 50

    def test_validation(self):
        pairs, labels = self._data()
        with pytest.raises(ValueError):
            undersample(pairs, labels, theta=0.0)
        with pytest.raises(ValueError):
            undersample(pairs, np.zeros(len(labels), int), theta=1.0)


class TestSampledInstance:
    def test_full_fraction_reuses_snapshots(self, facebook_snapshots):
        g2, g1, g0 = facebook_snapshots[-3:]
        inst = sampled_instance(g2, g1, g0, fraction=1.0)
        assert inst.train_view is g2
        assert inst.test_view is g1
        assert inst.k == len(inst.truth)

    def test_partial_fraction_samples(self, facebook_snapshots):
        g2, g1, g0 = facebook_snapshots[-3:]
        inst = sampled_instance(g2, g1, g0, fraction=0.5, rng=0)
        assert inst.test_view.num_nodes == round(0.5 * g1.num_nodes)
        # Truth restricted to sampled nodes.
        for u, v in inst.truth:
            assert inst.test_view.has_node(u)
            assert inst.test_view.has_node(v)

    def test_same_seed_aligns_views(self, facebook_snapshots):
        g2, g1, g0 = facebook_snapshots[-3:]
        inst = sampled_instance(g2, g1, g0, fraction=0.4, rng=1)
        train_nodes = set(inst.train_view.nodes())
        test_nodes = set(inst.test_view.nodes())
        assert len(train_nodes & test_nodes) / len(train_nodes) > 0.5


class TestClassificationPredictor:
    def test_svm_beats_random_clearly(self, instance):
        pred = ClassificationPredictor("SVM", theta=1 / 50, seed=0)
        result = pred.evaluate_instance(instance, rng=0)
        assert result.ratio > 2.0

    def test_all_four_classifiers_run(self, instance):
        for name in ("SVM", "LR", "NB", "RF"):
            pred = ClassificationPredictor(name, theta=1 / 20, seed=0)
            result = pred.evaluate_instance(instance, rng=0)
            assert result.outcome.k == instance.k
            assert result.metric == name

    def test_feature_weights_for_linear(self, instance):
        pred = ClassificationPredictor("SVM", theta=1 / 20, seed=0)
        pred.train(instance.train_view, instance.label_view)
        weights = pred.feature_weights()
        assert weights.shape == (len(CLASSIFIER_FEATURES),)
        assert weights.sum() == pytest.approx(1.0)

    def test_feature_weights_rejected_for_forest(self, instance):
        pred = ClassificationPredictor("RF", theta=1 / 20, seed=0)
        pred.train(instance.train_view, instance.label_view)
        with pytest.raises(RuntimeError, match="coefficients"):
            pred.feature_weights()

    def test_equal_seeds_give_equal_forest_scores(self, instance):
        scores = []
        for _ in range(2):
            pred = ClassificationPredictor("RF", theta=1 / 20, seed=7)
            pred.train(instance.train_view, instance.label_view)
            pairs = two_hop_pairs(instance.test_view)
            scores.append(pred.score_pairs(instance.test_view, pairs))
        assert scores[0].tobytes() == scores[1].tobytes()

    def test_forest_seed_leaves_undersampling_stream(self):
        pred = ClassificationPredictor("RF", seed=7)
        fresh = np.random.default_rng(7)
        assert pred.rng.random(4).tobytes() == fresh.random(4).tobytes()

    def test_unknown_classifier(self):
        with pytest.raises(KeyError, match="unknown classifier"):
            ClassificationPredictor("XGB")

    def test_predict_before_train(self, instance):
        pred = ClassificationPredictor("SVM")
        with pytest.raises(RuntimeError, match="train"):
            pred.predict_step(instance.test_view, instance.truth, rng=0)

    def test_theta_none_uses_full_set(self, facebook_snapshots):
        g2, g1, g0 = facebook_snapshots[-3:]
        inst = sampled_instance(g2, g1, g0, fraction=0.35, rng=0)
        pred = ClassificationPredictor("NB", theta=None, seed=0)
        result = pred.evaluate_instance(inst, rng=0)
        assert result.outcome.k == inst.k
