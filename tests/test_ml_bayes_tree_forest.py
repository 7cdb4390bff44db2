"""Tests for Gaussian NB, decision trees, and random forests."""

import numpy as np
import pytest

from repro.ml import GaussianNaiveBayes, RandomForestClassifier, accuracy_score
from repro.ml.tree import DecisionTreeClassifier
from tests.test_ml_linear import make_blobs


class TestGaussianNaiveBayes:
    def test_separable_data(self):
        x, y = make_blobs(sep=3.0)
        model = GaussianNaiveBayes().fit(x, y)
        assert accuracy_score(y, model.predict(x)) > 0.95

    def test_decision_is_log_posterior_ratio(self):
        """Equal-prior symmetric blobs: score sign flips with x[0] sign."""
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-2, 1, (200, 1)), rng.normal(2, 1, (200, 1))])
        y = np.repeat([0, 1], 200)
        model = GaussianNaiveBayes().fit(x, y)
        assert model.decision_function(np.asarray([[3.0]]))[0] > 0
        assert model.decision_function(np.asarray([[-3.0]]))[0] < 0

    def test_proba_bounds(self):
        x, y = make_blobs()
        model = GaussianNaiveBayes().fit(x, y)
        proba = model.predict_proba(x)
        assert (proba >= 0).all() and (proba <= 1).all()

    def test_respects_priors(self):
        """With a 9:1 prior and ambiguous input, predicts the majority."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1000, 1))
        y = (rng.random(1000) < 0.9).astype(int)
        model = GaussianNaiveBayes().fit(x, y)
        assert model.predict(np.asarray([[0.0]]))[0] == 1

    def test_var_smoothing_handles_constant_feature(self):
        x = np.column_stack([np.ones(100), np.linspace(-1, 1, 100)])
        y = (x[:, 1] > 0).astype(int)
        model = GaussianNaiveBayes().fit(x, y)
        assert accuracy_score(y, model.predict(x)) > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianNaiveBayes(var_smoothing=-1.0)
        with pytest.raises(RuntimeError):
            GaussianNaiveBayes().decision_function(np.zeros((1, 1)))


class TestDecisionTree:
    def test_depth_two_solves_conjunction(self):
        """y = (x0 > 0) AND (x1 > 0) is exactly learnable at depth 2."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(400, 2))
        y = ((x[:, 0] > 0) & (x[:, 1] > 0)).astype(int)
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        assert accuracy_score(y, tree.predict(x)) == 1.0

    def test_max_depth_respected(self):
        x, y = make_blobs(n=400)
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        assert tree.depth() <= 3

    def test_min_samples_leaf(self):
        x, y = make_blobs(n=100)
        tree = DecisionTreeClassifier(min_samples_leaf=40).fit(x, y)
        for leaf in np.flatnonzero(tree.feature_ < 0):
            assert tree.counts_[leaf].sum() >= 40 or leaf == 0  # node 0: root

    def test_multiclass(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(600, 2))
        y = np.digitize(x[:, 0], [-0.5, 0.5])
        tree = DecisionTreeClassifier(max_depth=4).fit(x, y)
        assert accuracy_score(y, tree.predict(x)) > 0.9
        assert len(tree.classes_) == 3

    def test_predict_proba_rows_sum_to_one(self):
        x, y = make_blobs(n=200)
        tree = DecisionTreeClassifier(max_depth=4).fit(x, y)
        proba = tree.predict_proba(x)
        assert proba.sum(axis=1) == pytest.approx(np.ones(len(x)))

    def test_feature_importances_concentrate(self):
        x, y = make_blobs(sep=4.0)
        tree = DecisionTreeClassifier(max_depth=4).fit(x, y)
        assert np.argmax(tree.feature_importances_) == 0
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_export_text_mentions_feature_names(self):
        x, y = make_blobs(n=200, sep=3.0)
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        text = tree.export_text(feature_names=["alpha", "beta", "gamma", "delta"])
        assert "alpha" in text
        assert "=>" in text

    def test_export_class_names(self):
        x, y = make_blobs(n=200, sep=3.0)
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        text = tree.export_text(class_names=["neg", "pos"])
        assert "neg" in text or "pos" in text

    def test_constant_features_make_leaf(self):
        x = np.zeros((50, 3))
        y = np.asarray([0, 1] * 25)
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.feature_.tolist() == [-1]  # the root alone, a leaf

    def test_predict_rejects_wrong_feature_count(self):
        x = np.arange(40.0).reshape(20, 2)
        tree = DecisionTreeClassifier().fit(x, np.arange(20) % 2)
        with pytest.raises(ValueError, match="features"):
            tree.predict(x[:, :1])

    def test_decision_function_binary_only(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(90, 2))
        y = np.arange(90) % 3
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        with pytest.raises(RuntimeError, match="binary"):
            tree.decision_function(x)

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)


class TestRandomForest:
    def test_beats_or_matches_single_stump(self):
        x, y = make_blobs(n=500, sep=1.0, seed=3)
        stump = DecisionTreeClassifier(max_depth=1).fit(x, y)
        forest = RandomForestClassifier(n_estimators=15, max_depth=5, seed=0).fit(x, y)
        assert accuracy_score(y, forest.predict(x)) >= accuracy_score(
            y, stump.predict(x)
        )

    def test_deterministic_given_seed(self):
        x, y = make_blobs(n=200)
        a = RandomForestClassifier(n_estimators=5, seed=9).fit(x, y).predict(x)
        b = RandomForestClassifier(n_estimators=5, seed=9).fit(x, y).predict(x)
        assert np.array_equal(a, b)

    def test_proba_is_tree_average(self):
        x, y = make_blobs(n=200)
        forest = RandomForestClassifier(n_estimators=7, max_depth=3, seed=0).fit(x, y)
        proba = forest.predict_proba(x)
        assert proba.shape == (len(x), 2)
        assert proba.sum(axis=1) == pytest.approx(np.ones(len(x)))

    def test_decision_function_binary(self):
        x, y = make_blobs(n=200)
        forest = RandomForestClassifier(n_estimators=5, seed=0).fit(x, y)
        scores = forest.decision_function(x)
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_feature_importances(self):
        x, y = make_blobs(n=400, sep=4.0)
        forest = RandomForestClassifier(n_estimators=10, max_depth=4, seed=0).fit(x, y)
        assert np.argmax(forest.feature_importances_) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict_proba(np.zeros((1, 2)))
