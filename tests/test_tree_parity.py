"""Array-encoded CART against the recursive reference, bit for bit.

:mod:`repro.ml.tree` fits by a batched split search and predicts by
level-synchronous descent over preorder arrays; ``tests/tree_oracle.py``
keeps the node-graph tree with a per-feature split loop and a per-row
walk.  Both are fitted on the same data with the same seed, and every
float is compared by its float64 bits: structure, thresholds, leaf counts,
``predict_proba``, ``feature_importances_``, ``export_text``, and the
decision scores of the ensembles built on the trees.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.classify import ClassificationPredictor
from repro.ml import boosting, forest
from repro.ml.tree import DecisionTreeClassifier
from tests import tree_oracle


def same_bits(a, b) -> bool:
    """Equal shape and equal float64 bit patterns (so -0.0 != 0.0)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def flatten(oracle: tree_oracle.DecisionTreeClassifier) -> dict:
    """The oracle's node graph as preorder arrays, leaves pointing to themselves."""
    feature, threshold, left, right, counts = [], [], [], [], []

    def visit(node) -> int:
        i = len(feature)
        feature.append(node.feature)
        threshold.append(node.threshold)
        left.append(i)
        right.append(i)
        counts.append(node.counts)
        if not node.is_leaf:
            left[i] = visit(node.left)
            right[i] = visit(node.right)
        return i

    visit(oracle.root_)
    return {
        "feature": np.asarray(feature, dtype=np.int64),
        "threshold": np.asarray(threshold, dtype=np.float64),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "counts": np.asarray(counts, dtype=np.float64),
    }


def assert_same_tree(tree, oracle, x, x_new) -> None:
    ref = flatten(oracle)
    assert np.array_equal(tree.feature_, ref["feature"])
    assert np.array_equal(tree.left_, ref["left"])
    assert np.array_equal(tree.right_, ref["right"])
    assert same_bits(tree.threshold_, ref["threshold"])
    assert same_bits(tree.counts_, ref["counts"])
    assert tree.depth() == oracle.depth()
    assert same_bits(tree.feature_importances_, oracle.feature_importances_)
    for rows in (x, x_new):
        assert same_bits(tree.predict_proba(rows), oracle.predict_proba(rows))
        assert np.array_equal(tree.predict(rows), oracle.predict(rows))
    names = [f"f{i}" for i in range(x.shape[1])]
    classes = [f"c{i}" for i in range(len(oracle.classes_))]
    assert tree.export_text() == oracle.export_text()
    assert tree.export_text(names, classes) == oracle.export_text(names, classes)


def _dataset(name: str):
    rng = np.random.default_rng(sum(name.encode()))
    if name.startswith("gaussian_k"):
        k = int(name[-1])
        x = rng.normal(size=(120, 5))
        y = (np.digitize(x[:, 0] + 0.7 * x[:, 1] + rng.normal(0, 0.6, 120),
                         np.linspace(-1, 1, k - 1)))
        return x, y
    if name == "ties_k3":  # small integers: long runs of equal values
        x = rng.integers(0, 4, size=(150, 4)).astype(np.float64)
        return x, (x[:, 0] + rng.integers(0, 2, 150)) % 3
    if name == "constant_columns":
        x = rng.normal(size=(100, 5))
        x[:, [1, 3]] = 2.5
        return x, (x[:, 0] > 0).astype(np.int64)
    if name == "duplicate_columns":  # equal gains on several features
        base = rng.normal(size=(100, 2))
        x = base[:, [0, 1, 0, 1, 0]]
        return x, (base[:, 0] + 0.3 * rng.normal(size=100) > 0).astype(np.int64)
    if name == "adjacent_floats":
        # Values one ulp apart: a midpoint threshold can round onto the
        # upper value, so ``x <= threshold`` sends it left, unlike the
        # sorted split.  Where that value is the node's largest, the split
        # moves no row and repeats until max_depth; both trees do so, so
        # this dataset runs at bounded depths only.
        ulps = 1.0 + np.arange(6) * np.finfo(np.float64).eps
        return rng.choice(ulps, size=(90, 3)), rng.integers(0, 2, size=90)
    if name == "signed_zeros":  # -0.0 and 0.0 compare equal but differ in bits
        x = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(80, 3))
        return x, rng.integers(0, 2, size=80)
    if name == "imbalanced_labels":  # arbitrary label values, 5% positives
        x = rng.normal(size=(200, 4))
        return x, np.where(rng.random(200) < 0.05, 7, -3)
    if name == "single_class":
        return rng.normal(size=(40, 3)), np.full(40, 4)
    if name == "too_small":
        return rng.normal(size=(3, 2)), np.asarray([0, 1, 0])
    raise KeyError(name)


DATASETS = (
    "gaussian_k2", "gaussian_k3", "gaussian_k4", "ties_k3", "constant_columns",
    "duplicate_columns", "adjacent_floats", "signed_zeros", "imbalanced_labels",
    "single_class", "too_small",
)
GRID = list(itertools.product((None, 1, 3), (2, 7), (1, 4)))


@pytest.mark.parametrize("max_features", [None, "sqrt", 2])
@pytest.mark.parametrize("dataset", DATASETS)
def test_tree_matches_oracle(dataset, max_features):
    x, y = _dataset(dataset)
    x_new = np.random.default_rng(1).normal(size=(60, x.shape[1])) + x.mean(axis=0)
    for seed, (max_depth, min_split, min_leaf) in enumerate(GRID):
        if dataset == "adjacent_floats" and max_depth is None:
            continue
        params = dict(
            max_depth=max_depth,
            min_samples_split=min_split,
            min_samples_leaf=min_leaf,
            max_features=max_features,
        )
        tree = DecisionTreeClassifier(seed=seed, **params).fit(x, y)
        oracle = tree_oracle.DecisionTreeClassifier(seed=seed, **params).fit(x, y)
        assert_same_tree(tree, oracle, x, x_new)


@pytest.fixture(scope="module")
def predictor_training_set(facebook_snapshots):
    """The standardised features and labels a ClassificationPredictor trains on."""

    class Recorder:
        def fit(self, x, y):
            self.x, self.y = x, y
            return self

    recorder = Recorder()
    g2, g1 = facebook_snapshots[-3:-1]
    predictor = ClassificationPredictor(recorder, theta=0.01, seed=3).train(g2, g1)
    _pairs, features = predictor.extractor.compute_for_candidates(g1)
    return recorder.x, recorder.y, predictor.scaler.transform(features)


def test_split_between_adjacent_floats():
    """The midpoint of two adjacent floats can round onto the upper one;
    the threshold must still separate them, or every row goes left and an
    unbounded tree recurses until ``RecursionError``."""
    low = np.nextafter(1.0, 2.0)
    high = np.nextafter(low, 2.0)
    assert (low + high) / 2.0 == high
    x = np.array([[low], [high]] * 3)
    y = np.array([0, 1] * 3)
    tree = DecisionTreeClassifier(seed=0).fit(x, y)
    oracle = tree_oracle.DecisionTreeClassifier(seed=0).fit(x, y)
    assert_same_tree(tree, oracle, x, x)
    assert tree.threshold_[0] == low
    assert np.array_equal(tree.predict(x), y)


def test_predictor_training_set_tree(predictor_training_set):
    x, y, x_test = predictor_training_set
    assert 0 < y.sum() < len(y)
    for params in ({}, {"max_depth": 12, "max_features": "sqrt"}):
        tree = DecisionTreeClassifier(seed=5, **params).fit(x, y)
        oracle = tree_oracle.DecisionTreeClassifier(seed=5, **params).fit(x, y)
        assert_same_tree(tree, oracle, x, x_test)


ENSEMBLES = {
    "RF": lambda: forest.RandomForestClassifier(n_estimators=12, seed=11),
    "AdaBoost": lambda: boosting.AdaBoostClassifier(n_estimators=15, seed=11),
    "GBT": lambda: boosting.GradientBoostingClassifier(n_estimators=15, seed=11),
}


CASES = [(name, data) for name in ENSEMBLES
         for data in ("gaussian_k2", "imbalanced_labels", "real")]


@pytest.mark.parametrize("name,dataset", CASES + [("RF", "ties_k3")])
def test_ensemble_scores_match_oracle(name, dataset, predictor_training_set, monkeypatch):
    if dataset == "real":
        x, y, x_test = predictor_training_set
    else:
        x, y = _dataset(dataset)
        x_test = np.random.default_rng(2).normal(size=(80, x.shape[1]))
    model = ENSEMBLES[name]().fit(x, y)
    monkeypatch.setattr(forest, "DecisionTreeClassifier", tree_oracle.DecisionTreeClassifier)
    monkeypatch.setattr(boosting, "DecisionTreeClassifier", tree_oracle.DecisionTreeClassifier)
    reference = ENSEMBLES[name]().fit(x, y)
    if name == "RF":
        assert same_bits(model.predict_proba(x_test), reference.predict_proba(x_test))
        assert same_bits(model.feature_importances_, reference.feature_importances_)
    else:
        assert same_bits(model.decision_function(x_test), reference.decision_function(x_test))
