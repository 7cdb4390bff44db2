"""Recursive CART: the reference the array-encoded trees are checked against.

:mod:`repro.ml.tree` stores a fitted tree as preorder arrays, predicts by
level-synchronous descent and searches a node's sampled features in one
batch.  This module keeps the node-graph tree those kernels replaced:
one ``_Node`` per node, a per-row walk in ``_leaf_counts`` and a
per-feature loop in ``_best_split``.  It shares no code with the array
tree beyond input validation and rng seeding, and consumes the rng in the
same order (one draw of features per split node, in preorder), so
``tests/test_tree_parity.py`` can demand the same bits from both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import check_xy
from repro.utils.rng import ensure_rng


@dataclass
class _Node:
    """One tree node; leaves have ``feature == -1``."""

    feature: int = -1
    threshold: float = 0.0
    left: "._Node | None" = None
    right: "._Node | None" = None
    counts: np.ndarray | None = None  # class counts of training rows here

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def _gini_from_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


class DecisionTreeClassifier:
    """CART classifier supporting any number of classes.

    Parameters mirror the scikit-learn names: ``max_depth``,
    ``min_samples_split``, ``min_samples_leaf``, ``max_features`` (``None``,
    ``"sqrt"`` or an int — the latter two are what the random forest uses).
    """

    def __init__(
        self,
        max_depth: "int | None" = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: "int | str | None" = None,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = ensure_rng(seed)
        self.root_: _Node | None = None
        self.classes_: np.ndarray | None = None
        self.n_features_: int = 0
        self.feature_importances_: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _feature_count(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, self.n_features_))
        raise ValueError(f"bad max_features: {self.max_features!r}")

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        x, y = check_xy(x, y)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self.n_features_ = x.shape[1]
        self._importance = np.zeros(self.n_features_)
        self.root_ = self._build(x, encoded, depth=0)
        total = self._importance.sum()
        self.feature_importances_ = (
            self._importance / total if total > 0 else self._importance
        )
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        counts = np.bincount(y, minlength=len(self.classes_))
        node = _Node(counts=counts)
        if (
            len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or counts.max() == len(y)  # pure node
        ):
            return node
        split = self._best_split(x, y, counts)
        if split is None:
            return node
        feature, threshold, gain = split
        mask = x[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        self._importance[feature] += gain * len(y)
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, x, y, counts):
        """Best (feature, threshold, gini gain) or None if no valid split."""
        n = len(y)
        parent_gini = _gini_from_counts(counts)
        k = len(self.classes_)
        features = np.arange(self.n_features_)
        m = self._feature_count()
        if m < self.n_features_:
            features = self.rng.choice(features, size=m, replace=False)
        best = None
        best_gain = 1e-12  # require a strictly positive gain
        for f in features:
            order = np.argsort(x[:, f], kind="stable")
            values = x[order, f]
            labels = y[order]
            # Prefix class counts after each row: shape (n, k).
            onehot = np.zeros((n, k))
            onehot[np.arange(n), labels] = 1.0
            prefix = np.cumsum(onehot, axis=0)
            # Candidate split after row i (0-based): left = rows [0..i].
            left_n = np.arange(1, n)
            valid = values[:-1] < values[1:]  # only between distinct values
            valid &= (left_n >= self.min_samples_leaf) & (
                n - left_n >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            left_counts = prefix[:-1]
            right_counts = counts - left_counts
            left_tot = left_n[:, None]
            right_tot = n - left_tot
            gini_left = 1.0 - np.sum((left_counts / left_tot) ** 2, axis=1)
            gini_right = 1.0 - np.sum((right_counts / right_tot) ** 2, axis=1)
            weighted = (left_n * gini_left + (n - left_n) * gini_right) / n
            gain = parent_gini - weighted
            gain[~valid] = -np.inf
            i = int(np.argmax(gain))
            if gain[i] > best_gain:
                best_gain = float(gain[i])
                threshold = float((values[i] + values[i + 1]) / 2.0)
                if threshold == values[i + 1]:  # adjacent floats
                    threshold = float(values[i])
                best = (int(f), threshold, best_gain)
        return best

    # ------------------------------------------------------------------
    def _leaf_counts(self, x: np.ndarray) -> np.ndarray:
        if self.root_ is None:
            raise RuntimeError("DecisionTreeClassifier: call fit before predict")
        out = np.empty((len(x), len(self.classes_)))
        for i, row in enumerate(x):
            node = self.root_
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.counts
        return out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x, _ = check_xy(x)
        counts = self._leaf_counts(x)
        totals = counts.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return counts / totals

    def predict(self, x: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(x)
        return self.classes_[np.argmax(proba, axis=1)]

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Probability of the last class (binary convention).

        Trees produce coarse scores (the paper rejects them for exactly
        this lack of granularity) but the method keeps the interface
        uniform with the other classifiers.
        """
        if len(self.classes_) != 2:
            raise RuntimeError("decision_function requires a binary tree")
        return self.predict_proba(x)[:, 1]

    # ------------------------------------------------------------------
    def export_text(
        self,
        feature_names: "list[str] | None" = None,
        class_names: "list[str] | None" = None,
    ) -> str:
        """Readable if/else rendering of the learned rules (Fig. 6)."""
        if self.root_ is None:
            raise RuntimeError("DecisionTreeClassifier: call fit before export_text")

        def name(f: int) -> str:
            return feature_names[f] if feature_names else f"feature[{f}]"

        def label(counts: np.ndarray) -> str:
            cls = self.classes_[int(np.argmax(counts))]
            if class_names is not None:
                return str(class_names[int(np.argmax(counts))])
            return str(cls)

        lines: list[str] = []

        def walk(node: _Node, indent: str) -> None:
            if node.is_leaf:
                lines.append(f"{indent}=> {label(node.counts)} (n={int(node.counts.sum())})")
                return
            lines.append(f"{indent}if {name(node.feature)} <= {node.threshold:.3f}:")
            walk(node.left, indent + "  ")
            lines.append(f"{indent}else:  # {name(node.feature)} > {node.threshold:.3f}")
            walk(node.right, indent + "  ")

        walk(self.root_, "")
        return "\n".join(lines)

    def depth(self) -> int:
        """Height of the fitted tree (0 for a stump)."""
        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self.root_ is None:
            raise RuntimeError("DecisionTreeClassifier: call fit before depth")
        return walk(self.root_)
