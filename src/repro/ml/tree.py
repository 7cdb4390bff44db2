"""CART decision trees (classification).

Used in two places:

- Section 4.3 trains a *multi-class* tree mapping network-structure features
  to the best metric-based algorithm (Fig. 6), plus per-algorithm binary
  trees ("when is this algorithm within 90% of optimal?") — both need
  human-readable rule export, provided by :meth:`DecisionTreeClassifier.export_text`;
- :mod:`repro.ml.forest` builds its random forest from these trees.

Splits maximise Gini impurity decrease, evaluated for every threshold of
every (optionally subsampled) feature with vectorised prefix sums.

Layout.  A fitted tree is five parallel arrays indexed by node id, nodes
numbered in preorder (the root is 0 and a left child directly follows its
parent): ``feature_`` (int64, -1 marks a leaf), ``threshold_`` (float64),
``left_`` and ``right_`` (int64 child ids; a leaf's children are itself)
and ``counts_`` (float64, nodes x classes: the class counts of the training
rows that reached the node), plus ``depth_``, the longest root-to-leaf path.

Both kernels give the same bits as a recursive node-by-node CART:

- *Prediction* descends level by level: every row starts at the root and
  each of ``depth_`` steps gathers ``x[row, feature] <= threshold`` for all
  rows at once and moves them to ``left_`` or ``right_``; rows at a leaf stay
  put, since its children are itself.  It makes the same float64 comparison
  on the same values as a per-row walk and ends on the same leaf.
- *Fitting* stays depth-first, left before right, so the rng draws each
  split node's features in the same (preorder) sequence.  A node's ``m``
  sampled features are searched together: one argsort of an ``(m, n)``
  block, class counts left of each candidate threshold as exact integers
  (a cumsum of the class-1 indicator for two classes, of a one-hot matrix
  otherwise), the Gini expression applied in the same operation order, and
  the first maximum in (feature, threshold) order — the tie-breaks of a
  feature-by-feature loop that keeps a feature only on a strictly larger
  gain.  The sort need not be stable: a threshold is only tried between
  distinct values, and the count of rows left of it does not depend on how
  equal values were ordered.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_xy
from repro.utils.rng import ensure_rng


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
        self.feature_: np.ndarray | None = None
        self.threshold_: np.ndarray | None = None
        self.left_: np.ndarray | None = None
        self.right_: np.ndarray | None = None
        self.counts_: np.ndarray | None = None
        self.depth_: int = 0
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
        nodes: list[tuple[int, float, int, np.ndarray]] = []
        importance = np.zeros(self.n_features_)
        columns = np.ascontiguousarray(x.T)
        m = self._feature_count()
        self.depth_ = 0

        def grow(rows: np.ndarray, depth: int) -> int:
            """Append the subtree over ``rows`` in preorder; its root's id."""
            y_node = encoded[rows]
            counts = np.bincount(y_node, minlength=len(self.classes_))
            node = len(nodes)
            nodes.append((-1, 0.0, node, counts))
            self.depth_ = max(self.depth_, depth)
            if (
                len(rows) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or counts.max() == len(rows)  # pure node
            ):
                return node
            split = self._best_split(columns, rows, y_node, counts, m)
            if split is None:
                return node
            feature, threshold, gain = split
            mask = columns[feature, rows] <= threshold
            importance[feature] += gain * len(rows)
            grow(rows[mask], depth + 1)
            right = grow(rows[~mask], depth + 1)
            nodes[node] = (feature, threshold, right, counts)
            return node

        grow(np.arange(len(x)), 0)
        feature, threshold, right, counts = zip(*nodes)
        self.feature_ = np.asarray(feature, dtype=np.int64)
        self.threshold_ = np.asarray(threshold, dtype=np.float64)
        self.right_ = np.asarray(right, dtype=np.int64)
        ids = np.arange(len(nodes), dtype=np.int64)
        self.left_ = np.where(self.feature_ < 0, ids, ids + 1)
        self.counts_ = np.asarray(counts, dtype=np.float64)
        total = importance.sum()
        self.feature_importances_ = importance / total if total > 0 else importance
        return self

    def _best_split(self, columns, rows, y, counts, m):
        """Best (feature, threshold, gini gain) or None if no valid split.

        ``columns`` is the training matrix transposed, ``rows`` the node's
        rows of it, ``y`` their encoded labels and ``m`` how many features
        to sample.
        """
        n = len(y)
        features = np.arange(self.n_features_)
        if m < self.n_features_:
            features = self.rng.choice(features, size=m, replace=False)
        low = self.min_samples_leaf
        if n < 2 * low:
            return None
        block = columns.take(features, axis=0).take(rows, axis=1)
        order = block.argsort(axis=1)
        values = block.take(order + (np.arange(len(features)) * n)[:, None])
        labels = y[order]
        # Candidate split after sorted row i (0-based): left = rows [0..i].
        # Only between distinct values, leaving min_samples_leaf rows a side.
        valid = values[:, :-1] < values[:, 1:]
        valid[:, : low - 1] = False
        valid[:, n - low:] = False
        j, i = valid.nonzero()  # (feature, sorted row), in row-major order
        if len(i) == 0:
            return None
        left_n = i + 1
        right_n = n - left_n
        # Class counts left of each candidate, as exact integers: the
        # divisions below see the same float64 operands as a float cumsum
        # of one-hot rows would give them.
        k = len(counts)
        if k == 2:
            # the row sum of two squares is one addition, in either order
            left1 = labels.cumsum(axis=1)[j, i]
            left0 = left_n - left1
            gini_left = 1.0 - ((left0 / left_n) ** 2 + (left1 / left_n) ** 2)
            right0, right1 = counts[0] - left0, counts[1] - left1
            gini_right = 1.0 - ((right0 / right_n) ** 2 + (right1 / right_n) ** 2)
        else:
            onehot = labels[:, :, None] == np.arange(k)
            left_counts = onehot.cumsum(axis=1)[j, i]
            right_counts = counts - left_counts
            gini_left = 1.0 - np.sum((left_counts / left_n[:, None]) ** 2, axis=1)
            gini_right = 1.0 - np.sum((right_counts / right_n[:, None]) ** 2, axis=1)
        weighted = (left_n * gini_left + right_n * gini_right) / n
        gain = _gini_from_counts(counts) - weighted
        # The first maximum in (feature, threshold) order: the first best
        # threshold of the first best feature in sampled order.
        best = int(gain.argmax())
        if not gain[best] > 1e-12:  # require a strictly positive gain
            return None
        f, r = j[best], i[best]
        below, above = values[f, r], values[f, r + 1]
        threshold = float((below + above) / 2.0)
        if threshold == above:
            # adjacent floats: the midpoint rounds onto the upper value, and
            # ``<= threshold`` would send every row left
            threshold = float(below)
        return int(features[f]), threshold, float(gain[best])

    # ------------------------------------------------------------------
    def _check_fitted(self, method: str) -> None:
        if self.feature_ is None:
            raise RuntimeError(f"DecisionTreeClassifier: call fit before {method}")

    def _leaves(self, x: np.ndarray) -> np.ndarray:
        """The leaf each row of ``x`` lands in, by level-synchronous descent.

        At a leaf, feature -1 gathers the value before the row's first
        one in the flattened matrix (the last value, for row 0); the
        comparison is discarded, as both of a leaf's children are the leaf.
        """
        flat = np.ascontiguousarray(x).ravel()
        starts = np.arange(len(x)) * x.shape[1]
        node = np.zeros(len(x), dtype=np.int64)
        for _ in range(self.depth_):
            values = flat.take(starts + self.feature_.take(node))
            goes_left = values <= self.threshold_.take(node)
            node = np.where(goes_left, self.left_.take(node), self.right_.take(node))
        return node

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        self._check_fitted("predict")
        x, _ = check_xy(x)
        if x.shape[1] != self.n_features_:
            raise ValueError(
                f"x has {x.shape[1]} features, the tree was fitted on {self.n_features_}"
            )
        counts = self.counts_[self._leaves(x)]
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
        self._check_fitted("export_text")

        def name(f: int) -> str:
            return feature_names[f] if feature_names else f"feature[{f}]"

        def label(counts: np.ndarray) -> str:
            cls = self.classes_[int(np.argmax(counts))]
            if class_names is not None:
                return str(class_names[int(np.argmax(counts))])
            return str(cls)

        lines: list[str] = []

        def walk(node: int, indent: str) -> None:
            feature = int(self.feature_[node])
            if feature < 0:
                counts = self.counts_[node]
                lines.append(f"{indent}=> {label(counts)} (n={int(counts.sum())})")
                return
            threshold = self.threshold_[node]
            lines.append(f"{indent}if {name(feature)} <= {threshold:.3f}:")
            walk(int(self.left_[node]), indent + "  ")
            lines.append(f"{indent}else:  # {name(feature)} > {threshold:.3f}")
            walk(int(self.right_[node]), indent + "  ")

        walk(0, "")
        return "\n".join(lines)

    def depth(self) -> int:
        """Height of the fitted tree (0 for a stump)."""
        self._check_fitted("depth")
        return self.depth_
