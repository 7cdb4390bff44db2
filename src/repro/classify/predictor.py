"""The classification-based prediction pipeline (Section 5.1).

Training and evaluation follow the paper's three-snapshot protocol:

1. snowball-sample a node set from ``G_{t-2}`` (seed node fixed);
2. re-sample ``G_{t-1}`` *with the same seed* so train/test populations
   align;
3. train on pairs among the ``G_{t-2}`` sample, labelled by connectivity in
   ``G_{t-1}``, with negatives undersampled at ratio theta;
4. score all unconnected pairs among the ``G_{t-1}`` sample, take the top-k
   (k = true new-edge count inside the sample), compare against ``G_t``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from repro.classify.features import FeatureExtractor
from repro.classify.sampling import labeled_pairs, undersample_indices
from repro.eval.accuracy import score_prediction
from repro.eval.experiment import MetricStepResult, PairFilter, filter_mask
from repro.eval.ranking import top_k_pairs
from repro.graph.sampling import snowball_sample
from repro.graph.snapshots import Snapshot, new_edges_between
from repro.metrics import CLASSIFIER_FEATURES
from repro.metrics.candidates import random_nonedge_pairs
from repro.ml import CLASSIFIERS, StandardScaler
from repro.utils.pairs import Pair
from repro.utils.rng import ensure_rng


@dataclass
class SampledInstance:
    """One train/test data instance (a row of Table 6)."""

    train_view: Snapshot   # sampled G_{t-2}
    label_view: Snapshot   # sampled G_{t-1} (labels for training)
    test_view: Snapshot    # sampled G_{t-1} (candidate universe for testing)
    truth: set[Pair]       # new edges of G_t among test_view's nodes
    seed_node: int

    @property
    def k(self) -> int:
        return len(self.truth)


def sampled_instance(
    g_prev2: Snapshot,
    g_prev1: Snapshot,
    g_next: Snapshot,
    fraction: float = 1.0,
    rng: "int | np.random.Generator | None" = None,
    seed_node: "int | None" = None,
) -> SampledInstance:
    """Build a snowball-sampled instance from three consecutive snapshots.

    ``fraction=1.0`` keeps every node (the paper's Facebook setting);
    smaller fractions reproduce the p=2% sampling used for Renren/YouTube.
    """
    generator = ensure_rng(rng)
    if fraction >= 1.0:
        train_view, label_view, test_view = g_prev2, g_prev1, g_prev1
        seed = -1
    else:
        nodes_prev2 = snowball_sample(g_prev2, fraction, seed_node=seed_node, rng=generator)
        # Reuse the same seed on the next snapshot (Section 5.1).
        seed = seed_node if seed_node is not None else min(nodes_prev2)
        if seed not in nodes_prev2:
            seed = min(nodes_prev2)
        nodes_prev1 = snowball_sample(g_prev1, fraction, seed_node=seed, rng=generator)
        train_view = g_prev2.subgraph(nodes_prev2)
        label_view = g_prev1.subgraph(nodes_prev1 | nodes_prev2)
        test_view = g_prev1.subgraph(nodes_prev1)
    fresh = new_edges_between(g_prev1, g_next)
    truth = {
        (u, v) for (u, v) in fresh if test_view.has_node(u) and test_view.has_node(v)
    }
    return SampledInstance(
        train_view=train_view,
        label_view=label_view,
        test_view=test_view,
        truth=truth,
        seed_node=seed,
    )


class ClassificationPredictor:
    """A trained classifier over similarity-metric features.

    Parameters
    ----------
    classifier:
        ``"SVM"``, ``"LR"``, ``"NB"`` or ``"RF"`` (the paper's four), or a
        ready classifier instance following the :mod:`repro.ml` protocol.
    theta:
        Undersampling ratio as a fraction (``1/50`` reproduces the paper's
        "1:50"); ``None`` trains on the full imbalanced pair set.
    log_features:
        Apply ``log1p`` to the heavy-tailed non-negative feature columns
        (the library default — see
        :class:`~repro.classify.features.FeatureExtractor`).  ``False``
        reproduces the paper-faithful raw-feature configuration, whose
        accuracy is far more sensitive to the undersampling ratio
        (Fig. 10's phenomenon).
    """

    def __init__(
        self,
        classifier: str = "SVM",
        theta: "float | None" = 0.01,
        feature_names=CLASSIFIER_FEATURES,
        seed: "int | np.random.Generator | None" = None,
        log_features: bool = True,
    ) -> None:
        self.rng = ensure_rng(seed)
        if isinstance(classifier, str):
            try:
                factory = CLASSIFIERS[classifier]
            except KeyError:
                raise KeyError(
                    f"unknown classifier {classifier!r}; choose from {sorted(CLASSIFIERS)}"
                ) from None
            # A randomised classifier (RF, AdaBoost, GBT) draws from a child
            # of the predictor's generator; spawning leaves the parent's
            # stream, and so the undersampling draws, untouched.
            if "seed" in inspect.signature(factory).parameters:
                self.classifier = factory(seed=self.rng.spawn(1)[0])
            else:
                self.classifier = factory()
            self.classifier_name = classifier
        else:
            self.classifier = classifier
            self.classifier_name = type(classifier).__name__
        self.theta = theta
        self.extractor = FeatureExtractor(feature_names, log_transform=log_features)
        self.scaler = StandardScaler()
        self._trained = False

    # ------------------------------------------------------------------
    def train(self, train_view: Snapshot, label_view: Snapshot) -> "ClassificationPredictor":
        """Fit on candidate pairs of ``train_view`` labelled by ``label_view``.

        The full-candidate feature matrix is cached on the snapshot, so
        training several predictors (different classifiers, thetas, seeds)
        against the same view computes the similarity features only once.
        """
        pairs, features_all = self.extractor.compute_for_candidates(train_view)
        labels = labeled_pairs(train_view, label_view, pairs)
        if labels.sum() == 0:
            raise ValueError(
                "no positive pairs between the training snapshots; "
                "use a larger sample or a later snapshot"
            )
        if self.theta is not None:
            keep = undersample_indices(labels, self.theta, self.rng)
            features, labels = features_all[keep], labels[keep]
        else:
            features = features_all
        self.classifier.fit(self.scaler.fit_transform(features), labels)
        self._trained = True
        return self

    def score_pairs(self, view: Snapshot, pairs: np.ndarray) -> np.ndarray:
        """Decision scores for candidate pairs of ``view``."""
        if not self._trained:
            raise RuntimeError("ClassificationPredictor: call train() first")
        if len(pairs) == 0:
            return np.zeros(0)
        features = self.extractor.compute(view, pairs)
        return self.classifier.decision_function(self.scaler.transform(features))

    def feature_weights(self) -> np.ndarray:
        """Normalised |coefficients| per feature (linear classifiers only)."""
        coef = getattr(self.classifier, "coef_", None)
        if coef is None:
            raise RuntimeError(
                f"{self.classifier_name} exposes no linear coefficients"
            )
        magnitude = np.abs(coef)
        return magnitude / magnitude.sum() if magnitude.sum() else magnitude

    # ------------------------------------------------------------------
    def predict_step(
        self,
        test_view: Snapshot,
        truth: "set[Pair]",
        rng: "int | np.random.Generator | None" = None,
        pair_filter: "PairFilter | None" = None,
        step: int = 0,
    ) -> MetricStepResult:
        """Top-k prediction on the test view, scored against ground truth."""
        if not self._trained:
            raise RuntimeError("ClassificationPredictor: call train() first")
        generator = ensure_rng(rng)
        pairs, features = self.extractor.compute_for_candidates(test_view)
        if pair_filter is not None and len(pairs):
            mask = filter_mask(pair_filter, test_view, pairs)
            pairs, features = pairs[mask], features[mask]
        k = len(truth)
        scores = (
            self.classifier.decision_function(self.scaler.transform(features))
            if len(pairs)
            else np.zeros(0)
        )
        top = top_k_pairs(pairs, scores, k, generator)
        predicted = {(int(u), int(v)) for u, v in top}
        fill = 0
        if len(predicted) < k:
            filler = random_nonedge_pairs(test_view, k - len(predicted), generator, exclude=predicted)
            fill = len(filler)
            predicted.update(filler)
            top = np.asarray(sorted(predicted), dtype=np.int64).reshape(-1, 2)
        outcome = score_prediction(test_view, predicted, truth)
        return MetricStepResult(
            metric=self.classifier_name,
            step=step,
            snapshot_time=test_view.time,
            outcome=outcome,
            predicted=top,
            random_fill=fill,
        )

    def evaluate_instance(
        self,
        instance: SampledInstance,
        rng: "int | np.random.Generator | None" = None,
        pair_filter: "PairFilter | None" = None,
    ) -> MetricStepResult:
        """Train on the instance's train/label views and test in one call."""
        self.train(instance.train_view, instance.label_view)
        return self.predict_step(
            instance.test_view, instance.truth, rng=rng, pair_filter=pair_filter
        )
