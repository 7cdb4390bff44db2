"""Linear support vector machine.

L2-regularised squared-hinge SVM trained with L-BFGS on the primal:

    min_w,b  0.5 ||w||^2 + C * sum_i max(0, 1 - y_i (x_i w + b))^2

The squared hinge is smooth, so quasi-Newton optimisation converges in a
handful of iterations even on the strongly imbalanced training sets of
Section 5.2 (the same formulation as liblinear's ``L2R_L2LOSS_SVC``, the
scikit-learn ``LinearSVC`` default the paper used).

``coef_`` exposes the learned weight per feature; Section 5.3 compares the
normalised absolute coefficients against the similarity-metric ranking
(Fig. 12).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BinaryClassifier, check_xy


class LinearSVM(BinaryClassifier):
    """Primal linear SVM with squared-hinge loss.

    Parameters
    ----------
    C:
        Inverse regularisation strength (larger = fit training data harder).
    class_weight:
        ``None`` or ``"balanced"``.  Balanced weighting scales each class's
        loss inversely to its frequency; useful at extreme undersampling
        ratios where even the undersampled negatives dominate.
    max_iter:
        L-BFGS iteration budget.
    """

    def __init__(
        self,
        C: float = 1.0,
        class_weight: "str | None" = None,
        max_iter: int = 200,
    ) -> None:
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        if class_weight not in (None, "balanced"):
            raise ValueError(f"class_weight must be None or 'balanced', got {class_weight!r}")
        self.C = C
        self.class_weight = class_weight
        self.max_iter = max_iter
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearSVM":
        from scipy.optimize import minimize

        x, y = check_xy(x, y)
        signs = self._encode_labels(y)
        n, d = x.shape
        sample_weight = np.ones(n)
        if self.class_weight == "balanced":
            pos = signs > 0
            n_pos, n_neg = int(pos.sum()), int((~pos).sum())
            if n_pos and n_neg:
                sample_weight[pos] = n / (2.0 * n_pos)
                sample_weight[~pos] = n / (2.0 * n_neg)

        def objective(params: np.ndarray):
            w, b = params[:d], params[d]
            margins = 1.0 - signs * (x @ w + b)
            active = margins > 0
            slack = np.where(active, margins, 0.0)
            loss = 0.5 * w @ w + self.C * np.sum(sample_weight * slack**2)
            # Gradient of the squared hinge: -2 C y x slack on active rows.
            coeff = -2.0 * self.C * sample_weight * signs * slack
            grad_w = w + x.T @ coeff
            grad_b = float(np.sum(coeff))
            return loss, np.concatenate([grad_w, [grad_b]])

        start = np.zeros(d + 1)
        result = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.coef_ = result.x[:d]
        self.intercept_ = float(result.x[d])
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("LinearSVM: call fit before decision_function")
        x, _ = check_xy(x)
        return x @ self.coef_ + self.intercept_

    def normalized_coefficients(self) -> np.ndarray:
        """Per-feature |coef| normalised to sum to 1 (Fig. 12's quantity)."""
        if self.coef_ is None:
            raise RuntimeError("LinearSVM: call fit first")
        magnitude = np.abs(self.coef_)
        total = magnitude.sum()
        if total == 0:
            return np.full_like(magnitude, 1.0 / len(magnitude))
        return magnitude / total
