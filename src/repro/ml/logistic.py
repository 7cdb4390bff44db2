"""Logistic regression trained with L-BFGS on the regularised log-loss."""

from __future__ import annotations

import numpy as np
from scipy.special import expit, log1p

from repro.ml.base import BinaryClassifier, check_xy


def _log1pexp(z: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(1 + exp(z))``."""
    out = np.empty_like(z)
    small = z <= 30
    out[small] = log1p(np.exp(z[small]))
    out[~small] = z[~small]
    return out


class LogisticRegression(BinaryClassifier):
    """L2-regularised logistic regression.

    ``C`` follows the scikit-learn convention (inverse regularisation).
    """

    def __init__(self, C: float = 1.0, max_iter: int = 200) -> None:
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.max_iter = max_iter
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        # Imported here: scipy.optimize costs ~0.17 s to import and the server
        # never trains a classifier.
        from scipy.optimize import minimize

        x, y = check_xy(x, y)
        signs = self._encode_labels(y)
        n, d = x.shape
        lam = 1.0 / (self.C * n)

        def objective(params: np.ndarray):
            w, b = params[:d], params[d]
            z = signs * (x @ w + b)
            loss = np.mean(_log1pexp(-z)) + 0.5 * lam * (w @ w)
            # d/dz log(1+e^-z) = -sigmoid(-z)
            coeff = -signs * expit(-z) / n
            grad_w = x.T @ coeff + lam * w
            grad_b = float(np.sum(coeff))
            return loss, np.concatenate([grad_w, [grad_b]])

        result = minimize(
            objective,
            np.zeros(d + 1),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.coef_ = result.x[:d]
        self.intercept_ = float(result.x[d])
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("LogisticRegression: call fit before decision_function")
        x, _ = check_xy(x)
        return x @ self.coef_ + self.intercept_

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Probability of the positive class (``classes_[1]``)."""
        return expit(self.decision_function(x))
