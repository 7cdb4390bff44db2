"""Time-series based link prediction [10] (the Section 6.3 baseline).

For each candidate pair the base similarity metric is evaluated at several
equally spaced past time points; the per-pair score series is then
aggregated into a single prediction score.  The paper implements the two
best aggregations from [10]:

- **MA** (moving average): mean of the series,
- **LR** (linear regression): fit a line to the series and extrapolate one
  step ahead,

with the spacing equal to the gap between consecutive snapshots.  The
wrapper conforms to the :class:`~repro.metrics.base.SimilarityMetric`
protocol, so it drops into ``evaluate_step`` like any ordinary metric —
including *with* a temporal filter on top, which is how Fig. 16's four-way
comparison (Basic/Time-Model x unfiltered/filtered) is produced.
"""

from __future__ import annotations

import numpy as np

from repro.graph.snapshots import Snapshot
from repro.metrics.base import SimilarityMetric, get_metric
from repro.metrics.kernels import score_pairs


def _linear_extrapolate(series: np.ndarray) -> np.ndarray:
    """Per-row OLS line fit over t = 0..w-1, evaluated at t = w.

    ``series`` is ``(n_pairs, w)``; returns the predicted next value of
    each row.  With w == 1 this degenerates to the last observation.
    """
    n, w = series.shape
    if w == 1:
        return series[:, 0].copy()
    t = np.arange(w, dtype=np.float64)
    t_mean = t.mean()
    y_mean = series.mean(axis=1)
    denom = float(np.sum((t - t_mean) ** 2))
    slope = (series - y_mean[:, None]) @ (t - t_mean) / denom
    return y_mean + slope * (w - t_mean)


class TimeSeriesMetric(SimilarityMetric):
    """Wrap a base metric with MA or LR aggregation over past snapshots.

    Parameters
    ----------
    base:
        Name of the underlying similarity metric (e.g. ``"RA"``).
    aggregation:
        ``"ma"`` (moving average) or ``"lr"`` (linear regression).
    points:
        Number of past time points (including the fitted snapshot itself).
    spacing_days:
        Gap between time points; ``None`` uses the paper's rule — the same
        number of days as between the two most recent snapshots, inferred
        at ``fit`` time from a tenth of the trace span as a fallback.
    """

    candidate_strategy = "two_hop"

    def __init__(
        self,
        base: str = "RA",
        aggregation: str = "ma",
        points: int = 3,
        spacing_days: "float | None" = None,
    ) -> None:
        super().__init__()
        if aggregation not in ("ma", "lr"):
            raise ValueError(f"aggregation must be 'ma' or 'lr', got {aggregation!r}")
        if points < 1:
            raise ValueError(f"points must be >= 1, got {points}")
        self.base_name = base
        self.aggregation = aggregation
        self.points = points
        self.spacing_days = spacing_days
        self.name = f"{base}+{aggregation.upper()}"
        prototype = get_metric(base)
        self.candidate_strategy = prototype.candidate_strategy

    def _past_snapshots(self, snapshot: Snapshot) -> list[Snapshot]:
        """The fitted snapshot plus earlier cuts at the configured spacing."""
        spacing = self.spacing_days
        if spacing is None:
            spacing = max(1.0, (snapshot.time - snapshot.trace.start_time) / 10.0)
        history = [snapshot]
        for i in range(1, self.points):
            target = snapshot.time - i * spacing
            cutoff = snapshot.trace.edge_index_at_time(target)
            if cutoff < 1:
                break
            history.append(Snapshot(snapshot.trace, cutoff, index=-i))
        history.reverse()  # oldest first
        return history

    def fit(self, snapshot: Snapshot) -> "TimeSeriesMetric":
        self.snapshot = snapshot
        self._history = self._past_snapshots(snapshot)
        self._fitted = []
        for snap in self._history:
            metric = get_metric(self.base_name)
            metric.fit(snap)
            self._fitted.append(metric)
        return self

    def score_block(self, block) -> np.ndarray:
        self._require_fit()
        pairs = block.pairs
        series = np.zeros((len(pairs), len(self._fitted)))
        for j, (snap, metric) in enumerate(zip(self._history, self._fitted)):
            # Pairs whose endpoints did not exist yet score 0 at that point.
            exists = snap.lookup_positions(pairs)[1].all(axis=1)
            if exists.any():
                series[exists, j] = score_pairs(metric, snap, pairs[exists])
        if self.aggregation == "ma":
            return series.mean(axis=1)
        return _linear_extrapolate(series)
