"""High-level facade over the library.

:class:`LinkPredictor` is the one-stop entry point a downstream user needs:
pick a similarity metric (or a classifier), optionally attach a temporal
filter, then either

- ``suggest(snapshot, k)`` — produce k link recommendations right now, or
- ``evaluate_sequence(trace, delta)`` — run the paper's full
  sequence-based evaluation and get per-step accuracy ratios back.

For batch experiment sweeps the declarative runner is re-exported here
too: build an :class:`~repro.eval.runner.ExperimentSpec` and call
:func:`~repro.eval.runner.run_experiment` — with ``n_jobs > 1`` it
dispatches work cells over a process pool and returns results
bit-identical to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.classify.predictor import ClassificationPredictor
from repro.eval.experiment import (
    MetricStepResult,
    PairFilter,
    evaluate_step,
    prediction_steps,
    rank_top_k,
)
from repro.eval.runner import ExperimentResult, ExperimentSpec, run_experiment
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot, snapshot_sequence
from repro.metrics.base import all_metric_names, get_metric
from repro.ml import CLASSIFIERS
from repro.utils.pairs import Pair
from repro.utils.rng import ensure_rng


def available_metrics() -> list[str]:
    """Names of all metric-based algorithms (Table 3)."""
    return all_metric_names()


def available_classifiers() -> list[str]:
    """Names of all classification-based algorithms (Section 5)."""
    return sorted(CLASSIFIERS)


@dataclass
class SnapshotResult:
    """One prediction step of :meth:`LinkPredictor.evaluate_sequence`."""

    step: int
    time: float
    k: int
    hits: int
    absolute: float
    ratio: float

    @classmethod
    def from_step(cls, result: MetricStepResult) -> "SnapshotResult":
        return cls(
            step=result.step,
            time=result.snapshot_time,
            k=result.outcome.k,
            hits=result.outcome.hits,
            absolute=result.absolute,
            ratio=result.ratio,
        )


@dataclass
class SequenceResult:
    """All steps of one sequence evaluation, with summary helpers."""

    method: str
    steps: list[SnapshotResult] = field(default_factory=list)

    @property
    def ratios(self) -> list[float]:
        return [s.ratio for s in self.steps]

    @property
    def mean_ratio(self) -> float:
        return float(np.mean(self.ratios)) if self.steps else 0.0

    @property
    def best_absolute(self) -> float:
        return max((s.absolute for s in self.steps), default=0.0)

    def summary(self) -> str:
        """Human-readable recap of the evaluation."""
        lines = [
            f"method: {self.method}",
            f"steps: {len(self.steps)}",
            f"mean accuracy ratio: {self.mean_ratio:.2f}x random",
            f"best absolute accuracy: {100 * self.best_absolute:.2f}%",
        ]
        return "\n".join(lines)


class LinkPredictor:
    """Facade for metric-based link prediction with optional filtering.

    Parameters
    ----------
    metric:
        Any Table 3 metric name (see :func:`available_metrics`).
    pair_filter:
        Optional :data:`~repro.eval.experiment.PairFilter` — typically a
        :class:`~repro.temporal.filters.TemporalFilter` — applied to the
        candidate set before ranking.
    seed:
        RNG seed for tie-breaking and random fill.

    For classification-based prediction construct a
    :class:`~repro.classify.predictor.ClassificationPredictor` instead
    (re-exported from this module for convenience).
    """

    def __init__(
        self,
        metric: str = "RA",
        pair_filter: "PairFilter | None" = None,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        self.metric_name = metric
        self._prototype = get_metric(metric)  # validates the name eagerly
        self.pair_filter = pair_filter
        self.rng = ensure_rng(seed)

    # ------------------------------------------------------------------
    def suggest(self, snapshot: Snapshot, k: int) -> list[Pair]:
        """Top-k link recommendations for a snapshot (highest score first)."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        _metric, top = rank_top_k(
            self.metric_name, snapshot, k, self.rng, self.pair_filter
        )
        return [(int(u), int(v)) for u, v in top]

    def evaluate_sequence(
        self,
        trace: TemporalGraph,
        delta: int,
        start: "int | None" = None,
        max_steps: "int | None" = None,
    ) -> SequenceResult:
        """Run the paper's sequence evaluation over a full trace.

        ``delta`` is the snapshot delta (new edges per snapshot); ``start``
        is the edge count of the first snapshot (defaults to a third of the
        trace so evaluation runs on the mature network, like the paper's
        traces which begin with a substantial existing graph).
        """
        if start is None:
            start = max(delta, trace.num_edges // 3)
        snapshots = snapshot_sequence(trace, delta, start=start)
        result = SequenceResult(method=self.metric_name)
        for i, (prev, _current, truth) in enumerate(prediction_steps(snapshots)):
            if max_steps is not None and i >= max_steps:
                break
            step = evaluate_step(
                self.metric_name,
                prev,
                truth,
                rng=self.rng,
                pair_filter=self.pair_filter,
                step=i,
            )
            result.steps.append(SnapshotResult.from_step(step))
        return result

    def __repr__(self) -> str:
        filtered = ", filtered" if self.pair_filter is not None else ""
        return f"LinkPredictor(metric={self.metric_name!r}{filtered})"


# Convenience re-export so `from repro.core.api import ...` has everything.
__all__ = [
    "LinkPredictor",
    "ClassificationPredictor",
    "ExperimentResult",
    "ExperimentSpec",
    "SequenceResult",
    "SnapshotResult",
    "available_metrics",
    "available_classifiers",
    "run_experiment",
]
