"""The per-step and per-sequence evaluation loops.

``evaluate_step`` reproduces the paper's core experiment: fit a metric on
``G_{t-1}``, rank its candidate pairs, take the top-k with
``k = |ground truth|`` (Section 4.1 fixes k to the true new-edge count so
the comparison isolates the metric's ranking quality), and score the result.

``pair_filter`` hooks the Section 6 temporal filters in: any callable
``(snapshot, pairs) -> bool mask`` that prunes the candidate list before
scoring.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.eval.accuracy import StepOutcome, score_prediction
from repro.eval.ranking import top_k_pairs
from repro.graph.snapshots import Snapshot, new_edges_between
from repro.metrics.base import SimilarityMetric, get_metric
from repro.metrics.candidates import candidate_pairs, random_nonedge_pairs
from repro.metrics.kernels import kept_pairs, score_pairs
from repro.utils.pairs import Pair
from repro.utils.rng import ensure_rng

PairFilter = Callable[[Snapshot, np.ndarray], np.ndarray]


@dataclass
class MetricStepResult:
    """Result of one metric on one prediction step."""

    metric: str
    step: int
    snapshot_time: float
    outcome: StepOutcome
    predicted: np.ndarray  # (k, 2) node-id pairs actually predicted
    #: how many predictions were random fill (metric had too few candidates)
    random_fill: int = 0

    @property
    def ratio(self) -> float:
        return self.outcome.ratio

    @property
    def absolute(self) -> float:
        return self.outcome.absolute


def prediction_steps(
    snapshots: Sequence[Snapshot],
) -> Iterator[tuple[Snapshot, Snapshot, set[Pair]]]:
    """Yield ``(G_{t-1}, G_t, ground_truth)`` for every consecutive pair."""
    for prev, current in zip(snapshots, snapshots[1:]):
        yield prev, current, new_edges_between(prev, current)


def evaluate_step(
    metric: "SimilarityMetric | str",
    previous: Snapshot,
    truth: "set[Pair]",
    rng: "int | np.random.Generator | None" = None,
    pair_filter: "PairFilter | None" = None,
    candidates: "np.ndarray | None" = None,
    step: int = 0,
) -> MetricStepResult:
    """Run one metric on one step and score it.

    ``candidates`` overrides the metric's default candidate set (used by the
    snowball-sampled comparison of Section 5.3, where all methods must rank
    the same sampled pair universe).

    When ``rng`` is an integer (as the experiment runner passes it), the
    call is a pure function of its arguments: a fresh generator is built
    here and the snapshot caches only memoise deterministic values.  The
    parallel work-cell dispatcher (:mod:`repro.eval.parallel`) depends on
    this to evaluate steps in any order, in any process, bit-identically.
    """
    if telemetry.tracer.enabled:
        name = metric if isinstance(metric, str) else metric.name
        with telemetry.tracer.span("eval.step", metric=name, step=step) as span:
            result = _evaluate_step_impl(
                metric, previous, truth, rng, pair_filter, candidates, step
            )
            span.set(k=len(truth), random_fill=result.random_fill)
            return result
    return _evaluate_step_impl(
        metric, previous, truth, rng, pair_filter, candidates, step
    )


def filter_mask(
    pair_filter: PairFilter, snapshot: Snapshot, pairs: np.ndarray
) -> np.ndarray:
    """``pair_filter``'s keep-mask over ``pairs``, checked to be one flag
    per pair."""
    mask = np.asarray(pair_filter(snapshot, pairs), dtype=bool)
    if mask.shape != (len(pairs),):
        raise ValueError(
            f"pair filter returned mask of shape {mask.shape} "
            f"for {len(pairs)} pairs"
        )
    return mask


def rank_top_k(
    metric: "SimilarityMetric | str",
    snapshot: Snapshot,
    k: int,
    rng: np.random.Generator,
    pair_filter: "PairFilter | None" = None,
    candidates: "np.ndarray | None" = None,
) -> "tuple[SimilarityMetric, np.ndarray]":
    """Fit ``metric`` on ``snapshot`` and return its top-k candidate pairs.

    The ranking step shared by the evaluation loop, the
    :class:`~repro.core.api.LinkPredictor` facade and the missing-link
    protocol: enumerate the metric's candidate set (or take
    ``candidates``), prune it with ``pair_filter``, score it through the
    kernels and keep the ``k`` best, ties broken by ``rng``.  A filter's
    memoised mask over a cached candidate array keeps a memoised array, so
    every metric scoring it shares one set of kernel blocks
    (:func:`~repro.metrics.kernels.kept_pairs`).  Returns the
    fitted metric and at most ``k`` pairs; callers decide what to do when
    the candidate set holds fewer.
    """
    if isinstance(metric, str):
        metric = get_metric(metric)
    metric.fit(snapshot)
    pairs = (
        candidates
        if candidates is not None
        else candidate_pairs(snapshot, metric.candidate_strategy)
    )
    if pair_filter is not None and len(pairs):
        pairs = kept_pairs(snapshot, pairs, filter_mask(pair_filter, snapshot, pairs))
    scores = score_pairs(metric, snapshot, pairs)
    return metric, top_k_pairs(pairs, scores, k, rng)


def _evaluate_step_impl(
    metric: "SimilarityMetric | str",
    previous: Snapshot,
    truth: "set[Pair]",
    rng: "int | np.random.Generator | None",
    pair_filter: "PairFilter | None",
    candidates: "np.ndarray | None",
    step: int,
) -> MetricStepResult:
    generator = ensure_rng(rng)
    k = len(truth)
    metric, top = rank_top_k(
        metric, previous, k, generator, pair_filter, candidates
    )
    predicted = {(int(u), int(v)) for u, v in top}
    fill = 0
    if len(predicted) < k:
        # Pad with uniform random non-edges so every method predicts exactly
        # k pairs (the filler contributes random-baseline accuracy).
        filler = random_nonedge_pairs(previous, k - len(predicted), generator, exclude=predicted)
        fill = len(filler)
        predicted.update(filler)
        top = np.asarray(sorted(predicted), dtype=np.int64).reshape(-1, 2)
    outcome = score_prediction(previous, predicted, truth)
    return MetricStepResult(
        metric=metric.name,
        step=step,
        snapshot_time=previous.time,
        outcome=outcome,
        predicted=top,
        random_fill=fill,
    )


def evaluate_metric_sequence(
    metric_name: str,
    snapshots: Sequence[Snapshot],
    rng: "int | np.random.Generator | None" = None,
    pair_filter: "PairFilter | None" = None,
) -> list[MetricStepResult]:
    """Run one metric over every consecutive snapshot pair of a sequence."""
    generator = ensure_rng(rng)
    results = []
    for i, (prev, _current, truth) in enumerate(prediction_steps(snapshots)):
        results.append(
            evaluate_step(
                metric_name,
                prev,
                truth,
                rng=generator,
                pair_filter=pair_filter,
                step=i,
            )
        )
    return results


@dataclass
class SequenceSummary:
    """Aggregate view of a metric's results over a sequence."""

    metric: str
    ratios: list[float] = field(default_factory=list)
    absolutes: list[float] = field(default_factory=list)

    @classmethod
    def from_results(cls, results: Sequence[MetricStepResult]) -> "SequenceSummary":
        if not results:
            raise ValueError("no results to summarise")
        names = {r.metric for r in results}
        if len(names) != 1:
            raise ValueError(f"results mix metrics: {names}")
        return cls(
            metric=results[0].metric,
            ratios=[r.ratio for r in results],
            absolutes=[r.absolute for r in results],
        )

    @property
    def mean_ratio(self) -> float:
        return float(np.mean(self.ratios))

    @property
    def best_absolute(self) -> float:
        """Highest absolute accuracy over any step (Table 4's statistic)."""
        return float(np.max(self.absolutes))
