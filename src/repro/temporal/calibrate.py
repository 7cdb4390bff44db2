"""Threshold discovery for the temporal filter (Table 7's methodology).

The paper picks thresholds where the positive-pair CDF has climbed steeply
while the negative-pair CDF has not (e.g. ">90% of positive pairs have
<3 days idle time, only 40% of negative pairs do").  The same rule is
automated here: each threshold is the ``coverage`` quantile of the positive
pairs' distribution, which by construction retains that share of true
positives while discarding the bulk of negatives.

"While each parameter is network specific, the methodology to discover them
is general" — this module *is* that methodology.
"""

from __future__ import annotations

import numpy as np

from repro.graph.snapshots import Snapshot
from repro.temporal.activity import pair_activity
from repro.temporal.filters import FilterParams
from repro.utils.pairs import Pair, encode_position_pairs
from repro.utils.rng import ensure_rng


def positive_negative_pairs(
    snapshot: Snapshot,
    truth: "set[Pair]",
    candidates: np.ndarray,
    negative_sample: int = 5000,
    rng: "int | np.random.Generator | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Split candidates into positives (in ``truth``) and sampled negatives."""
    generator = ensure_rng(rng)
    # Exact ordered-tuple membership: re-index every id that occurs in
    # either side densely, pack each (u, v) into one int64 key, isin.
    cand = np.asarray(candidates, dtype=np.int64).reshape(-1, 2)
    true = np.asarray(list(truth), dtype=np.int64).reshape(-1, 2)
    ids = np.unique(np.concatenate((cand.ravel(), true.ravel())))
    cand_keys = encode_position_pairs(
        np.searchsorted(ids, cand[:, 0]), np.searchsorted(ids, cand[:, 1])
    )
    true_keys = encode_position_pairs(
        np.searchsorted(ids, true[:, 0]), np.searchsorted(ids, true[:, 1])
    )
    is_positive = np.isin(cand_keys, true_keys)
    positives = candidates[is_positive]
    negatives = candidates[~is_positive]
    if len(negatives) > negative_sample:
        idx = generator.choice(len(negatives), size=negative_sample, replace=False)
        negatives = negatives[idx]
    return positives, negatives


def calibrate_filter(
    snapshot: Snapshot,
    truth: "set[Pair]",
    candidates: np.ndarray,
    window: "float | None" = None,
    coverage: float = 0.9,
    rng: "int | np.random.Generator | None" = None,
) -> FilterParams:
    """Derive :class:`FilterParams` from one observed prediction step.

    ``window`` defaults to the snapshot spacing implied by the trace (about
    one snapshot's worth of days); ``coverage`` is the share of positive
    pairs each criterion must retain (the paper's plots use ~90%).
    """
    if not 0 < coverage < 1:
        raise ValueError(f"coverage must be in (0, 1), got {coverage}")
    if len(candidates) == 0:
        raise ValueError("cannot calibrate on an empty candidate set")
    positives, _negatives = positive_negative_pairs(
        snapshot, truth, candidates, rng=rng
    )
    if len(positives) == 0:
        raise ValueError("no positive pairs among candidates; cannot calibrate")
    if window is None:
        # Heuristic default: a tenth of the observed history, at least a day.
        window = max(1.0, (snapshot.time - snapshot.trace.start_time) / 10.0)
    activity = pair_activity(snapshot, positives, window=window)
    pct = 100.0 * coverage
    d_act = float(np.percentile(activity.active_idle, pct))
    d_inact = float(np.percentile(activity.inactive_idle, pct))
    min_new_edges = float(np.percentile(activity.recent_edges, 100.0 - pct))
    finite_gaps = activity.cn_gap[np.isfinite(activity.cn_gap)]
    d_cn = float(np.percentile(finite_gaps, pct)) if len(finite_gaps) else window
    # Guard against degenerate zero thresholds on bursty traces.
    eps = 1e-6
    return FilterParams(
        d_act=max(d_act, eps),
        d_inact=max(d_inact, eps),
        window=window,
        min_new_edges=min_new_edges,
        d_cn=max(d_cn, eps),
    )
