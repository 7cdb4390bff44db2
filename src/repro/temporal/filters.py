"""The 4-criterion temporal filter (Section 6.2).

A candidate pair survives the filter only if *all* of the following hold:

1. idle time of the active node  < ``d_act`` days,
2. idle time of the inactive node < ``d_inact`` days,
3. the active node created >= ``min_new_edges`` edges in the last
   ``window`` days,
4. the pair gained a common neighbour less than ``d_cn`` days ago —
   applied only to pairs that *have* a common neighbour (pairs beyond two
   hops skip this criterion, per the paper's footnote).

The filter is a drop-in :data:`~repro.eval.experiment.PairFilter`: pass it
as ``pair_filter=`` to ``evaluate_step`` /
``ClassificationPredictor.predict_step``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.snapshots import Snapshot
from repro.metrics.kernels import CANDIDATE_KEYS, memoised_mask
from repro.temporal.activity import PairActivity, pair_activity

#: Table 7 of the paper: per-network thresholds discovered on the original
#: traces.  Included for reference; synthetic traces have a compressed time
#: scale, so use :func:`repro.temporal.calibrate.calibrate_filter` to derive
#: thresholds instead of reusing these.
PAPER_PARAMS = {
    "facebook": dict(d_act=15, d_inact=40, window=21, min_new_edges=2, d_cn=40),
    "youtube": dict(d_act=3, d_inact=30, window=7, min_new_edges=3, d_cn=20),
    "renren": dict(d_act=3, d_inact=20, window=7, min_new_edges=3, d_cn=10),
}


@dataclass(frozen=True)
class FilterParams:
    """Thresholds of one temporal filter (one row of Table 7)."""

    d_act: float          # max idle time of the active node (days)
    d_inact: float        # max idle time of the inactive node (days)
    window: float         # recent-activity window d (days)
    min_new_edges: float  # min edges the active node created in the window
    d_cn: float           # max days since the last common-neighbour arrival

    def __post_init__(self) -> None:
        for field_name in ("d_act", "d_inact", "window", "d_cn"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.min_new_edges < 0:
            raise ValueError("min_new_edges must be non-negative")

    @classmethod
    def paper(cls, network: str) -> "FilterParams":
        """The original Table 7 thresholds for ``network``."""
        return cls(**PAPER_PARAMS[network])


class TemporalFilter:
    """Callable pair filter implementing Section 6.2."""

    def __init__(self, params: FilterParams) -> None:
        self.params = params

    def __call__(self, snapshot: Snapshot, pairs: np.ndarray) -> np.ndarray:
        """Boolean keep-mask over ``pairs``.

        When ``pairs`` *is* one of the snapshot's cached candidate arrays
        (``pairs_two_hop`` / ``pairs_all``, the identity rule of
        :func:`~repro.metrics.kernels.blocks_for`), the mask is memoised on
        the snapshot per ``(params, candidate array)`` and returned
        read-only, so every metric of a sweep shares one filter pass — and,
        through :func:`~repro.metrics.kernels.kept_pairs`, one kept array
        and its kernel blocks.
        """
        for source in CANDIDATE_KEYS:
            if pairs is snapshot.cache.get(source):
                return memoised_mask(
                    snapshot,
                    pairs,
                    ("temporal_filter_mask", self.params, source),
                    lambda: self._keep_mask(snapshot, pairs),
                )
        return self._keep_mask(snapshot, pairs)

    def _passes_node_criteria(self, activity: PairActivity) -> np.ndarray:
        """Criteria 1-3, which need only node-level features."""
        p = self.params
        return (
            (activity.active_idle < p.d_act)
            & (activity.inactive_idle < p.d_inact)
            & (activity.recent_edges >= p.min_new_edges)
        )

    def _keep_mask(self, snapshot: Snapshot, pairs: np.ndarray) -> np.ndarray:
        """One filter pass: node-level criteria first, then the CN gap
        (criterion 4) computed only for their survivors."""
        if len(pairs) == 0:
            return np.zeros(0, dtype=bool)
        activity = pair_activity(
            snapshot,
            pairs,
            window=self.params.window,
            cn_gap_mask=self._passes_node_criteria,
        )
        # Pairs with no common neighbour (gap = inf) skip criterion 4.
        gap = activity.cn_gap
        return self._passes_node_criteria(activity) & (
            ~np.isfinite(gap) | (gap < self.params.d_cn)
        )

    def reduction(self, snapshot: Snapshot, pairs: np.ndarray) -> float:
        """Fraction of candidates removed (the search-space saving)."""
        if len(pairs) == 0:
            return 0.0
        return 1.0 - float(self(snapshot, pairs).mean())

    def __repr__(self) -> str:
        return f"TemporalFilter({self.params})"
