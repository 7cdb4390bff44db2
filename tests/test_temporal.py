"""Tests for temporal activity features, filters, calibration, time series."""

import numpy as np
import pytest

from repro.eval.experiment import evaluate_step, prediction_steps
from repro.graph.snapshots import Snapshot
from repro.metrics.candidates import two_hop_pairs
from repro.temporal import (
    FilterParams,
    TemporalFilter,
    TimeSeriesMetric,
    calibrate_filter,
    pair_activity,
)
from repro.temporal.activity import node_idle_times, node_recent_edges
from repro.temporal.filters import PAPER_PARAMS
from tests.conftest import build_trace
from tests.loop_oracle import cn_time_gap


class TestActivityFeatures:
    def test_node_idle_times_alignment(self, tiny_snapshot):
        now = tiny_snapshot.time
        last = {}
        for u, v, t in tiny_snapshot.trace.edges():
            if t <= now:
                last[u] = last[v] = t
        idle = node_idle_times(tiny_snapshot)
        for node, idx in tiny_snapshot.node_pos.items():
            assert idle[idx] == now - last[node]

    def test_node_recent_edges_alignment(self, tiny_snapshot):
        now = tiny_snapshot.time
        expected = dict.fromkeys(tiny_snapshot.node_pos, 0)
        for u, v, t in tiny_snapshot.trace.edges():
            if now - 3.0 < t <= now:
                expected[u] += 1
                expected[v] += 1
        recent = node_recent_edges(tiny_snapshot, window=3.0)
        for node, idx in tiny_snapshot.node_pos.items():
            assert recent[idx] == expected[node]

    def test_cn_time_gap_hand_computed(self, tiny_snapshot):
        # Pair (0, 4): common neighbours {1, 3}.
        # Via 1: max(t(0,1)=0, t(1,4)=7) = 7.  Via 3: max(t(0,3)=5, t(3,4)=4)=5.
        # Latest arrival = 7; snapshot time = 11 -> gap 4.
        assert cn_time_gap(tiny_snapshot, 0, 4) == pytest.approx(4.0)
        act = pair_activity(tiny_snapshot, np.asarray([[0, 4], [4, 0]]), window=5.0)
        assert act.cn_gap.tolist() == [4.0, 4.0]

    def test_cn_time_gap_no_common_neighbour(self, tiny_snapshot):
        assert cn_time_gap(tiny_snapshot, 0, 5) == np.inf
        act = pair_activity(tiny_snapshot, np.asarray([[0, 5]]), window=5.0)
        assert act.cn_gap[0] == np.inf

    def test_pair_activity_active_inactive_split(self, tiny_snapshot):
        pairs = np.asarray([[3, 7]])
        act = pair_activity(tiny_snapshot, pairs, window=5.0)
        # idle(3) = 11-5 = 6; idle(7) = 11-11 = 0.
        assert act.active_idle[0] == 0.0
        assert act.inactive_idle[0] == 6.0

    def test_pair_activity_recent_edges_of_active(self, tiny_snapshot):
        pairs = np.asarray([[3, 7]])
        act = pair_activity(tiny_snapshot, pairs, window=5.0)
        # Active endpoint is 7 (idle 0); its edges in (6, 11]: t=10, t=11.
        assert act.recent_edges[0] == 2

    def test_cn_gap_mask_restricts_computation(self, tiny_snapshot):
        pairs = np.asarray([[0, 4], [1, 3]])
        act = pair_activity(
            tiny_snapshot, pairs, window=5.0, cn_gap_mask=np.asarray([False, True])
        )
        assert act.cn_gap[0] == np.inf  # skipped
        assert np.isfinite(act.cn_gap[1])


class TestFilterParams:
    def test_paper_table7(self):
        params = FilterParams.paper("renren")
        assert params.d_act == 3
        assert params.min_new_edges == 3
        assert set(PAPER_PARAMS) == {"facebook", "youtube", "renren"}

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterParams(d_act=0, d_inact=1, window=1, min_new_edges=1, d_cn=1)
        with pytest.raises(ValueError):
            FilterParams(d_act=1, d_inact=1, window=1, min_new_edges=-1, d_cn=1)


class TestTemporalFilter:
    def make_filter(self, **kw):
        defaults = dict(d_act=2.0, d_inact=7.0, window=5.0, min_new_edges=1, d_cn=6.0)
        defaults.update(kw)
        return TemporalFilter(FilterParams(**defaults))

    def test_keeps_active_pairs(self, tiny_snapshot):
        # Pair (2, 7): idle(2)=11-9=2 -> fails d_act=2 (not <2); widen.
        filt = self.make_filter(d_act=3.0)
        mask = filt(tiny_snapshot, np.asarray([[2, 7]]))
        assert mask[0]

    def test_rejects_dormant_pairs(self, tiny_snapshot):
        # Pair (1, 3): idle(1)=4, idle(3)=6 -> fails d_act=2.
        filt = self.make_filter()
        mask = filt(tiny_snapshot, np.asarray([[1, 3]]))
        assert not mask[0]

    def test_cn_gap_criterion(self, tiny_snapshot):
        # Pair (0, 4) has CN gap 4; filter with d_cn=3 must drop it even
        # though both endpoints are recent enough with loose node criteria.
        loose = self.make_filter(d_act=12, d_inact=12, min_new_edges=0, d_cn=3.0)
        assert not loose(tiny_snapshot, np.asarray([[0, 4]]))[0]
        kept = self.make_filter(d_act=12, d_inact=12, min_new_edges=0, d_cn=5.0)
        assert kept(tiny_snapshot, np.asarray([[0, 4]]))[0]

    def test_no_cn_pairs_skip_gap_criterion(self, tiny_snapshot):
        # Pair (0, 5) has no common neighbour: criterion 4 must not drop it.
        filt = self.make_filter(d_act=12, d_inact=12, min_new_edges=0, d_cn=0.001)
        assert filt(tiny_snapshot, np.asarray([[0, 5]]))[0]

    def test_empty_pairs(self, tiny_snapshot):
        filt = self.make_filter()
        assert filt(tiny_snapshot, np.zeros((0, 2), dtype=np.int64)).shape == (0,)

    def test_reduction_metric(self, facebook_snapshots):
        s = facebook_snapshots[-1]
        pairs = two_hop_pairs(s)
        filt = self.make_filter(d_act=1.0, d_inact=2.0)
        reduction = filt.reduction(s, pairs)
        assert 0.0 <= reduction <= 1.0

    def test_positives_survive_better_than_negatives(self, facebook_snapshots):
        """The core property: ground-truth pairs pass the (calibrated)
        filter at a much higher rate than arbitrary candidates."""
        steps = list(prediction_steps(facebook_snapshots))
        cal_prev, _, cal_truth = steps[-3]
        params = calibrate_filter(
            cal_prev, cal_truth, two_hop_pairs(cal_prev), rng=0
        )
        filt = TemporalFilter(params)
        prev, _, truth = steps[-1]
        pairs = two_hop_pairs(prev)
        mask = filt(prev, pairs)
        truth_arr = np.asarray(sorted(truth & {tuple(p) for p in pairs.tolist()}))
        if len(truth_arr) < 5:
            pytest.skip("too few 2-hop positives in this step")
        pos_rate = filt(prev, truth_arr).mean()
        assert pos_rate > mask.mean()


class TestCalibration:
    def test_returns_valid_params(self, facebook_snapshots):
        steps = list(prediction_steps(facebook_snapshots))
        prev, _, truth = steps[-1]
        params = calibrate_filter(prev, truth, two_hop_pairs(prev), rng=0)
        assert params.d_act > 0
        assert params.d_cn > 0

    def test_coverage_widens_thresholds(self, facebook_snapshots):
        steps = list(prediction_steps(facebook_snapshots))
        prev, _, truth = steps[-1]
        pairs = two_hop_pairs(prev)
        narrow = calibrate_filter(prev, truth, pairs, coverage=0.5, rng=0)
        wide = calibrate_filter(prev, truth, pairs, coverage=0.95, rng=0)
        assert wide.d_act >= narrow.d_act
        assert wide.d_inact >= narrow.d_inact

    def test_validation(self, facebook_snapshots):
        steps = list(prediction_steps(facebook_snapshots))
        prev, _, truth = steps[-1]
        pairs = two_hop_pairs(prev)
        with pytest.raises(ValueError):
            calibrate_filter(prev, truth, pairs, coverage=1.5)
        with pytest.raises(ValueError):
            calibrate_filter(prev, set(), pairs)  # no positives


class TestTimeSeriesMetric:
    def test_name_and_strategy_follow_base(self):
        ts = TimeSeriesMetric("RA", "ma")
        assert ts.name == "RA+MA"
        assert ts.candidate_strategy == "two_hop"
        ts_pa = TimeSeriesMetric("PA", "lr")
        assert ts_pa.candidate_strategy == "all"

    def test_ma_is_mean_of_history(self, facebook_snapshots):
        s = facebook_snapshots[-1]
        ts = TimeSeriesMetric("CN", "ma", points=2, spacing_days=5.0).fit(s)
        pairs = two_hop_pairs(s)[:20]
        scores = ts.score(pairs)
        # Manual: mean of CN on the two history snapshots.
        from repro.metrics.base import get_metric

        manual = np.zeros(len(pairs))
        for snap in ts._history:
            exists = np.asarray(
                [snap.has_node(int(u)) and snap.has_node(int(v)) for u, v in pairs]
            )
            vals = np.zeros(len(pairs))
            if exists.any():
                vals[exists] = get_metric("CN").fit(snap).score(pairs[exists])
            manual += vals
        manual /= len(ts._history)
        assert scores == pytest.approx(manual)

    def test_lr_extrapolates_trend(self):
        from repro.temporal.timeseries import _linear_extrapolate

        series = np.asarray([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
        out = _linear_extrapolate(series)
        assert out[0] == pytest.approx(4.0)
        assert out[1] == pytest.approx(5.0)

    def test_single_point_degenerates(self):
        from repro.temporal.timeseries import _linear_extrapolate

        assert _linear_extrapolate(np.asarray([[7.0]]))[0] == 7.0

    def test_plugs_into_evaluate_step(self, facebook_snapshots):
        steps = list(prediction_steps(facebook_snapshots))
        prev, _, truth = steps[-1]
        ts = TimeSeriesMetric("RA", "ma", points=2)
        result = evaluate_step(ts, prev, truth, rng=0)
        assert result.metric == "RA+MA"
        assert result.outcome.k == len(truth)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeriesMetric("RA", "median")
        with pytest.raises(ValueError):
            TimeSeriesMetric("RA", "ma", points=0)
