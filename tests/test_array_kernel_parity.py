"""Array kernels against the loops they replaced, compared bit for bit.

Covers the temporal filter (its CN-gap pass and keep-masks, first and
memoised calls), the calibration positive/negative split, classifier
labelling, the synthesized edge weights, the weighted metrics' weight
columns, the time-series wrapper's existence check, and the per-node
triangle counts with everything read from them (the local naive Bayes
role function and scores, triangle counts and clustering coefficients),
and the triadic-closure measurement of ``measure_mechanisms`` against an
edge-by-edge replay through a dict-based common-neighbour tracker.
Each kernel runs on a plain snapshot, a snowball-sampled ``SnapshotView``
and a ``DeltaGraph.materialize()`` snapshot, and with both membership
probes (the dense n x n table and the sorted edge keys).  References live
in ``tests/loop_oracle.py`` and ``tests/matrix_oracle.py``; every
comparison is ``np.array_equal`` or ``==``, never ``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.classify import sampled_instance
from repro.classify.sampling import labeled_pairs
from repro.extensions.weighted import (
    WeightedAdamicAdar,
    WeightedCommonNeighbors,
    _weight_columns,
    synthesize_weights,
)
from repro.graph import stats
from repro.generators import presets
from repro.generators.fit import measure_mechanisms
from repro.graph.delta import DeltaGraph
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot, new_edges_between
from repro.metrics import kernels
from repro.metrics.base import get_metric
from repro.metrics.candidates import all_nonedge_pairs, two_hop_pairs
from repro.metrics.naive_bayes import node_triangle_counts, role_function
from repro.temporal import FilterParams, TemporalFilter, TimeSeriesMetric, pair_activity
from repro.temporal.calibrate import positive_negative_pairs
from repro.utils.rng import ensure_rng
from tests import loop_oracle, matrix_oracle
from tests.test_properties import edge_streams

KINDS = ("plain", "view", "delta")
ALPHAS = (1.0, 0.5, -0.7, 2.0)
#: a node id no snapshot of the preset traces holds
ABSENT = 10**9


def fresh(snapshot: Snapshot) -> Snapshot:
    """The same cut with empty caches, so no test reads another's memo."""
    return Snapshot(snapshot.trace, snapshot.cutoff, index=snapshot.index)


def observed_and_future(snapshots, kind: str) -> "tuple[Snapshot, Snapshot]":
    """An ``(observed, future)`` snapshot pair of the requested kind."""
    prev2, prev1, nxt = (fresh(s) for s in snapshots[-3:])
    if kind == "plain":
        return prev1, nxt
    if kind == "view":
        instance = sampled_instance(prev2, prev1, nxt, fraction=0.4, rng=3)
        return instance.train_view, instance.label_view
    trace = prev1.trace
    u, v, t = trace.columns()
    delta = DeltaGraph()
    delta.apply(list(zip(u[: prev1.cutoff].tolist(), v[: prev1.cutoff].tolist(),
                         t[: prev1.cutoff].tolist())))
    return delta.materialize(), nxt


@pytest.fixture(params=("dense", "sorted_keys"))
def probe(request, monkeypatch):
    """Force the common-neighbour expansion (and so the CN-gap pass) down
    one membership probe."""
    dense = request.param == "dense"
    monkeypatch.setattr(kernels, "use_dense_probe", lambda snapshot: dense)
    return request.param


def gap_pairs(snapshot: Snapshot) -> np.ndarray:
    """2-hop pairs, pairs without a common neighbour, and reversed rows."""
    two_hop = two_hop_pairs(snapshot)
    far = all_nonedge_pairs(snapshot)[::7]
    pairs = np.concatenate((two_hop, far, two_hop[::5, ::-1], far[::3, ::-1]))
    return np.ascontiguousarray(pairs)


def params_for(snapshot: Snapshot, pairs: np.ndarray) -> FilterParams:
    """Thresholds at which every criterion, the CN gap included, bites."""
    act = pair_activity(snapshot, pairs, window=5.0)
    gaps = act.cn_gap[np.isfinite(act.cn_gap)]
    return FilterParams(
        d_act=float(np.percentile(act.active_idle, 80)) + 1e-6,
        d_inact=float(np.percentile(act.inactive_idle, 90)) + 1e-6,
        window=5.0,
        min_new_edges=float(np.percentile(act.recent_edges, 10)),
        d_cn=float(np.percentile(gaps, 50)) + 1e-6,
    )


@pytest.mark.parametrize("kind", KINDS)
class TestCnGapPass:
    def test_gaps_match_the_loop(self, facebook_snapshots, kind, probe):
        snapshot, _ = observed_and_future(facebook_snapshots, kind)
        pairs = gap_pairs(snapshot)
        gaps = pair_activity(snapshot, pairs, window=5.0).cn_gap
        want = loop_oracle.cn_time_gaps(snapshot, pairs)
        assert np.isfinite(want).any() and np.isinf(want).any()
        assert np.array_equal(gaps, want)

    def test_mask_restricts_the_pass(self, facebook_snapshots, kind, probe):
        snapshot, _ = observed_and_future(facebook_snapshots, kind)
        pairs = gap_pairs(snapshot)
        mask = np.zeros(len(pairs), dtype=bool)
        mask[::3] = True
        gaps = pair_activity(snapshot, pairs, window=5.0, cn_gap_mask=mask).cn_gap
        want = np.full(len(pairs), np.inf)
        want[mask] = loop_oracle.cn_time_gaps(snapshot, pairs[mask])
        assert np.array_equal(gaps, want)


@pytest.mark.parametrize("kind", KINDS)
class TestFilterMask:
    def test_first_and_memoised_calls(self, facebook_snapshots, kind, probe):
        snapshot, _ = observed_and_future(facebook_snapshots, kind)
        for pairs in (two_hop_pairs(snapshot), all_nonedge_pairs(snapshot)):
            params = params_for(snapshot, pairs)
            want = loop_oracle.filter_mask(params, snapshot, pairs)
            assert want.any() and not want.all()
            filt = TemporalFilter(params)
            first = filt(snapshot, pairs)
            assert np.array_equal(first, want)
            assert not first.flags.writeable
            again = TemporalFilter(params)(snapshot, pairs)
            assert again is first
            # A copy is not the cached candidate array: no memo, same mask.
            copied = filt(snapshot, pairs.copy())
            assert copied is not first and copied.flags.writeable
            assert np.array_equal(copied, want)

    def test_uncached_pairs(self, facebook_snapshots, kind, probe):
        snapshot, _ = observed_and_future(facebook_snapshots, kind)
        pairs = gap_pairs(snapshot)
        params = params_for(snapshot, pairs)
        got = TemporalFilter(params)(snapshot, pairs)
        assert np.array_equal(got, loop_oracle.filter_mask(params, snapshot, pairs))


@pytest.mark.parametrize("kind", KINDS)
class TestTriangles:
    def test_triangle_counts(self, facebook_snapshots, kind, probe):
        snapshot, _ = observed_and_future(facebook_snapshots, kind)
        want = matrix_oracle.node_triangle_counts(snapshot)
        assert want.any()
        assert np.array_equal(node_triangle_counts(snapshot), want)
        assert [stats.triangle_count(snapshot, u) for u in snapshot.nodes()] == [
            loop_oracle.triangle_count(snapshot, u) for u in snapshot.nodes()
        ]

    def test_role_function(self, facebook_snapshots, kind, probe):
        snapshot, _ = observed_and_future(facebook_snapshots, kind)
        assert np.array_equal(
            role_function(snapshot), matrix_oracle.role_function(snapshot)
        )

    @pytest.mark.parametrize("name", ("BCN", "BAA", "BRA"))
    def test_naive_bayes_scores(self, facebook_snapshots, kind, probe, name):
        snapshot, _ = observed_and_future(facebook_snapshots, kind)
        pairs = gap_pairs(snapshot)
        got = get_metric(name).fit(snapshot).score(pairs)
        want = matrix_oracle.naive_bayes_scores(snapshot, name, pairs)
        assert np.array_equal(got, want)

    def test_local_clustering(self, facebook_snapshots, kind, probe):
        snapshot, _ = observed_and_future(facebook_snapshots, kind)
        got = [stats.local_clustering(snapshot, u) for u in snapshot.nodes()]
        want = [loop_oracle.local_clustering(snapshot, u) for u in snapshot.nodes()]
        assert 0.0 < max(want) and got == want

    @pytest.mark.parametrize("sample_size, seed", [(None, None), (40, 0), (40, 7), (10**6, 0)])
    def test_average_clustering(self, facebook_snapshots, kind, probe, sample_size, seed):
        snapshot, _ = observed_and_future(facebook_snapshots, kind)
        got = stats.average_clustering(snapshot, sample_size=sample_size, seed=seed)
        want = loop_oracle.average_clustering(snapshot, sample_size=sample_size, seed=seed)
        assert got == want


def test_clustering_of_low_degree_nodes(tiny_trace):
    """Degree-0/1 nodes have no wedge: clustering 0, no triangle."""
    snapshot = Snapshot(tiny_trace, 5)
    view = snapshot.subgraph([0, 1, 4])
    for s in (snapshot, view):
        for u in s.nodes():
            assert stats.local_clustering(s, u) == loop_oracle.local_clustering(s, u)
            assert stats.triangle_count(s, u) == loop_oracle.triangle_count(s, u)
        assert stats.average_clustering(s) == loop_oracle.average_clustering(s)
    assert stats.local_clustering(snapshot, 4) == 0.0


def test_memo_is_keyed_by_params(facebook_snapshots):
    snapshot = fresh(facebook_snapshots[-2])
    pairs = two_hop_pairs(snapshot)
    loose = params_for(snapshot, pairs)
    tight = FilterParams(
        d_act=loose.d_act, d_inact=loose.d_inact, window=loose.window,
        min_new_edges=loose.min_new_edges, d_cn=loose.d_cn / 4,
    )
    a = TemporalFilter(loose)(snapshot, pairs)
    b = TemporalFilter(tight)(snapshot, pairs)
    assert np.array_equal(b, loop_oracle.filter_mask(tight, snapshot, pairs))
    assert int(b.sum()) < int(a.sum())


def test_empty_pairs(tiny_snapshot):
    empty = np.zeros((0, 2), dtype=np.int64)
    act = pair_activity(tiny_snapshot, empty, window=5.0)
    assert act.cn_gap.shape == (0,)
    params = FilterParams(d_act=1, d_inact=1, window=1, min_new_edges=0, d_cn=1)
    assert TemporalFilter(params)(tiny_snapshot, empty).shape == (0,)
    assert labeled_pairs(tiny_snapshot, tiny_snapshot, empty).shape == (0,)
    positives, negatives = positive_negative_pairs(tiny_snapshot, {(0, 4)}, empty)
    assert positives.shape == negatives.shape == (0, 2)
    powered, raw = _weight_columns(tiny_snapshot, {}, 0.5)
    size = len(tiny_snapshot.csr_structure()[1])
    assert powered.shape == raw.shape == (size,)
    assert not powered.any() and not raw.any()


@pytest.mark.parametrize("kind", KINDS)
def test_positive_negative_split(facebook_snapshots, kind):
    observed, future = observed_and_future(facebook_snapshots, kind)
    candidates = two_hop_pairs(observed)
    truth = new_edges_between(facebook_snapshots[-2], facebook_snapshots[-1])
    held = {tuple(p) for p in candidates.tolist()} & truth
    assert held and truth - held  # some truth pairs are not candidates
    # Reversed rows are positives only if the reversed tuple is in truth.
    candidates = np.concatenate((candidates, candidates[::4, ::-1]))
    truth = truth | {(v, u) for u, v in sorted(held)[::2]}
    positives, negatives = positive_negative_pairs(
        observed, truth, candidates, negative_sample=50, rng=11
    )
    is_positive = loop_oracle.positive_mask(truth, candidates)
    want_negatives = candidates[~is_positive]
    pick = ensure_rng(11).choice(len(want_negatives), size=50, replace=False)
    assert np.array_equal(positives, candidates[is_positive])
    assert np.array_equal(negatives, want_negatives[pick])


@pytest.mark.parametrize("kind", KINDS)
def test_labeled_pairs(facebook_snapshots, kind):
    observed, future = observed_and_future(facebook_snapshots, kind)
    pairs = all_nonedge_pairs(observed)
    absent = np.asarray([[pairs[0, 0], ABSENT], [ABSENT, pairs[1, 1]]])
    pairs = np.concatenate((pairs, pairs[::3, ::-1], absent))
    labels = labeled_pairs(observed, future, pairs)
    want = loop_oracle.labeled_pairs(future, pairs)
    assert want.sum() > 0
    assert labels.dtype == want.dtype and np.array_equal(labels, want)


def csr_entries(snapshot: Snapshot, matrix) -> np.ndarray:
    """``matrix`` at every CSR entry of ``snapshot``, checking that it
    stores nothing elsewhere (its stored values are all positive)."""
    indptr, indices = snapshot.csr_structure()
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    values = np.asarray(matrix[rows, indices]).ravel()
    assert matrix.nnz == np.count_nonzero(values)
    return values


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_weight_matrix(facebook_snapshots, kind, alpha):
    """A ``weights=`` dict's edge columns are the loop's weight matrices."""
    snapshot, _ = observed_and_future(facebook_snapshots, kind)
    weights = dict(list(synthesize_weights(snapshot, seed=4).items())[1:])
    # Reversed keys land on the same cells; duplicates sum in item order.
    for (u, v), w in list(weights.items())[::9]:
        weights[(v, u)] = w * 0.5
    powered, raw = _weight_columns(snapshot, weights, alpha)
    want = csr_entries(snapshot, loop_oracle.weight_matrix(snapshot, weights, alpha))
    assert np.array_equal(powered, want)
    want = csr_entries(snapshot, loop_oracle.weight_matrix(snapshot, weights, 1.0))
    assert np.array_equal(raw, want)
    assert np.count_nonzero(raw) == len(raw) - 2  # the edge left out


@pytest.mark.parametrize("kind", KINDS)
def test_synthesized_weights(facebook_snapshots, kind):
    snapshot, _ = observed_and_future(facebook_snapshots, kind)
    weights = synthesize_weights(snapshot, seed=4)
    want = loop_oracle.synthesize_weights(snapshot, seed=4)
    assert list(weights.items()) == list(want.items())


@pytest.mark.parametrize(
    "bad",
    [
        [((0, 5), 1.0), ((0, 1), -1.0)],      # non-edge before a bad weight
        [((0, 1), 0.0), ((0, 5), 1.0)],       # bad weight before a non-edge
        [((0, ABSENT), 1.0)],                  # a node the snapshot lacks
        [((1, 0), 2.0), ((2, 1), float("-inf"))],
        [((3, 3), 1.0), ((0, 5), 1.0)],       # self-pair first
    ],
)
def test_weight_matrix_reports_the_first_bad_item(tiny_snapshot, bad):
    weights = {pair: 1.0 for pair in tiny_snapshot.edges()}
    weights.update(bad)
    with pytest.raises(ValueError) as want:
        loop_oracle.weight_matrix(tiny_snapshot, weights, 1.0)
    with pytest.raises(ValueError) as got:
        WeightedCommonNeighbors(weights, alpha=1.0).fit(tiny_snapshot)
    assert str(got.value) == str(want.value)


def test_weighted_fit_is_cached_per_snapshot_and_alpha(facebook_snapshots):
    snapshot = fresh(facebook_snapshots[-2])
    pairs = two_hop_pairs(snapshot)
    first = WeightedCommonNeighbors(alpha=0.5).fit(snapshot)
    again = WeightedCommonNeighbors(alpha=0.5).fit(snapshot)
    assert again._column is first._column
    assert WeightedCommonNeighbors(alpha=2.0).fit(snapshot)._column is not first._column
    assert WeightedAdamicAdar(alpha=0.5).fit(snapshot)._column is not first._column
    explicit = WeightedCommonNeighbors(
        weights=synthesize_weights(snapshot), alpha=0.5
    ).fit(fresh(snapshot))
    assert np.array_equal(first.score(pairs), explicit.score(pairs))


def test_timeseries_existence_check(facebook_snapshots):
    """Pairs whose endpoints an older cut lacks score 0 there."""
    snapshot = fresh(facebook_snapshots[-1])
    pairs = two_hop_pairs(snapshot)
    ts = TimeSeriesMetric("CN", "ma", points=2, spacing_days=10.0).fit(snapshot)
    series = np.zeros((len(pairs), len(ts._history)))
    for j, (snap, metric) in enumerate(zip(ts._history, ts._fitted)):
        exists = np.fromiter(
            (snap.has_node(int(u)) and snap.has_node(int(v)) for u, v in pairs),
            dtype=bool,
            count=len(pairs),
        )
        series[exists, j] = metric.score(pairs[exists])
    assert 0 < np.count_nonzero(series[:, 0]) < len(pairs)
    assert np.array_equal(ts.score(pairs), series.mean(axis=1))


@pytest.fixture(
    scope="module",
    params=[
        (name, scale)
        for name in ("facebook", "renren", "youtube")
        for scale in (0.25, 1.0)
    ],
    ids=lambda param: f"{param[0]}-{param[1]}",
)
def preset_replay(request):
    """A preset trace and its edge-by-edge mechanism measurement."""
    name, scale = request.param
    trace = presets.load(name, scale=scale, seed=7)
    return trace, loop_oracle.measure_mechanisms(trace)


#: streams of at least 10 edges with times floored to a 10-day grid, so
#: ties are common: closure must follow creation order, not time.
tied_streams = (
    edge_streams(max_nodes=12, max_edges=40)
    .filter(lambda stream: len(stream) >= 10)
    .map(lambda stream: [(u, v, float(t // 10)) for u, v, t in stream])
)


class TestTriadicClosure:
    def test_mechanisms_match_the_replay(self, preset_replay, probe):
        trace, want = preset_replay
        assert measure_mechanisms(trace) == want

    @given(tied_streams)
    @settings(max_examples=60, deadline=None)
    def test_mechanisms_match_the_replay_on_tied_streams(self, stream):
        trace = TemporalGraph.from_stream(stream)
        assert measure_mechanisms(trace) == loop_oracle.measure_mechanisms(trace)

    @given(edge_streams(max_nodes=10, max_edges=30))
    @settings(max_examples=40, deadline=None)
    def test_replay_tracker_matches_batch(self, stream):
        """The replay's CN counts are the batch CN scores of the 2-hop pairs."""
        trace = TemporalGraph.from_stream(stream)
        snapshot = Snapshot(trace, trace.num_edges)
        tracker = loop_oracle.IncrementalNeighborhood()
        for u, v, _ in trace.edges():
            tracker.add_edge(u, v)
        pairs = two_hop_pairs(snapshot)
        assert sorted(tracker.cn) == [tuple(p) for p in pairs.tolist()]
        want = get_metric("CN").fit(snapshot).score(pairs)
        assert [tracker.cn[tuple(p)] for p in pairs.tolist()] == want.tolist()
