"""Differential suite for the batched kernel layer (repro.metrics.kernels).

The kernel layer's contract is *bitwise* equality, not approximate: the
delta engine and serving layer advertise bit-identical scores, so
``score_block`` must replay the exact float additions of the matrix
formulation kept in ``tests/matrix_oracle.py`` (see the SMMP
accumulation-order note in the kernels module docstring).  This suite
checks:

- every registered metric (all 18) scores identically through ``score``
  and the oracle on a sparse, a dense and a delta-warm snapshot, for
  candidate pairs, existing edges, pairs more than two hops apart,
  reversed pairs and a shuffled subset;
- no metric overrides ``SimilarityMetric.score``, so every caller scores
  through the kernels;
- parity survives multi-block splitting (small REPRO_KERNEL_BLOCK_PAIRS);
- the sparse and dense candidate enumerations produce identical arrays
  (hypothesis-driven);
- a snapshot the delta engine materialised after a batch scores
  CN/AA/RA bitwise-equal to a from-scratch rebuild;
- the serving read path returns kernel-routed scores equal to the
  oracle's;
- WCN/WAA/WRA match their weighted matrix product for alpha in
  {0, 0.5, 1}, on synthesized weights and on a caller's partial dict,
  through both membership probes;
- a filtered sweep scores through cached blocks of the kept array exactly
  as the kept pairs alone, for every registered metric, while separate
  filter settings keep separate arrays and a mask the snapshot does not
  memoise (writeable, a rewritten read-only view, a fresh read-only
  array) stays uncached;
- Katz_lr and Rescal score in row slices bitwise as in one pass, and
  refit a snapshot to bitwise-equal factors.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.metrics  # noqa: F401  (registers all metrics)
from repro.extensions import directed
from repro.graph.delta import DeltaGraph
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot
from repro.metrics.base import SimilarityMetric, all_metric_names, get_metric
from repro.metrics.candidates import (
    ENUM_STRATEGY_KEY,
    _dense_two_hop_positions,
    _sparse_two_hop_positions,
    all_nonedge_pairs,
    candidate_pairs,
    two_hop_pairs,
)
from repro.eval.experiment import evaluate_step
from repro.extensions.weighted import synthesize_weights
from repro.metrics import kernels
from repro.metrics.kernels import (
    FACTOR_SLICE_ROWS,
    CandidateBlock,
    blocks_for,
    candidate_cache_key,
    kept_pairs,
    score_pairs,
)
from repro.temporal import FilterParams, TemporalFilter, pair_activity
from repro.temporal.timeseries import TimeSeriesMetric
from tests.matrix_oracle import WEIGHTED_EDGES, oracle_scores


def random_snapshot(n: int, p: float, seed: int) -> Snapshot:
    """Erdős–Rényi-ish snapshot with sparse non-contiguous node ids."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p
    iu, iv = iu[keep], iv[keep]
    if len(iu) == 0:  # ensure at least a path so every metric can fit
        iu, iv = np.asarray([0, 1]), np.asarray([1, 2])
    ids = np.arange(10, 10 + 3 * n, 3)
    order = rng.permutation(len(iu))
    iu, iv = iu[order], iv[order]
    times = np.sort(rng.uniform(0.0, 100.0, len(iu)))
    trace = TemporalGraph.from_stream(
        list(zip(ids[iu].tolist(), ids[iv].tolist(), times.tolist()))
    )
    return Snapshot(trace, trace.num_edges)


@pytest.fixture(scope="module")
def sparse_snapshot() -> Snapshot:
    return random_snapshot(40, 0.08, 11)


@pytest.fixture(scope="module")
def dense_snapshot() -> Snapshot:
    return random_snapshot(25, 0.35, 13)


@pytest.fixture(scope="module")
def delta_snapshot(sparse_snapshot) -> Snapshot:
    """The sparse graph again, materialised by the delta engine.

    Its CN scores come from the engine's maintained counts, so scoring
    anything but the snapshot's own candidate array goes through the
    table's key lookup (and back to the expansion for pairs it lacks);
    AA and RA score through the expansion.
    """
    events = list(sparse_snapshot.trace.edges())
    delta = DeltaGraph(TemporalGraph.from_stream(events[:-5]))
    delta.apply(events[-5:])
    return delta.materialize()


def pair_inputs(snapshot: Snapshot, strategy: str) -> "dict[str, np.ndarray]":
    """The pair sets every caller may hand a metric, keyed by label."""
    candidates = candidate_pairs(snapshot, strategy)
    two_hop = {tuple(p) for p in two_hop_pairs(snapshot).tolist()}
    nonedges = all_nonedge_pairs(snapshot)
    far = np.asarray(
        [p for p in nonedges.tolist() if tuple(p) not in two_hop],
        dtype=np.int64,
    ).reshape(-1, 2)
    rng = np.random.default_rng(0)
    shuffled = candidates[rng.permutation(len(candidates))]
    return {
        "candidates": candidates,
        "edges": np.asarray(list(snapshot.edges()), dtype=np.int64),
        "far": far,
        "reversed": candidates[:, ::-1],
        "shuffled subset": shuffled[: len(shuffled) // 2],
    }


def assert_matches_oracle(snapshot: Snapshot, name: str) -> None:
    metric = get_metric(name).fit(snapshot)
    for label, pairs in pair_inputs(snapshot, metric.candidate_strategy).items():
        got = metric.score(pairs)
        assert np.array_equal(got, oracle_scores(metric, pairs)), (name, label)


class TestScoreBlockParity:
    """score == the matrix oracle, bit for bit, for every registered metric."""

    @pytest.mark.parametrize("name", sorted(all_metric_names()))
    def test_sparse_snapshot(self, sparse_snapshot, delta_snapshot, name):
        assert len(pair_inputs(sparse_snapshot, "two_hop")["far"])
        assert_matches_oracle(sparse_snapshot, name)
        assert_matches_oracle(delta_snapshot, name)

    @pytest.mark.parametrize("name", sorted(all_metric_names()))
    def test_dense_snapshot(self, dense_snapshot, name):
        assert_matches_oracle(dense_snapshot, name)

    @pytest.mark.parametrize("name", sorted(all_metric_names()))
    def test_multi_block_split(self, sparse_snapshot, name, monkeypatch):
        """Splitting into many tiny blocks must not change a single bit."""
        monkeypatch.setenv("REPRO_KERNEL_BLOCK_PAIRS", "7")
        metric = get_metric(name).fit(sparse_snapshot)
        pairs = candidate_pairs(sparse_snapshot, metric.candidate_strategy)
        blocks = blocks_for(sparse_snapshot, pairs)
        assert len(blocks) > 1
        one_block = metric.score_block(CandidateBlock(sparse_snapshot, pairs))
        split = score_pairs(metric, sparse_snapshot, pairs)
        assert np.array_equal(np.asarray(one_block, dtype=np.float64), split)

    def test_no_metric_overrides_score(self):
        """Every metric scores through the kernels: none redefines score()."""
        classes = {type(get_metric(name)) for name in all_metric_names()}
        classes |= {
            TimeSeriesMetric,
            directed.DirectedPreferentialAttachment,
            directed.SharedFollowees,
            directed.SharedFollowers,
            directed.TransitivePaths,
        }
        pending = list(SimilarityMetric.__subclasses__())
        while pending:
            cls = pending.pop()
            classes.add(cls)
            pending.extend(cls.__subclasses__())
        for cls in classes:
            assert cls.score is SimilarityMetric.score, cls.__name__

    def test_empty_pairs(self, sparse_snapshot):
        metric = get_metric("CN").fit(sparse_snapshot)
        out = score_pairs(metric, sparse_snapshot, np.zeros((0, 2), dtype=np.int64))
        assert out.shape == (0,) and out.dtype == np.float64

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=28),
        p=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_neighbourhood_family_random_graphs(self, n, p, seed):
        """The expansion-backed family, hypothesis-driven (cheap fits only)."""
        snapshot = random_snapshot(n, p, seed)
        from repro.metrics.naive_bayes import prior_constant

        # The LNB prior s = n(n-1)/(2|E|) - 1 needs log(s) to exist, which
        # degenerate near-complete graphs violate; that is a property of the
        # metric, not of the kernel under test.
        assume(prior_constant(snapshot) > 0.0)
        pairs = two_hop_pairs(snapshot)
        for name in ("CN", "JC", "AA", "RA", "BCN", "BAA", "BRA"):
            metric = get_metric(name).fit(snapshot)
            kernel = score_pairs(metric, snapshot, pairs)
            assert np.array_equal(oracle_scores(metric, pairs), kernel), name


class TestEnumerationStrategies:
    """The sparse and dense enumerations return identical arrays."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=60),
        p=st.floats(min_value=0.01, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_identical_output(self, n, p, seed):
        snapshot = random_snapshot(n, p, seed)
        sparse = _sparse_two_hop_positions(snapshot)
        dense = _dense_two_hop_positions(snapshot)
        assert len(sparse) == len(dense) == 2
        for got, want in zip(sparse, dense):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    def test_forced_strategy_same_pairs(self):
        """Each strategy, called directly, yields two_hop_pairs' array."""
        snapshot = random_snapshot(30, 0.15, 5)
        baseline = two_hop_pairs(snapshot)
        ids = snapshot.node_ids
        for enumerate_positions in (
            _sparse_two_hop_positions, _dense_two_hop_positions
        ):
            rows, cols = enumerate_positions(snapshot)
            pairs = np.column_stack((ids[rows], ids[cols]))
            assert np.array_equal(pairs, baseline), enumerate_positions.__name__

    def test_strategy_recorded_in_cache(self):
        snapshot = random_snapshot(30, 0.15, 5)
        two_hop_pairs(snapshot)
        assert snapshot.cache[ENUM_STRATEGY_KEY] in ("sparse", "dense")


class TestDeltaRoute:
    """Delta-materialised scores after a batch == from-scratch rebuild."""

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=20),
        p=st.floats(min_value=0.1, max_value=0.4),
        seed=st.integers(min_value=0, max_value=2**31),
        extra=st.integers(min_value=1, max_value=6),
    )
    def test_dirty_rescoring_bitwise(self, n, p, seed, extra):
        full = random_snapshot(n, p, seed)
        events = list(full.trace.edges())
        if len(events) <= extra:
            return
        prefix = events[:-extra]
        batch = events[-extra:]
        delta = DeltaGraph(TemporalGraph.from_stream(prefix))
        delta.apply(batch)
        snap = delta.materialize()
        rebuilt = Snapshot(
            TemporalGraph.from_stream(events), len(events)
        )
        pairs = two_hop_pairs(rebuilt)
        assert np.array_equal(two_hop_pairs(snap), pairs)
        for name in ("CN", "AA", "RA"):
            metric_warm = get_metric(name).fit(snap)
            metric_cold = get_metric(name).fit(rebuilt)
            warm = score_pairs(metric_warm, snap, two_hop_pairs(snap))
            cold = score_pairs(metric_cold, rebuilt, pairs)
            assert np.array_equal(warm, cold), name


class TestServeRoute:
    """The serving read path routes through the kernel layer unchanged."""

    def test_predict_scores_match_legacy(self):
        from repro.serve.store import ScoreStore

        snapshot = random_snapshot(20, 0.2, 3)
        store = ScoreStore(snapshot.trace)
        served = store._snapshot
        u = int(served.node_ids[0])
        result = store.predict(u, 5, "AA")
        pairs = candidate_pairs(served, "two_hop")
        mask = (pairs[:, 0] == u) | (pairs[:, 1] == u)
        mine = pairs[mask]
        metric = get_metric("AA").fit(served)
        reference = oracle_scores(metric, mine)
        others = np.where(mine[:, 0] == u, mine[:, 1], mine[:, 0])
        expected = {
            int(v): float(s) for v, s in zip(others.tolist(), reference.tolist())
        }
        assert result["predictions"], "expected at least one candidate"
        for prediction in result["predictions"]:
            assert expected[prediction["v"]] == prediction["score"]


def caller_weights(snapshot: Snapshot) -> "dict[tuple[int, int], float]":
    """A caller's weight dict: a third of the edges left out, and every
    fourth given in both orientations (the two values sum)."""
    weights = {
        pair: w
        for i, (pair, w) in enumerate(synthesize_weights(snapshot, seed=5).items())
        if i % 3
    }
    for (u, v), w in list(weights.items())[::4]:
        weights[(v, u)] = 0.5 * w
    return weights


class TestWeightedTrio:
    """WCN/WAA/WRA on the expansion == ``W^a D A + A D W^a``, bit for bit."""

    @pytest.mark.parametrize("name", sorted(WEIGHTED_EDGES))
    @pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0))
    @pytest.mark.parametrize("given", ("synthesized", "caller"))
    def test_matches_weighted_product(
        self, sparse_snapshot, dense_snapshot, delta_snapshot, name, alpha, given
    ):
        for snapshot in (sparse_snapshot, dense_snapshot, delta_snapshot):
            weights = None if given == "synthesized" else caller_weights(snapshot)
            metric = type(get_metric(name))(weights, alpha=alpha)
            # WAA's 1 / log(1 + s) is inf at a node the dict leaves unweighted
            with np.errstate(divide="ignore"):
                metric.fit(snapshot)
            for label, pairs in pair_inputs(snapshot, "two_hop").items():
                got = metric.score(pairs)
                assert np.array_equal(got, oracle_scores(metric, pairs)), label

    @pytest.mark.parametrize("name", sorted(WEIGHTED_EDGES))
    def test_sorted_key_probe(self, name, monkeypatch):
        """The edge positions the ``searchsorted`` probe yields, too (the
        test snapshots are all small and dense enough for the table)."""
        monkeypatch.setattr(kernels, "use_dense_probe", lambda snapshot: False)
        for n, p, seed in ((40, 0.08, 11), (25, 0.35, 13)):
            snapshot = random_snapshot(n, p, seed)
            for weights in (None, caller_weights(snapshot)):
                for alpha in (0.0, 0.5, 1.0):
                    metric = type(get_metric(name))(weights, alpha=alpha)
                    with np.errstate(divide="ignore"):
                        metric.fit(snapshot)
                    pairs = two_hop_pairs(snapshot)
                    got = metric.score(pairs)
                    assert np.array_equal(got, oracle_scores(metric, pairs))
        assert "dense_edge_positions" not in snapshot.cache


def filter_at(snapshot: Snapshot, pairs: np.ndarray, q: float) -> TemporalFilter:
    """A temporal filter whose thresholds sit at the q-th percentile of
    ``pairs``' activity features, so each criterion bites."""
    act = pair_activity(snapshot, pairs, window=30.0)
    gaps = act.cn_gap[np.isfinite(act.cn_gap)]
    return TemporalFilter(
        FilterParams(
            d_act=float(np.percentile(act.active_idle, q)) + 1e-6,
            d_inact=float(np.percentile(act.inactive_idle, q)) + 1e-6,
            window=30.0,
            min_new_edges=0.0,
            d_cn=float(np.percentile(gaps, q)) + 1e-6,
        )
    )


class TestFilteredBlocks:
    """A filtered sweep shares cached blocks of its kept candidate array."""

    @pytest.mark.parametrize("name", sorted(all_metric_names()))
    def test_kept_pairs_score_as_alone(self, name):
        snapshot = random_snapshot(40, 0.1, 23)
        strategy = get_metric(name).candidate_strategy
        pairs = candidate_pairs(snapshot, strategy)
        keep = filter_at(snapshot, pairs, 80)
        truth = {tuple(p) for p in pairs[::7].tolist()}
        # A Table 8 row: the metric without, then with, the filter.
        evaluate_step(name, snapshot, truth, rng=3)
        filtered = evaluate_step(name, snapshot, truth, rng=3, pair_filter=keep)
        mask = keep(snapshot, pairs)
        kept = kept_pairs(snapshot, pairs, mask)
        assert not mask.flags.writeable and 0 < len(kept) < len(pairs)
        assert candidate_cache_key(snapshot, kept) is not None
        assert blocks_for(snapshot, kept) is blocks_for(snapshot, kept)
        metric = get_metric(name).fit(snapshot)
        alone = metric.score_block(CandidateBlock(snapshot, kept.copy()))
        got = score_pairs(metric, snapshot, kept)
        assert np.array_equal(got, np.asarray(alone, dtype=np.float64))
        # An ad hoc (writeable) mask takes the uncached path to the same top-k.
        adhoc = evaluate_step(
            name, snapshot, truth, rng=3,
            pair_filter=lambda snap, p: keep(snap, p).copy(),
        )
        assert np.array_equal(filtered.predicted, adhoc.predicted)

    def test_filter_settings_keep_their_own_arrays(self):
        snapshot = random_snapshot(40, 0.1, 23)
        pairs = two_hop_pairs(snapshot)
        kept = {}
        for q in (90, 50):
            keep = filter_at(snapshot, pairs, q)
            mask = keep(snapshot, pairs)
            kept[q] = kept_pairs(snapshot, pairs, mask)
            assert kept_pairs(snapshot, pairs, keep(snapshot, pairs)) is kept[q]
            assert np.array_equal(kept[q], pairs[mask])
            assert not kept[q].flags.writeable
        assert kept[90] is not kept[50] and len(kept[50]) < len(kept[90])
        assert blocks_for(snapshot, kept[90]) is not blocks_for(snapshot, kept[50])
        assert blocks_for(snapshot, kept[50])[0].pairs is kept[50]

    def test_writeable_mask_takes_the_uncached_path(self):
        snapshot = random_snapshot(40, 0.1, 23)
        pairs = two_hop_pairs(snapshot)
        mask = filter_at(snapshot, pairs, 80)(snapshot, pairs).copy()
        first = kept_pairs(snapshot, pairs, mask)
        assert kept_pairs(snapshot, pairs, mask) is not first
        assert np.array_equal(first, pairs[mask])
        assert candidate_cache_key(snapshot, first) is None
        assert blocks_for(snapshot, first) is not blocks_for(snapshot, first)
        # The memoised mask over an array the snapshot does not cache, too.
        memoised = filter_at(snapshot, pairs, 80)(snapshot, pairs)
        other = kept_pairs(snapshot, pairs.copy(), memoised)
        assert candidate_cache_key(snapshot, other) is None

    def test_read_only_view_over_a_rewritten_buffer(self):
        """A filter returning one read-only view of a buffer it rewrites
        between calls keeps what the view holds now, not what it held."""
        snapshot = random_snapshot(40, 0.1, 23)
        pairs = two_hop_pairs(snapshot)
        buffer = np.zeros(len(pairs), dtype=bool)
        view = buffer.view()
        view.flags.writeable = False
        for start in (0, 1, 2):
            buffer[:] = False
            buffer[start::3] = True
            kept = kept_pairs(snapshot, pairs, view)
            assert np.array_equal(kept, pairs[start::3])
            assert candidate_cache_key(snapshot, kept) is None

    def test_fresh_read_only_masks_add_nothing_to_the_cache(self):
        snapshot = random_snapshot(40, 0.1, 23)
        pairs = two_hop_pairs(snapshot)
        keys = set(snapshot.cache)
        for _ in range(3):
            mask = np.broadcast_to(True, len(pairs))
            kept = kept_pairs(snapshot, pairs, mask)
            assert np.array_equal(kept, pairs)
            score_pairs(get_metric("CN").fit(snapshot), snapshot, kept)
        added = set(snapshot.cache) - keys
        assert not any("kept" in str(key) for key in added), added


class TestLowRankFactors:
    """Katz_lr and Rescal: sliced scoring and deterministic fits."""

    @pytest.fixture(scope="class")
    def snapshot(self) -> Snapshot:
        return random_snapshot(120, 0.05, 31)

    def test_slices_match_one_pass(self, snapshot):
        pairs = all_nonedge_pairs(snapshot)
        assert len(pairs) > FACTOR_SLICE_ROWS
        block = CandidateBlock(snapshot, pairs)
        rows, cols = block.rows, block.cols
        katz = get_metric("Katz_lr").fit(snapshot)
        left = katz._vec[rows] * katz._factor
        want = np.einsum("ij,ij->i", left, katz._vec[cols])
        assert np.array_equal(katz.score_block(block), want)
        rescal = get_metric("Rescal").fit(snapshot)
        want = np.einsum("ij,ij->i", rescal._xr[rows], rescal._x[cols]) + np.einsum(
            "ij,ij->i", rescal._xr[cols], rescal._x[rows]
        )
        assert np.array_equal(rescal.score_block(block), want)

    def test_refits_give_equal_factors(self, snapshot):
        fits = [
            (
                get_metric("Katz_lr").fit(copy),
                get_metric("Rescal").fit(copy),
            )
            for copy in (
                Snapshot(snapshot.trace, snapshot.cutoff) for _ in range(2)
            )
        ]
        (katz_a, rescal_a), (katz_b, rescal_b) = fits
        assert np.array_equal(katz_a._vec, katz_b._vec)
        assert np.array_equal(katz_a._factor, katz_b._factor)
        assert np.array_equal(rescal_a._x, rescal_b._x)
        assert np.array_equal(rescal_a._r, rescal_b._r)
