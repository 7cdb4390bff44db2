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
- the delta engine's expansion-based seeding and dirty-pair rescoring
  stay bitwise-equal to a from-scratch rebuild;
- the serving read path returns kernel-routed scores equal to the
  oracle's.
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
from repro.metrics.kernels import CandidateBlock, blocks_for, score_pairs
from repro.temporal.timeseries import TimeSeriesMetric
from tests.matrix_oracle import oracle_scores


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

    Its CN/AA/RA scores come from the engine's warm tables, so scoring
    anything but the snapshot's own candidate array goes through the
    table's key lookup (and back to the expansion for pairs it lacks).
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
        assert np.array_equal(sparse[0], dense[0])
        assert np.array_equal(sparse[1], dense[1])

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
    """Expansion-based seeding / dirty rescoring == from-scratch rebuild."""

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
