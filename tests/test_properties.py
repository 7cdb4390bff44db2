"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.ranking import top_k_pairs
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot, new_edges_between, snapshot_sequence
from repro.ml.metrics import roc_auc_score
from repro.temporal.activity import node_idle_times, node_recent_edges
from repro.utils.pairs import canonical_pair


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def edge_streams(draw, max_nodes=12, max_edges=30):
    """Random valid edge streams: unique undirected pairs, sorted times."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = draw(st.integers(min_value=1, max_value=min(max_edges, len(possible))))
    indices = draw(
        st.lists(
            st.integers(0, len(possible) - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    times = sorted(
        draw(
            st.lists(
                st.floats(0, 100, allow_nan=False, allow_infinity=False),
                min_size=count,
                max_size=count,
            )
        )
    )
    return [(possible[i][0], possible[i][1], t) for i, t in zip(indices, times)]


# ---------------------------------------------------------------------------
# TemporalGraph invariants
# ---------------------------------------------------------------------------
class TestGraphInvariants:
    @given(edge_streams())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edges(self, stream):
        g = TemporalGraph.from_stream(stream)
        full = Snapshot(g, g.num_edges)
        assert sum(full.degree(u) for u in g.nodes()) == 2 * g.num_edges

    @given(edge_streams())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_symmetry(self, stream):
        g = TemporalGraph.from_stream(stream)
        full = Snapshot(g, g.num_edges)
        for u in g.nodes():
            for v in full.neighbors(u):
                assert u in full.neighbors(v)

    @given(edge_streams())
    @settings(max_examples=60, deadline=None)
    def test_prefix_monotone(self, stream):
        g = TemporalGraph.from_stream(stream)
        for cut in range(1, g.num_edges + 1):
            p = g.prefix(cut)
            assert p.num_edges == cut
            assert p.num_nodes <= g.num_nodes

    @given(edge_streams(), st.floats(0, 120, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_idle_time_non_negative_after_any_event(self, stream, now):
        g = TemporalGraph.from_stream(stream)
        snapshot = Snapshot(g, max(1, g.edge_index_at_time(now)))
        assert (node_idle_times(snapshot) >= 0).all()

    @given(edge_streams())
    @settings(max_examples=40, deadline=None)
    def test_recent_count_window_monotone(self, stream):
        g = TemporalGraph.from_stream(stream)
        full = Snapshot(g, g.num_edges)
        small = node_recent_edges(full, 1.0)
        large = node_recent_edges(full, 1000.0)
        assert (small <= large).all()
        assert np.array_equal(large, full.degree_array())


# ---------------------------------------------------------------------------
# Snapshot sequencing invariants
# ---------------------------------------------------------------------------
class TestSnapshotInvariants:
    @given(edge_streams(max_edges=25), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_sequence_cutoffs_constant_delta(self, stream, delta):
        g = TemporalGraph.from_stream(stream)
        snaps = snapshot_sequence(g, delta)
        cutoffs = [s.cutoff for s in snaps]
        assert all(b - a == delta for a, b in zip(cutoffs, cutoffs[1:]))

    @given(edge_streams(max_edges=25))
    @settings(max_examples=50, deadline=None)
    def test_ground_truth_edges_within_prev_nodes(self, stream):
        g = TemporalGraph.from_stream(stream)
        if g.num_edges < 4:
            return
        half = g.num_edges // 2
        prev = Snapshot(g, half)
        curr = Snapshot(g, g.num_edges)
        for u, v in new_edges_between(prev, curr):
            assert prev.has_node(u) and prev.has_node(v)
            assert not prev.has_edge(u, v)
            assert curr.has_edge(u, v)


# ---------------------------------------------------------------------------
# Metric invariants on random graphs
# ---------------------------------------------------------------------------
class TestMetricInvariants:
    @given(edge_streams(max_nodes=10, max_edges=25), st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_neighbourhood_scores_symmetric_and_nonnegative(self, stream, which):
        from repro.metrics.base import get_metric
        from repro.metrics.candidates import all_nonedge_pairs

        name = ("CN", "JC", "AA", "RA")[which]
        g = TemporalGraph.from_stream(stream)
        s = Snapshot(g, g.num_edges)
        pairs = all_nonedge_pairs(s)
        if len(pairs) == 0:
            return
        metric = get_metric(name).fit(s)
        scores = metric.score(pairs)
        assert (scores >= 0).all()
        flipped = metric.score(pairs[:, ::-1])
        assert np.allclose(scores, flipped)

    @given(edge_streams(max_nodes=10, max_edges=25))
    @settings(max_examples=25, deadline=None)
    def test_cn_bounded_by_min_degree(self, stream):
        from repro.metrics.base import get_metric
        from repro.metrics.candidates import all_nonedge_pairs

        g = TemporalGraph.from_stream(stream)
        s = Snapshot(g, g.num_edges)
        pairs = all_nonedge_pairs(s)
        if len(pairs) == 0:
            return
        scores = get_metric("CN").fit(s).score(pairs)
        for (u, v), score in zip(pairs, scores):
            assert score <= min(s.degree(int(u)), s.degree(int(v)))

    @given(edge_streams(max_nodes=10, max_edges=25))
    @settings(max_examples=25, deadline=None)
    def test_jc_in_unit_interval(self, stream):
        from repro.metrics.base import get_metric
        from repro.metrics.candidates import all_nonedge_pairs

        g = TemporalGraph.from_stream(stream)
        s = Snapshot(g, g.num_edges)
        pairs = all_nonedge_pairs(s)
        if len(pairs) == 0:
            return
        scores = get_metric("JC").fit(s).score(pairs)
        assert (scores >= 0).all() and (scores <= 1).all()


# ---------------------------------------------------------------------------
# Ranking invariants
# ---------------------------------------------------------------------------
class TestRankingInvariants:
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60
        ),
        st.integers(0, 70),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_top_k_returns_maximal_scores(self, scores, k, seed):
        scores = np.asarray(scores)
        pairs = np.column_stack(
            [np.zeros(len(scores), dtype=np.int64), np.arange(1, len(scores) + 1)]
        )
        top = top_k_pairs(pairs, scores, k, rng=seed)
        assert len(top) == min(k, len(scores))
        if 0 < k < len(scores):
            chosen = {int(v) - 1 for v in top[:, 1]}
            threshold = np.sort(scores)[::-1][k - 1]
            # Every chosen score >= every unchosen score.
            unchosen = [s for i, s in enumerate(scores) if i not in chosen]
            if unchosen:
                assert min(scores[list(chosen)]) >= max(unchosen) - 1e-9
            assert min(scores[list(chosen)]) >= threshold - 1e-9


# ---------------------------------------------------------------------------
# AUC properties
# ---------------------------------------------------------------------------
class TestAucProperties:
    @given(
        st.lists(st.booleans(), min_size=4, max_size=100),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_auc_complement_under_score_negation(self, labels, seed):
        y = np.asarray(labels, dtype=int)
        if y.sum() in (0, len(y)):
            y[0] = 1 - y[0]
        rng = np.random.default_rng(seed)
        scores = rng.random(len(y))
        auc = roc_auc_score(y, scores)
        assert roc_auc_score(y, -scores) == np.float64(1.0) - auc or abs(
            roc_auc_score(y, -scores) + auc - 1.0
        ) < 1e-12

    @given(st.integers(1, 50), st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_auc_bounds(self, n_pos, n_neg):
        rng = np.random.default_rng(n_pos * 100 + n_neg)
        y = np.concatenate([np.ones(n_pos, int), np.zeros(n_neg, int)])
        scores = rng.random(len(y))
        assert 0.0 <= roc_auc_score(y, scores) <= 1.0


# ---------------------------------------------------------------------------
# Pair canonicalisation
# ---------------------------------------------------------------------------
class TestPairProperties:
    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=100, deadline=None)
    def test_canonical_pair_idempotent_and_sorted(self, u, v):
        if u == v:
            return
        pair = canonical_pair(u, v)
        assert pair[0] < pair[1]
        assert canonical_pair(*pair) == pair
        assert canonical_pair(v, u) == pair
