"""Correctness tests for PPR and LRW."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp

from repro.eval.experiment import evaluate_step
from repro.graph.snapshots import Snapshot, new_edges_between
from repro.metrics.base import all_metric_names, get_metric
from repro.metrics.candidates import all_nonedge_pairs, candidate_pairs
from repro.metrics.walks import ppr_kernel, transition_matrix
from tests.matrix_oracle import DENSE_WALK_RTOL, dense_walk_scores
from tests.test_kernel_parity import random_snapshot
from tests.test_node_scoped_parity import delta_materialized, view_with_isolated_node


class TestTransitionMatrix:
    def test_rows_stochastic(self, tiny_snapshot):
        p = transition_matrix(tiny_snapshot)
        assert sp.issparse(p)
        assert np.asarray(p.sum(axis=1)).ravel() == pytest.approx(
            np.ones(p.shape[0])
        )

    def test_entries(self, tiny_snapshot):
        p = transition_matrix(tiny_snapshot).toarray()
        pos = tiny_snapshot.node_pos
        # Node 7 has neighbours {6, 0}: each transition prob 1/2.
        assert p[pos[7], pos[6]] == pytest.approx(0.5)
        assert p[pos[7], pos[0]] == pytest.approx(0.5)
        assert p[pos[7], pos[1]] == 0.0


def mirrored(upper: np.ndarray) -> np.ndarray:
    """The symmetric ``S`` whose upper triangle ``ppr_kernel`` returns."""
    return np.triu(upper) + np.triu(upper, 1).T


class TestPPR:
    def test_matches_networkx_pagerank(self, tiny_snapshot):
        """score(u, v) must be pi_u(v) + pi_v(u) from networkx's
        personalised PageRank."""
        alpha = 0.15
        metric = get_metric("PPR", alpha=alpha).fit(tiny_snapshot)
        g = tiny_snapshot.to_networkx()

        def pagerank(u):
            return nx.pagerank(
                g, alpha=1 - alpha, personalization={u: 1.0}, tol=1e-12, max_iter=500
            )

        ranks = {u: pagerank(u) for u in tiny_snapshot.nodes()}
        for u in [0, 4, 7]:
            others = [v for v in tiny_snapshot.nodes() if v != u]
            scores = metric.score(np.asarray([[u, v] for v in others]))
            for v, score in zip(others, scores):
                assert score == pytest.approx(ranks[u][v] + ranks[v][u], abs=1e-8)

    def test_score_is_symmetric_sum(self, tiny_snapshot):
        metric = get_metric("PPR").fit(tiny_snapshot)
        a = metric.score(np.asarray([[0, 5]]))
        b = metric.score(np.asarray([[5, 0]]))
        assert a[0] == pytest.approx(b[0])

    def test_rows_sum_to_one(self, tiny_snapshot):
        """Each row of the PPR matrix ``alpha * S D`` sums to one, with
        ``S`` mirrored from the kernel's upper triangle."""
        alpha = 0.15
        s = mirrored(ppr_kernel(tiny_snapshot, alpha))
        rows = alpha * s @ tiny_snapshot.degree_array()
        assert rows == pytest.approx(np.ones(tiny_snapshot.num_nodes))

    def test_kernel_is_exactly_symmetric(self):
        """The mirrored triangle is exactly symmetric and is the inverse
        of ``D - (1-alpha) A`` on both sides of the diagonal."""
        alpha = 0.15
        snapshot = random_snapshot(40, 0.08, 11)
        s = mirrored(ppr_kernel(snapshot, alpha))
        assert np.array_equal(s, s.T)
        system = -(1.0 - alpha) * snapshot.adjacency_matrix().toarray()
        np.fill_diagonal(system, snapshot.degree_array())
        np.testing.assert_allclose(s, np.linalg.inv(system), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_snapshot(40, 0.08, 11),
            lambda: view_with_isolated_node(random_snapshot(30, 0.12, 5))[0],
        ],
        ids=["random", "isolated-node view"],
    )
    def test_reversed_pairs_score_bitwise_equal(self, make):
        """``score(u, v)`` and ``score(v, u)`` read one triangle entry."""
        snapshot = make()
        metric = get_metric("PPR").fit(snapshot)
        pairs = candidate_pairs(snapshot, "all")
        forward = metric.score(pairs)
        backward = metric.score(pairs[:, ::-1].copy())
        assert np.array_equal(forward.view(np.uint64), backward.view(np.uint64))

    def test_isolated_node_scores_zero(self):
        view, lonely = view_with_isolated_node(random_snapshot(30, 0.12, 5))
        pairs = candidate_pairs(view, "all", node=lonely)
        assert np.all(get_metric("PPR").fit(view).score(pairs) == 0.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            get_metric("PPR", alpha=0.0)
        with pytest.raises(ValueError):
            get_metric("PPR", alpha=1.0)


class TestLRW:
    def test_matches_matrix_power(self, tiny_snapshot):
        m = 3
        p = transition_matrix(tiny_snapshot).toarray()
        pm = np.linalg.matrix_power(p, m)
        deg = tiny_snapshot.degree_array()
        two_e = 2.0 * tiny_snapshot.num_edges
        metric = get_metric("LRW", steps=m).fit(tiny_snapshot)
        pairs = all_nonedge_pairs(tiny_snapshot)
        scores = metric.score(pairs)
        pos = tiny_snapshot.node_pos
        for (u, v), score in zip(pairs, scores):
            i, j = pos[int(u)], pos[int(v)]
            expected = deg[i] / two_e * pm[i, j] + deg[j] / two_e * pm[j, i]
            assert score == pytest.approx(expected)

    def test_one_step_is_zero_on_nonedges(self, tiny_snapshot):
        """A 1-step walk cannot reach a non-neighbour."""
        metric = get_metric("LRW", steps=1).fit(tiny_snapshot)
        pairs = all_nonedge_pairs(tiny_snapshot)
        assert (metric.score(pairs) == 0.0).all()

    def test_symmetry(self, tiny_snapshot):
        metric = get_metric("LRW").fit(tiny_snapshot)
        a = metric.score(np.asarray([[1, 5]]))
        b = metric.score(np.asarray([[5, 1]]))
        assert a[0] == pytest.approx(b[0])

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            get_metric("LRW", steps=0)


#: snapshots for the dense-formula comparison, built afresh per test.
ORACLE_SNAPSHOTS = {
    "plain": lambda: random_snapshot(40, 0.08, 11),
    "dense": lambda: random_snapshot(25, 0.35, 13),
    "view": lambda: view_with_isolated_node(random_snapshot(30, 0.12, 5))[0],
    "delta": lambda: delta_materialized(random_snapshot(40, 0.08, 11)),
}


class TestDenseFormulas:
    """The Cholesky PPR and the sparse LRW product stay within
    ``DENSE_WALK_RTOL`` of the dense formulas they replaced."""

    @pytest.mark.parametrize("kind", sorted(ORACLE_SNAPSHOTS))
    @pytest.mark.parametrize(
        "name, params",
        [("PPR", {}), ("PPR", {"alpha": 0.5}), ("LRW", {}), ("LRW", {"steps": 4})],
    )
    def test_small_snapshots(self, kind, name, params):
        snapshot = ORACLE_SNAPSHOTS[kind]()
        metric = get_metric(name, **params).fit(snapshot)
        pairs = candidate_pairs(snapshot, "all")
        got = metric.score(pairs)
        np.testing.assert_allclose(
            got, dense_walk_scores(metric, pairs), rtol=DENSE_WALK_RTOL, atol=0
        )

    @pytest.mark.parametrize("name", ["PPR", "LRW"])
    def test_preset_snapshot(self, facebook_snapshots, name):
        snapshot = facebook_snapshots[-1]
        metric = get_metric(name).fit(snapshot)
        pairs = candidate_pairs(snapshot, metric.candidate_strategy)
        np.testing.assert_allclose(
            metric.score(pairs),
            dense_walk_scores(metric, pairs),
            rtol=DENSE_WALK_RTOL,
            atol=0,
        )


def test_sweep_caches_no_dense_transition_matrix(facebook_snapshots):
    """An 18-metric sweep keeps only the sparse ``P`` on the snapshot."""
    previous, current = facebook_snapshots[-2:]
    previous = Snapshot(previous.trace, previous.num_edges)
    truth = new_edges_between(previous, current)
    names = all_metric_names()
    assert len(names) == 18
    for name in names:
        evaluate_step(name, previous, truth, rng=0)
    assert sp.issparse(previous.cache["P"])
    n = previous.num_nodes
    dense = {
        key
        for key, value in previous.cache.items()
        if isinstance(value, np.ndarray) and value.shape == (n, n)
    }
    assert dense and "P" not in dense, dense
