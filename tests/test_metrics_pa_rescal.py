"""Correctness tests for PA and RESCAL."""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.graph.snapshots import Snapshot
from repro.metrics import paths, rescal
from repro.metrics.base import adjacency, adjacency_spectrum, get_metric
from repro.metrics.candidates import all_nonedge_pairs
from repro.metrics.rescal import eigen_init, rescal_als
from tests.conftest import build_trace
from tests.matrix_oracle import RESCAL_INIT_RTOL, own_spectrum_rescal_scores
from tests.test_kernel_parity import random_snapshot


class TestPreferentialAttachment:
    def test_degree_product(self, tiny_snapshot):
        pairs = all_nonedge_pairs(tiny_snapshot)
        scores = get_metric("PA").fit(tiny_snapshot).score(pairs)
        for (u, v), score in zip(pairs, scores):
            assert score == tiny_snapshot.degree(int(u)) * tiny_snapshot.degree(int(v))

    def test_matches_networkx(self, facebook_snapshots):
        s = facebook_snapshots[0]
        pairs = all_nonedge_pairs(s)[:300]
        g = s.to_networkx()
        expected = {
            (u, v): p
            for u, v, p in nx.preferential_attachment(g, [tuple(p) for p in pairs])
        }
        scores = get_metric("PA").fit(s).score(pairs)
        for (u, v), score in zip(pairs, scores):
            assert score == expected[(int(u), int(v))]

    def test_top_pairs_fast_matches_full_ranking(self, facebook_snapshots):
        s = facebook_snapshots[0]
        metric = get_metric("PA").fit(s)
        fast = metric.top_pairs_fast(limit=20)
        pairs = all_nonedge_pairs(s)
        scores = metric.score(pairs)
        best_possible = np.sort(scores)[-20:][::-1]
        fast_scores = metric.score(fast)
        assert fast_scores == pytest.approx(best_possible)


class TestRescalALS:
    def test_reconstructs_block_structure(self):
        """On a graph made of two cliques, a rank-2 RESCAL must score
        within-block non-edges far above cross-block ones."""
        events = []
        t = 0.0
        # Two 6-cliques minus one edge each (so non-edges exist per block).
        for base in (0, 6):
            for i in range(6):
                for j in range(i + 1, 6):
                    if (i, j) == (0, 1):
                        continue  # leave a within-block non-edge
                    events.append((base + i, base + j, t))
                    t += 1.0
        # One bridge keeps it connected.
        events.append((0, 6, t))
        trace = build_trace(events)
        s = Snapshot(trace, trace.num_edges)
        metric = get_metric("Rescal", rank=3).fit(s)
        within = metric.score(np.asarray([[0, 1], [6, 7]]))
        across = metric.score(np.asarray([[1, 7], [2, 8]]))
        assert within.min() > across.max()

    def test_als_reduces_residual(self, facebook_snapshots):
        s = facebook_snapshots[0]
        a = adjacency(s)
        from repro.metrics.rescal import _fit_residual

        x = eigen_init(s, 10)
        x0, r0 = rescal_als(a, x, iterations=1)
        x1, r1 = rescal_als(a, x, iterations=20)
        assert _fit_residual(a, x1, r1) <= _fit_residual(a, x0, r0) + 1e-6

    def test_score_symmetric(self, tiny_snapshot):
        metric = get_metric("Rescal", rank=4).fit(tiny_snapshot)
        a = metric.score(np.asarray([[0, 5]]))
        b = metric.score(np.asarray([[5, 0]]))
        assert a[0] == pytest.approx(b[0])

    def test_node_weights_favor_hubs(self, small_youtube):
        s = Snapshot(small_youtube, small_youtube.num_edges)
        metric = get_metric("Rescal", rank=10).fit(s)
        weights = metric.node_weights()
        degrees = s.degree_array()
        top_hub = int(np.argmax(degrees))
        # The highest-degree node must carry above-median latent weight —
        # the supernode concentration the paper observes (Section 4.4).
        assert weights[top_hub] > np.median(weights)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            get_metric("Rescal", rank=0)

    def test_deterministic(self, tiny_snapshot):
        a = get_metric("Rescal", rank=4).fit(tiny_snapshot).score(
            np.asarray([[0, 5]])
        )
        tiny_snapshot.cache.clear()
        b = get_metric("Rescal", rank=4).fit(tiny_snapshot).score(
            np.asarray([[0, 5]])
        )
        assert a[0] == pytest.approx(b[0])


def star_snapshot(leaves: int = 9) -> Snapshot:
    """A star: eigenvalues ``±sqrt(leaves)`` and ``leaves - 1`` zeros."""
    trace = build_trace([(0, leaf, float(leaf)) for leaf in range(1, leaves + 1)])
    return Snapshot(trace, trace.num_edges)


class TestEigenInit:
    def test_small_graph_keeps_negative_eigenvector(self):
        """Below ARPACK's size the dense spectrum is cut by ``|lambda|``
        too, so the star's -3 eigenvector is in the init."""
        snapshot = star_snapshot()
        x = eigen_init(snapshot, 25)
        assert x.shape == (10, 8)
        lam, vec = np.linalg.eigh(snapshot.adjacency_matrix().toarray())
        assert lam[0] == pytest.approx(-3.0) and lam[-1] == pytest.approx(3.0)
        for v in (vec[:, 0], vec[:, -1]):
            assert np.linalg.norm(x @ (x.T @ v)) == pytest.approx(1.0)

    def test_columns_are_top_magnitude_ascending(self, facebook_snapshots):
        snapshot = facebook_snapshots[0]
        lam, vec = adjacency_spectrum(snapshot, 50)
        x = eigen_init(snapshot, 25)
        top = np.sort(np.argsort(-np.abs(lam), kind="stable")[:25])
        assert np.array_equal(x, vec[:, top])
        assert np.all(np.diff(lam[top]) >= 0)
        assert np.abs(lam[top]).min() >= np.abs(np.delete(lam, top)).max()

    @pytest.mark.parametrize("kind", ["eigsh", "dense"])
    def test_within_tolerance_of_own_spectrum(self, facebook_snapshots, kind):
        """Rescal scores match a Rescal initialised from its own
        ``eigsh(k=rank)`` (the init before the spectrum was shared)."""
        if kind == "eigsh":
            snapshot = facebook_snapshots[0]
        else:  # 45 nodes: a dense spectrum here, eigsh(k=25) in the oracle
            snapshot = random_snapshot(45, 0.15, 3)
        metric = get_metric("Rescal").fit(snapshot)
        pairs = all_nonedge_pairs(snapshot)
        want = own_spectrum_rescal_scores(metric, pairs)
        np.testing.assert_allclose(
            metric.score(pairs),
            want,
            rtol=0,
            atol=RESCAL_INIT_RTOL * np.abs(want).max(),
        )


class TestSharedSpectrum:
    """Katz_lr and Rescal share one eigensolve per snapshot."""

    @pytest.mark.parametrize("order", [("Katz_lr", "Rescal"), ("Rescal", "Katz_lr")])
    def test_one_eigensolve_per_snapshot(self, facebook_snapshots, monkeypatch, order):
        solves = []
        real = spla.eigsh

        def counted(*args, **kwargs):
            solves.append(kwargs.get("k"))
            return real(*args, **kwargs)

        monkeypatch.setattr(spla, "eigsh", counted)
        spectra = []

        def spy(module):
            real_spectrum = module.adjacency_spectrum

            def recorded(snapshot, k):
                spectra.append(real_spectrum(snapshot, k))
                return spectra[-1]

            monkeypatch.setattr(module, "adjacency_spectrum", recorded)

        spy(paths)
        spy(rescal)
        source = facebook_snapshots[0]
        for _ in range(2):
            snapshot = Snapshot(source.trace, source.cutoff)
            assert snapshot.num_nodes > 52  # the ARPACK branch
            for name in order:
                get_metric(name).fit(snapshot)
        assert solves == [50, 50]
        assert len(spectra) == 4
        assert spectra[0] is spectra[1] and spectra[2] is spectra[3]
        assert spectra[0] is not spectra[2]
