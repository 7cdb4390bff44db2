"""Tests for the time-varying and behavioural knobs of the growth engine."""

import numpy as np
import pytest

from repro.generators.base import GrowthConfig, GrowthEngine, generate_trace
from repro.graph.snapshots import Snapshot


def config(**overrides) -> GrowthConfig:
    base = dict(
        n_seed=10,
        seed_edges=12,
        total_nodes=120,
        total_edges=900,
        duration_days=60.0,
    )
    base.update(overrides)
    return GrowthConfig(**base)


class TestTimeVaryingTriadicShare:
    def test_interpolation(self):
        engine = GrowthEngine(
            config(triadic_prob=0.2, triadic_prob_final=0.8), seed=0
        )
        assert engine._triadic_prob_at(0.0) == pytest.approx(0.2)
        assert engine._triadic_prob_at(30.0) == pytest.approx(0.5)
        assert engine._triadic_prob_at(60.0) == pytest.approx(0.8)
        assert engine._triadic_prob_at(120.0) == pytest.approx(0.8)  # clamped

    def test_none_means_constant(self):
        engine = GrowthEngine(config(triadic_prob=0.3), seed=0)
        assert engine._triadic_prob_at(0.0) == engine._triadic_prob_at(59.0) == 0.3

    def test_validation_uses_peak(self):
        with pytest.raises(ValueError, match="mixture"):
            config(
                triadic_prob=0.2, triadic_prob_final=0.9, preferential_prob=0.2
            ).validate()

    def test_rising_share_raises_late_clustering(self):
        from repro.graph.stats import average_clustering

        rising = generate_trace(
            config(
                triadic_prob=0.1,
                triadic_prob_final=0.8,
                preferential_prob=0.1,
                total_edges=1500,
            ),
            seed=4,
        )
        flat = generate_trace(
            config(triadic_prob=0.1, preferential_prob=0.1, total_edges=1500), seed=4
        )
        c_rising = average_clustering(Snapshot(rising, rising.num_edges))
        c_flat = average_clustering(Snapshot(flat, flat.num_edges))
        assert c_rising > c_flat


class TestDegreeSaturation:
    def test_saturation_compresses_max_degree(self):
        loose = generate_trace(config(preferential_prob=0.3, triadic_prob=0.3), seed=2)
        tight = generate_trace(
            config(preferential_prob=0.3, triadic_prob=0.3, degree_saturation=8.0),
            seed=2,
        )
        loose_max = Snapshot(loose, loose.num_edges).degree_array().max()
        tight_max = Snapshot(tight, tight.num_edges).degree_array().max()
        assert tight_max < loose_max


class TestTargetRecency:
    def test_recency_bias_lowers_target_idle(self):
        plain = generate_trace(config(), seed=6)
        biased = generate_trace(config(target_recency_tau=2.0), seed=6)

        def mean_target_idle(trace):
            # Approximate: idle time of the fresher endpoint just before
            # each edge's creation (time since its previous edge, or since
            # its arrival), over 200 edges from the middle of the trace.
            last = {u: trace.node_arrival_time(u) for u in trace.nodes()}
            idles = []
            events = list(trace.edges())
            for i, (u, v, t) in enumerate(events):
                if len(events) // 2 <= i < len(events) // 2 + 200:
                    idles.append(min(t - last[u], t - last[v]))
                last[u] = last[v] = t
            return float(np.mean(idles))

        # Both endpoints recently active under the bias.
        assert mean_target_idle(biased) <= mean_target_idle(plain) + 1e-9


class TestCommunities:
    def test_communities_assigned(self):
        engine = GrowthEngine(config(num_communities=4, community_bias=0.5), seed=0)
        engine.run()
        communities = {s.community for s in engine._states.values()}
        assert communities <= set(range(4))
        assert len(communities) == 4

    def test_community_bias_creates_modularity(self):
        """With strong community bias, within-community edges dominate."""
        cfg = config(
            num_communities=4,
            community_bias=0.9,
            triadic_prob=0.0,
            preferential_prob=0.0,
            total_edges=800,
        )
        engine = GrowthEngine(cfg, seed=1)
        trace = engine.run()
        within = 0
        total = 0
        for u, v, _ in trace.edges():
            total += 1
            if engine._states[u].community == engine._states[v].community:
                within += 1
        # Random assignment would give ~25%; the bias must push well above.
        assert within / total > 0.4

    def test_creator_initiator_produces_creator_edges(self):
        cfg = config(
            creator_fraction=0.2,
            creator_prob=0.4,
            triadic_prob=0.2,
            creator_initiator_prob=0.3,
        )
        engine = GrowthEngine(cfg, seed=1)
        trace = engine.run()
        creator_creator = sum(
            1
            for u, v, _ in trace.edges()
            if engine._states[u].is_creator and engine._states[v].is_creator
        )
        assert creator_creator > 0
