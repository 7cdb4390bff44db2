"""Tests for the synthetic trace generators.

These verify both mechanical correctness (schedules, determinism,
validation) and the *structural signatures* each preset must reproduce for
the paper's analysis to transfer (assortativity signs, density ordering,
supernode share, activity recency).
"""

import numpy as np
import pytest

from repro.generators import presets
from repro.generators.base import GrowthConfig, GrowthEngine, generate_trace
from repro.generators.social import social_config
from repro.generators.subscription import subscription_config
from repro.graph import stats
from repro.graph.snapshots import Snapshot
from repro.temporal.activity import node_idle_times


def tiny_config(**overrides) -> GrowthConfig:
    base = dict(
        n_seed=10,
        seed_edges=12,
        total_nodes=60,
        total_edges=300,
        duration_days=30.0,
    )
    base.update(overrides)
    return GrowthConfig(**base)


class TestConfigValidation:
    def test_valid_config_passes(self):
        tiny_config().validate()

    def test_too_few_seed_nodes(self):
        with pytest.raises(ValueError, match="n_seed"):
            tiny_config(n_seed=1).validate()

    def test_total_nodes_below_seed(self):
        with pytest.raises(ValueError, match="total_nodes"):
            tiny_config(total_nodes=5).validate()

    def test_edges_not_above_seed_edges(self):
        with pytest.raises(ValueError, match="total_edges"):
            tiny_config(total_edges=12).validate()

    def test_seed_edges_exceed_possible_pairs(self):
        with pytest.raises(ValueError, match="possible pairs"):
            tiny_config(n_seed=4, seed_edges=10).validate()

    def test_mixture_over_one(self):
        with pytest.raises(ValueError, match="mixture"):
            tiny_config(triadic_prob=0.7, preferential_prob=0.4).validate()

    def test_creator_prob_without_fraction(self):
        with pytest.raises(ValueError, match="creator_fraction"):
            tiny_config(creator_prob=0.1, triadic_prob=0.2).validate()


class TestSchedules:
    def test_edge_count_exact(self):
        trace = generate_trace(tiny_config(), seed=0)
        assert trace.num_edges == 300

    def test_timestamps_monotone(self):
        trace = generate_trace(tiny_config(), seed=0)
        times = [t for _, _, t in trace.edges()]
        assert times == sorted(times)

    def test_duration_respected(self):
        trace = generate_trace(tiny_config(), seed=0)
        assert trace.end_time <= 30.0 + 1e-6

    def test_node_count_bounded(self):
        trace = generate_trace(tiny_config(), seed=0)
        assert trace.num_nodes <= 60

    def test_exponential_edge_growth(self):
        """The second half of the trace time-span holds most of the edges."""
        trace = generate_trace(tiny_config(total_edges=2000, total_nodes=200), seed=0)
        midpoint = trace.edge_index_at_time(15.0)
        assert midpoint < 0.5 * trace.num_edges

    def test_deterministic_given_seed(self):
        a = generate_trace(tiny_config(), seed=42)
        b = generate_trace(tiny_config(), seed=42)
        assert list(a.edges()) == list(b.edges())

    def test_different_seeds_differ(self):
        a = generate_trace(tiny_config(), seed=1)
        b = generate_trace(tiny_config(), seed=2)
        assert list(a.edges()) != list(b.edges())


class TestStructuralSignatures:
    def test_social_positive_assortativity(self):
        trace = generate_trace(
            social_config(total_nodes=400, total_edges=3500, duration_days=90), seed=5
        )
        s = Snapshot(trace, trace.num_edges)
        assert stats.degree_assortativity(s) > 0.05

    def test_subscription_negative_assortativity(self):
        trace = generate_trace(
            subscription_config(total_nodes=900, total_edges=2500, duration_days=60),
            seed=5,
        )
        s = Snapshot(trace, trace.num_edges)
        assert stats.degree_assortativity(s) < -0.05

    def test_social_higher_clustering_than_subscription(self):
        social = generate_trace(
            social_config(total_nodes=400, total_edges=3500, duration_days=90), seed=5
        )
        subscription = generate_trace(
            subscription_config(total_nodes=900, total_edges=2500, duration_days=60),
            seed=5,
        )
        cs = stats.average_clustering(Snapshot(social, social.num_edges))
        cu = stats.average_clustering(Snapshot(subscription, subscription.num_edges))
        assert cs > cu

    def test_subscription_has_supernodes(self):
        trace = generate_trace(
            subscription_config(total_nodes=900, total_edges=2500, duration_days=60),
            seed=5,
        )
        s = Snapshot(trace, trace.num_edges)
        degrees = s.degree_array()
        assert degrees.max() > 10 * degrees.mean()

    def test_subscription_mostly_low_degree(self):
        trace = generate_trace(
            subscription_config(total_nodes=900, total_edges=2500, duration_days=60),
            seed=5,
        )
        s = Snapshot(trace, trace.num_edges)
        assert np.mean(s.degree_array() <= 3) > 0.4

    def test_recent_activity_predicts_new_edges(self):
        """Positive pairs involve nodes with shorter idle times (Fig. 13)."""
        trace = presets.facebook_like(scale=0.3, seed=11)
        cut = int(trace.num_edges * 0.8)
        prev = Snapshot(trace, cut)
        future_edges = [
            (u, v)
            for u, v, _ in trace.edge_slice(cut, trace.num_edges)
            if prev.has_node(u) and prev.has_node(v)
        ]
        assert future_edges
        idle = node_idle_times(prev)
        pos = prev.node_pos
        pos_idle = np.array(
            [min(idle[pos[u]], idle[pos[v]]) for u, v in future_edges]
        )
        rng = np.random.default_rng(0)
        nodes = prev.node_list
        neg_idle = np.array(
            [
                min(idle[pos[int(a)]], idle[pos[int(b)]])
                for a, b in rng.choice(nodes, size=(400, 2))
                if a != b
            ]
        )
        assert np.median(pos_idle) < np.median(neg_idle)


class TestPresets:
    @pytest.mark.parametrize("name", ["facebook", "renren", "youtube"])
    def test_load_by_name(self, name):
        trace = presets.load(name, scale=0.1, seed=0)
        assert trace.num_edges > 0

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            presets.load("myspace")

    def test_snapshot_delta_scales(self):
        assert presets.snapshot_delta("facebook", 1.0) == 260
        assert presets.snapshot_delta("facebook", 0.5) == 130
        assert presets.snapshot_delta("facebook", 0.001) == 10  # floor

    def test_density_ordering(self, small_facebook, small_youtube):
        """Renren > Facebook > YouTube in average degree (Fig. 2)."""
        renren = presets.renren_like(scale=0.25, seed=7)
        fb = Snapshot(small_facebook, small_facebook.num_edges)
        yt = Snapshot(small_youtube, small_youtube.num_edges)
        rr = Snapshot(renren, renren.num_edges)
        assert (
            stats.average_degree(rr)
            > stats.average_degree(fb)
            > stats.average_degree(yt)
        )

    def test_scale_changes_size(self):
        small = presets.facebook_like(scale=0.1, seed=0)
        smaller = presets.facebook_like(scale=0.05, seed=0)
        assert small.num_edges > smaller.num_edges


class TestEngineInternals:
    def test_newcomer_queue_drains(self):
        engine = GrowthEngine(tiny_config(), seed=0)
        engine.run()
        # Most scheduled nodes should have been admitted by the end.
        assert engine._next_node_id > 30

    def test_creator_pool_populated(self):
        config = tiny_config(
            creator_fraction=0.2, creator_prob=0.4, triadic_prob=0.2
        )
        engine = GrowthEngine(config, seed=0)
        engine.run()
        assert engine._creators
        assert engine._creator_urn
