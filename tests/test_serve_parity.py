"""Serve-vs-batch parity: served scores are bit-for-bit the batch scores.

The serving layer's core correctness claim: a score returned by
``GET /predict`` is byte-identical to what the offline pipeline computes
for the same pair on the same prefix — through the delta engine's
materialised snapshot, the request path, JSON serialisation, and the
wire.  The batch reference here is computed the way ``run_experiment``
scores a snapshot: a fresh :class:`Snapshot` over a rebuilt prefix
trace, the registered metric's ``fit``/``score`` over its candidate
enumeration.  Comparison is on IEEE-754 bit patterns (``struct.pack``),
not approximate equality, and holds with telemetry enabled or disabled.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro import telemetry
from repro.graph.snapshots import Snapshot
from repro.metrics.base import get_metric
from repro.metrics.candidates import candidate_pairs
from repro.serve import ServeConfig, ServerHarness

METRICS = [
    "CN", "AA", "RA", "PA", "JC", "BCN", "BAA", "BRA", "SP", "LP", "Katz_sc",
    "PPR", "LRW", "Katz_lr", "Rescal",
]


def batch_scores(trace, cutoff: int, metric_name: str) -> dict:
    """Pair -> float64 score, exactly as the batch pipeline computes it."""
    snapshot = Snapshot(trace.prefix(cutoff), cutoff)
    metric = get_metric(metric_name)
    pairs = candidate_pairs(snapshot, metric.candidate_strategy)
    metric.fit(snapshot)
    scores = np.asarray(metric.score(pairs), dtype=np.float64)
    return {
        (int(min(u, v)), int(max(u, v))): float(s)
        for (u, v), s in zip(pairs.tolist(), scores.tolist())
    }


def expected_topk(reference: dict, u: int, k: int):
    """Deterministic top-k from the batch scores: score desc, id asc."""
    mine = [
        (pair[1] if pair[0] == u else pair[0], score)
        for pair, score in reference.items()
        if u in pair
    ]
    mine.sort(key=lambda entry: (-entry[1], entry[0]))
    return mine[:k]


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_parity(harness, trace, cutoff: int, nodes, k: int = 8) -> int:
    """Assert bitwise score parity for every metric and probe node."""
    compared = 0
    for metric_name in METRICS:
        reference = batch_scores(trace, cutoff, metric_name)
        for u in nodes:
            response = harness.request(
                "GET", f"/predict?u={u}&k={k}&metric={metric_name}"
            )
            assert response.status == 200, response.body
            payload = response.json()
            assert payload["snapshot"]["edges"] == cutoff
            expected = expected_topk(reference, u, k)
            got = [(p["v"], p["score"]) for p in payload["predictions"]]
            assert [v for v, _ in got] == [v for v, _ in expected]
            for (_, served), (_, batch) in zip(got, expected):
                assert bits(served) == bits(batch)
                compared += 1
    return compared


def probe_nodes(trace, cutoff: int, count: int = 4):
    """A few well-connected nodes present in the prefix."""
    u, v, _t = trace.columns()
    prefix_nodes = np.unique(np.concatenate([u[:cutoff], v[:cutoff]]))
    ids, freq = np.unique(
        np.concatenate([u[:cutoff], v[:cutoff]]), return_counts=True
    )
    order = np.argsort(-freq, kind="stable")
    chosen = [int(ids[i]) for i in order[:count]]
    assert all(node in prefix_nodes for node in chosen)
    return chosen


class TestServeBatchParity:
    def test_scores_bitwise_equal_to_batch_path(self, small_facebook):
        trace = small_facebook
        cutoff = trace.num_edges // 2
        nodes = probe_nodes(trace, cutoff)
        with ServerHarness(
            trace.prefix(cutoff), ServeConfig(port=0, workers=2)
        ) as harness:
            compared = assert_parity(harness, trace, cutoff, nodes)
        assert compared > 50  # the comparison actually exercised scores

    def test_parity_survives_online_ingest(self, small_facebook):
        """Serving a prefix then POSTing the rest == batch on the full trace.

        The written snapshot is served without a candidate array, a score
        table or an idle-time column, and the reads of all 15 metrics on
        a few nodes build none of them: each enumerates its node only.
        """
        trace = small_facebook
        cutoff = trace.num_edges // 2
        u_col, v_col, t_col = trace.columns()
        lines = "".join(
            f"{int(u_col[i])} {int(v_col[i])} {float(t_col[i])!r}\n"
            for i in range(cutoff, trace.num_edges)
        )
        nodes = probe_nodes(trace, trace.num_edges)
        with ServerHarness(
            trace.prefix(cutoff), ServeConfig(port=0, workers=2)
        ) as harness:
            response = harness.request(
                "POST", "/ingest", body=lines.encode("utf-8")
            )
            assert response.status == 200, response.body
            assert response.json()["applied"] == trace.num_edges - cutoff
            snapshot = harness.store.snapshot
            assert "triangles" in snapshot.cache
            compared = assert_parity(
                harness, trace, trace.num_edges, nodes
            )
            assert harness.store.snapshot is snapshot
            for key in ("pairs_two_hop", "pairs_all", "delta_scores", "node_idle_times"):
                assert key not in snapshot.cache, key
        assert compared > 50

    def test_bayes_read_after_ingest_reuses_seeded_triangles(
        self, small_facebook
    ):
        """The written snapshot carries the engine's triangle counts, so a
        BCN read never runs the per-edge common-neighbour expansion."""
        trace = small_facebook
        cutoff = trace.num_edges // 2
        u_col, v_col, t_col = trace.columns()
        lines = "".join(
            f"{int(u_col[i])} {int(v_col[i])} {float(t_col[i])!r}\n"
            for i in range(cutoff, trace.num_edges)
        )
        (u,) = probe_nodes(trace, trace.num_edges, count=1)
        with ServerHarness(
            trace.prefix(cutoff), ServeConfig(port=0, workers=2)
        ) as harness:
            response = harness.request(
                "POST", "/ingest", body=lines.encode("utf-8")
            )
            assert response.status == 200, response.body
            snapshot = harness.store.snapshot
            assert snapshot.num_edges == trace.num_edges
            response = harness.request("GET", f"/predict?u={u}&k=5&metric=BCN")
            assert response.status == 200, response.body
            assert response.json()["predictions"]
            assert harness.store.snapshot is snapshot
            assert "role_function" in snapshot.cache
            assert "edge_common_neighbors" not in snapshot.cache

    @pytest.mark.parametrize("with_telemetry", [False, True])
    def test_parity_with_and_without_telemetry(
        self, small_facebook, tmp_path, with_telemetry
    ):
        trace = small_facebook
        cutoff = trace.num_edges // 3
        nodes = probe_nodes(trace, cutoff, count=2)
        if with_telemetry:
            telemetry.configure(tmp_path / "serve.trace.jsonl", name="parity")
        try:
            with ServerHarness(
                trace.prefix(cutoff), ServeConfig(port=0, workers=2)
            ) as harness:
                assert_parity(harness, trace, cutoff, nodes, k=5)
                if with_telemetry:
                    metricz = harness.request("GET", "/metricz")
                    assert metricz.status == 200
                    assert b"serve_requests" in metricz.body.replace(b".", b"_")
        finally:
            if with_telemetry:
                telemetry.shutdown()
        if with_telemetry:
            recorded = telemetry.read_trace(tmp_path / "serve.trace.jsonl")
            names = {span["name"] for span in recorded.spans}
            assert "serve.request" in names
