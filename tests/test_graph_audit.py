"""Graph-integrity auditor: clean graphs pass, every hand-broken
columnar invariant is caught by name.

Each breakage test corrupts the graph's internals the way a buggy kernel
or deserialiser would, invalidates the column/index caches so the auditor
sees the corrupted state, and asserts the *specific* invariant fires.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators import presets
from repro.graph import TemporalGraph, audit_graph
from repro.graph.audit import AuditReport, TraceAuditError, require_clean
from repro.graph.dyngraph import StreamIndex


@pytest.fixture()
def graph():
    return presets.facebook_like(scale=0.1, seed=3)


def _invalidate(g: TemporalGraph) -> None:
    """Force columns() and stream_index() to rebuild from the raw lists."""
    g._cols = None
    g._index = None


def violated(report: AuditReport) -> set:
    return {v.invariant for v in report.violations}


# ---------------------------------------------------------------------------
# Clean graphs
# ---------------------------------------------------------------------------
class TestCleanGraphs:
    def test_generated_preset_is_clean(self, graph):
        report = audit_graph(graph)
        assert report.ok
        assert report.num_edges == graph.num_edges
        assert len(report.checks_run) == 11
        assert "ok" in report.summary()

    def test_empty_graph_is_clean(self):
        report = audit_graph(TemporalGraph())
        assert report.ok
        assert len(report.checks_run) == 11

    def test_snapshot_check_can_be_skipped(self, graph):
        report = audit_graph(graph, snapshot_check=False)
        assert report.ok
        assert "csr_degree_total" not in report.checks_run

    def test_require_clean_passes_silently(self, graph):
        require_clean(graph)


# ---------------------------------------------------------------------------
# One test per hand-broken invariant
# ---------------------------------------------------------------------------
class TestBrokenInvariants:
    def test_nonfinite_time(self, graph):
        graph._ts[0] = float("nan")
        _invalidate(graph)
        assert "time_finite" in violated(audit_graph(graph))

    def test_negative_time(self, graph):
        graph._ts[0] = -4.25
        _invalidate(graph)
        assert "time_nonnegative" in violated(audit_graph(graph))

    def test_unsorted_time(self, graph):
        graph._ts[0] = graph._ts[-1] + 1.0
        _invalidate(graph)
        assert "time_sorted" in violated(audit_graph(graph))

    def test_self_loop(self, graph):
        graph._vs[0] = graph._us[0]
        _invalidate(graph)
        assert "no_self_loops" in violated(audit_graph(graph))

    def test_non_canonical_pair(self, graph):
        i = next(
            k for k in range(graph.num_edges) if graph._us[k] != graph._vs[k]
        )
        graph._us[i], graph._vs[i] = graph._vs[i], graph._us[i]
        _invalidate(graph)
        assert "canonical_pairs" in violated(audit_graph(graph))

    def test_duplicate_edge(self, graph):
        assert (graph._us[0], graph._vs[0]) != (graph._us[1], graph._vs[1])
        graph._us[1] = graph._us[0]
        graph._vs[1] = graph._vs[0]
        _invalidate(graph)
        assert "no_duplicate_edges" in violated(audit_graph(graph))

    def _forged_index(self, graph, **overrides) -> StreamIndex:
        real = graph.stream_index()
        fields = {
            "node_ids": real.node_ids,
            "eu": real.eu,
            "ev": real.ev,
            "first_seen": real.first_seen,
        }
        fields.update(overrides)
        return StreamIndex(**fields)

    def _install_index(self, graph, index) -> None:
        graph._index = index
        graph._index_len = graph.num_edges

    def test_unsorted_remap_ids(self, graph):
        forged = self._forged_index(
            graph, node_ids=graph.stream_index().node_ids[::-1].copy()
        )
        self._install_index(graph, forged)
        report = audit_graph(graph)
        assert "remap_ids_sorted" in violated(report)

    def test_non_bijective_remap(self, graph):
        eu = graph.stream_index().eu.copy()
        eu[0] = (eu[0] + 1) % len(graph.stream_index().node_ids)
        self._install_index(graph, self._forged_index(graph, eu=eu))
        assert "remap_bijective" in violated(audit_graph(graph))

    def test_inconsistent_first_seen(self, graph):
        first_seen = graph.stream_index().first_seen.copy()
        first_seen[0] += 1
        self._install_index(
            graph, self._forged_index(graph, first_seen=first_seen)
        )
        assert "first_seen_consistent" in violated(audit_graph(graph))

    def test_edge_time_table(self, graph):
        key = next(iter(graph._edge_times))
        del graph._edge_times[key]
        assert "edge_time_table" in violated(audit_graph(graph))

    def test_csr_degree_total(self, graph, monkeypatch):
        from repro.graph.snapshots import Snapshot

        def doctored(self):
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            return indptr, np.zeros(0, dtype=np.int64)

        monkeypatch.setattr(Snapshot, "csr_structure", doctored)
        assert "csr_degree_total" in violated(audit_graph(graph))

    def test_violation_reports_name_count_and_example(self, graph):
        graph._ts[0] = float("nan")
        graph._ts[1] = float("nan")
        _invalidate(graph)
        report = audit_graph(graph)
        v = next(x for x in report.violations if x.invariant == "time_finite")
        assert v.count == 2
        assert "non-finite" in v.detail
        assert "2 offenders" in str(v)
        assert "VIOLATED" in report.summary()


# ---------------------------------------------------------------------------
# Delta-engine audit: clean engines pass, each corrupted structure is named
# ---------------------------------------------------------------------------
class TestDeltaAudit:
    @pytest.fixture()
    def delta(self, graph):
        from repro.graph.delta import DeltaGraph

        events = list(graph.edges())
        engine = DeltaGraph()
        engine.apply(events[: len(events) // 2])
        engine.apply(events[len(events) // 2 :])
        return engine

    def test_clean_delta_passes_all_checks(self, delta):
        from repro.graph import audit_delta

        report = audit_delta(delta)
        assert report.ok, report.summary()
        # the 11 core invariants plus the 4 delta-structure checks.
        assert len(report.checks_run) == 15

    def test_empty_delta_is_clean(self):
        from repro.graph import DeltaGraph, audit_delta

        report = audit_delta(DeltaGraph())
        assert report.ok
        assert len(report.checks_run) == 15

    def test_stale_csr_row(self, delta):
        delta._adj_keys = delta._adj_keys.copy()
        delta._adj_keys[0] += 1
        assert "delta_csr_adjacency" in violated(delta.audit())

    def test_wrong_triangle_count(self, delta):
        delta._tri = delta._tri.copy()
        delta._tri[int(np.argmax(delta._tri))] -= 1
        assert violated(delta.audit()) == {"delta_triangle_counts"}

    def test_wrong_degree(self, delta):
        delta._deg = delta._deg.copy()
        delta._deg[0] += 1
        assert "delta_degrees" in violated(delta.audit())

    def test_wrong_first_seen(self, delta):
        forged = delta._first_seen.copy()
        forged[0] += 1
        delta.trace._install_stream_caches(
            (delta._cu, delta._cv, delta._ct),
            StreamIndex(delta._node_ids, delta._eu, delta._ev, forged),
        )
        assert "first_seen_consistent" in violated(delta.audit())

    def test_uninstalled_column_cache(self, delta):
        # Replacing a maintained column with a copy breaks the identity
        # between the engine's arrays and the trace's cache.
        delta._cu = delta._cu.copy()
        assert "delta_columns_installed" in violated(delta.audit())


# ---------------------------------------------------------------------------
# require_clean and the experiment-runner pre-flight
# ---------------------------------------------------------------------------
class TestRequireClean:
    def test_raises_trace_audit_error_with_context(self, graph):
        graph._ts[0] = float("nan")
        _invalidate(graph)
        with pytest.raises(TraceAuditError, match="time_finite") as excinfo:
            require_clean(graph, context="unit test")
        assert str(excinfo.value).startswith("unit test: ")
        assert not excinfo.value.report.ok
        # a ValueError subclass, so the CLI's error handler catches it.
        assert isinstance(excinfo.value, ValueError)

    def test_build_plan_preflight_rejects_corrupted_trace(
        self, graph, monkeypatch
    ):
        import repro.eval.runner as runner

        graph._ts[0] = float("nan")
        _invalidate(graph)
        monkeypatch.setattr(runner, "_load_trace", lambda spec: graph)
        spec = runner.ExperimentSpec(dataset="facebook", scale=0.1)
        with pytest.raises(TraceAuditError, match="pre-flight audit"):
            runner.build_plan(spec)

    def test_build_plan_preflight_accepts_clean_trace(self, monkeypatch):
        import repro.eval.runner as runner

        spec = runner.ExperimentSpec(dataset="facebook", scale=0.1, repeats=1)
        plan = runner.build_plan(spec)
        assert plan.steps
