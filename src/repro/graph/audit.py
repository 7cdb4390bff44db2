"""Graph-integrity auditor over the columnar temporal core.

The ingest pipeline (:mod:`repro.ingest`) validates what comes *off disk*;
this module validates what ends up *in memory* — the invariants every
vectorised kernel in the columnar core silently assumes:

- the time column is sorted non-decreasing, finite, and non-negative;
- edge columns are canonical (``u < v``: no self-loops, ordered endpoints);
- no ``(u, v)`` pair appears twice in the stream;
- the :class:`~repro.graph.dyngraph.StreamIndex` remap is a bijection
  (``node_ids`` strictly sorted, ``node_ids[eu] == u`` et al.) and its
  ``first_seen`` really is each node's first stream appearance;
- the per-pair time table holds one entry per event;
- the full-cutoff snapshot's CSR structure sums to ``2E`` with in-range,
  per-row-sorted indices.

``audit_graph`` returns an :class:`AuditReport`; :func:`require_clean`
raises :class:`TraceAuditError` — used by ``repro audit`` and as a cheap
pre-flight in the experiment runner so a corrupted input fails in
milliseconds with a diagnosis instead of poisoning a multi-hour journaled
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.dyngraph import TemporalGraph


@dataclass(frozen=True)
class AuditViolation:
    """One broken invariant: which, how many offenders, and an example."""

    invariant: str
    detail: str
    count: int = 1

    def __str__(self) -> str:
        suffix = f" ({self.count} offenders)" if self.count > 1 else ""
        return f"{self.invariant}: {self.detail}{suffix}"


@dataclass
class AuditReport:
    """Outcome of one :func:`audit_graph` pass."""

    num_nodes: int = 0
    num_edges: int = 0
    checks_run: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        head = (
            f"[audit] {len(self.checks_run)} invariants checked over "
            f"{self.num_nodes} nodes / {self.num_edges} events: "
            + ("ok" if self.ok else f"{len(self.violations)} VIOLATED")
        )
        return "\n".join([head] + [f"[audit]   {v}" for v in self.violations])


class TraceAuditError(ValueError):
    """A graph failed its integrity audit.  Carries the full report."""

    def __init__(self, report: AuditReport, context: str = "") -> None:
        self.report = report
        prefix = f"{context}: " if context else ""
        super().__init__(prefix + report.summary())


def _check(report: AuditReport, name: str, mask: "np.ndarray | bool", detail) -> None:
    """Record one invariant check; ``mask`` flags offenders (or is a bool)."""
    report.checks_run.append(name)
    if isinstance(mask, (bool, np.bool_)):
        if mask:
            report.violations.append(AuditViolation(name, detail(None), 1))
        return
    count = int(np.count_nonzero(mask))
    if count:
        first = int(np.flatnonzero(mask)[0])
        report.violations.append(AuditViolation(name, detail(first), count))


def audit_graph(trace: TemporalGraph, snapshot_check: bool = True) -> AuditReport:
    """Check every columnar-core invariant; vectorised, O(E log E) worst.

    ``snapshot_check=False`` skips the full-cutoff CSR build (the one
    check that materialises per-snapshot structure) for callers that only
    need the stream-level invariants.
    """
    u, v, t = trace.columns()
    n_events = len(t)
    report = AuditReport(num_nodes=trace.num_nodes, num_edges=n_events)

    # -- time column ----------------------------------------------------
    _check(
        report, "time_finite", ~np.isfinite(t),
        lambda i: f"event {i} has non-finite timestamp {t[i]!r}",
    )
    finite = t[np.isfinite(t)]
    _check(
        report, "time_nonnegative", finite < 0,
        lambda i: f"a finite timestamp is negative ({finite[i]!r})",
    )
    _check(
        report, "time_sorted",
        np.diff(t) < 0 if n_events > 1 else np.zeros(0, dtype=bool),
        lambda i: f"t[{i + 1}]={t[i + 1]!r} < t[{i}]={t[i]!r}",
    )

    # -- edge columns ---------------------------------------------------
    _check(
        report, "no_self_loops", u == v,
        lambda i: f"event {i} is a self-loop ({int(u[i])}, {int(v[i])})",
    )
    _check(
        report, "canonical_pairs", u > v,
        lambda i: f"event {i} not canonical: ({int(u[i])}, {int(v[i])})",
    )
    if n_events:
        pairs = np.stack((u, v), axis=1)
        unique_pairs = np.unique(pairs, axis=0)
        _check(
            report, "no_duplicate_edges",
            len(unique_pairs) != n_events,
            lambda _i: f"{n_events - len(unique_pairs)} pair(s) repeat in the stream",
        )
    else:
        report.checks_run.append("no_duplicate_edges")

    # -- stream-index remap ---------------------------------------------
    if n_events:
        index = trace.stream_index()
        ids = index.node_ids
        _check(
            report, "remap_ids_sorted",
            np.diff(ids) <= 0 if len(ids) > 1 else np.zeros(0, dtype=bool),
            lambda i: f"node_ids not strictly increasing at position {i}",
        )
        stream_ids = np.unique(np.concatenate((u, v)))
        _check(
            report, "remap_bijective",
            not (
                len(ids) == len(stream_ids)
                and np.array_equal(ids, stream_ids)
                and np.array_equal(ids[index.eu], u)
                and np.array_equal(ids[index.ev], v)
            ),
            lambda _i: "dense remap does not reconstruct the raw id columns",
        )
        expected_first = np.full(len(ids), n_events, dtype=np.int64)
        order = np.arange(n_events, dtype=np.int64)
        eu = np.searchsorted(ids, u)
        ev = np.searchsorted(ids, v)
        ok_positions = (
            len(ids) > 0
            and eu.max(initial=-1) < len(ids)
            and ev.max(initial=-1) < len(ids)
        )
        if ok_positions:
            np.minimum.at(expected_first, eu, order)
            np.minimum.at(expected_first, ev, order)
        _check(
            report, "first_seen_consistent",
            not (ok_positions and np.array_equal(index.first_seen, expected_first)),
            lambda _i: "first_seen does not match each node's first stream index",
        )
    else:
        report.checks_run.extend(
            ["remap_ids_sorted", "remap_bijective", "first_seen_consistent"]
        )

    # -- pair -> creation-time index -------------------------------------
    _check(
        report, "edge_time_table",
        len(trace._edge_times) != n_events,
        lambda _i: (
            f"edge-time table has {len(trace._edge_times)} entries for "
            f"{n_events} stream events"
        ),
    )

    # -- snapshot CSR structure -----------------------------------------
    if snapshot_check and n_events:
        from repro.graph.snapshots import Snapshot

        snap = Snapshot(trace, n_events)
        indptr, indices = snap.csr_structure()
        n = snap.num_nodes
        csr_ok = (
            len(indptr) == n + 1
            and int(indptr[-1]) == 2 * n_events
            and len(indices) == 2 * n_events
            and (len(indptr) < 2 or bool(np.all(np.diff(indptr) >= 0)))
            and (
                len(indices) == 0
                or bool((indices.min() >= 0) and (indices.max() < n))
            )
        )
        _check(
            report, "csr_degree_total",
            not csr_ok,
            lambda _i: (
                f"full-snapshot CSR inconsistent: indptr[-1]="
                f"{int(indptr[-1]) if len(indptr) else 'missing'}, "
                f"len(indices)={len(indices)}, expected 2*E = {2 * n_events}"
            ),
        )
    elif snapshot_check:
        report.checks_run.append("csr_degree_total")

    return report


def audit_delta(delta) -> AuditReport:
    """Audit a :class:`~repro.graph.delta.DeltaGraph` after a batch.

    Runs the full 11-check :func:`audit_graph` pass over the wrapped trace
    (which, because the delta engine installs its patched caches, also
    vets the incrementally maintained :class:`StreamIndex` — e.g. a forged
    ``first_seen`` fires ``first_seen_consistent``), then cross-checks
    every delta-owned structure against a from-scratch recompute off the
    event columns in 4 checks: cache installation, CSR adjacency keys,
    degrees, and the per-node triangle counts.
    """
    import scipy.sparse as sp

    from repro.utils.pairs import PAIR_POSITION_SHIFT

    trace = delta.trace
    report = audit_graph(trace)
    n_events = trace.num_edges

    # -- delta cache installation ---------------------------------------
    cols = trace.columns()
    installed = (
        cols[0] is delta._cu
        and cols[1] is delta._cv
        and cols[2] is delta._ct
        and len(delta._ct) == n_events
    )
    _check(
        report, "delta_columns_installed",
        not installed,
        lambda _i: (
            "the trace's column cache is not the delta engine's maintained "
            "arrays (stale or bypassed _install_stream_caches)"
        ),
    )

    if n_events:
        index = trace.stream_index()
        eu = np.searchsorted(index.node_ids, cols[0])
        ev = np.searchsorted(index.node_ids, cols[1])
        n = len(index.node_ids)

        # -- CSR adjacency keys -----------------------------------------
        expected_keys = np.sort(
            np.concatenate(
                (
                    eu * PAIR_POSITION_SHIFT + ev,
                    ev * PAIR_POSITION_SHIFT + eu,
                )
            )
        )
        _check(
            report, "delta_csr_adjacency",
            not np.array_equal(delta._adj_keys, expected_keys),
            lambda _i: (
                f"maintained adjacency keys diverge from the event columns "
                f"({len(delta._adj_keys)} keys, expected {len(expected_keys)})"
            ),
        )

        # -- degree column ----------------------------------------------
        expected_deg = np.bincount(
            np.concatenate((eu, ev)), minlength=n
        ).astype(np.int64)
        _check(
            report, "delta_degrees",
            not (
                len(delta._deg) == n
                and np.array_equal(delta._deg, expected_deg)
            ),
            lambda _i: "maintained degree column diverges from the stream",
        )

        # -- per-node triangle counts: diag(A^3) / 2 --------------------
        matrix = sp.csr_matrix(
            (
                np.ones(2 * n_events, dtype=np.float64),
                (np.concatenate((eu, ev)), np.concatenate((ev, eu))),
            ),
            shape=(n, n),
        )
        square = matrix @ matrix
        expected_tri = (
            np.asarray(square.multiply(matrix).sum(axis=1)).ravel().astype(np.int64)
            // 2
        )
        _check(
            report, "delta_triangle_counts",
            not (
                len(delta._tri) == n
                and np.array_equal(delta._tri, expected_tri)
            ),
            lambda _i: "maintained triangle counts diverge from the stream",
        )
    else:
        report.checks_run.extend(
            [
                "delta_csr_adjacency",
                "delta_degrees",
                "delta_triangle_counts",
            ]
        )
    return report


def require_clean(trace: TemporalGraph, context: str = "") -> None:
    """Raise :class:`TraceAuditError` if the graph fails its audit."""
    report = audit_graph(trace)
    if not report.ok:
        raise TraceAuditError(report, context)
