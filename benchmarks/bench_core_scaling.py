"""Columnar-core scaling benchmark: old representation vs new, three sizes.

Times the three paths the columnar refactor changed, at three trace sizes,
against an inline reimplementation of the previous representation
(dict-of-sets snapshot rebuilds, per-pair Python dict indexing, dense n^2
candidate masks):

- **snapshot-sequence construction** — legacy replays the event stream from
  event 0 for every cutoff (O(T*E) Python dict work); the columnar core
  builds one trace-level stream index and derives each snapshot's node set,
  edge columns, and CSR structure with vectorised kernels;
- **candidate enumeration** — legacy materialises dense ``A``/``A^2``
  boolean masks (O(n^2) float64/bool temporaries); the new path stays on
  sparse ``A^2`` structure and triangular-index arithmetic.  Peak heap for
  both is recorded with ``tracemalloc`` — this is the "dense O(n^2) buffers
  eliminated" number;
- **end-to-end metric sweep** — fit + score of a neighbourhood metric (CN,
  2-hop candidates) and a global metric (PA, all non-edge candidates) on
  every prediction step, where the legacy side pays the legacy snapshot
  build, dense enumeration, and per-pair dict-lookup scoring, and the new
  side runs the actual library code;
- **enumeration strategies** — both density-adaptive candidate
  enumerations (sparse / dense) run in turn by calling their position
  functions directly, parity-checked against each other, with the
  auto-chosen strategy and the measured per-strategy timings (the
  crossover data the thresholds in ``repro.metrics.candidates`` encode)
  recorded per size;
- **full metric sweep** — all registered metrics (18) scored once through
  the matrix oracle of ``tests/matrix_oracle.py`` (each neighbourhood
  metric builds its own ``A @ diag(w) @ A``, the formulation the kernels
  replaced) and once through the batched kernel layer (``score_pairs``:
  one shared common-neighbour expansion per block).  Model fits run
  *outside* both timed passes, so the ratio isolates scoring.  Scores are
  asserted **bitwise identical** between passes before the timing is
  trusted.

Both sides are checked pair-for-pair and score-for-score identical before
any timing is trusted.  Each side is timed as the fastest of ``REPEATS``
runs, with any cache it would find warm rebuilt or dropped before each run
outside the timed region, so one run disturbed by other load cannot fail a
floor.  The bench runs with one BLAS thread, recorded as ``blas_threads``.
Results go to ``BENCH_core.json`` at the repo root
(the perf trajectory file) and ``benchmarks/results/core_scaling.txt``.
Full (non-smoke) runs additionally enforce the acceptance floors: 2-hop
enumeration speedup >= 1.0 on the dense facebook sizes and >= 5.0 on the
sparse youtube size; full-sweep kernel speedup >= 2.0 on the sparse preset
and >= 1.0 (plus bitwise parity) on the dense presets.  The asymmetry is
Amdahl, not a regression: on a small dense snapshot the per-metric
``A @ diag(w) @ A`` products the kernel eliminates are already cheap
(~20 ms each at n = 850, 4% density) while the global metrics
(Katz, Rescal, PPR, ...) gather identically in both passes, so the
batched expansion can only approach ~1.3x there.  On the sparse preset the
per-metric sparse products are the dominant cost (hub rows make ``A^2``
expensive) and the shared expansion pays off at 4x+.  The dense presets'
headline win is the dense enumeration strategy (two-hop floor above).

Usage::

    PYTHONPATH=src python benchmarks/bench_core_scaling.py          # full, writes BENCH_core.json
    PYTHONPATH=src python benchmarks/bench_core_scaling.py --smoke  # smallest size only, no JSON (CI)
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc
from pathlib import Path

#: One BLAS thread, as perfbench runs: on a shared machine a second BLAS
#: thread makes the dense products' times depend on the neighbours' load.
#: Set before anything imports numpy, and recorded in BENCH_core.json.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import build_report, write_report
from repro.generators import presets
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot, snapshot_sequence
from repro.metrics.base import all_metric_names, get_metric
from repro.metrics.candidates import (
    _dense_two_hop_positions,
    _sparse_two_hop_positions,
    candidate_pairs,
    choose_enumeration_strategy,
)
from repro.metrics.kernels import score_pairs
from tests.matrix_oracle import oracle_scores

#: (label, preset, scale) — three sizes of the dense friendship trace, plus
#: the sparse subscription trace where the dense n^2 candidate buffers used
#: to dominate (n = 2600 -> two dense float64 matrices = ~108 MB per
#: enumeration in the old representation).
SIZES = (
    ("small", "facebook", 0.25),
    ("medium", "facebook", 0.5),
    ("large", "facebook", 1.0),
    ("large-sparse", "youtube", 1.0),
)


#: runs per timed side; the fastest is reported
REPEATS = 3


def _best_time(fn, prepare=None) -> "tuple[object, float]":
    """``fn``'s result and its fastest wall time over ``REPEATS`` runs.

    ``prepare`` (untimed) runs before each, and what it returns is passed
    to ``fn`` — a fresh trace, or a snapshot whose caches were dropped.
    """
    best = float("inf")
    for _ in range(REPEATS):
        args = () if prepare is None else (prepare(),)
        started = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - started)
        result = out  # the previous run's result is freed here, untimed
        del out
    return result, best


# ---------------------------------------------------------------------------
# Legacy representation (inline reimplementation of the pre-columnar core)
# ---------------------------------------------------------------------------
class LegacySnapshot:
    """Dict-of-sets snapshot rebuilt from event 0, as the old core did."""

    def __init__(self, events, cutoff):
        adj: dict[int, set[int]] = {}
        for u, v, _t in events[:cutoff]:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        self.adj = adj
        self.node_list = sorted(adj)
        self.node_pos = {u: i for i, u in enumerate(self.node_list)}
        self.time = events[cutoff - 1][2]

    def adjacency_matrix(self) -> sp.csr_matrix:
        # Old path: CSR assembled from Python lists, edge by edge.
        rows, cols = [], []
        for u, neigh in self.adj.items():
            i = self.node_pos[u]
            for v in neigh:
                rows.append(i)
                cols.append(self.node_pos[v])
        n = len(self.node_list)
        data = np.ones(len(rows), dtype=np.float64)
        return sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    def degree_array(self) -> np.ndarray:
        return np.asarray(
            [len(self.adj[u]) for u in self.node_list], dtype=np.float64
        )


def legacy_two_hop_pairs(snapshot: LegacySnapshot, dense: np.ndarray) -> np.ndarray:
    """Dense-mask enumeration: the old O(n^2)-memory candidate path."""
    a2 = dense @ dense
    mask = np.triu((a2 > 0) & (dense == 0), k=1)
    rows, cols = np.nonzero(mask)
    ids = np.asarray(snapshot.node_list, dtype=np.int64)
    return np.column_stack((ids[rows], ids[cols]))


def legacy_all_nonedge_pairs(snapshot: LegacySnapshot, dense: np.ndarray) -> np.ndarray:
    mask = np.triu(dense == 0, k=1)
    rows, cols = np.nonzero(mask)
    ids = np.asarray(snapshot.node_list, dtype=np.int64)
    return np.column_stack((ids[rows], ids[cols]))


def legacy_pairs_to_indices(snapshot: LegacySnapshot, pairs: np.ndarray):
    """Per-pair Python dict lookups — the old ``pairs_to_indices``."""
    pos = snapshot.node_pos
    rows = np.fromiter(
        (pos[int(u)] for u in pairs[:, 0]), dtype=np.int64, count=len(pairs)
    )
    cols = np.fromiter(
        (pos[int(v)] for v in pairs[:, 1]), dtype=np.int64, count=len(pairs)
    )
    return rows, cols


# ---------------------------------------------------------------------------
# Benchmark sections
# ---------------------------------------------------------------------------
def bench_snapshot_sequence(trace: TemporalGraph, delta: int) -> dict:
    """Both worlds start from an existing trace; what is timed is the
    per-snapshot structure build (node set, adjacency, degrees)."""
    events = list(trace.edges())
    cutoffs = [s.cutoff for s in snapshot_sequence(trace, delta)]

    def run_legacy():
        legacy = [LegacySnapshot(events, c) for c in cutoffs]
        for snap in legacy:
            snap.adjacency_matrix()
            snap.degree_array()
        return legacy

    def run_columnar(fresh):
        columnar = snapshot_sequence(fresh, delta)
        for snap in columnar:
            snap.adjacency_matrix()
            snap.degree_array()
        return columnar

    legacy, legacy_s = _best_time(run_legacy)
    # Fresh trace built *outside* the timed region (the legacy side gets its
    # prebuilt event list for free too); cold column/stream-index caches.
    columnar, columnar_s = _best_time(
        run_columnar, lambda: TemporalGraph.from_stream(events)
    )

    for old, new in zip(legacy, columnar):
        assert old.node_list == new.node_list, "sequence parity broke"
    return {
        "snapshots": len(cutoffs),
        "legacy_s": round(legacy_s, 4),
        "columnar_s": round(columnar_s, 4),
        "speedup": round(legacy_s / columnar_s, 2),
    }


def _peak_bytes(fn) -> tuple[object, int]:
    tracemalloc.start()
    result = fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, peak


def bench_candidates(trace: TemporalGraph) -> dict:
    """Enumeration cost alone: both worlds get a prepared snapshot with its
    sparse CSR adjacency already built (both representations needed that for
    the metrics anyway); measured from CSR onward."""
    events = list(trace.edges())
    cutoff = trace.num_edges
    legacy_snap = LegacySnapshot(events, cutoff)
    legacy_csr = legacy_snap.adjacency_matrix()
    snap = Snapshot(trace, cutoff)
    snap.adjacency_matrix()

    def legacy_two_hop():
        # The old path's dense A and dense A @ A are the O(n^2) buffers the
        # refactor eliminates; they are charged to this run.
        return legacy_two_hop_pairs(legacy_snap, legacy_csr.toarray())

    def legacy_all():
        return legacy_all_nonedge_pairs(legacy_snap, legacy_csr.toarray())

    def cold():
        snap.cache.clear()  # cold A2 / candidate caches each run
        return snap

    def columnar_two_hop(snap):
        return candidate_pairs(snap, "two_hop")

    def columnar_all(snap):
        return candidate_pairs(snap, "all")

    sections = {}
    for key, legacy_fn, new_fn in (
        ("two_hop", legacy_two_hop, columnar_two_hop),
        ("all", legacy_all, columnar_all),
    ):
        legacy_pairs, legacy_peak = _peak_bytes(legacy_fn)
        _, legacy_s = _best_time(legacy_fn)
        new_pairs, columnar_peak = _peak_bytes(lambda: new_fn(cold()))
        _, columnar_s = _best_time(new_fn, cold)

        assert np.array_equal(legacy_pairs, new_pairs), f"{key} parity broke"
        sections[key] = {
            "pairs": int(len(new_pairs)),
            "legacy_s": round(legacy_s, 4),
            "columnar_s": round(columnar_s, 4),
            "speedup": round(legacy_s / columnar_s, 2),
            "legacy_peak_bytes": int(legacy_peak),
            "columnar_peak_bytes": int(columnar_peak),
            "peak_reduction": round(legacy_peak / max(1, columnar_peak), 2),
        }
    return sections


def bench_metric_sweep(trace: TemporalGraph, delta: int) -> dict:
    """Fit + score CN (2-hop) and PA (all pairs) on every prediction step."""
    events = list(trace.edges())
    cutoffs = [s.cutoff for s in snapshot_sequence(trace, delta)][:-1]

    def run_legacy():
        out = []
        for cutoff in cutoffs:
            snap = LegacySnapshot(events, cutoff)
            a = snap.adjacency_matrix()
            dense = a.toarray()
            # CN on 2-hop candidates: score = A^2[u, v].
            a2 = (a @ a).tocsr()
            pairs = legacy_two_hop_pairs(snap, dense)
            if len(pairs):
                rows, cols = legacy_pairs_to_indices(snap, pairs)
                out.append(np.asarray(a2[rows, cols]).ravel().astype(np.float64))
            # PA on all non-edges: score = deg(u) * deg(v).
            deg = snap.degree_array()
            pairs = legacy_all_nonedge_pairs(snap, dense)
            if len(pairs):
                rows, cols = legacy_pairs_to_indices(snap, pairs)
                out.append(deg[rows] * deg[cols])
        return out

    def run_columnar(fresh):
        out = []
        for cutoff in cutoffs:
            snap = Snapshot(fresh, cutoff)
            for name in ("CN", "PA"):
                metric = get_metric(name).fit(snap)
                pairs = candidate_pairs(snap, metric.candidate_strategy)
                if len(pairs):
                    out.append(metric.score(pairs))
        return out

    legacy_scores, legacy_s = _best_time(run_legacy)
    columnar_scores, columnar_s = _best_time(
        run_columnar, lambda: TemporalGraph.from_stream(events)
    )

    assert len(legacy_scores) == len(columnar_scores)
    for old, new in zip(legacy_scores, columnar_scores):
        np.testing.assert_allclose(old, new, err_msg="sweep scores drifted")
    return {
        "steps": len(cutoffs),
        "metrics": ["CN", "PA"],
        "legacy_s": round(legacy_s, 4),
        "columnar_s": round(columnar_s, 4),
        "speedup": round(legacy_s / columnar_s, 2),
    }


def bench_enum_strategies(trace: TemporalGraph) -> dict:
    """Run each enumeration strategy in turn; record the crossover data."""
    snap = Snapshot(trace, trace.num_edges)
    snap.adjacency_matrix()
    stats = snap.csr_stats()
    chosen = choose_enumeration_strategy(snap)
    out = {
        "chosen": chosen,
        "density": round(stats.density, 6),
        "two_hop_work": stats.two_hop_work,
    }

    def cold():
        snap.cache.clear()
        return snap

    baseline = None
    for strategy, enumerate_positions in (
        ("sparse", _sparse_two_hop_positions),
        ("dense", _dense_two_hop_positions),
    ):
        def run(snap):
            rows, cols = enumerate_positions(snap)
            return np.column_stack((snap.node_ids[rows], snap.node_ids[cols]))

        pairs, elapsed = _best_time(run, cold)
        if baseline is None:
            baseline = pairs
            out["pairs"] = int(len(pairs))
        else:
            assert np.array_equal(baseline, pairs), (
                f"{strategy} enumeration diverged from sparse"
            )
        out[f"{strategy}_s"] = round(elapsed, 4)
    out["chosen_vs_sparse"] = round(out["sparse_s"] / max(out[f"{chosen}_s"], 1e-9), 2)
    return out


def bench_full_sweep(trace: TemporalGraph) -> dict:
    """All registered metrics, the matrix oracle vs batched kernels.

    Every metric is fitted *before* either timed pass (warming the global
    models — eigendecompositions, PPR inverse — that both paths share
    identically), so the two timings isolate scoring: the legacy (oracle)
    pass pays each neighbourhood metric's ``A @ diag(w) @ A`` build plus
    its gather, the kernel pass pays one shared expansion per block plus
    per-metric segment sums.  Both pay the whole SP, LP 3-hop and Katz_sc
    matrices on every run.  Scores must match bitwise.
    """
    snap = Snapshot(trace, trace.num_edges)
    names = sorted(all_metric_names())
    metrics = {name: get_metric(name).fit(snap) for name in names}
    pairs_by_strategy = {
        strategy: candidate_pairs(snap, strategy)
        for strategy in ("two_hop", "all")
    }

    def run_kernels(snap):
        return {
            name: score_pairs(
                metric, snap, pairs_by_strategy[metric.candidate_strategy]
            )
            for name, metric in metrics.items()
        }

    fitted = dict(snap.cache)  # what the fits and the enumeration left

    def as_fitted():
        # scoring memoises on the snapshot each block's expansion and the
        # whole matrices SP, LP and Katz_sc build (all-sources shortest
        # paths, A^3, the Katz series); the oracle rebuilds those on every
        # run, so every kernel run starts from the fitted state too
        snap.cache.clear()
        snap.cache.update(fitted)
        return snap

    def run_oracle():
        return {
            name: oracle_scores(metric, pairs_by_strategy[metric.candidate_strategy])
            for name, metric in metrics.items()
        }

    kernel_scores, kernel_s = _best_time(run_kernels, as_fitted)
    legacy_scores, legacy_s = _best_time(run_oracle)

    for name in names:
        assert np.array_equal(legacy_scores[name], kernel_scores[name]), (
            f"full-sweep parity broke for {name}"
        )
    return {
        "metrics": len(names),
        "two_hop_pairs": int(len(pairs_by_strategy["two_hop"])),
        "all_pairs": int(len(pairs_by_strategy["all"])),
        "legacy_s": round(legacy_s, 4),
        "kernel_s": round(kernel_s, 4),
        "speedup": round(legacy_s / kernel_s, 2),
        "parity": "bitwise",
    }


def _summary_line(e: dict) -> str:
    line = (
        f"{e['label']:>6} (n={e['nodes']}, E={e['edges']}): "
        f"seq {e['snapshot_sequence']['speedup']}x, "
        f"two-hop {e['candidate_enumeration']['two_hop']['speedup']}x "
        f"({e['enumeration_strategies']['chosen']}), "
        f"all-pairs peak mem "
        f"{e['candidate_enumeration']['all']['peak_reduction']}x smaller, "
        f"sweep {e['metric_sweep']['speedup']}x"
    )
    if "metric_sweep_full" in e:
        line += f", full-sweep {e['metric_sweep_full']['speedup']}x"
    return line


#: sizes that get the (heavier) all-registered-metrics sweep: one dense
#: preset + one sparse preset, per the acceptance criteria.
FULL_SWEEP_LABELS = frozenset({"small", "large", "large-sparse"})


def _check_floors(sizes: "list[dict]") -> None:
    """Acceptance floors, enforced on full runs before anything is written."""
    for e in sizes:
        two_hop = e["candidate_enumeration"]["two_hop"]["speedup"]
        floor = 1.0 if e["dataset"] == "facebook" else 5.0
        assert two_hop >= floor, (
            f"{e['label']}: 2-hop enumeration speedup {two_hop} < {floor}"
        )
        full = e.get("metric_sweep_full")
        if full is not None:
            # Dense presets are Amdahl-limited (see module docstring): the
            # matrix builds the kernel removes are already cheap there, so
            # the floor is parity + no-regression; the sparse preset is
            # where the shared expansion must win outright.
            sweep_floor = 2.0 if e["dataset"] != "facebook" else 1.0
            assert full["speedup"] >= sweep_floor, (
                f"{e['label']}: full-sweep kernel speedup "
                f"{full['speedup']} < {sweep_floor}"
            )
            assert full["parity"] == "bitwise", (
                f"{e['label']}: full-sweep parity {full['parity']!r}"
            )


def run(scales, write_json: bool) -> dict:
    sizes = []
    for label, dataset, scale in scales:
        trace = presets.load(dataset, scale=scale, seed=3)
        delta = presets.snapshot_delta(dataset, scale)
        entry = {
            "label": label,
            "dataset": dataset,
            "scale": scale,
            "nodes": trace.num_nodes,
            "edges": trace.num_edges,
            "snapshot_sequence": bench_snapshot_sequence(trace, delta),
            "candidate_enumeration": bench_candidates(trace),
            "enumeration_strategies": bench_enum_strategies(trace),
            "metric_sweep": bench_metric_sweep(trace, delta),
        }
        if label in FULL_SWEEP_LABELS:
            entry["metric_sweep_full"] = bench_full_sweep(trace)
        sizes.append(entry)
        print(f"[{label}] nodes={entry['nodes']} edges={entry['edges']}")
        for section in (
            "snapshot_sequence",
            "candidate_enumeration",
            "enumeration_strategies",
            "metric_sweep",
            "metric_sweep_full",
        ):
            if section in entry:
                print(f"  {section}: {entry[section]}")

    if write_json:
        # Smoke runs (CI) check parity only; full runs enforce the perf
        # floors the PR acceptance criteria pin.
        _check_floors(sizes)
    report = build_report("core_scaling", sizes)
    report["blas_threads"] = BLAS_THREADS
    if write_json:
        write_report(report, line_formatter=_summary_line, json_stem="core")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smallest size only, parity-checked, no BENCH_core.json rewrite",
    )
    args = parser.parse_args()
    scales = SIZES[:1] if args.smoke else SIZES
    run(scales, write_json=not args.smoke)


if __name__ == "__main__":
    main()
