"""Delta-engine benchmark: what a write costs, incremental vs full rebuild.

For each trace size, the stream is split at 90% and the remaining 10% is
fed in batches of several sizes (fractions of the full stream).  Per
batch, both worlds end at the same state and answer the same reads, the
ones the server makes after a write: for each node that starts an event
of the batch, its 2-hop candidates (``candidate_pairs(..., node=u)``)
scored by CN, AA and RA, each metric fitted per read as
``ScoreStore.predict`` does.  They get there differently:

- **delta** — ``DeltaGraph.apply(batch)`` + ``materialize()`` (incremental
  column/index/CSR patching and triangle bumps);
- **rebuild** — ``TemporalGraph.from_columns(validated=True)`` over the
  whole prefix and a fresh ``Snapshot`` whose structure the reads build
  cold, exactly what a non-incremental server pays per arriving batch.

Each batch's write and rebuild are timed ``REPEATS`` times, interleaved,
on the same pre-batch state (every write but the last goes to an untimed
copy of the engine), and each side sums the per-batch medians.  Every
timed run is parity-checked byte-for-byte (each read's pairs and scores
via ``tobytes``) before its timing is trusted, and the full
(non ``--smoke``) run asserts the acceptance floor: delta beats rebuild
by >= 5x for small batches on the largest size, asserted at the smallest
measured fraction (0.1% of the stream).  The sweep extends to 1% and 5%
to show the gap closing as batches grow.  Results go to
``BENCH_delta.json`` at the repo root and ``benchmarks/results/delta.txt``.

Usage::

    PYTHONPATH=src python benchmarks/bench_delta.py          # full, writes BENCH_delta.json
    PYTHONPATH=src python benchmarks/bench_delta.py --smoke  # smallest size only, no JSON (CI)
"""

from __future__ import annotations

import argparse
import copy
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import build_report, write_report
from repro.generators import presets
from repro.graph.delta import DeltaGraph
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot
from repro.metrics.base import get_metric
from repro.metrics.candidates import candidate_pairs

#: (label, preset, scale) — the dense friendship trace at two sizes plus
#: the sparse, hub-heavy subscription trace as the largest graph (same
#: precedent as bench_core_scaling's "large-sparse" entry).
SIZES = (
    ("small", "facebook", 0.25),
    ("medium", "facebook", 1.0),
    ("large-sparse", "youtube", 2.0),
)

#: batch sizes as fractions of the full stream.  All are <= 5% of the
#: stream; the smallest is the regime the acceptance floor covers, the
#: larger two show the gap to a rebuild closing as batches grow.
FRACTIONS = (0.001, 0.01, 0.05)

#: the fraction the >= 5x floor is asserted at (see module docstring).
FLOOR_FRACTION = 0.001

#: warm-start point: the delta engine (and the rebuild baseline) begin
#: with this share of the stream already applied.
WARM_FRACTION = 0.9

#: cap on measured batches per (size, fraction) so the 1-per-mille setting
#: doesn't loop hundreds of times on the large trace.
MAX_BATCHES = 20

#: timings of each batch per side; the side's total sums their medians.
REPEATS = 5

SCORED = ("CN", "AA", "RA")


def _reads(snapshot: Snapshot, initiators: list) -> list[bytes]:
    """The server's reads after a write: each initiator's 2-hop
    candidates, scored by every metric in ``SCORED``."""
    out = []
    for u in initiators:
        pairs = candidate_pairs(snapshot, "two_hop", node=u)
        out.append(pairs.tobytes())
        for name in SCORED:
            out.append(get_metric(name).fit(snapshot).score(pairs).tobytes())
    return out


def bench_fraction(events: list, fraction: float) -> dict:
    total = len(events)
    warm_cutoff = int(total * WARM_FRACTION)
    batch_size = max(1, int(total * fraction))

    delta = DeltaGraph(TemporalGraph.from_stream(events[: warm_cutoff]))
    delta_s = rebuild_s = 0.0
    batches = 0
    position = warm_cutoff
    while position < total and batches < MAX_BATCHES:
        batch = events[position : position + batch_size]
        position += len(batch)
        batches += 1
        initiators = list(dict.fromkeys(u for u, v, _t in batch if u != v))
        prefix = events[:position]

        def write(engine: DeltaGraph) -> list[bytes]:
            engine.apply(batch)
            return _reads(engine.materialize(), initiators)

        def rebuild() -> list[bytes]:
            u = np.asarray([e[0] for e in prefix], dtype=np.int64)
            v = np.asarray([e[1] for e in prefix], dtype=np.int64)
            t = np.asarray([e[2] for e in prefix], dtype=np.float64)
            rebuilt = TemporalGraph.from_columns(u, v, t, validated=True)
            return _reads(Snapshot(rebuilt, rebuilt.num_edges), initiators)

        delta_times, rebuild_times = [], []
        for repeat in range(REPEATS):
            # The last write advances the engine; the others go to copies.
            engine = delta if repeat == REPEATS - 1 else copy.deepcopy(delta)
            started = time.perf_counter()
            delta_result = write(engine)
            delta_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            rebuild_result = rebuild()
            rebuild_times.append(time.perf_counter() - started)
            assert delta_result == rebuild_result, (
                f"delta/rebuild parity broke at batch {batches} "
                f"(fraction={fraction})"
            )
        delta_s += statistics.median(delta_times)
        rebuild_s += statistics.median(rebuild_times)
    return {
        "fraction": fraction,
        "batch_events": batch_size,
        "batches": batches,
        "repeats": REPEATS,
        "delta_s": round(delta_s, 4),
        "rebuild_s": round(rebuild_s, 4),
        "speedup": round(rebuild_s / delta_s, 2),
    }


def _summary_line(e: dict) -> str:
    per_batch = ", ".join(
        f"{b['fraction'] * 100:g}%: {b['speedup']}x" for b in e["batch_sizes"]
    )
    return (
        f"{e['label']:>6} (n={e['nodes']}, E={e['edges']}): "
        f"delta vs rebuild — {per_batch}"
    )


def run(scales, write_json: bool) -> dict:
    sizes = []
    for label, dataset, scale in scales:
        trace = presets.load(dataset, scale=scale, seed=3)
        events = list(trace.edges())
        entry = {
            "label": label,
            "dataset": dataset,
            "scale": scale,
            "nodes": trace.num_nodes,
            "edges": trace.num_edges,
            "batch_sizes": [bench_fraction(events, f) for f in FRACTIONS],
        }
        sizes.append(entry)
        print(f"[{label}] nodes={entry['nodes']} edges={entry['edges']}")
        for section in entry["batch_sizes"]:
            print(f"  {section}")

    report = build_report("delta", sizes)
    if write_json:
        # The measurement is recorded whether or not it meets the floor;
        # a miss still fails the run.
        write_report(report, line_formatter=_summary_line, json_stem="delta")
        # Acceptance floor: on the largest size, small batches must come
        # in at >= 5x over full rebuilds.  Asserted at the smallest
        # measured fraction; the larger fractions are reported only
        # (module docstring).
        largest = sizes[-1]
        for section in largest["batch_sizes"]:
            if section["fraction"] <= FLOOR_FRACTION:
                assert section["speedup"] >= 5.0, (
                    f"delta speedup floor missed on {largest['label']}: "
                    f"{section}"
                )
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smallest size only, parity-checked, no BENCH_delta.json rewrite",
    )
    args = parser.parse_args()
    scales = SIZES[:1] if args.smoke else SIZES
    run(scales, write_json=not args.smoke)


if __name__ == "__main__":
    main()
