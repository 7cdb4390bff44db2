"""Durability benchmark: WAL replay throughput, RTO curve, ack overhead.

Three questions an operator of ``repro serve --wal`` needs answered:

- **Replay throughput** — how fast does :func:`repro.graph.wal.recover_state`
  push surviving records back through the delta engine (records/s and
  events/s, audit included)?
- **Recovery wall time vs WAL length (RTO curve)** — how does cold-start
  recovery scale with the number of un-checkpointed records, and how much
  does a checkpoint collapse it?
- **Durable-ingest overhead (RPO price)** — what do acked-batch latencies
  (p50/p99) cost under ``fsync=always`` relative to a WAL-less store, and
  how much of that the ``never`` cadence buys back?

Every replayed state is column-checked byte-identical against the
ingesting store before any number is trusted.  Each recovery is timed
``RECOVERY_REPEATS`` times from the same WAL directory; the median is
reported with the min–max range.  Results go to
``BENCH_recovery.json`` at the repo root and
``benchmarks/results/recovery.txt``.

Usage::

    PYTHONPATH=src python benchmarks/bench_recovery.py          # full sizes, writes BENCH_recovery.json
    PYTHONPATH=src python benchmarks/bench_recovery.py --smoke  # small sizes, no JSON (CI)
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import build_report, write_report
from repro.graph.dyngraph import TemporalGraph
from repro.graph.wal import recover_state
from repro.ingest import IngestPolicy
from repro.serve.durability import DurabilityManager
from repro.serve.store import ScoreStore

#: (label, WAL batches); every batch carries EVENTS_PER_BATCH events.
SIZES = (("short", 200), ("medium", 1_000), ("long", 4_000))
SMOKE_SIZES = (("smoke", 100),)

BASE_EVENTS = 2_000
EVENTS_PER_BATCH = 8

#: timed runs of each cold and checkpointed recovery.
RECOVERY_REPEATS = 5


def synthesize(n_base: int, n_batches: int, seed: int = 11):
    """A base trace plus unique follow-on batches with increasing times."""
    rng = np.random.default_rng(seed)
    total = n_base + n_batches * EVENTS_PER_BATCH
    n_nodes = max(128, total // 6)
    pairs = np.empty((0, 2), dtype=np.int64)
    while len(pairs) < total:
        draw = rng.integers(0, n_nodes, size=(3 * total, 2), dtype=np.int64)
        draw = draw[draw[:, 0] != draw[:, 1]]
        lo = np.minimum(draw[:, 0], draw[:, 1])
        hi = np.maximum(draw[:, 0], draw[:, 1])
        pairs = np.unique(np.stack((lo, hi), axis=1), axis=0)
    pairs = pairs[rng.permutation(len(pairs))[:total]]
    times = np.sort(rng.exponential(scale=0.01, size=total).cumsum())
    base = TemporalGraph.from_columns(
        pairs[:n_base, 0].copy(), pairs[:n_base, 1].copy(), times[:n_base].copy(),
        validated=True,
    )
    batches = []
    for i in range(n_batches):
        lo = n_base + i * EVENTS_PER_BATCH
        hi = lo + EVENTS_PER_BATCH
        batches.append(
            "".join(
                f"{u} {v} {t!r}\n"
                for u, v, t in zip(
                    pairs[lo:hi, 0].tolist(),
                    pairs[lo:hi, 1].tolist(),
                    times[lo:hi].tolist(),
                )
            )
        )
    return base, batches


def percentile(samples: "list[float]", q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


def timed_recoveries(wal_dir: Path, fresh_base, policy):
    """The last recovery's result and the wall time of each of
    ``RECOVERY_REPEATS`` recoveries from ``wal_dir``, in seconds."""
    times = []
    for _ in range(RECOVERY_REPEATS):
        gc.collect()
        started = time.perf_counter()
        result = recover_state(wal_dir, fresh_base(), policy)
        times.append(time.perf_counter() - started)
    return result, times


def ingest_all(store: ScoreStore, batches: "list[str]") -> "list[float]":
    """Per-batch ack latencies in milliseconds."""
    latencies = []
    for body in batches:
        started = time.perf_counter()
        store.ingest_lines(body)
        latencies.append((time.perf_counter() - started) * 1e3)
    return latencies


def bench_size(label: str, n_batches: int, workdir: Path) -> dict:
    base, batches = synthesize(BASE_EVENTS, n_batches)
    policy = IngestPolicy.repair()

    def fresh_base() -> TemporalGraph:
        # the delta engine grows its wrapped trace in place, so every
        # store (and the recovery call) needs its own copy of the base
        u, v, t = base.columns()
        return TemporalGraph.from_columns(
            u.copy(), v.copy(), t.copy(), validated=True
        )

    # -- ack latency: plain vs fsync=always vs fsync=never --------------
    gc.collect()
    plain = ingest_all(ScoreStore(fresh_base(), policy=policy), batches)

    latencies = {}
    for mode in ("always", "never"):
        wal_dir = workdir / f"{label}-{mode}"
        store_base = fresh_base()
        manager, _ = DurabilityManager.attach(
            wal_dir, store_base, policy, fsync=mode, checkpoint_every=0
        )
        store = ScoreStore(store_base, policy=policy, durability=manager)
        gc.collect()
        latencies[mode] = ingest_all(store, batches)
        # close WITHOUT the drain checkpoint: cold recovery below must
        # measure a full-WAL replay, not a checkpoint load
        manager.close()
        if mode == "always":
            durable_store, durable_dir = store, wal_dir

    # -- cold recovery: full WAL replay, audit included ------------------
    result, cold = timed_recoveries(durable_dir, fresh_base, policy)
    recovery_s = float(np.median(cold))
    assert result.clean and result.records_replayed == n_batches

    # parity before any number is trusted
    for got, want in zip(
        result.engine.trace.columns(), durable_store._engine.trace.columns()
    ):
        assert got.tobytes() == want.tobytes(), "recovery parity broke"

    # -- warm recovery: a checkpoint covering the whole WAL ---------------
    manager = DurabilityManager.attach(
        durable_dir, fresh_base(), policy, fsync="always", checkpoint_every=0
    )[0]
    manager.maybe_checkpoint(durable_store._engine.trace, force=True)
    manager.close()
    warm, checkpointed = timed_recoveries(durable_dir, fresh_base, policy)
    warm_s = float(np.median(checkpointed))
    assert warm.clean and warm.records_replayed == 0

    events = n_batches * EVENTS_PER_BATCH
    return {
        "label": label,
        "wal_records": n_batches,
        "wal_events": events,
        "base_events": BASE_EVENTS,
        "recovery_repeats": RECOVERY_REPEATS,
        "recovery_s": round(recovery_s, 4),
        "recovery_s_range": [round(min(cold), 4), round(max(cold), 4)],
        "replay_records_per_s": round(n_batches / recovery_s, 1),
        "replay_events_per_s": round(events / recovery_s, 1),
        "checkpoint_recovery_s": round(warm_s, 4),
        "checkpoint_recovery_s_range": [
            round(min(checkpointed), 4), round(max(checkpointed), 4)
        ],
        "rto_collapse": round(recovery_s / warm_s, 2),
        "ingest_p50_ms": round(percentile(plain, 50), 4),
        "ingest_p99_ms": round(percentile(plain, 99), 4),
        "durable_p50_ms": round(percentile(latencies["always"], 50), 4),
        "durable_p99_ms": round(percentile(latencies["always"], 99), 4),
        "nosync_p99_ms": round(percentile(latencies["never"], 99), 4),
        "durable_p99_overhead": round(
            percentile(latencies["always"], 99) / percentile(plain, 99), 2
        ),
    }


def _span(bounds: "list[float]") -> str:
    return f"{bounds[0]}–{bounds[1]}s"


def _summary_line(e: dict) -> str:
    return (
        f"{e['label']:>6} (R={e['wal_records']}): replay "
        f"{e['replay_records_per_s']} rec/s, cold RTO {e['recovery_s']}s "
        f"({_span(e['recovery_s_range'])}) vs checkpoint "
        f"{e['checkpoint_recovery_s']}s "
        f"({_span(e['checkpoint_recovery_s_range'])}); durable ack p99 "
        f"{e['durable_p99_ms']}ms ({e['durable_p99_overhead']}x plain)"
    )


def run(sizes, write_json: bool) -> dict:
    entries = []
    with TemporaryDirectory() as tmp:
        for label, n_batches in sizes:
            entry = bench_size(label, n_batches, Path(tmp))
            entries.append(entry)
            print(
                f"[{label}] R={entry['wal_records']}: cold recovery "
                f"{entry['recovery_s']}s ({_span(entry['recovery_s_range'])}; "
                f"{entry['replay_records_per_s']} rec/s, "
                f"{entry['replay_events_per_s']} ev/s), checkpointed "
                f"{entry['checkpoint_recovery_s']}s "
                f"({_span(entry['checkpoint_recovery_s_range'])}); ingest p99 "
                f"{entry['ingest_p50_ms']}/{entry['ingest_p99_ms']}ms plain vs "
                f"{entry['durable_p50_ms']}/{entry['durable_p99_ms']}ms durable "
                f"({entry['durable_p99_overhead']}x)"
            )

    report = build_report("recovery", entries)
    if write_json:
        write_report(report, line_formatter=_summary_line)
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes only, parity-checked, no BENCH_recovery.json rewrite",
    )
    args = parser.parse_args()
    run(SMOKE_SIZES if args.smoke else SIZES, write_json=not args.smoke)


if __name__ == "__main__":
    main()
