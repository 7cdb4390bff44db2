"""Telemetry overhead benchmark: disabled tracing must be (nearly) free.

The instrumentation contract in ``repro.telemetry`` is that a disabled
tracer costs one attribute lookup per call site.  This benchmark holds
the repo to that: it times the columnar half of the
``bench_core_scaling.py --smoke`` sweep (snapshot-sequence construction,
candidate enumeration, CN/PA fit + score on every prediction step —
exactly the instrumented hot paths) under three telemetry modes:

- **reference** — a bench-local, hand-minimal null tracer/registry
  monkeypatched into ``repro.telemetry``; the floor for what *any*
  guard-based instrumentation could cost;
- **disabled** — the shipped defaults (``NULL_TRACER`` /
  ``NULL_REGISTRY``), i.e. what every user who never passes
  ``--telemetry`` pays;
- **enabled** — a live buffering :class:`~repro.telemetry.Tracer` and
  :class:`~repro.telemetry.MetricsRegistry` (no sink), i.e. the worker-
  mode recording cost.

Scores are asserted byte-identical across all three modes before any
timing is trusted (telemetry must never perturb results), and the
acceptance bar is enforced here: best-of-k disabled time within 2% of
the reference floor (plus a small absolute slack so a ~10 ms timer
wobble on a sub-second workload cannot fail CI spuriously).  Times are
process CPU seconds (``time.process_time``), not wall time: on a shared
host a ~40 ms sweep descheduled for a few milliseconds read as +20%
wall-clock "overhead", while the instrumentation cost this bench bounds
is CPU work the process does itself.  Results go
to ``BENCH_telemetry.json`` at the repo root via the shared writer in
``benchmarks/_common.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py          # writes BENCH_telemetry.json
    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py --smoke  # fewer repeats, no JSON (CI)
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# One BLAS thread unless the caller chose otherwise: process CPU time
# also counts BLAS workers spinning while they wait for a core, which on
# an oversubscribed host read as +60% "overhead" in one run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _common import build_report, write_report
from repro import telemetry
from repro.generators import presets
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot, snapshot_sequence
from repro.metrics.base import get_metric
from repro.metrics.candidates import candidate_pairs
from repro.telemetry import MetricsRegistry, Tracer

#: the acceptance bar: disabled-vs-reference relative overhead.
MAX_DISABLED_OVERHEAD = 0.02
#: absolute slack, seconds — best-of-k minima on a sub-second workload
#: still wobble by ~1 timer tick; 2% of that is below measurement noise.
ABS_SLACK_S = 0.010


# ---------------------------------------------------------------------------
# Reference mode: the cheapest possible guard-compatible null objects
# ---------------------------------------------------------------------------
class _RefSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def set(self, **attrs):
        return self


_REF_SPAN = _RefSpan()


class _RefTracer:
    enabled = False

    def span(self, name, /, **attrs):  # noqa: ARG002
        return _REF_SPAN


class _RefInstrument:
    __slots__ = ()

    def inc(self, n=1):
        return None

    def set(self, value):
        return None

    def observe(self, value):
        return None


_REF_INSTRUMENT = _RefInstrument()


class _RefRegistry:
    enabled = False

    def counter(self, name, /, **labels):  # noqa: ARG002
        return _REF_INSTRUMENT

    def gauge(self, name, /, **labels):  # noqa: ARG002
        return _REF_INSTRUMENT

    def histogram(self, name, /, bounds=None, **labels):  # noqa: ARG002
        return _REF_INSTRUMENT


@contextmanager
def _telemetry_mode(tracer, registry):
    """Temporarily install (tracer, registry) as the module defaults."""
    saved = (telemetry.tracer, telemetry.metrics)
    telemetry.tracer, telemetry.metrics = tracer, registry
    try:
        yield
    finally:
        telemetry.tracer, telemetry.metrics = saved


# ---------------------------------------------------------------------------
# Workload: the columnar half of the core-scaling smoke sweep
# ---------------------------------------------------------------------------
def _sweep(graph: TemporalGraph, delta: int) -> "list[np.ndarray]":
    """Snapshot sequence + candidate enumeration + CN/PA fit-and-score."""
    out = []
    cutoffs = [s.cutoff for s in snapshot_sequence(graph, delta)][:-1]
    for cutoff in cutoffs:
        snap = Snapshot(graph, cutoff)
        for name in ("CN", "PA"):
            metric = get_metric(name).fit(snap)
            pairs = candidate_pairs(snap, metric.candidate_strategy)
            if len(pairs):
                out.append(metric.score(pairs))
    return out


def _time_modes(events, delta, modes: dict, repeats: int) -> dict:
    """Per mode: (best-of-k CPU seconds, first-run scores, span/metric counts).

    The modes are interleaved: each of the ``repeats`` rounds times every
    mode once, in an order rotated from round to round, so a drift in the
    host's speed reaches all modes alike instead of whichever is timed
    last.  One untimed sweep runs first to pay one-off warm-up costs.
    Every timed sweep gets a fresh graph (cold trace-level caches) built
    *outside* the timed region, and — in enabled mode — a fresh tracer
    and registry so buffered spans never accumulate across runs.
    """
    _sweep(TemporalGraph.from_stream(events), delta)
    names = list(modes)
    results = {name: [float("inf"), None, 0, 0] for name in names}
    for round_index in range(repeats):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            graph = TemporalGraph.from_stream(events)
            tracer, registry = modes[name]()
            gc.collect()
            with _telemetry_mode(tracer, registry):
                started = time.process_time()
                scores = _sweep(graph, delta)
                elapsed = time.process_time() - started
            entry = results[name]
            entry[0] = min(entry[0], elapsed)
            if entry[1] is None:
                entry[1] = scores
                if isinstance(tracer, Tracer):
                    entry[2] = len(tracer.drain())
                    entry[3] = len(registry.payloads())
    return {name: tuple(entry) for name, entry in results.items()}


def run(repeats: int, write_json: bool) -> dict:
    trace = presets.load("facebook", scale=0.25, seed=3)
    delta = presets.snapshot_delta("facebook", 0.25)
    events = list(trace.edges())

    timed = _time_modes(
        events,
        delta,
        {
            "reference": lambda: (_RefTracer(), _RefRegistry()),
            "disabled": lambda: (telemetry.NULL_TRACER, telemetry.NULL_REGISTRY),
            "enabled": lambda: (Tracer(), MetricsRegistry()),
        },
        repeats,
    )
    ref_s, ref_scores, _, _ = timed["reference"]
    dis_s, dis_scores, _, _ = timed["disabled"]
    ena_s, ena_scores, spans, payloads = timed["enabled"]

    # Parity before any number is trusted: telemetry must never perturb
    # scientific output, in any mode.
    assert len(ref_scores) == len(dis_scores) == len(ena_scores)
    for ref, dis, ena in zip(ref_scores, dis_scores, ena_scores):
        assert ref.tobytes() == dis.tobytes() == ena.tobytes(), (
            "telemetry mode changed metric scores"
        )

    overhead_disabled = (dis_s - ref_s) / ref_s
    overhead_enabled = (ena_s - ref_s) / ref_s
    within_budget = dis_s <= ref_s * (1.0 + MAX_DISABLED_OVERHEAD) + ABS_SLACK_S
    assert within_budget, (
        f"disabled-telemetry overhead {overhead_disabled:+.1%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%} budget "
        f"(reference {ref_s:.4f}s, disabled {dis_s:.4f}s)"
    )

    entry = {
        "label": "smoke",
        "dataset": "facebook",
        "scale": 0.25,
        "nodes": trace.num_nodes,
        "edges": trace.num_edges,
        "repeats": repeats,
        "reference_s": round(ref_s, 4),
        "disabled_s": round(dis_s, 4),
        "enabled_s": round(ena_s, 4),
        "overhead_disabled": round(overhead_disabled, 4),
        "overhead_enabled": round(overhead_enabled, 4),
        "overhead_budget": MAX_DISABLED_OVERHEAD,
        "enabled_spans": spans,
        "enabled_metric_series": payloads,
    }
    print(
        f"[smoke] reference {ref_s:.4f}s, disabled {dis_s:.4f}s "
        f"({overhead_disabled:+.1%}), enabled {ena_s:.4f}s "
        f"({overhead_enabled:+.1%}); {spans} spans, "
        f"{payloads} metric series when enabled"
    )

    report = build_report("telemetry", [entry])
    if write_json:
        write_report(
            report,
            line_formatter=lambda e: (
                f"{e['label']:>6}: disabled {e['overhead_disabled']:+.1%} "
                f"vs reference (budget {e['overhead_budget']:.0%}), "
                f"enabled {e['overhead_enabled']:+.1%}, "
                f"{e['enabled_spans']} spans recorded"
            ),
        )
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer repeats, parity + budget still asserted, no JSON rewrite",
    )
    args = parser.parse_args()
    run(repeats=12 if args.smoke else 15, write_json=not args.smoke)


if __name__ == "__main__":
    main()
