"""Extension bench: streaming vs batch graph maintenance.

``DeltaGraph()`` — the serving engine — keeps the CSR adjacency, degrees
and per-node triangle counts current in ``O(min(deg u, deg v) log E)``
work per inserted edge; the batch pipeline rebuilds every snapshot from
the stream.  This bench streams the same edges through both and checks that
the streamed snapshot enumerates exactly the batch 2-hop candidates —
the point where streaming wins is the design argument for the delta
engine.
"""

import copy
import statistics
import time

from benchmarks.conftest import write_result
from repro.graph.delta import DeltaGraph
from repro.graph.snapshots import Snapshot
from repro.metrics.candidates import two_hop_pairs

#: interleaved timing rounds per side of the locality comparison; each
#: side is the median of its rounds.
COST_ROUNDS = 7


def test_incremental_matches_batch_on_preset(networks, benchmark):
    trace = networks["facebook"].trace

    def stream_everything():
        delta = DeltaGraph()
        delta.apply(trace.edges())
        return delta

    delta = benchmark.pedantic(stream_everything, rounds=1, iterations=1)
    batch = two_hop_pairs(Snapshot(trace, trace.num_edges))
    streaming = two_hop_pairs(delta.materialize())
    assert streaming.tobytes() == batch.tobytes()
    write_result(
        "extension_incremental",
        f"edges streamed: {delta.num_edges}\n"
        f"2-hop candidates on the streamed snapshot: {len(streaming)}\n"
        f"agrees with batch A^2 enumeration: True",
    )


def test_incremental_update_cost_is_local(networks, benchmark):
    """Per-edge update touches only the endpoint neighbourhoods: applying
    the last 10% of edges to a warm engine costs a small fraction of a
    full rebuild.  Each side is the median of ``COST_ROUNDS`` interleaved
    timings, so one slow moment on a shared host does not decide it."""
    trace = networks["facebook"].trace
    events = list(trace.edges())
    cut = int(len(events) * 0.9)
    warm = DeltaGraph()
    warm.apply(events[:cut])

    def tail_updates():
        delta = copy.deepcopy(warm)
        delta.apply(events[cut:])
        return delta

    benchmark.pedantic(tail_updates, rounds=1, iterations=1)

    # Manual timing for the comparison line (the copies excluded).
    tail_times, full_times = [], []
    for _ in range(COST_ROUNDS):
        delta = copy.deepcopy(warm)
        t0 = time.perf_counter()
        delta.apply(events[cut:])
        tail_times.append(time.perf_counter() - t0)
        # The rebuild wraps a copy so the shared session trace stays untouched.
        full_trace = copy.deepcopy(trace)
        t0 = time.perf_counter()
        DeltaGraph(full_trace)
        full_times.append(time.perf_counter() - t0)
    tail_time = statistics.median(tail_times)
    full_time = statistics.median(full_times)
    write_result(
        "extension_incremental_cost",
        f"full rebuild: {full_time * 1000:.1f} ms (median of {COST_ROUNDS})\n"
        f"last-10% streaming update: {tail_time * 1000:.1f} ms (median of {COST_ROUNDS})",
    )
    assert tail_time < full_time
