"""Extension bench: streaming vs batch candidate maintenance.

``DeltaGraph()`` — the serving engine — maintains the 2-hop candidate set and its exact CN counts in
``O(deg(u) + deg(v))`` bump work per inserted edge; the batch pipeline
re-enumerates the candidates per snapshot.  This bench streams the same
edges through both and checks they agree — the point where streaming wins
is the design argument for the delta engine.
"""

import copy
import time

from benchmarks.conftest import write_result
from repro.graph.delta import DeltaGraph
from repro.graph.snapshots import Snapshot
from repro.metrics.candidates import two_hop_pairs
from repro.utils.pairs import decode_position_pairs


def test_incremental_matches_batch_on_preset(networks, benchmark):
    trace = networks["facebook"].trace

    def stream_everything():
        delta = DeltaGraph()
        delta.apply(trace.edges())
        return delta

    delta = benchmark.pedantic(stream_everything, rounds=1, iterations=1)
    batch = {tuple(p) for p in two_hop_pairs(Snapshot(trace, trace.num_edges))}
    # The engine's own maintained keys, decoded to id pairs.
    rows, cols = decode_position_pairs(delta._cand_keys)
    ids = delta._node_ids
    streaming = set(zip(ids[rows].tolist(), ids[cols].tolist()))
    assert streaming == batch
    assert delta.num_candidates == len(batch)
    write_result(
        "extension_incremental",
        f"edges streamed: {delta.num_edges}\n"
        f"2-hop candidates maintained: {delta.num_candidates}\n"
        f"agrees with batch A^2 enumeration: True",
    )


def test_incremental_update_cost_is_local(networks, benchmark):
    """Per-edge update touches only the endpoint neighbourhoods: applying
    the last 10% of edges to a warm engine costs a small fraction of a
    full rebuild."""
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

    # Manual timing for the comparison line (deepcopy excluded).
    delta = copy.deepcopy(warm)
    t0 = time.perf_counter()
    delta.apply(events[cut:])
    tail_time = time.perf_counter() - t0
    # The rebuild wraps a copy so the shared session trace stays untouched.
    full_trace = copy.deepcopy(trace)
    t0 = time.perf_counter()
    DeltaGraph(full_trace)
    full_time = time.perf_counter() - t0
    write_result(
        "extension_incremental_cost",
        f"full rebuild: {full_time * 1000:.1f} ms\n"
        f"last-10% streaming update: {tail_time * 1000:.1f} ms",
    )
    assert tail_time < full_time
