"""Differential suite for the incremental delta engine.

``DeltaGraph.materialize()`` promises a snapshot *byte-identical* to a
full ``TemporalGraph`` rebuild at the same cutoff.  This suite enforces
that on hypothesis-generated streams after every random batch — columns,
stream index, CSR structure, degrees, candidate enumeration order,
per-node triangle counts, CN / AA / RA / JC / BCN / BAA / BRA scores,
idle times, and the materialised snapshot's own enumeration against the
rebuild's — plus chunking invariance (the same stream built, or applied
in different batch splits, yields identical state), the engine build's
triangles against an expansion count (no enumeration, no expansion), the
triangle walk against a one-edge-at-a-time set replay, the engine's
state staying ``O(nodes + edges)``, pickle round-trips, batch hygiene
(duplicates / self-loops / bad timestamps), and a dict-of-sets
reference triangulation so the delta engine and the columnar core
cannot drift together.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.delta import DeltaGraph
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot
from repro.metrics import candidates, kernels
from repro.metrics.base import get_metric
from repro.metrics.candidates import two_hop_pairs, two_hop_positions
from repro.metrics.kernels import node_triangle_counts
from repro.temporal.activity import node_idle_times
from tests.matrix_oracle import oracle_scores

SCORED = ("CN", "AA", "RA", "JC", "BCN", "BAA", "BRA")
#: Their prior odds log(s) are undefined on a complete graph (s = 0),
#: which has no candidate pair to score.
BAYES = ("BCN", "BAA", "BRA")


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
@st.composite
def traces(draw, max_nodes=10, max_edges=24):
    """Random streams with sparse ids, duplicate pairs, AND self-loops.

    Unlike the columnar-core suite's strategy, self-loop events are kept:
    ``TemporalGraph.add_edge`` rejects them but ``DeltaGraph.apply`` must
    *skip and count* them, so the raw stream exercises that path.
    """
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    count = draw(st.integers(min_value=1, max_value=max_edges))
    raw = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=count,
            max_size=count,
        ).filter(lambda pairs: any(a != b for a, b in pairs))
    )
    times = sorted(
        draw(
            st.lists(
                st.floats(0, 50, allow_nan=False, allow_infinity=False),
                min_size=len(raw),
                max_size=len(raw),
            )
        )
    )
    # Sparse ids exercise the remap table; duplicates exercise dedup.
    return [(3 * a + 7, 3 * b + 7, t) for (a, b), t in zip(raw, times)]


@st.composite
def chunked_traces(draw):
    """A stream plus random batch boundaries over it."""
    stream = draw(traces())
    cuts = draw(
        st.lists(st.integers(0, len(stream)), max_size=6).map(sorted)
    )
    bounds = [0] + cuts + [len(stream)]
    return stream, [
        stream[a:b] for a, b in zip(bounds, bounds[1:])
    ]


def clean_stream(stream: list) -> list:
    """The stream without its self-loops, as a trace can hold it."""
    return [(u, v, t) for u, v, t in stream if u != v]


# ---------------------------------------------------------------------------
# The byte-identity oracle
# ---------------------------------------------------------------------------
def rebuilt_snapshot(trace: TemporalGraph) -> Snapshot:
    """A from-scratch snapshot of the same stream, sharing no state."""
    u, v, t = trace.columns()
    clean = TemporalGraph.from_columns(
        u.copy(), v.copy(), t.copy(), validated=True
    )
    return Snapshot(clean, clean.num_edges)


def assert_byte_identical(delta: DeltaGraph) -> None:
    """Materialized snapshot == full rebuild, down to the bytes."""
    snap = delta.materialize()
    ref = rebuilt_snapshot(delta.trace)
    # The snapshot's own enumeration: the rebuild's positions, bitwise.
    for got, want in zip(two_hop_positions(snap), two_hop_positions(ref)):
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()
    for got, want in zip(snap.trace.columns(), ref.trace.columns()):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert snap.node_ids.dtype == ref.node_ids.dtype
    assert np.array_equal(snap.node_ids, ref.node_ids)
    got_ptr, got_idx = snap.csr_structure()
    want_ptr, want_idx = ref.csr_structure()
    assert got_ptr.tobytes() == want_ptr.tobytes()
    assert got_idx.tobytes() == want_idx.tobytes()
    assert snap.degree_array().tobytes() == ref.degree_array().tobytes()
    # The installed counts are read before any metric runs, so they are
    # the engine's, not a recount on the materialised snapshot.
    triangles = snap.cache["triangles"]
    assert not triangles.flags.writeable
    assert (
        triangles.tobytes() == node_triangle_counts(ref).tobytes()
    )
    got_pairs, want_pairs = two_hop_pairs(snap), two_hop_pairs(ref)
    assert got_pairs.dtype == want_pairs.dtype
    assert got_pairs.shape == want_pairs.shape
    assert got_pairs.tobytes() == want_pairs.tobytes()
    for flag in ("C_CONTIGUOUS", "OWNDATA", "WRITEABLE"):
        assert got_pairs.flags[flag] == want_pairs.flags[flag], flag
    for name in SCORED:
        if name in BAYES and not len(got_pairs):
            continue
        got_scores = get_metric(name).fit(snap).score(got_pairs)
        want_scores = get_metric(name).fit(ref).score(want_pairs)
        # tobytes comparison is deliberately stricter than array_equal:
        # it distinguishes -0.0 from 0.0 and would catch NaN smuggling.
        assert got_scores.tobytes() == want_scores.tobytes(), name
    assert (
        node_idle_times(snap).tobytes() == node_idle_times(ref).tobytes()
    )


def assert_build_matches_oracle(delta: DeltaGraph) -> None:
    """The engine's triangle column, bitwise, against an independent
    route: :func:`node_triangle_counts`, half the common-neighbour
    expansion counts of each node's edges."""
    snap = Snapshot(delta.trace, delta.trace.num_edges)
    want = node_triangle_counts(snap).astype(np.int64)
    assert delta._tri.dtype == np.int64
    assert delta._tri.shape == want.shape
    assert delta._tri.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Differential: delta apply vs full rebuild
# ---------------------------------------------------------------------------
class TestByteIdentity:
    @given(chunked_traces())
    @settings(max_examples=60, deadline=None)
    def test_identical_after_every_batch(self, stream_and_chunks):
        _, chunks = stream_and_chunks
        delta = DeltaGraph()
        for chunk in chunks:
            delta.apply(chunk)
            report = delta.audit()
            assert report.ok, report.summary()
            if delta.num_edges:
                assert_byte_identical(delta)

    @given(chunked_traces())
    @settings(max_examples=40, deadline=None)
    def test_cn_only_engine_identical_after_every_batch(self, stream_and_chunks):
        """The engine keeps per-node triangles, no candidate or float tables.

        The materialised snapshot carries the triangle counts, one int64
        column in the engine, and no candidate array, score table or
        idle-time column. CN/AA/RA/JC and BCN/BAA/BRA score through the
        expansion on the materialised snapshot and still match the
        rebuild byte for byte, and no BCN read recounts the triangles.
        """
        _, chunks = stream_and_chunks
        delta = DeltaGraph()
        for chunk in chunks:
            delta.apply(chunk)
            assert delta.audit().ok
            if delta.num_edges:
                assert_byte_identical(delta)
                snap = delta.materialize()
                assert "triangles" in snap.cache
                for key in ("pairs_two_hop", "pairs_all", "delta_scores", "node_idle_times"):
                    assert key not in snap.cache, key
                assert delta._tri.dtype == np.int64
                assert len(delta._tri) == delta.num_nodes
                pairs = two_hop_pairs(snap)
                if len(pairs):
                    get_metric("BCN").fit(snap).score(pairs)
                assert "edge_common_neighbors" not in snap.cache

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_warm_start_from_existing_trace(self, stream):
        """Wrapping a pre-built trace then continuing incrementally."""
        half = len(stream) // 2
        prefix = clean_stream(stream[:half])
        delta = DeltaGraph(TemporalGraph.from_stream(prefix))
        delta.apply(stream[half:])
        assert delta.audit().ok
        if delta.num_edges:
            assert_byte_identical(delta)

    @given(traces())
    @settings(max_examples=40, deadline=None)
    def test_materialized_scores_match_matrix_oracle(self, stream):
        """CN/AA/RA scores on the materialised snapshot == the matrix
        oracle on a rebuild, per pair."""
        delta = DeltaGraph()
        delta.apply(stream)
        if not delta.num_edges:
            return
        snap = delta.materialize()
        ref = rebuilt_snapshot(delta.trace)
        pairs = two_hop_pairs(snap)
        # Score in reversed order: nothing may depend on the query order
        # matching the enumeration order.
        subset = pairs[::-1]
        for name in ("CN", "AA", "RA"):
            want = oracle_scores(get_metric(name).fit(ref), subset)
            got = get_metric(name).fit(snap).score(subset)
            assert got.tobytes() == want.tobytes()


class TestChunkingInvariance:
    @given(chunked_traces())
    @settings(max_examples=60, deadline=None)
    def test_splits_converge_to_identical_state(self, stream_and_chunks):
        stream, chunks = stream_and_chunks
        one_shot = DeltaGraph()
        one_shot.apply(stream)
        single = DeltaGraph()
        for event in stream:
            single.apply([event])
        random_chunks = DeltaGraph()
        for chunk in chunks:
            random_chunks.apply(chunk)
        built = DeltaGraph(TemporalGraph.from_stream(clean_stream(stream)))
        for other in (single, random_chunks, built):
            assert np.array_equal(other._node_ids, one_shot._node_ids)
            assert other._cu.tobytes() == one_shot._cu.tobytes()
            assert other._cv.tobytes() == one_shot._cv.tobytes()
            assert other._ct.tobytes() == one_shot._ct.tobytes()
            assert np.array_equal(other._adj_keys, one_shot._adj_keys)
            assert np.array_equal(other._deg, one_shot._deg)
            assert np.array_equal(other._tri, one_shot._tri)
        if one_shot.num_edges:
            for engine in (one_shot, single, random_chunks, built):
                assert_byte_identical(engine)

    @given(chunked_traces(), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_walk_blocks_give_identical_state(self, stream_and_chunks, block):
        """The triangle walk split into blocks of a few steps, in the
        batches and in the build, leaves the same state as one block."""
        stream, chunks = stream_and_chunks
        whole = DeltaGraph()
        for chunk in chunks:
            whole.apply(chunk)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_KERNEL_BLOCK_PAIRS", str(block))
            blocked = DeltaGraph()
            for chunk in chunks:
                blocked.apply(chunk)
            built = DeltaGraph(TemporalGraph.from_stream(clean_stream(stream)))
        for engine in (blocked, built):
            for name in ("_adj_keys", "_deg", "_tri"):
                got, want = getattr(engine, name), getattr(whole, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            if engine.num_edges:
                assert_byte_identical(engine)


# ---------------------------------------------------------------------------
# The engine build: the empty engine's first write, no enumeration
# ---------------------------------------------------------------------------
def _complete_stream(n: int) -> list:
    return [
        (3 * a + 7, 3 * b + 7, float(a * n + b))
        for a in range(n)
        for b in range(a + 1, n)
    ]


def _two_component_stream() -> list:
    """Two disjoint triangles-with-tails; no candidate crosses them."""
    left = [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)]
    right = [(10, 11), (11, 12), (12, 13), (13, 10), (10, 12), (13, 14)]
    return [(u, v, float(t)) for t, (u, v) in enumerate(left + right)]


BUILD_SHAPES = {
    "random": [
        (int(u), int(v), float(t))
        for t, (u, v) in enumerate(
            np.random.default_rng(11).integers(0, 40, size=(150, 2)).tolist()
        )
        if u != v
    ],
    "two_components": _two_component_stream(),
    "complete": _complete_stream(7),
    "single_edge": [(5, 9, 1.0)],
}


class TestEngineBuild:
    """``DeltaGraph(trace)`` absorbs the stream as one batch: its
    triangle counts, bitwise equal to the expansion count, come from the
    triangle walk, never from a 2-hop enumeration."""

    @given(traces(max_nodes=14, max_edges=40))
    @settings(max_examples=60, deadline=None)
    def test_build_matches_chunked_expansion(self, stream):
        delta = DeltaGraph(TemporalGraph.from_stream(clean_stream(stream)))
        assert_build_matches_oracle(delta)

    @pytest.mark.parametrize("strategy", ["dense", "sparse"])
    @pytest.mark.parametrize("shape", sorted(BUILD_SHAPES))
    def test_forced_strategy_matches_chunked_expansion(
        self, monkeypatch, strategy, shape
    ):
        """Whichever strategy the enumerator is forced to, the build
        never calls it."""
        trace = TemporalGraph.from_stream(BUILD_SHAPES[shape])
        used = []
        real = candidates._ENUM_IMPLS[strategy]

        def recorded(snapshot):
            used.append(strategy)
            return real(snapshot)

        monkeypatch.setattr(
            candidates, "choose_enumeration_strategy", lambda snapshot: strategy
        )
        monkeypatch.setitem(candidates._ENUM_IMPLS, strategy, recorded)
        delta = DeltaGraph(trace)
        assert used == []
        assert_build_matches_oracle(delta)
        assert delta.audit().ok
        if shape == "complete":
            assert delta._tri.tolist() == [15] * 7  # C(6, 2) per node
        if shape == "single_edge":
            assert delta._tri.tolist() == [0, 0]

    def test_build_runs_no_enumeration_and_no_expansion(self, monkeypatch):
        calls = {"enumerate": 0, "expand": 0}
        for strategy, real in list(candidates._ENUM_IMPLS.items()):

            def counted_enumeration(snapshot, real=real):
                calls["enumerate"] += 1
                return real(snapshot)

            monkeypatch.setitem(candidates._ENUM_IMPLS, strategy, counted_enumeration)
        real_expansion = kernels.common_neighbor_expansion

        def counted_expansion(*args, **kwargs):
            calls["expand"] += 1
            return real_expansion(*args, **kwargs)

        monkeypatch.setattr(kernels, "common_neighbor_expansion", counted_expansion)
        trace = TemporalGraph.from_stream(BUILD_SHAPES["random"])
        delta = DeltaGraph(trace)
        assert calls == {"enumerate": 0, "expand": 0}
        assert delta._tri.sum() > 0
        # The counters are live: the oracle's expansions and an
        # enumeration on the materialised snapshot register.
        assert_build_matches_oracle(delta)
        assert calls["expand"] > 0
        two_hop_pairs(delta.materialize())
        assert calls["enumerate"] == 1


# ---------------------------------------------------------------------------
# The triangle walk against a one-edge-at-a-time replay
# ---------------------------------------------------------------------------
class SetReplay:
    """Brute-force triangle counts: insert the edges one at a time into
    dict-of-sets adjacency; each new edge closes one triangle per common
    neighbour its ends already share."""

    def __init__(self) -> None:
        self.adj: dict[int, set[int]] = {}
        self.tri: dict[int, int] = {}

    def insert(self, events: list) -> None:
        for u, v, _ in events:
            if u == v or v in self.adj.get(u, ()):
                continue
            shared = self.adj.get(u, set()) & self.adj.get(v, set())
            for node in (u, v, *shared):
                gained = len(shared) if node in (u, v) else 1
                self.tri[node] = self.tri.get(node, 0) + gained
            self.adj.setdefault(u, set()).add(v)
            self.adj.setdefault(v, set()).add(u)

    def assert_matches(self, delta: DeltaGraph) -> None:
        nodes = sorted(self.adj)
        assert delta._node_ids.tolist() == nodes
        assert delta._tri.tolist() == [self.tri.get(node, 0) for node in nodes]


class TestTriangleWalk:
    """The build and every batch find each new triangle exactly once, at
    its latest edge; a set replay of the same stream must agree."""

    @given(chunked_traces(), st.booleans())
    # A triangle made only of batch edges, absorbed by the build.
    @example(
        ([(1, 2, 0.0), (2, 3, 1.0), (1, 3, 2.0)], [[(1, 2, 0.0), (2, 3, 1.0), (1, 3, 2.0)]]),
        True,
    )
    # A triangle with two batch edges and one old edge.
    @example(
        ([(1, 2, 0.0), (2, 3, 1.0), (1, 3, 2.0)], [[(1, 2, 0.0)], [(2, 3, 1.0), (1, 3, 2.0)]]),
        False,
    )
    # New zero-degree nodes 4 and 1 with ids below the old maximum 13,
    # repeated within their batch: 4-10-13 closes on an old edge, 1-4-10
    # on batch edges only.
    @example(
        (
            [],
            [
                [(10, 13, 0.0)],
                [(4, 10, 1.0), (4, 13, 2.0), (1, 4, 3.0), (1, 10, 4.0)],
            ],
        ),
        True,
    )
    # A hub whose lower-degree partners walk their own rows, and a new
    # node joining the hub.
    @example(
        (
            [],
            [
                [(0, 1, 0.0), (0, 2, 1.0), (0, 3, 2.0), (0, 4, 3.0), (4, 5, 4.0)],
                [(1, 2, 5.0), (5, 0, 6.0), (3, 6, 7.0), (6, 0, 8.0)],
            ],
        ),
        False,
    )
    @settings(max_examples=150, deadline=None)
    def test_counts_match_one_edge_replay(self, stream_and_chunks, build_first):
        _, chunks = stream_and_chunks
        replay = SetReplay()
        if build_first:
            replay.insert(chunks[0])
            delta = DeltaGraph(TemporalGraph.from_stream(clean_stream(chunks[0])))
            chunks = chunks[1:]
        else:
            delta = DeltaGraph()
        replay.assert_matches(delta)
        for chunk in chunks:
            delta.apply(chunk)
            replay.insert(chunk)
            replay.assert_matches(delta)


# ---------------------------------------------------------------------------
# The engine's state is O(nodes + edges)
# ---------------------------------------------------------------------------
def _star_stream(leaves: int) -> list:
    return [(0, leaf, float(leaf)) for leaf in range(1, leaves + 1)]


class TestStateSize:
    """No array the engine holds is sized by the candidate set: a star of
    k leaves has k(k-1)/2 candidates against k edges."""

    @pytest.mark.parametrize("shape", ["star", "random", "complete"])
    @pytest.mark.parametrize("route", ["build", "apply"])
    def test_arrays_bounded_by_nodes_and_edges(self, shape, route):
        stream = _star_stream(16) if shape == "star" else BUILD_SHAPES[shape]
        if route == "build":
            delta = DeltaGraph(TemporalGraph.from_stream(stream))
        else:
            delta = DeltaGraph()
            for start in range(0, len(stream), 5):
                delta.apply(stream[start : start + 5])
        bound = 2 * delta.num_edges + delta.num_nodes + 1
        arrays = {
            name: value
            for name, value in vars(delta).items()
            if isinstance(value, np.ndarray)
        }
        assert {"_adj_keys", "_deg", "_tri"} <= set(arrays)
        for name, value in arrays.items():
            assert len(value) <= bound, (name, len(value), bound)


# ---------------------------------------------------------------------------
# Reference triangulation: a third, independent implementation
# ---------------------------------------------------------------------------
class TestReferenceTriangulation:
    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_degrees_and_two_hop_set_match_dict_reference(self, stream):
        delta = DeltaGraph()
        delta.apply(stream)
        adj: dict[int, set[int]] = {}
        for u, v, _ in stream:
            if u == v or (v in adj.get(u, ())):
                continue
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        assert delta.num_nodes == len(adj)
        assert list(delta._node_ids) == sorted(adj)
        for pos, node in enumerate(delta._node_ids.tolist()):
            assert delta._deg[pos] == len(adj[node])
            # Each triangle through node is one linked pair of neighbours.
            linked = sum(len(adj[node] & adj[w]) for w in adj[node])
            assert delta._tri[pos] == linked // 2
        expected = set()
        for u in adj:
            for w in adj[u]:
                for v in adj[w]:
                    if v > u and v not in adj[u]:
                        expected.add((u, v))
        if delta.num_edges:
            pairs = two_hop_pairs(delta.materialize()).tolist()
            assert {tuple(p) for p in pairs} == expected


# ---------------------------------------------------------------------------
# Pickle round-trips
# ---------------------------------------------------------------------------
class TestPickle:
    @given(chunked_traces())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_then_continue(self, stream_and_chunks):
        _, chunks = stream_and_chunks
        delta = DeltaGraph()
        for chunk in chunks[: len(chunks) // 2 + 1]:
            delta.apply(chunk)
        clone = pickle.loads(pickle.dumps(delta))
        assert clone.audit().ok
        assert np.array_equal(clone._adj_keys, delta._adj_keys)
        assert np.array_equal(clone._deg, delta._deg)
        assert np.array_equal(clone._tri, delta._tri)
        for chunk in chunks[len(chunks) // 2 + 1 :]:
            delta.apply(chunk)
            clone.apply(chunk)
        assert clone._ct.tobytes() == delta._ct.tobytes()
        if clone.num_edges:
            assert_byte_identical(clone)


# ---------------------------------------------------------------------------
# Batch hygiene: skipping, counting, and failing atomically
# ---------------------------------------------------------------------------
class TestBatchHygiene:
    def test_report_counts_duplicates_and_self_loops(self):
        delta = DeltaGraph()
        report = delta.apply(
            [(1, 2, 0.0), (3, 3, 0.5), (2, 1, 1.0), (2, 3, 1.5)]
        )
        assert report.applied == 2
        assert report.self_loops == 1
        assert report.duplicates == 1
        assert report.new_nodes == 3
        assert delta.num_edges == 2
        assert delta.audit().ok

    def test_empty_batch_is_a_no_op(self):
        delta = DeltaGraph()
        delta.apply([(1, 2, 0.0)])
        before = delta._ct.tobytes()
        report = delta.apply([])
        assert report.applied == 0
        assert delta._ct.tobytes() == before
        assert delta.audit().ok

    @pytest.mark.parametrize(
        "bad",
        [
            [(1, 2, 5.0), (3, 4, 1.0)],  # out of order within the batch
            [(3, 4, float("nan"))],
            [(3, 4, float("inf"))],
            [(3, 4, -1.0)],
        ],
    )
    def test_bad_batch_rejected_before_any_mutation(self, bad):
        delta = DeltaGraph()
        delta.apply([(1, 2, 2.0), (2, 3, 3.0)])
        columns = delta._ct.tobytes()
        with pytest.raises(ValueError):
            delta.apply(bad)
        assert delta.num_edges == 2
        assert delta._ct.tobytes() == columns
        assert delta.audit().ok
        assert_byte_identical(delta)

    def test_batch_older_than_stream_end_rejected(self):
        delta = DeltaGraph()
        delta.apply([(1, 2, 5.0)])
        with pytest.raises(ValueError, match="non-decreasing"):
            delta.apply([(2, 3, 4.0)])
        assert delta.num_edges == 1

    def test_external_trace_mutation_detected(self):
        delta = DeltaGraph()
        delta.apply([(1, 2, 0.0)])
        delta.trace.add_edge(2, 3, 1.0)
        with pytest.raises(RuntimeError, match="outside the DeltaGraph"):
            delta.apply([(3, 4, 2.0)])
        with pytest.raises(RuntimeError, match="outside the DeltaGraph"):
            delta.materialize()

    def test_empty_engine_cannot_materialize(self):
        with pytest.raises(ValueError, match="empty stream"):
            DeltaGraph().materialize()

