"""Parity of the one-node read path with the whole-snapshot computation.

A served ``/predict`` read needs only the pairs touching its node and
their scores.  Two shortcuts deliver them, and both promise bit-for-bit
the answer of the whole-snapshot path:

- ``candidate_pairs(snapshot, strategy, node=u)`` reads ``u``'s CSR
  neighbourhood instead of building and masking the full candidate
  array, and must return exactly the masked rows, in the same order;
- SP, LP and Katz_sc compute one row of their path matrix, and LRW one
  row and one column of ``P^m``, for a block whose pairs share a node,
  and the whole matrix otherwise.  Every mix of the two on one snapshot
  — a row first, the matrix first, tiny blocks of either kind, a single
  pair — must match the whole-matrix formulas of
  ``tests/matrix_oracle.py``.  LRW's float products stay bitwise only
  because scipy sums each entry of a CSR-times-dense product in CSR
  order, as CSR times a vector does; a test here pins that.

Scores are compared as int64 bit patterns, so ``-0.0`` against ``0.0``
or one differing last bit fails.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph.delta import DeltaGraph
from repro.graph.dyngraph import TemporalGraph
from repro.graph.snapshots import Snapshot, SnapshotView
from repro.metrics.base import get_metric
from repro.metrics.candidates import candidate_pairs
from repro.metrics.kernels import CandidateBlock
from tests.matrix_oracle import oracle_scores
from tests.test_kernel_parity import random_snapshot

STRATEGIES = ("two_hop", "all")
NODE_SCOPED_METRICS = ("SP", "LP", "Katz_sc", "LRW")


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    got = np.ascontiguousarray(got, dtype=np.float64)
    want = np.ascontiguousarray(want, dtype=np.float64)
    return np.array_equal(got.view(np.int64), want.view(np.int64))


def masked(snapshot: Snapshot, strategy: str, u: int) -> np.ndarray:
    pairs = candidate_pairs(snapshot, strategy)
    return pairs[(pairs[:, 0] == u) | (pairs[:, 1] == u)]


def two_components() -> TemporalGraph:
    """A triangle with a tail, and a separate path: disconnected pairs."""
    return TemporalGraph.from_stream(
        [(1, 2, 0.0), (2, 3, 1.0), (1, 3, 2.0), (3, 4, 3.0),
         (10, 11, 4.0), (11, 12, 5.0)]
    )


def delta_materialized(snapshot: Snapshot) -> Snapshot:
    events = list(snapshot.trace.edges())[: snapshot.num_edges]
    delta = DeltaGraph(TemporalGraph.from_stream(events[:-6]))
    delta.apply(events[-6:])
    return delta.materialize()


def view_with_isolated_node(snapshot: Snapshot) -> "tuple[SnapshotView, int]":
    """A sampled view of ``snapshot`` in which one node has no edge."""
    ids = snapshot.node_ids
    lonely = int(ids[0])
    keep = {lonely} | {
        int(v) for v in ids[1:] if not snapshot.has_edge(lonely, int(v))
    }
    view = SnapshotView(snapshot, keep)
    assert view.degree(lonely) == 0 and view.num_edges > 0
    return view, lonely


def _sparse() -> Snapshot:
    return random_snapshot(40, 0.08, 11)


def _dense() -> Snapshot:
    return random_snapshot(25, 0.35, 13)


#: every kind of snapshot the read path may serve, built afresh per test
#: so that each starts with empty caches.
KINDS = {
    "plain sparse": _sparse,
    "plain dense": _dense,
    "delta sparse": lambda: delta_materialized(_sparse()),
    "delta dense": lambda: delta_materialized(_dense()),
    "view": lambda: view_with_isolated_node(random_snapshot(30, 0.12, 5))[0],
    "two components": lambda: Snapshot(two_components(), 6),
}


@pytest.fixture(params=sorted(KINDS))
def snapshot(request) -> Snapshot:
    return KINDS[request.param]()


def probe_nodes(snapshot: Snapshot) -> "list[int]":
    """Positions 0 and n-1, the hub, and an isolated node if any."""
    ids = snapshot.node_ids
    deg = snapshot.degree_array()
    nodes = {int(ids[0]), int(ids[-1]), int(ids[np.argmax(deg)])}
    nodes.update(int(ids[i]) for i in np.flatnonzero(deg == 0)[:1])
    return sorted(nodes)


class TestNodeCandidates:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_equals_masked_full_array(self, snapshot, strategy):
        for u in probe_nodes(snapshot):
            got = candidate_pairs(snapshot, strategy, node=u)
            want = masked(snapshot, strategy, u)
            assert got.dtype == np.int64 and got.shape[1:] == (2,)
            assert np.array_equal(got, want), (strategy, u)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_does_not_build_the_full_array(self, strategy):
        snapshot = random_snapshot(30, 0.1, 2)
        candidate_pairs(snapshot, strategy, node=int(snapshot.node_ids[3]))
        assert "pairs_two_hop" not in snapshot.cache
        assert "pairs_all" not in snapshot.cache

    def test_isolated_node(self):
        view, lonely = view_with_isolated_node(random_snapshot(30, 0.12, 5))
        assert len(candidate_pairs(view, "two_hop", node=lonely)) == 0
        everyone = candidate_pairs(view, "all", node=lonely)
        assert len(everyone) == view.num_nodes - 1
        assert np.array_equal(everyone, masked(view, "all", lonely))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unknown_node_raises_key_error(self, strategy):
        snapshot = random_snapshot(20, 0.2, 1)
        with pytest.raises(KeyError):
            candidate_pairs(snapshot, strategy, node=-5)

    def test_unknown_strategy_raises(self):
        snapshot = random_snapshot(20, 0.2, 1)
        with pytest.raises(ValueError, match="unknown candidate strategy"):
            candidate_pairs(snapshot, "five_hop", node=int(snapshot.node_ids[0]))


def score(name: str, snapshot: Snapshot, pairs: np.ndarray) -> np.ndarray:
    return get_metric(name).fit(snapshot).score(pairs)


def oracle(name: str, snapshot: Snapshot, pairs: np.ndarray) -> np.ndarray:
    return oracle_scores(get_metric(name).fit(snapshot), pairs)


@pytest.mark.parametrize("name", NODE_SCOPED_METRICS)
class TestRowOrMatrix:
    def test_row_first_then_matrix(self, snapshot, name):
        pairs = candidate_pairs(snapshot, "all")
        for u in probe_nodes(snapshot):
            mine = candidate_pairs(snapshot, "all", node=u)
            assert same_bits(score(name, snapshot, mine), oracle(name, snapshot, mine))
        assert any(str(key).endswith("@rows") for key in snapshot.cache)
        assert same_bits(score(name, snapshot, pairs), oracle(name, snapshot, pairs))

    def test_matrix_first_then_row(self, snapshot, name):
        pairs = candidate_pairs(snapshot, "all")
        assert same_bits(score(name, snapshot, pairs), oracle(name, snapshot, pairs))
        for u in probe_nodes(snapshot):
            mine = candidate_pairs(snapshot, "all", node=u)
            assert same_bits(score(name, snapshot, mine), oracle(name, snapshot, mine))

    def test_tiny_blocks(self, snapshot, name, monkeypatch):
        """Blocks of 7 pairs: some share a node (row), some do not."""
        monkeypatch.setenv("REPRO_KERNEL_BLOCK_PAIRS", "7")
        pairs = candidate_pairs(snapshot, "all")
        reverse = pairs[::-1].copy()
        for batch in (reverse, pairs):
            assert same_bits(score(name, snapshot, batch), oracle(name, snapshot, batch))

    def test_single_pair(self, snapshot, name):
        pairs = candidate_pairs(snapshot, "all")
        for pair in (pairs[:1], pairs[-1:], pairs[-1:, ::-1].copy()):
            block = CandidateBlock(snapshot, pair)
            got = get_metric(name).fit(snapshot).score_block(block)
            assert same_bits(got, oracle(name, snapshot, pair))


def test_disconnected_pairs_score_minus_inf():
    snapshot = Snapshot(two_components(), 6)
    for u in (1, 12):
        mine = candidate_pairs(snapshot, "all", node=u)
        got = score("SP", snapshot, mine)
        assert np.isneginf(got).any() and np.isfinite(got).any()
        assert same_bits(got, oracle("SP", snapshot, mine))


def test_scipy_sums_csr_products_in_csr_order():
    """Each entry of CSR x dense is ``0 + a_1 x_1 + a_2 x_2 + ...`` over its
    row's entries in CSR order.  So a column equals CSR x vector, CSR x CSR
    (which skips the exact zeros) equals CSR x its dense copy, and a row of
    a row-sliced CSR x dense with its columns renumbered equals that row of
    the whole product, bit for bit: what LRW's one-node reads rely on."""
    snapshot = random_snapshot(60, 0.15, 3)
    a = snapshot.adjacency_matrix()
    rng = np.random.default_rng(0)
    p = sp.csr_matrix((rng.random(a.nnz), a.indices, a.indptr), shape=a.shape)
    dense = rng.random(a.shape)
    full = p @ dense
    for i in (0, 17, 59):
        for j in (0, 31):
            entry = 0.0
            for k in range(p.indptr[i], p.indptr[i + 1]):
                entry += p.data[k] * dense[p.indices[k], j]
            assert same_bits(full[i, j], entry)
    for j in range(0, a.shape[1], 7):
        assert same_bits(full[:, j], p @ dense[:, j])
    ball = np.unique(p[[3, 17, 40]].indices)
    assert same_bits((p[ball] @ p).toarray(), (p @ p.toarray())[ball])
    rows = p[ball]
    inner = np.unique(rows.indices)
    local = sp.csr_matrix(
        (rows.data, np.searchsorted(inner, rows.indices), rows.indptr),
        shape=(len(ball), len(inner)),
    )
    sliced = local @ dense[inner]
    assert same_bits(sliced, full[ball])
    for j in range(0, a.shape[1], 7):
        assert same_bits(sliced[:, j], local @ dense[inner, j])
