"""Per-pair temporal activity features (Section 6.1).

For a candidate pair ``(u, v)`` observed at snapshot time ``t``:

- the *active* node is the endpoint with the smaller idle time, the
  *inactive* node the other one;
- ``recent_edges`` counts edges the active node created in the last ``d``
  days;
- the *CN time gap* is ``t`` minus the most recent time the pair gained a
  common neighbour (the arrival time of common neighbour ``w`` is
  ``max(t_{uw}, t_{vw})``); pairs with no common neighbour get ``inf``.

The node-level kernels run directly on the trace's event columns: one
``searchsorted`` bounds the events at or before the snapshot time, then a
``maximum.at`` / ``bincount`` scatter produces every node's last-activity
time or windowed edge count in a single vectorised pass — no per-node
Python bisect loops.

The CN time gap reads the common-neighbour expansion of
:mod:`repro.metrics.kernels` (:func:`~repro.metrics.kernels.expansion_of`),
the one walk-and-probe over CSR rows every common-neighbour quantity
shares: for each common neighbour ``w`` of a pair it yields the CSR
positions of both edges ``(u, w)`` and ``(v, w)``, so ``t_{uw}`` and
``t_{vw}`` are two gathers from a creation-time column aligned with the
CSR.  A ``maximum.at`` scatter then takes each pair's latest arrival;
``max`` of float64 is exact, so the gaps equal a per-pair Python loop's
bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.graph.snapshots import Snapshot
from repro.metrics.base import cached
from repro.metrics.kernels import csr_edge_column, expansion_of


@dataclass
class PairActivity:
    """Vectorised activity features for a batch of candidate pairs."""

    active_idle: np.ndarray     # idle time of the fresher endpoint (days)
    inactive_idle: np.ndarray   # idle time of the staler endpoint (days)
    recent_edges: np.ndarray    # active endpoint's edges in the window
    cn_gap: np.ndarray          # days since last common-neighbour arrival

    def __len__(self) -> int:
        return len(self.active_idle)


def _global_positions(snapshot: Snapshot) -> np.ndarray:
    """Snapshot node positions in the trace-wide dense id space."""
    index = snapshot.trace.stream_index()
    return np.searchsorted(index.node_ids, snapshot.node_ids)


def node_idle_times(snapshot: Snapshot) -> np.ndarray:
    """Idle time of every node (aligned with ``node_list``).

    Memoised on the snapshot cache, so repeat calls within one snapshot
    reuse the first pass.
    """
    cached = snapshot.cache.get("node_idle_times")
    if cached is not None:
        return cached
    trace = snapshot.trace
    _, _, times = trace.columns()
    index = trace.stream_index()
    now = snapshot.time
    upto = int(np.searchsorted(times, now, side="right"))
    last = np.full(len(index.node_ids), -np.inf)
    np.maximum.at(last, index.eu[:upto], times[:upto])
    np.maximum.at(last, index.ev[:upto], times[:upto])
    # A snapshot node always has an edge at or before the snapshot time
    # (its first event is inside the cutoff), so every entry is finite.
    idle = now - last[_global_positions(snapshot)]
    snapshot.cache["node_idle_times"] = idle
    return idle


def node_recent_edges(snapshot: Snapshot, window: float) -> np.ndarray:
    """Recent edge count of every node (aligned with ``node_list``)."""
    trace = snapshot.trace
    _, _, times = trace.columns()
    index = trace.stream_index()
    now = snapshot.time
    hi = int(np.searchsorted(times, now, side="right"))
    lo = int(np.searchsorted(times, now - window, side="right"))
    counts = np.bincount(
        np.concatenate((index.eu[lo:hi], index.ev[lo:hi])),
        minlength=len(index.node_ids),
    )
    return counts[_global_positions(snapshot)].astype(np.float64)


def csr_edge_times(snapshot: Snapshot) -> np.ndarray:
    """Creation time of every CSR adjacency entry (aligned with ``indices``).

    Built once per snapshot from its own edge columns — not inside the CSR
    build, which the delta engine installs directly — by
    :func:`~repro.metrics.kernels.csr_edge_column`.
    """
    return cached(
        snapshot,
        "csr_edge_times",
        lambda: csr_edge_column(snapshot, snapshot.edge_times()),
    )


def cn_time_gaps(snapshot: Snapshot, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Days since each position pair last gained a common neighbour.

    ``inf`` for pairs with no common neighbour.  One expansion pass: the
    arrival time of common neighbour ``w`` is ``max(t_{uw}, t_{vw})`` and
    a pair's latest arrival is the ``maximum.at`` of those over its ``w``.
    """
    times = csr_edge_times(snapshot)
    pair_ids, _, walked, probed = expansion_of(snapshot, rows, cols)
    latest = np.full(len(rows), -np.inf)
    np.maximum.at(latest, pair_ids, np.maximum(times[walked], times[probed]))
    gaps = np.full(len(rows), np.inf)
    has_cn = latest != -np.inf
    gaps[has_cn] = snapshot.time - latest[has_cn]
    return gaps


def pair_activity(
    snapshot: Snapshot,
    pairs: np.ndarray,
    window: float,
    cn_gap_mask: "np.ndarray | Callable[[PairActivity], np.ndarray] | None" = None,
) -> PairActivity:
    """Compute activity features for candidate ``pairs`` at a snapshot.

    ``cn_gap_mask`` restricts the common-neighbour gap — the one feature
    that expands neighbourhoods — to some pairs; the others keep ``inf``.
    It is a boolean mask over ``pairs``, or a function of the node-level
    features (``cn_gap`` still all ``inf``) returning one: the temporal
    filter passes its node-level criteria, so gaps are computed only for
    their survivors.  ``None`` computes every pair's gap.
    """
    idle = node_idle_times(snapshot)
    recent = node_recent_edges(snapshot, window)
    pairs = np.asarray(pairs, dtype=np.int64)
    rows = snapshot.positions_of(pairs[:, 0])
    cols = snapshot.positions_of(pairs[:, 1])
    idle_u, idle_v = idle[rows], idle[cols]
    # The "active" endpoint is the one with smaller idle time.
    u_active = idle_u <= idle_v
    activity = PairActivity(
        active_idle=np.minimum(idle_u, idle_v),
        inactive_idle=np.maximum(idle_u, idle_v),
        recent_edges=np.where(u_active, recent[rows], recent[cols]),
        cn_gap=np.full(len(pairs), np.inf),
    )
    if callable(cn_gap_mask):
        cn_gap_mask = cn_gap_mask(activity)
    selected = slice(None) if cn_gap_mask is None else np.flatnonzero(cn_gap_mask)
    activity.cn_gap[selected] = cn_time_gaps(snapshot, rows[selected], cols[selected])
    return activity
