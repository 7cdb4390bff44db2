"""Serving-side durability: WAL lifecycle, group commit, checkpoint cadence.

:mod:`repro.graph.wal` knows how to frame, scan, checkpoint, and replay;
this module decides *when* — the policy layer the server and the
:class:`~repro.serve.store.ScoreStore` share:

- **fsync cadence** (the latency/durability trade the operator picks):
  ``always`` fsyncs every accepted batch before the ack (RPO = 0 acked
  events, the default), ``interval`` group-commits — appends are
  acknowledged from the OS buffer and a background tick fsyncs every
  ``fsync_interval_s`` (RPO = one interval of acked batches on power
  loss; a plain process crash loses nothing since the kernel still owns
  the buffered pages), ``never`` leaves syncing to the kernel (bench /
  bulk-load only).
- **checkpoint cadence**: every ``checkpoint_every`` accepted batches the
  manager fsyncs the WAL (a checkpoint must never cover records that
  could still be lost — otherwise recovery would start *ahead* of the
  replayable log) and atomically writes a column-only checkpoint stamped
  with the covered WAL sequence, then prunes to ``checkpoint_keep``.
- **startup** (:meth:`DurabilityManager.attach`): open or create the WAL
  directory.  An existing log is scanned (torn tail truncated, never
  counted as loss — its records were never acknowledged as durable) and
  returned as a :class:`~repro.graph.wal.RecoveryPlan` (from
  :func:`~repro.graph.wal.plan_recovery`, the start point offline
  recovery shares): the newest valid checkpoint's
  columns to serve degraded reads from *immediately*, plus the surviving
  records past it for the server to replay in the background before
  ``/readyz`` flips healthy.

Thread-safety: the server serialises ingest (and therefore
:meth:`record_batch` / :meth:`maybe_checkpoint`) under its asyncio write
lock, but the interval-fsync tick runs on the event loop thread while
appends run on executor threads — an internal mutex makes every manager
entry point atomic.
"""

from __future__ import annotations

import os
import threading
from time import monotonic

import numpy as np

from repro import telemetry
from repro.graph.dyngraph import TemporalGraph
from repro.graph.wal import (
    WAL_FILE,
    RecoveryPlan,
    WriteAheadLog,
    plan_recovery,
    prune_checkpoints,
    wal_fingerprint,
    write_checkpoint,
)

#: accepted fsync cadences.
FSYNC_MODES = ("always", "interval", "never")


class DurabilityManager:
    """Owns one WAL directory on behalf of a serving process."""

    def __init__(
        self,
        directory: str,
        wal: WriteAheadLog,
        *,
        fsync: str = "always",
        fsync_interval_s: float = 0.05,
        checkpoint_every: int = 64,
        checkpoint_keep: int = 3,
    ) -> None:
        if fsync not in FSYNC_MODES:
            raise ValueError(
                f"fsync mode must be one of {FSYNC_MODES}, got {fsync!r}"
            )
        self.directory = directory
        self.wal = wal
        self.fsync = fsync
        self.fsync_interval_s = fsync_interval_s
        self.checkpoint_every = checkpoint_every
        self.checkpoint_keep = checkpoint_keep
        self.last_checkpoint_seq = 0
        self.checkpoints_written = 0
        self._lock = threading.Lock()
        self._last_sync_at = monotonic()
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls,
        directory: "str | os.PathLike[str]",
        base_trace: TemporalGraph,
        policy,
        *,
        fsync: str = "always",
        fsync_interval_s: float = 0.05,
        checkpoint_every: int = 64,
        checkpoint_keep: int = 3,
    ) -> "tuple[DurabilityManager, RecoveryPlan | None]":
        """Open (or create) a WAL directory bound to ``base_trace``+policy.

        Returns the manager plus a :class:`RecoveryPlan` when a WAL
        already existed — ``None`` means a fresh directory with nothing
        to replay.  Raises :class:`~repro.graph.wal.WalMismatchError`
        when the directory belongs to a different trace or policy, and
        :class:`~repro.graph.wal.WalCorruptError` on mid-file damage a
        crash cannot explain (an operator decision, not something to
        silently repair).
        """
        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        wal_path = os.path.join(directory, WAL_FILE)
        plan: "RecoveryPlan | None" = None
        if os.path.exists(wal_path):
            wal, plan = plan_recovery(
                directory, base_trace, policy, WriteAheadLog.open
            )
            checkpoint_seq = plan.checkpoint_seq
        else:
            wal = WriteAheadLog.create(
                wal_path,
                wal_fingerprint(base_trace, policy),
                meta={"base_edges": int(base_trace.num_edges)},
            )
            checkpoint_seq = 0
        manager = cls(
            directory,
            wal,
            fsync=fsync,
            fsync_interval_s=fsync_interval_s,
            checkpoint_every=checkpoint_every,
            checkpoint_keep=checkpoint_keep,
        )
        manager.last_checkpoint_seq = checkpoint_seq
        return manager, plan

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def record_batch(self, events: "list[tuple[int, int, float]]") -> "int | None":
        """Durably log one accepted batch; returns its WAL sequence.

        Empty batches (everything screened away) are not logged — replay
        of a no-op record would waste recovery time for nothing.  Under
        the ``always`` cadence the record is fsynced before this returns,
        so the caller's ack implies durability; under ``interval`` /
        ``never`` the record is in the OS buffer and the durability lag
        gauge ticks up until the next sync.
        """
        if not events:
            return None
        count = len(events)
        u = np.fromiter((e[0] for e in events), dtype=np.int64, count=count)
        v = np.fromiter((e[1] for e in events), dtype=np.int64, count=count)
        t = np.fromiter((e[2] for e in events), dtype=np.float64, count=count)
        with self._lock:
            seq = self.wal.append(u, v, t)
            if self.fsync == "always":
                self.wal.sync()
                self._last_sync_at = monotonic()
            self._observe_lag()
        return seq

    def tick(self) -> bool:
        """Group-commit heartbeat: fsync when the interval has elapsed.

        Called periodically by the server's background loop; a no-op
        unless the cadence is ``interval`` and unsynced records exist.
        Returns True when it synced.
        """
        if self.fsync != "interval":
            return False
        with self._lock:
            if self.wal.pending_records == 0:
                return False
            if monotonic() - self._last_sync_at < self.fsync_interval_s:
                return False
            self.wal.sync()
            self._last_sync_at = monotonic()
            self._observe_lag()
        return True

    def maybe_checkpoint(self, trace: TemporalGraph, force: bool = False) -> "int | None":
        """Checkpoint ``trace`` if the cadence (or ``force``) says so.

        ``trace`` must be the engine's stream at exactly the manager's
        current WAL sequence — the server guarantees this by calling
        under the same lock that serialises ingest.  The WAL is synced
        *first* (invariant: a checkpoint's sequence stamp never exceeds
        the durable log), then the checkpoint is written atomically and
        old ones pruned to ``checkpoint_keep``.
        """
        with self._lock:
            seq = self.wal.seq
            due = (
                self.checkpoint_every > 0
                and seq - self.last_checkpoint_seq >= self.checkpoint_every
            )
            if not (due or (force and seq > self.last_checkpoint_seq)):
                return None
            self.wal.sync()
            self._last_sync_at = monotonic()
            write_checkpoint(self.directory, seq, trace, self.wal.header["fingerprint"])
            self.last_checkpoint_seq = seq
            self.checkpoints_written += 1
            prune_checkpoints(self.directory, self.checkpoint_keep)
            self._observe_lag()
        return seq

    def sync(self) -> None:
        with self._lock:
            self.wal.sync()
            self._last_sync_at = monotonic()
            self._observe_lag()

    def close(self, trace: "TemporalGraph | None" = None) -> None:
        """Final sync (and checkpoint, when a trace is given) + close.

        The drain path passes the engine's trace so a cleanly stopped
        server restarts from a checkpoint instead of replaying its whole
        WAL — RTO for planned restarts collapses to checkpoint load time.
        """
        if self._closed:
            return
        if trace is not None:
            self.maybe_checkpoint(trace, force=True)
        with self._lock:
            self.wal.close()
            self._closed = True

    # ------------------------------------------------------------------
    def _observe_lag(self) -> None:
        if telemetry.metrics.enabled:
            telemetry.metrics.gauge("wal.durability_lag_records").set(
                self.wal.pending_records
            )

    def describe(self) -> dict:
        """JSON-safe durability state for /statz."""
        return {
            "dir": self.directory,
            "fsync": self.fsync,
            "fsync_interval_s": self.fsync_interval_s,
            "wal_seq": self.wal.seq,
            "synced_seq": self.wal.synced_seq,
            "pending_records": self.wal.pending_records,
            "wal_bytes": self.wal.offset,
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_keep": self.checkpoint_keep,
            "last_checkpoint_seq": self.last_checkpoint_seq,
            "checkpoints_written": self.checkpoints_written,
        }
