"""Temporal graph substrate.

This subpackage provides the data structures the paper's methodology is built
on: a timestamped edge stream (:class:`~repro.graph.dyngraph.TemporalGraph`),
constant-edge-delta snapshot sequencing
(:func:`~repro.graph.snapshots.snapshot_sequence`), structural statistics used
both for the evolution figures (Figs. 2-4) and as meta-classifier features
(Section 4.3), snowball sampling (Section 5.1), and plain-text trace I/O.
"""

from repro.graph.audit import AuditReport, TraceAuditError, audit_delta, audit_graph
from repro.graph.delta import DeltaGraph, DeltaReport
from repro.graph.dyngraph import TemporalGraph
from repro.graph.sampling import snowball_sample
from repro.graph.snapshots import Snapshot, snapshot_sequence
from repro.graph.stats import GraphFeatures, graph_features
from repro.graph.wal import (
    RecoveryError,
    RecoveryResult,
    WalCorruptError,
    WalError,
    WalMismatchError,
    WalRecord,
    WriteAheadLog,
    recover_state,
    scan_wal,
    verify_wal,
    wal_fingerprint,
)

__all__ = [
    "TemporalGraph",
    "Snapshot",
    "snapshot_sequence",
    "snowball_sample",
    "GraphFeatures",
    "graph_features",
    "AuditReport",
    "TraceAuditError",
    "audit_graph",
    "audit_delta",
    "DeltaGraph",
    "DeltaReport",
    "RecoveryError",
    "RecoveryResult",
    "WalCorruptError",
    "WalError",
    "WalMismatchError",
    "WalRecord",
    "WriteAheadLog",
    "recover_state",
    "scan_wal",
    "verify_wal",
    "wal_fingerprint",
]
