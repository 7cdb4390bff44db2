"""repro.serve — overload-safe online serving of link-prediction scores.

The serving counterpart of the batch pipeline: a stdlib-only asyncio
HTTP service that answers top-k neighbour predictions from a
DeltaGraph-backed score store and accepts edge batches through the same
ingest taxonomy and delta engine the offline path uses — so a served
score is byte-identical to what ``run_experiment`` computes on the same
prefix.

Layout (each robustness mechanism is its own importable, testable unit):

====================  ==================================================
:mod:`~.config`       ``ServeConfig`` — validated knobs, REPRO_JOBS pool
                      sizing
:mod:`~.admission`    bounded queue, reject-newest 429 policy, deadline
                      bookkeeping
:mod:`~.breaker`      write-path circuit breaker (closed/open/half-open)
:mod:`~.store`        ``ScoreStore`` — last-good snapshot reads, policied
                      delta writes, fault hooks
:mod:`~.durability`   ``DurabilityManager`` — WAL group commit, checkpoint
                      cadence, startup recovery plans
:mod:`~.protocol`     minimal HTTP/1.1 framing over asyncio streams
:mod:`~.app`          ``LinkPredictionServer`` — routing, workers, drain
:mod:`~.client`       async + sync HTTP clients (tests, bench, smoke)
:mod:`~.harness`      in-process server on a background loop (tests,
                      bench)
====================  ==================================================

Entry point: ``python -m repro serve --trace edges.txt --port 8080``.
"""

from repro.graph.wal import RecoveryPlan
from repro.serve.admission import AdmissionQueue, DeadlineExceeded, Job
from repro.serve.app import DEGRADED_HEADER, LinkPredictionServer
from repro.serve.breaker import BreakerOpen, CircuitBreaker
from repro.serve.client import ClientResponse, request, sync_request
from repro.serve.config import ServeConfig, default_workers
from repro.serve.durability import DurabilityManager
from repro.serve.harness import ServerHarness
from repro.serve.store import (
    INGEST_FAULT_KEY,
    PREDICT_FAULT_KEY,
    IngestRejected,
    ScoreStore,
    StoreWriteError,
    UnknownNodeError,
)

__all__ = [
    "AdmissionQueue",
    "BreakerOpen",
    "CircuitBreaker",
    "ClientResponse",
    "DEGRADED_HEADER",
    "DeadlineExceeded",
    "DurabilityManager",
    "RecoveryPlan",
    "INGEST_FAULT_KEY",
    "IngestRejected",
    "Job",
    "LinkPredictionServer",
    "PREDICT_FAULT_KEY",
    "ScoreStore",
    "ServeConfig",
    "ServerHarness",
    "StoreWriteError",
    "UnknownNodeError",
    "default_workers",
    "request",
    "sync_request",
]
