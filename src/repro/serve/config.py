"""Serving-layer configuration with fail-fast validation.

Every overload-policy knob of the server lives in one frozen dataclass so
the CLI, tests, and the load bench configure identical machinery.  The
defaults are deliberately conservative: a small bounded queue, a
one-second deadline, and a worker pool sized off ``REPRO_JOBS`` (the same
environment variable the batch runner's process pool honours) — a server
that starts with no flags at all still sheds instead of buffering
unboundedly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from repro.utils.jobs import JOBS_ENV_VAR, resolve_jobs


def default_workers() -> int:
    """Worker pool size: ``REPRO_JOBS`` if set (read by
    :func:`~repro.utils.jobs.resolve_jobs`, so 0 means one per CPU),
    else min(4, cpu count)."""
    if os.environ.get(JOBS_ENV_VAR):
        return resolve_jobs()
    return max(1, min(4, os.cpu_count() or 1))


@dataclass(frozen=True)
class ServeConfig:
    """All serving knobs; validated eagerly on construction."""

    #: bind address / port (0 = ephemeral, the bound port is reported).
    host: str = "127.0.0.1"
    port: int = 8080
    #: admission-queue bound; a full queue rejects the *newest* request
    #: with 429 + Retry-After rather than buffering it.
    queue_size: int = 64
    #: scoring worker pool size (None = resolve via :func:`default_workers`).
    workers: "int | None" = None
    #: default per-request deadline budget (queue wait + execution).
    deadline_s: float = 1.0
    #: largest deadline a client may request via ``?deadline_ms=``.
    max_deadline_s: float = 30.0
    #: drain budget after SIGTERM: in-flight requests get this long.
    drain_s: float = 5.0
    #: Retry-After hint attached to 429 shed responses.
    retry_after_s: float = 1.0
    #: consecutive write failures that trip the circuit breaker.
    breaker_threshold: int = 5
    #: seconds the tripped breaker stays open before a half-open probe.
    breaker_cooldown_s: float = 30.0
    #: audit the delta engine after every Nth accepted batch (0 = never).
    audit_every: int = 0
    #: ingest policy name applied to POST /ingest bodies.
    policy: str = "default"
    #: largest k a /predict request may ask for.
    max_k: int = 1000
    #: largest accepted request body (bytes).
    max_body_bytes: int = 1 << 20
    #: idle keep-alive timeout per connection.
    keepalive_s: float = 30.0
    #: periodic telemetry span flush interval (0 disables the flusher).
    telemetry_flush_s: float = 1.0
    #: WAL directory (None = in-memory only, no durability).
    wal_dir: "str | None" = None
    #: WAL fsync cadence: "always" (fsync before every ack), "interval"
    #: (group commit every ``fsync_interval_s``), "never" (kernel only).
    fsync: str = "always"
    #: group-commit interval for ``fsync="interval"``.
    fsync_interval_s: float = 0.05
    #: checkpoint after every Nth WAL-logged batch (0 = only on drain).
    checkpoint_every: int = 64
    #: checkpoints retained on disk (older ones pruned).
    checkpoint_keep: int = 3
    #: resolved at construction; access via ``resolved_workers``.
    _workers_resolved: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        positive_ints = {
            "queue_size": self.queue_size,
            "breaker_threshold": self.breaker_threshold,
            "max_k": self.max_k,
            "max_body_bytes": self.max_body_bytes,
        }
        for name, value in positive_ints.items():
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        positive_floats = {
            "deadline_s": self.deadline_s,
            "max_deadline_s": self.max_deadline_s,
            "drain_s": self.drain_s,
            "retry_after_s": self.retry_after_s,
            "breaker_cooldown_s": self.breaker_cooldown_s,
            "keepalive_s": self.keepalive_s,
        }
        for name, value in positive_floats.items():
            if not float(value) > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if not isinstance(self.port, int) or not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port!r}")
        if self.workers is not None and (
            not isinstance(self.workers, int) or self.workers < 1
        ):
            raise ValueError(
                f"workers must be a positive integer, got {self.workers!r}"
            )
        if self.audit_every < 0:
            raise ValueError(
                f"audit_every must be >= 0, got {self.audit_every!r}"
            )
        if self.telemetry_flush_s < 0:
            raise ValueError(
                f"telemetry_flush_s must be >= 0, got {self.telemetry_flush_s!r}"
            )
        if self.fsync not in ("always", "interval", "never"):
            raise ValueError(
                f"fsync must be 'always', 'interval', or 'never', got "
                f"{self.fsync!r}"
            )
        if not float(self.fsync_interval_s) > 0:
            raise ValueError(
                f"fsync_interval_s must be positive, got {self.fsync_interval_s!r}"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every!r}"
            )
        if not isinstance(self.checkpoint_keep, int) or self.checkpoint_keep < 1:
            raise ValueError(
                f"checkpoint_keep must be a positive integer, got "
                f"{self.checkpoint_keep!r}"
            )
        if self.deadline_s > self.max_deadline_s:
            raise ValueError(
                f"deadline_s ({self.deadline_s}) exceeds max_deadline_s "
                f"({self.max_deadline_s})"
            )
        object.__setattr__(
            self,
            "_workers_resolved",
            self.workers if self.workers is not None else default_workers(),
        )

    @property
    def resolved_workers(self) -> int:
        return self._workers_resolved

    def describe(self) -> dict:
        """JSON-safe dump of the effective configuration (for /statz)."""
        out = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.init and f.name != "workers"
        }
        out["workers"] = self.resolved_workers
        return out
