"""Retry policy primitives for fault-tolerant cell execution.

A long experiment sweep dies for mundane reasons: an OOM-killed worker,
a hung factorization, a transient exception.  This module defines the
*policy* side of recovery — how many attempts a cell gets, how long an
attempt may run, how long to wait between attempts — plus the records
(:class:`CellFailure`) that make every failed attempt auditable in
``RunTiming`` and the summary table.

Everything here is deterministic on purpose.  Backoff jitter derives
from a seeded hash of ``(cell, attempt)``, not from wall clock or a
global RNG, so a retried run sleeps the same schedule every time and
fault-injection tests (:mod:`repro.eval.faults`) can assert exact
recovery behaviour.  The scientific outputs never depend on any of it:
a retried cell re-executes :func:`repro.eval.runner.execute_cell`, which
is a pure function of the spec, so recovery reduces to byte-identical
canonical JSON (the resume-parity suite enforces this).

Timeouts come in two layers:

- a **soft deadline** (:func:`soft_deadline`), enforced *inside* the
  executing process via ``SIGALRM`` — it interrupts pure-Python work and
  surfaces as an ordinary :class:`CellTimeoutError` that the retry loop
  handles without tearing anything down;
- a **hard deadline** (``RetryPolicy.hard_timeout_seconds``), enforced
  by the pool supervisor (:mod:`repro.utils.pool`) — it covers code the
  signal cannot interrupt (a wedged C call) by terminating the worker
  pool and resubmitting the unfinished cells.
"""

from __future__ import annotations

import hashlib
import signal
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass


def cell_key(cell: "tuple[str, int, int]") -> str:
    """Stable string name of a work cell: ``"metric:step:seed"``."""
    metric, step, seed = cell
    return f"{metric}:{step}:{seed}"


def _unit_hash(*parts: "object") -> float:
    """Deterministic uniform-[0, 1) value from a tuple of parts.

    Uses sha256 rather than ``hash()`` so the value is stable across
    processes and ``PYTHONHASHSEED`` values.
    """
    blob = ":".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class CellTimeoutError(Exception):
    """One cell attempt exceeded its soft deadline."""


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to fight for each work cell before giving up.

    ``timeout_seconds=None`` (the default) disables both deadline
    layers; sweeps with known-slow metrics should budget generously —
    the first cell a fresh worker runs also pays the plan rebuild and
    cache pre-warm.
    """

    #: total attempts per cell (1 = no retries).
    max_attempts: int = 3
    #: soft per-attempt deadline; ``None`` disables timeouts entirely.
    timeout_seconds: "float | None" = None
    #: first backoff sleep, seconds; doubles (``backoff_factor``) per attempt.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    #: jitter fraction added on top of the exponential base (0 = none).
    jitter: float = 0.1
    #: seed of the deterministic jitter hash.
    jitter_seed: int = 0
    #: pool rebuilds tolerated before degrading to serial execution.
    max_pool_rebuilds: int = 3
    #: slack added to the driver-side hard deadline (see below).
    hard_timeout_grace: float = 5.0

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")

    def backoff_seconds(self, task: "tuple | int", attempt: int) -> float:
        """Sleep before retry number ``attempt`` (attempts count from 0).

        Exponential in the attempt number, capped at ``backoff_max``,
        plus deterministic jitter hashed from ``(jitter_seed, task,
        attempt)`` — identical across runs, different across tasks, so
        retry storms de-synchronise without losing reproducibility.
        ``task`` is a work cell or any other task key (a shard index);
        a tuple hashes as its ``:``-joined parts, i.e. a cell as its
        :func:`cell_key`.
        """
        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        parts = task if isinstance(task, tuple) else (task,)
        u = _unit_hash(self.jitter_seed, *parts, attempt)
        return base * (1.0 + self.jitter * u)

    def hard_timeout_seconds(self) -> "float | None":
        """Driver-side deadline for one in-flight cell, or ``None``.

        Twice the soft deadline plus grace: the soft layer gets a full
        chance to fire first, so the hard layer only triggers for work
        the in-process signal could not interrupt.
        """
        if self.timeout_seconds is None:
            return None
        return 2.0 * self.timeout_seconds + self.hard_timeout_grace

    def span_attrs(self) -> dict:
        """The policy fields worth recording on an execution-phase span."""
        attrs: dict = {"max_attempts": self.max_attempts}
        if self.timeout_seconds is not None:
            attrs["timeout_seconds"] = self.timeout_seconds
        return attrs


@dataclass(frozen=True)
class CellFailure:
    """One failed attempt of one work cell — the audit record.

    ``kind`` distinguishes the three ways a cell dies: ``"exception"``
    (the attempt raised), ``"timeout"`` (soft or hard deadline), and
    ``"crash"`` (the worker process vanished mid-cell and the pool had
    to be rebuilt).  Failures are execution metadata: they ride on
    ``RunTiming`` and the summary table, never on canonical JSON.
    """

    metric: str
    step: int
    seed: int
    kind: str
    attempt: int
    message: str = ""

    def to_payload(self) -> dict:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "CellFailure":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})


def failure_span_attrs(failures: "list[CellFailure]") -> dict:
    """Span attributes summarising a cell's failed attempts.

    The per-cell trace span carries its retry history this way:
    ``failed_attempts=2 failure_kinds=crash:1,timeout:1`` reads directly
    off ``repro trace show`` without cross-referencing RunTiming.
    """
    if not failures:
        return {}
    kinds: dict[str, int] = {}
    for failure in failures:
        kinds[failure.kind] = kinds.get(failure.kind, 0) + 1
    return {
        "failed_attempts": len(failures),
        "failure_kinds": ",".join(f"{k}:{v}" for k, v in sorted(kinds.items())),
    }


class CellExecutionError(RuntimeError):
    """A cell exhausted its retry budget; the run cannot complete.

    Carries the per-attempt :class:`CellFailure` records so the caller
    (and the CLI's one-line error path) can say *why* — and, when a
    journal is attached, every cell finished before the fatal one is
    already on disk for resumption.
    """

    def __init__(self, cell: "tuple[str, int, int]", failures: "list[CellFailure]"):
        self.cell = cell
        self.failures = list(failures)
        kinds = ", ".join(f.kind for f in self.failures) or "unknown"
        last = self.failures[-1].message if self.failures else ""
        detail = f": {last}" if last else ""
        super().__init__(
            f"cell {cell_key(cell)} failed after {len(self.failures)} "
            f"attempt(s) ({kinds}){detail}"
        )


def _alarm_usable() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def soft_deadline(seconds: "float | None"):
    """Raise :class:`CellTimeoutError` if the body outlives ``seconds``.

    Implemented with ``setitimer``/``SIGALRM``, which interrupts Python
    bytecode (and interruptible sleeps) but not a blocked C extension
    call — that gap is what the driver-side hard deadline covers.  A
    no-op when ``seconds`` is None, on platforms without ``SIGALRM``,
    or off the main thread (where signals cannot be delivered).
    """
    if not seconds or not _alarm_usable():
        yield
        return

    def _on_alarm(signum, frame):  # noqa: ARG001 - signal handler signature
        raise CellTimeoutError(f"cell attempt exceeded {seconds:.3f}s soft deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
