"""Shard worker: parse one chunk exactly as the serial reader would.

A worker runs the *chunk-local* half of the serial pipeline on one
:class:`~repro.ingest.shard.planner.ShardSpec` — the same
``_consume_lines`` blocking/parse code and the same row-local taxonomy
checks (:func:`repro.ingest.loader._validate_local`), with
``defer_strict`` on so a strict-class offender becomes a *marker* shipped
back to the driver instead of an exception raised by whichever worker
happened to finish first.  The stream-global checks (out_of_order,
duplicate_edge) are deliberately absent here: they depend on every
preceding event, so the merge stage runs them once over the concatenated
columns (:mod:`repro.ingest.shard.merge`).

Chunk decoding mirrors the serial reader bit for bit: bytes decode with
``errors="replace"`` (``utf-8-sig`` only for a chunk at byte 0 — a BOM is
only a BOM at file start) and lines split under universal-newline rules
via ``io.StringIO(text, newline=None)``, which treats exactly ``\\n``,
``\\r`` and ``\\r\\n`` as terminators — the same set the text-mode file
iterator uses (``str.splitlines`` would split on more, e.g. ``\\x85``).

:func:`run_shards` runs the shards on the process-pool supervisor
(:mod:`repro.utils.pool`), which owns retries, pool rebuilds and the
in-process degradation; see that module for the rules.  This module
supplies the shard task (:func:`parse_shard`), the worker initializer,
the per-shard trace span and :class:`ShardIngestError`, so a sharded
ingest completes (or raises the *ingest* error, not a pool error) even
if every worker process dies.
"""

from __future__ import annotations

import io
import time

from repro import telemetry
from repro.eval.retry import RetryPolicy
from repro.ingest.loader import (
    _ColumnAccumulator,
    _consume_lines,
    _DeferredStrict,
    _Ingest,
    _validate_local,
    open_trace_text,
)
from repro.ingest.policy import IngestPolicy
from repro.ingest.report import IngestReport
from repro.ingest.shard.planner import ShardSpec
from repro.utils.pool import Supervisor

#: attempts per shard before the driver gives up and re-raises.
MAX_ATTEMPTS = 3

#: pool rebuilds tolerated before degrading to in-process parsing.
MAX_POOL_REBUILDS = 2


class ShardIngestError(RuntimeError):
    """A shard failed all its parse attempts; carries the last cause."""

    def __init__(self, spec: ShardSpec, attempts: int, cause: BaseException):
        super().__init__(
            f"shard {spec.index} ({spec.path} bytes "
            f"[{spec.byte_start}, {spec.byte_end})) failed after "
            f"{attempts} attempts: {cause!r}"
        )
        self.spec = spec
        self.attempts = attempts
        self.cause = cause


def _open_chunk(spec: ShardSpec):
    """Text handle over the chunk, decoded as the serial reader would."""
    if spec.gzip:
        # Gzip shards span the whole file; reuse the serial opener.
        return open_trace_text(spec.path)
    with open(spec.path, "rb") as fh:
        fh.seek(spec.byte_start)
        data = fh.read(spec.byte_end - spec.byte_start)
    codec = "utf-8-sig" if spec.byte_start == 0 else "utf-8"
    return io.StringIO(data.decode(codec, errors="replace"), newline=None)


def _chunk_raw_lines(spec: ShardSpec, wanted: "set[int]") -> "dict[int, str]":
    """Raw text of the wanted (global) line numbers, from this chunk only.

    The shard analogue of ``loader._fetch_lines`` — but it re-reads just
    the worker's own chunk, so quarantine raw-line capture stays parallel
    instead of serialising on a whole-file pass at merge time.
    """
    found: dict[int, str] = {}
    with _open_chunk(spec) as fh:
        for lineno, line in enumerate(fh, start=spec.start_line):
            if lineno in wanted:
                found[lineno] = line.rstrip("\r\n")
                if len(found) == len(wanted):
                    break
    return found


def parse_shard(spec_payload: dict, policy_payload: "dict[str, str]") -> dict:
    """Worker task: chunk -> partial columns + partial report (picklable).

    Never raises for *data* problems — strict offenders come back as the
    ``pending`` (parse-stage) / ``deferred`` (vector-stage) markers so the
    merge stage can pick the globally first one.  Exceptions escaping this
    function are environmental (I/O, OOM) and retried by the supervisor.
    """
    started = time.perf_counter()
    spec = ShardSpec.from_payload(spec_payload)
    policy = IngestPolicy(**policy_payload)
    report = IngestReport(path=spec.path)
    ingest = _Ingest(spec.path, policy, report, defer_strict=True)
    out = _ColumnAccumulator()
    with _open_chunk(spec) as fh:
        _consume_lines(fh, ingest, out, first_lineno=spec.start_line)
    ln, u, v, t = out.concatenate()
    deferred = None
    try:
        ln, u, v, t = _validate_local(ln, u, v, t, ingest)
    except _DeferredStrict as exc:
        deferred = (exc.error_class, exc.lineno, exc.detail)
    raw: dict[int, str] = {}
    if ingest.quarantined:
        raw = _chunk_raw_lines(spec, set(ingest.quarantined))
    return {
        "index": spec.index,
        "ln": ln, "u": u, "v": v, "t": t,
        "lines_total": report.lines_total,
        "blank_lines": report.blank_lines,
        "comment_lines": report.comment_lines,
        "events_parsed": report.events_parsed,
        "format_version": report.format_version,
        "flagged": dict(report.flagged),
        "repaired": dict(report.repaired),
        "quarantined_counts": dict(report.quarantined),
        "quarantined": dict(ingest.quarantined),
        "raw": raw,
        "pending": ingest.pending,
        "deferred": deferred,
        "seconds": time.perf_counter() - started,
        "cached": False,
    }


def _init_shard_worker() -> None:
    """Worker initializer: a forked child must never inherit the driver's
    recording tracer (same rule as ``repro.eval.parallel``)."""
    telemetry.reset()


class _ShardSupervisor(Supervisor):
    """Shard hooks of the supervisor: tasks are indices into ``specs``."""

    def __init__(self, specs, policy, jobs, max_attempts, max_pool_rebuilds):
        super().__init__(
            RetryPolicy(
                max_attempts=max_attempts,
                max_pool_rebuilds=max_pool_rebuilds,
                backoff_base=0.0,
            ),
            jobs,
            initializer=_init_shard_worker,
        )
        self.specs = specs
        self.payloads = [spec.to_payload() for spec in specs]
        self.policy_payload = policy.describe()
        self.results: "list[dict | None]" = [None] * len(specs)

    def submit(self, pool, i: int, attempt: int):
        return pool.submit(parse_shard, self.payloads[i], self.policy_payload)

    def run_inline(self, i: int, attempt: int) -> dict:
        return parse_shard(self.payloads[i], self.policy_payload)

    def completed(self, i: int, result: dict, started: "float | None") -> None:
        if started is not None:
            _record_worker_span(self.specs[i], result, started)
        self.results[i] = result

    def exhausted(
        self, i: int, attempts: int, exc: BaseException
    ) -> ShardIngestError:
        return ShardIngestError(self.specs[i], attempts, exc)


def run_shards(
    specs: "list[ShardSpec]",
    policy: IngestPolicy,
    jobs: int,
    max_attempts: int = MAX_ATTEMPTS,
    max_pool_rebuilds: int = MAX_POOL_REBUILDS,
) -> "tuple[list[dict], dict]":
    """Parse every shard, fault-tolerantly; results in spec order.

    Returns ``(results, stats)`` where ``stats`` counts ``retries``,
    ``pool_rebuilds`` and whether the run ``degraded`` to in-process
    parsing.  Shard results are deterministic functions of (bytes,
    policy), so no recovery path can change the merged output.
    """
    supervisor = _ShardSupervisor(
        specs, policy, jobs, max_attempts, max_pool_rebuilds
    )
    supervisor.run(range(len(specs)))
    stats = {
        "retries": supervisor.retries,
        "pool_rebuilds": supervisor.pool_rebuilds,
        "degraded": supervisor.degraded,
    }
    return supervisor.results, stats


def _record_worker_span(spec: ShardSpec, result: dict, started: float) -> None:
    """Retroactive per-shard span in the driver trace (workers record
    nothing themselves — their tracers are reset at fork)."""
    tracer = telemetry.tracer
    if not tracer.enabled:
        return
    end = time.monotonic()
    tracer.record(
        "ingest.shard.worker",
        started,
        end,
        {
            "shard": spec.index,
            "path": spec.path,
            "byte_start": spec.byte_start,
            "byte_end": spec.byte_end,
            "events": int(result["events_parsed"]),
            "worker_seconds": float(result["seconds"]),
        },
    )


__all__ = [
    "MAX_ATTEMPTS",
    "MAX_POOL_REBUILDS",
    "ShardIngestError",
    "parse_shard",
    "run_shards",
]
