"""``repro.ingest.shard`` — parallel sharded trace ingest.

Splits one large trace (or a multi-file shard set) into line-aligned
chunks, parses them in a bounded process pool, and merges the partial
results into output *byte-identical* to the serial
:func:`repro.ingest.load_trace` path: same columns, same
``stream_checksum``, same error-taxonomy counts, same rejects sidecar
bytes, and — under a strict policy — the same first offender.

Pipeline::

    plan_shards            parse_shard (xN workers)        merge_shards
    ───────────────►  ───────────────────────────────►  ───────────────►
    line-aligned       _consume_lines + _validate_local   concat in stream
    byte ranges,       per chunk (defer_strict markers    order, re-run
    per-chunk          instead of raises), per-shard      stream-global
    checksums +        quarantine capture                 checks 5-6, fold
    line counts                                           reports/sidecars

Entry points: :func:`scan_shards` (columns + report — what
``scan_trace(jobs=N)`` delegates to), :func:`load_shards` (a
``TemporalGraph``), and the manifest/planner utilities re-exported from
:mod:`~.planner`.  A ``repro-shards v1`` manifest plus its ``.cache``
directory lets a re-ingest skip the *parse* of any shard whose bytes
still hash to the planned checksum (planning always re-scans the bytes —
that is the cheap part — so a stale cache entry can never be served).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np

from repro import telemetry
from repro.graph.dyngraph import TemporalGraph
from repro.ingest.loader import _record_ingest_metrics
from repro.ingest.policy import IngestPolicy
from repro.ingest.report import IngestReport
from repro.ingest.shard.merge import merge_shards
from repro.ingest.shard.planner import (
    DEFAULT_SHARD_BYTES,
    MANIFEST_FORMAT,
    MIN_SHARD_BYTES,
    ShardSpec,
    manifest_sources,
    plan_shards,
    read_manifest,
    read_manifest_rejects,
    resolve_shard_bytes,
    verify_shard,
    write_manifest,
)
from repro.ingest.shard.worker import (
    MAX_ATTEMPTS,
    MAX_POOL_REBUILDS,
    ShardIngestError,
    parse_shard,
    run_shards,
)
from repro.utils.jobs import JOBS_ENV_VAR, resolve_jobs


def _policy_hash(policy: IngestPolicy) -> str:
    blob = json.dumps(policy.describe(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _cache_dir(manifest: "str | os.PathLike[str]") -> str:
    return f"{manifest}.cache"


def _cache_path(
    manifest: "str | os.PathLike[str]", spec: ShardSpec, policy_hash: str
) -> str:
    # Content-addressed: same chunk bytes + same start line + same policy
    # parse to the same partial result, whatever index the shard now has.
    name = f"{spec.checksum}-{spec.start_line}-{policy_hash}.npz"
    return os.path.join(_cache_dir(manifest), name)


#: result-dict fields that ride in the cache's JSON blob (arrays go in
#: the npz proper; int-keyed dicts survive a JSON round trip via items).
_CACHE_META_FIELDS = (
    "lines_total", "blank_lines", "comment_lines", "events_parsed",
    "format_version", "flagged", "repaired", "quarantined_counts",
)


def _store_cached_result(path: str, result: dict) -> None:
    meta = {field: result[field] for field in _CACHE_META_FIELDS}
    meta["quarantined"] = sorted(result["quarantined"].items())
    meta["raw"] = sorted(result["raw"].items())
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez(
            fh,
            ln=result["ln"], u=result["u"], v=result["v"], t=result["t"],
            meta=np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            ),
        )
    os.replace(tmp, path)


def _load_cached_result(path: str, index: int) -> "dict | None":
    try:
        with np.load(path) as bundle:
            meta = json.loads(bytes(bundle["meta"].tobytes()).decode("utf-8"))
            result = {
                "ln": bundle["ln"], "u": bundle["u"],
                "v": bundle["v"], "t": bundle["t"],
            }
    except (OSError, ValueError, KeyError, json.JSONDecodeError):
        return None  # unreadable cache entry: just re-parse the shard
    result.update({field: meta[field] for field in _CACHE_META_FIELDS})
    result["quarantined"] = {int(k): v for k, v in meta["quarantined"]}
    result["raw"] = {int(k): v for k, v in meta["raw"]}
    result["pending"] = None
    result["deferred"] = None
    result["index"] = index
    result["seconds"] = 0.0
    result["cached"] = True
    return result


def scan_shards(
    paths: "list",
    policy: "IngestPolicy | None" = None,
    quarantine_path: "str | os.PathLike[str] | None" = None,
    jobs: "int | None" = None,
    shard_bytes: "int | None" = None,
    target_shards: "int | None" = None,
    manifest: "str | os.PathLike[str] | None" = None,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, IngestReport]":
    """Sharded analogue of :func:`repro.ingest.scan_trace`.

    ``paths`` is one or more trace files in stream order.  ``manifest``
    names a ``repro-shards v1`` JSON file: when it exists, shards whose
    bytes still hash to their manifest checksum reuse the cached parse
    from ``<manifest>.cache/``; either way the manifest (and cache) are
    rewritten to describe this run.  Output is byte-identical to the
    serial pipeline for any ``jobs``/``shard_bytes``/cache state.
    """
    if not paths:
        raise ValueError("scan_shards needs at least one trace path")
    paths = [str(p) for p in paths]
    policy = policy or IngestPolicy.default()
    jobs = resolve_jobs(jobs)
    policy_hash = _policy_hash(policy)
    with telemetry.tracer.span(
        "ingest.shard.scan", paths=len(paths), jobs=jobs
    ) as scan_span:
        plan_started = time.perf_counter()
        with telemetry.tracer.span("ingest.shard.plan"):
            resolved_bytes = resolve_shard_bytes(
                paths, shard_bytes=shard_bytes,
                target_shards=target_shards, jobs=jobs,
            )
            if manifest is not None and os.path.exists(manifest):
                previous = read_manifest(manifest)
                # Reuse the previous split size unless overridden, so an
                # unchanged file re-plans to the same chunks and every
                # cache key lines up.
                if shard_bytes is None and target_shards is None:
                    resolved_bytes = int(
                        previous.get("shard_bytes", resolved_bytes)
                    )
            specs = plan_shards(paths, shard_bytes=resolved_bytes)
        plan_seconds = time.perf_counter() - plan_started

        results: "list[dict | None]" = [None] * len(specs)
        cache_hits = 0
        if manifest is not None and os.path.exists(manifest):
            for spec in specs:
                cached = _load_cached_result(
                    _cache_path(manifest, spec, policy_hash), spec.index
                )
                if cached is not None:
                    results[spec.index] = cached
                    cache_hits += 1
        fresh_specs = [spec for spec in specs if results[spec.index] is None]
        stats = {"retries": 0, "pool_rebuilds": 0, "degraded": False}
        with telemetry.tracer.span(
            "ingest.shard.parse",
            shards=len(specs), cached=cache_hits, jobs=jobs,
        ):
            if fresh_specs:
                fresh_results, stats = run_shards(fresh_specs, policy, jobs)
                for spec, result in zip(fresh_specs, fresh_results):
                    results[spec.index] = result

        report = IngestReport(
            path=paths[0],
            policy=policy.describe(),
            gzip=any(spec.gzip for spec in specs),
            sources=list(paths),
        )
        with telemetry.tracer.span("ingest.shard.merge", shards=len(specs)):
            us, vs, ts = merge_shards(
                specs, results, paths, policy, report,
                quarantine_path=quarantine_path,
            )
        report.shard_timings = [
            {
                "shard": spec.index,
                "path": spec.path,
                "byte_start": spec.byte_start,
                "byte_end": spec.byte_end,
                "events": int(result["events_parsed"]),
                "seconds": float(result["seconds"]),
                "cached": bool(result["cached"]),
            }
            for spec, result in zip(specs, results)
        ]
        report.shard_timings.append({
            "shard": "plan", "path": "", "byte_start": 0, "byte_end": 0,
            "events": 0, "seconds": plan_seconds, "cached": False,
        })
        if manifest is not None:
            _persist_manifest(
                manifest, specs, resolved_bytes, report, results, policy_hash
            )
        scan_span.set(
            events_accepted=report.events_accepted,
            shards=len(specs),
            cache_hits=cache_hits,
            retries=stats["retries"],
            pool_rebuilds=stats["pool_rebuilds"],
            degraded=stats["degraded"],
        )
        _record_shard_metrics(len(specs), cache_hits, stats)
        _record_ingest_metrics(report)
    return us, vs, ts, report


def _persist_manifest(
    manifest: "str | os.PathLike[str]",
    specs: "list[ShardSpec]",
    resolved_bytes: int,
    report: IngestReport,
    results: "list[dict]",
    policy_hash: str,
) -> None:
    rejects = {}
    if report.quarantine_paths:
        if len(report.sources) == 1:
            rejects[report.sources[0]] = report.quarantine_paths[0]
        else:
            # Multi-source sidecars follow the <source>.rejects convention.
            for source in report.sources:
                sidecar = f"{source}.rejects"
                if sidecar in report.quarantine_paths:
                    rejects[source] = sidecar
    write_manifest(manifest, specs, resolved_bytes, rejects=rejects or None)
    cache_dir = _cache_dir(manifest)
    os.makedirs(cache_dir, exist_ok=True)
    for spec, result in zip(specs, results):
        if result["cached"] or result["pending"] or result["deferred"]:
            continue
        _store_cached_result(
            _cache_path(manifest, spec, policy_hash), result
        )


def _record_shard_metrics(shards: int, cache_hits: int, stats: dict) -> None:
    registry = telemetry.metrics
    if not registry.enabled:
        return
    registry.counter("ingest.shard.shards_total").inc(shards)
    registry.counter("ingest.shard.cache_hits").inc(cache_hits)
    registry.counter("ingest.shard.retries").inc(stats["retries"])
    registry.counter("ingest.shard.pool_rebuilds").inc(stats["pool_rebuilds"])


def load_shards(
    paths: "list",
    policy: "IngestPolicy | None" = None,
    quarantine_path: "str | os.PathLike[str] | None" = None,
    jobs: "int | None" = None,
    shard_bytes: "int | None" = None,
    target_shards: "int | None" = None,
    manifest: "str | os.PathLike[str] | None" = None,
) -> TemporalGraph:
    """Sharded analogue of :func:`repro.ingest.load_trace` (multi-file)."""
    us, vs, ts, report = scan_shards(
        paths, policy=policy, quarantine_path=quarantine_path, jobs=jobs,
        shard_bytes=shard_bytes, target_shards=target_shards,
        manifest=manifest,
    )
    trace = TemporalGraph.from_columns(us, vs, ts, validated=True)
    trace.ingest_report = report
    return trace


__all__ = [
    "DEFAULT_SHARD_BYTES",
    "JOBS_ENV_VAR",
    "MANIFEST_FORMAT",
    "MAX_ATTEMPTS",
    "MAX_POOL_REBUILDS",
    "MIN_SHARD_BYTES",
    "ShardIngestError",
    "ShardSpec",
    "load_shards",
    "manifest_sources",
    "parse_shard",
    "plan_shards",
    "read_manifest",
    "read_manifest_rejects",
    "resolve_jobs",
    "resolve_shard_bytes",
    "run_shards",
    "scan_shards",
    "verify_shard",
    "write_manifest",
]
