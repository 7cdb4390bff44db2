"""Streaming, policy-driven trace loader.

Replaces the trusting legacy path (``sorted(list-of-tuples)`` then
per-event ``add_edge``) with a pipeline built for crawled inputs:

1. **Chunked reading.**  The file — plain text or gzip (sniffed by magic
   bytes, not extension), UTF-8 with or without BOM — is consumed line by
   line into fixed-size *blocks* (``BLOCK_LINES`` data lines).  Each block
   is parsed directly into NumPy int64/float64 columns: one C-level
   ``np.array(tokens, dtype=...)`` conversion per block on the fast path,
   with a per-line fallback only for blocks that contain malformed rows.
   Peak memory is the final columns plus one block of transients — never a
   full-file list of Python tuples.
2. **Vectorised validation.**  The assembled ``(u, v, t, lineno)`` columns
   run through the error-taxonomy checks in a fixed order (bad node ids,
   non-finite times, negative times, self-loops, out-of-order events,
   duplicate edges), each applied per the
   :class:`~repro.ingest.policy.IngestPolicy` — raise with file:line
   context, repair deterministically, or quarantine the raw lines to a
   ``.rejects`` sidecar.  Time ordering is one stable ``argsort`` over the
   columns, not a Python ``sorted()``.
3. **Columnar construction.**  The accepted columns become a
   ``TemporalGraph`` via :meth:`TemporalGraph.from_columns`, skipping the
   per-event validation already done here, with the
   :class:`~repro.ingest.report.IngestReport` attached as
   ``trace.ingest_report``.
"""

from __future__ import annotations

import gzip
import hashlib
import os
from collections.abc import Iterator

import numpy as np

from repro import telemetry
from repro.graph.dyngraph import TemporalGraph
from repro.ingest.errors import RejectRecord, TraceFormatError
from repro.ingest.policy import IngestPolicy
from repro.ingest.report import IngestReport
from repro.utils.jobs import resolve_jobs

#: data lines per parse block; bounds transient memory (the split-token
#: lists of one block are the largest Python-object allocation on the hot
#: path) while still amortising the per-block NumPy conversion overhead.
BLOCK_LINES = 16384

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: header line prefix written by ``write_trace`` (``# repro-trace v2``).
FORMAT_HEADER_PREFIX = "# repro-trace v"


def open_trace_text(path: "str | os.PathLike[str]"):
    """Open a trace for reading: gzip-sniffed, UTF-8, BOM-tolerant.

    Compression is detected from the two gzip magic bytes rather than the
    file name, so ``trace.txt`` containing gzip data still loads.
    Undecodable bytes are replaced (the replacement character then fails
    numeric parsing, surfacing as a located ``parse_error`` instead of a
    mid-file ``UnicodeDecodeError``).
    """
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rt", encoding="utf-8-sig", errors="replace")
    return open(path, encoding="utf-8-sig", errors="replace")


def is_gzip(path: "str | os.PathLike[str]") -> bool:
    with open(path, "rb") as probe:
        return probe.read(2) == b"\x1f\x8b"


# ---------------------------------------------------------------------------
# Line-level classification (shared with repro.graph.io.iter_trace_lines)
# ---------------------------------------------------------------------------
def classify_event_line(parts: "list[str]") -> "tuple[str, str] | None":
    """Classify one split data line; ``None`` when it is well-formed.

    Returns ``(error_class, detail)`` for the parse-stage classes only —
    the structural classes (self-loops, duplicates, ordering, negative or
    non-finite times) are vectorised checks over the whole stream.
    """
    if len(parts) not in (2, 3):
        return "parse_error", "expected 'u v [t]'"
    for token in parts[:2]:
        try:
            value = int(token)
        except ValueError:
            try:
                float(token)
            except ValueError:
                return "parse_error", f"non-numeric field {token!r}"
            return "bad_node_id", f"node id {token!r} is not an integer"
        if not _INT64_MIN <= value <= _INT64_MAX:
            return "bad_node_id", f"node id {token!r} outside int64 range"
    if len(parts) == 3:
        try:
            float(parts[2])
        except ValueError:
            return "parse_error", f"non-numeric timestamp {parts[2]!r}"
    return None


def _fetch_lines(
    path: "str | os.PathLike[str]", wanted: "set[int]"
) -> "dict[int, str]":
    """Re-read ``path`` collecting the raw text of the wanted line numbers.

    Only runs on the error/quarantine path, so the hot path never buffers
    raw lines it will not need.
    """
    found: dict[int, str] = {}
    with open_trace_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno in wanted:
                found[lineno] = line.rstrip("\r\n")
                if len(found) == len(wanted):
                    break
    return found


def _strict_error(
    error_class: str,
    path: "str | os.PathLike[str]",
    lineno: int,
    detail: str,
    line: "str | None" = None,
) -> TraceFormatError:
    if line is None:
        line = _fetch_lines(path, {lineno}).get(lineno)
    return TraceFormatError(error_class, str(path), lineno, line, detail)


class _DeferredStrict(Exception):
    """Internal: a strict-class offender found while ``defer_strict`` is on.

    Raised by :meth:`_Ingest.flag_mask` inside shard workers instead of a
    :class:`TraceFormatError`, so the worker can ship the offender back to
    the driver, which re-raises the *globally first* offender — the same
    one the serial pipeline would have raised.
    """

    def __init__(self, error_class: str, lineno: int, detail: str) -> None:
        super().__init__(f"[{error_class}] line {lineno}: {detail}")
        self.error_class = error_class
        self.lineno = lineno
        self.detail = detail


# ---------------------------------------------------------------------------
# Block parsing
# ---------------------------------------------------------------------------
class _ColumnAccumulator:
    """Collects per-block column chunks; concatenated once at the end."""

    def __init__(self) -> None:
        self.lineno: list[np.ndarray] = []
        self.u: list[np.ndarray] = []
        self.v: list[np.ndarray] = []
        self.t: list[np.ndarray] = []

    def append(
        self, ln: np.ndarray, u: np.ndarray, v: np.ndarray, t: np.ndarray
    ) -> None:
        if len(ln):
            self.lineno.append(ln)
            self.u.append(u)
            self.v.append(v)
            self.t.append(t)

    def concatenate(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        if not self.lineno:
            empty_i = np.zeros(0, dtype=np.int64)
            return empty_i, empty_i.copy(), empty_i.copy(), np.zeros(0, dtype=np.float64)
        return (
            np.concatenate(self.lineno),
            np.concatenate(self.u),
            np.concatenate(self.v),
            np.concatenate(self.t),
        )


class _Ingest:
    """State of one load: policy application, counters, quarantine set.

    ``defer_strict`` turns strict-mode raising into *recording*: parse-stage
    offenders accumulate in :attr:`pending` (minimum line number wins) and
    vectorised-stage offenders surface as :class:`_DeferredStrict`.  The
    shard workers run in this mode so the merge stage — not an arbitrary
    worker — decides which offender the whole load reports, reproducing the
    serial pipeline's first-offender choice exactly.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        policy: IngestPolicy,
        report: IngestReport,
        defer_strict: bool = False,
    ) -> None:
        self.path = path
        self.policy = policy
        self.report = report
        self.defer_strict = defer_strict
        #: lineno -> error class, for the sidecar re-read pass.
        self.quarantined: dict[int, str] = {}
        #: earliest parse-stage strict offender: (lineno, class, line, detail).
        self.pending: "tuple[int, str, str, str] | None" = None

    # -- counting helpers ----------------------------------------------
    def _bump(self, bucket: "dict[str, int]", error_class: str, n: int = 1) -> None:
        bucket[error_class] = bucket.get(error_class, 0) + n

    # -- strict-mode hooks ----------------------------------------------
    def strict_error(
        self, error_class: str, key: int, detail: str, line: "str | None" = None
    ) -> TraceFormatError:
        """Build the strict-mode error for offender ``key`` (a line number
        here; the shard merge subclass decodes composite shard keys)."""
        return _strict_error(error_class, self.path, key, detail, line)

    def raise_pending(self) -> None:
        """Raise the recorded parse-stage offender (block-deferred strict).

        Called after each parsed block: all of a block's offenders are
        classified first, then the one with the smallest line number
        raises — deterministic regardless of how lines group into parse
        blocks, which is what makes the sharded path's strict errors
        byte-identical to the serial path's.
        """
        if self.pending is not None and not self.defer_strict:
            lineno, error_class, line, detail = self.pending
            raise self.strict_error(error_class, lineno, detail, line)

    def _quarantine_keys(self, error_class: str, keys: np.ndarray) -> None:
        for lineno in keys.tolist():
            self.quarantined[lineno] = error_class

    def flag_line(
        self, error_class: str, lineno: int, line: str, detail: str
    ) -> bool:
        """Apply the policy to one parse-stage offender.

        Returns True when the line should be kept (never, currently: both
        repair and quarantine drop parse-stage offenders).  Strict-class
        offenders are recorded, not raised — :meth:`raise_pending` fires
        at the end of the block.
        """
        self._bump(self.report.flagged, error_class)
        action = self.policy.action(error_class)
        if action == "strict":
            if self.pending is None or lineno < self.pending[0]:
                self.pending = (lineno, error_class, line, detail)
            return False
        if action == "repair":
            self._bump(self.report.repaired, error_class)
        else:
            self._bump(self.report.quarantined, error_class)
            self.quarantined[lineno] = error_class
        return False

    def flag_mask(
        self,
        error_class: str,
        mask: np.ndarray,
        linenos: np.ndarray,
        detail_of,
    ) -> str:
        """Apply the policy to a vectorised stage's offender mask.

        Returns the action taken (caller applies the class's repair);
        counts are recorded here.  ``detail_of(i)`` builds the strict-mode
        message for offender stream-index ``i``.
        """
        n = int(mask.sum())
        if n == 0:
            return "none"
        self._bump(self.report.flagged, error_class, n)
        action = self.policy.action(error_class)
        if action == "strict":
            offenders = np.flatnonzero(mask)
            first = int(offenders[np.argmin(linenos[offenders])])
            key = int(linenos[first])
            detail = detail_of(first)
            if self.defer_strict:
                raise _DeferredStrict(error_class, key, detail)
            raise self.strict_error(error_class, key, detail)
        if action == "repair":
            self._bump(self.report.repaired, error_class, n)
        else:
            self._bump(self.report.quarantined, error_class, n)
            self._quarantine_keys(error_class, linenos[mask])
        return action


def _parse_slow(
    parts: "list[list[str]]",
    lines: "list[str]",
    linenos: "list[int]",
    rows: np.ndarray,
    timed: bool,
    ingest: _Ingest,
    out: _ColumnAccumulator,
) -> None:
    """Per-line fallback for a block subgroup that failed bulk conversion."""
    good_ln: list[int] = []
    good_u: list[int] = []
    good_v: list[int] = []
    good_t: list[float] = []
    for i in rows.tolist():
        p = parts[i]
        verdict = classify_event_line(p)
        if verdict is not None:
            error_class, detail = verdict
            ingest.flag_line(error_class, linenos[i], lines[i], detail)
            continue
        good_ln.append(linenos[i])
        good_u.append(int(p[0]))
        good_v.append(int(p[1]))
        good_t.append(float(p[2]) if timed else float(linenos[i]))
    out.append(
        np.asarray(good_ln, dtype=np.int64),
        np.asarray(good_u, dtype=np.int64),
        np.asarray(good_v, dtype=np.int64),
        np.asarray(good_t, dtype=np.float64),
    )


def _parse_block(
    lines: "list[str]",
    linenos: "list[int]",
    ingest: _Ingest,
    out: _ColumnAccumulator,
) -> None:
    """Parse one block of stripped data lines into column chunks.

    Fast path: a block whose every line is exactly ``u<SP>v<SP>t`` (one
    single space between fields — what ``write_trace`` and every crawler
    fixture emit) is tokenised with ONE ``str.join`` + ``str.split`` and
    three strided ``np.array`` conversions: no per-line ``split()`` lists,
    no Python-level transpose.  The per-line guard is exact — each line
    contributes exactly three tokens, so the ``[0::3]/[1::3]/[2::3]``
    strides cannot mis-align (a token-count-only check would: a 4-token
    line followed by a 2-token line still sums to 3N).  Any other
    whitespace shape, or a failed numeric conversion, falls through to
    the grouped path below (3-column timestamped, 2-column legacy with
    synthetic line-number timestamps; one bulk conversion per group,
    per-line classification only for groups that fail it).
    """
    if all(
        "\t" not in line and line.count(" ") == 2 and "  " not in line
        for line in lines
    ):
        tokens = " ".join(lines).split(" ")
        try:
            u = np.array(tokens[0::3], dtype=np.int64)
            v = np.array(tokens[1::3], dtype=np.int64)
            t = np.array(tokens[2::3], dtype=np.float64)
        except (ValueError, OverflowError):
            pass  # a dirty line hides in the block; classify it below
        else:
            out.append(np.asarray(linenos, dtype=np.int64), u, v, t)
            return
    parts = [line.split() for line in lines]
    # Homogeneous all-timestamped block (the overwhelmingly common shape):
    # transpose with one C-level zip and convert each column directly.
    if all(len(p) == 3 for p in parts):
        try:
            su, sv, st = zip(*parts)
            u = np.array(su, dtype=np.int64)
            v = np.array(sv, dtype=np.int64)
            t = np.array(st, dtype=np.float64)
        except (ValueError, OverflowError):
            pass
        else:
            out.append(np.asarray(linenos, dtype=np.int64), u, v, t)
            return
    counts = np.fromiter((len(p) for p in parts), dtype=np.int64, count=len(parts))
    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for width, timed in ((3, True), (2, False)):
        rows = np.flatnonzero(counts == width)
        if not len(rows):
            continue
        try:
            u = np.array([parts[i][0] for i in rows], dtype=np.int64)
            v = np.array([parts[i][1] for i in rows], dtype=np.int64)
            if timed:
                t = np.array([parts[i][2] for i in rows], dtype=np.float64)
                ln = np.array([linenos[i] for i in rows], dtype=np.int64)
            else:
                ln = np.array([linenos[i] for i in rows], dtype=np.int64)
                t = ln.astype(np.float64)
        except (ValueError, OverflowError):
            sub = _ColumnAccumulator()
            _parse_slow(parts, lines, linenos, rows, timed, ingest, sub)
            if sub.lineno:
                chunks.append(sub.concatenate())
            continue
        chunks.append((ln, u, v, t))
    bad = np.flatnonzero((counts != 2) & (counts != 3))
    for i in bad.tolist():
        ingest.flag_line("parse_error", linenos[i], lines[i], "expected 'u v [t]'")
    if len(chunks) == 1:
        out.append(*chunks[0])
    elif chunks:
        # Mixed 2-/3-column block: restore file order before appending.
        ln, u, v, t = (np.concatenate(cols) for cols in zip(*chunks))
        order = np.argsort(ln, kind="stable")
        out.append(ln[order], u[order], v[order], t[order])


def _consume_lines(
    line_iter,
    ingest: _Ingest,
    out: _ColumnAccumulator,
    first_lineno: int = 1,
) -> None:
    """Feed raw lines through blocking + block parsing into ``out``.

    Shared by the serial reader (the whole file, ``first_lineno=1``) and
    the shard workers (one byte-range chunk, ``first_lineno`` = the
    chunk's global start line) — the parse path is literally the same
    code either way, which is what makes shard output byte-identical.

    Strict parse-stage offenders raise at the end of their block via
    :meth:`_Ingest.raise_pending` (block-internal minimum line number
    wins), so the choice of first offender does not depend on how lines
    happen to group into blocks or chunks.
    """
    report = ingest.report
    block_lines: list[str] = []
    block_nos: list[int] = []
    for lineno, raw in enumerate(line_iter, start=first_lineno):
        report.lines_total += 1
        line = raw.strip()
        if not line:
            report.blank_lines += 1
            continue
        if line.startswith("#"):
            report.comment_lines += 1
            if report.format_version is None and line.startswith(
                FORMAT_HEADER_PREFIX
            ):
                version = line[len(FORMAT_HEADER_PREFIX) :].strip()
                if version.isdigit():
                    report.format_version = int(version)
            continue
        block_lines.append(line)
        block_nos.append(lineno)
        if len(block_lines) >= BLOCK_LINES:
            report.events_parsed += len(block_lines)
            _parse_block(block_lines, block_nos, ingest, out)
            ingest.raise_pending()
            block_lines, block_nos = [], []
    if block_lines:
        report.events_parsed += len(block_lines)
        _parse_block(block_lines, block_nos, ingest, out)
        ingest.raise_pending()


def _read_columns(
    path: "str | os.PathLike[str]", ingest: _Ingest
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Stream the file into ``(lineno, u, v, t)`` columns, block by block."""
    out = _ColumnAccumulator()
    with open_trace_text(path) as fh:
        _consume_lines(fh, ingest, out)
    return out.concatenate()


# ---------------------------------------------------------------------------
# Vectorised validation pipeline
# ---------------------------------------------------------------------------
def _drop(
    keep: np.ndarray, *columns: np.ndarray
) -> "tuple[np.ndarray, ...]":
    return tuple(col[keep] for col in columns)


def _validate_local(
    ln: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    t: np.ndarray,
    ingest: _Ingest,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Checks 1–4: the *row-local* half of the taxonomy.

    Each of these classes (bad node ids, non-finite times, negative
    times, self-loops) judges a row by its own values only, so shard
    workers can run this half independently per chunk and produce
    exactly the rows the serial pipeline would have kept — the
    stream-global half (:func:`_validate_stream`) then runs once over
    the merged columns.
    """
    # 1. bad_node_id — negative ids (non-integer ids never parse to here).
    mask = (u < 0) | (v < 0)
    if ingest.flag_mask(
        "bad_node_id",
        mask,
        ln,
        lambda i: f"negative node id in ({int(u[i])}, {int(v[i])})",
    ) in ("repair", "quarantine"):
        ln, u, v, t = _drop(~mask, ln, u, v, t)

    # 2. nonfinite_time — nan/inf timestamps cannot be ordered or clamped.
    mask = ~np.isfinite(t)
    if ingest.flag_mask(
        "nonfinite_time", mask, ln, lambda i: f"non-finite timestamp {t[i]!r}"
    ) in ("repair", "quarantine"):
        ln, u, v, t = _drop(~mask, ln, u, v, t)

    # 3. negative_time — repair clamps to 0.0 (the trace-start origin);
    #    quarantine drops the lines like the other classes.
    mask = t < 0
    action = ingest.flag_mask(
        "negative_time", mask, ln, lambda i: f"negative timestamp {t[i]!r}"
    )
    if action == "repair":
        t = t.copy()
        t[mask] = 0.0
    elif action == "quarantine":
        ln, u, v, t = _drop(~mask, ln, u, v, t)

    # 4. self_loop.
    mask = u == v
    if ingest.flag_mask(
        "self_loop", mask, ln, lambda i: f"self-loop ({int(u[i])}, {int(u[i])})"
    ) in ("repair", "quarantine"):
        ln, u, v, t = _drop(~mask, ln, u, v, t)

    return ln, u, v, t


def _validate_stream(
    ln: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    t: np.ndarray,
    ingest: _Ingest,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Checks 5–6: the *stream-global* half of the taxonomy.

    Ordering and duplicate detection depend on every preceding event, so
    the sharded path re-runs exactly this function over the concatenated
    worker columns — same code, same masks, same repairs as serial.
    Returns the accepted, canonical (``u < v``), time-sorted columns.
    """
    # 5. out_of_order — an event earlier than some preceding event.  Repair
    #    is one stable argsort over the time column (ties keep file order);
    #    quarantine drops the offenders, after which the remainder is
    #    sorted by construction (every survivor >= all earlier events).
    if len(t):
        running_max = np.concatenate(([-np.inf], np.maximum.accumulate(t)[:-1]))
        mask = t < running_max
        action = ingest.flag_mask(
            "out_of_order",
            mask,
            ln,
            lambda i: f"timestamp {t[i]!r} after {running_max[i]!r}",
        )
        if action == "repair":
            order = np.argsort(t, kind="stable")
            ln, u, v, t = ln[order], u[order], v[order], t[order]
        elif action == "quarantine":
            ln, u, v, t = _drop(~mask, ln, u, v, t)

    # Canonicalise endpoints (u < v) before duplicate detection.
    us = np.minimum(u, v)
    vs = np.maximum(u, v)

    # 6. duplicate_edge — a pair seen earlier in the (now ordered) stream.
    if len(us):
        pairs = np.stack((us, vs), axis=1)
        _, first_idx = np.unique(pairs, axis=0, return_index=True)
        keep = np.zeros(len(us), dtype=bool)
        keep[first_idx] = True
        mask = ~keep
        if ingest.flag_mask(
            "duplicate_edge",
            mask,
            ln,
            lambda i: f"duplicate edge ({int(us[i])}, {int(vs[i])})",
        ) in ("repair", "quarantine"):
            ln, us, vs, t = _drop(keep, ln, us, vs, t)

    return us, vs, t


def _validate_columns(
    ln: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    t: np.ndarray,
    ingest: _Ingest,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Run the structural taxonomy checks, in order, applying the policy.

    Returns the accepted, canonical (``u < v``), time-sorted columns.
    The check order is fixed and documented: node ids, finite times,
    negative times, self-loops, ordering, duplicates — a strict policy
    reports the first class in this order that has an offender.
    """
    ln, u, v, t = _validate_local(ln, u, v, t, ingest)
    return _validate_stream(ln, u, v, t, ingest)


# ---------------------------------------------------------------------------
# Quarantine sidecar
# ---------------------------------------------------------------------------
def _write_rejects(
    quarantine_path: "str | os.PathLike[str]",
    source: "str | os.PathLike[str]",
    quarantined: "dict[int, str]",
    raw: "dict[int, str] | None" = None,
) -> None:
    """Divert the offending raw lines to the sidecar, in file order.

    The raw text comes from one extra read pass over the source (only on
    the quarantine path), so the hot path never buffers lines; the
    sharded merge passes ``raw`` directly (workers already re-read their
    own chunk) to skip that pass.  Records are tab-separated ``lineno,
    class, raw line`` — raw lines may contain further tabs, hence the
    ``maxsplit=2`` in :func:`read_rejects`.
    """
    if raw is None:
        raw = _fetch_lines(source, set(quarantined))
    with open(quarantine_path, "w", encoding="utf-8") as fh:
        fh.write("# repro-rejects v1\n")
        fh.write(f"# source: {source}\n")
        fh.write("# lineno<TAB>error_class<TAB>raw line\n")
        for lineno in sorted(quarantined):
            fh.write(f"{lineno}\t{quarantined[lineno]}\t{raw.get(lineno, '')}\n")


def read_rejects(path: "str | os.PathLike[str]") -> "list[RejectRecord]":
    """Parse a ``.rejects`` sidecar back into records (lossless).

    Also accepts a ``repro-shards v1`` manifest, in which case the
    per-source sidecars it references are read in shard order and each
    record carries its source trace in :attr:`RejectRecord.path`.
    """
    with open(path, "rb") as probe:
        head = probe.read(1)
    if head == b"{":
        from repro.ingest.shard.planner import read_manifest_rejects

        return read_manifest_rejects(path)
    records: list[RejectRecord] = []
    source = ""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line or line.startswith("#"):
                if line.startswith("# source: "):
                    source = line[len("# source: ") :]
                continue
            fields = line.split("\t", 2)
            if len(fields) != 3:
                raise TraceFormatError(
                    "parse_error", str(path), lineno, line,
                    "expected 'lineno<TAB>class<TAB>raw line'",
                )
            records.append(
                RejectRecord(int(fields[0]), fields[1], fields[2], source)
            )
    return records


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------
def stream_checksum(u: np.ndarray, v: np.ndarray, t: np.ndarray) -> str:
    """Truncated sha256 over the accepted column bytes."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(u, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(v, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(t, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


def scan_trace(
    path: "str | os.PathLike[str]",
    policy: "IngestPolicy | None" = None,
    quarantine_path: "str | os.PathLike[str] | None" = None,
    jobs: "int | None" = None,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, IngestReport]":
    """Run the full ingest pipeline, returning accepted columns + report.

    The array-level entry point: :func:`load_trace` wraps it in a
    ``TemporalGraph``; the auditor and benchmarks use it directly.

    ``jobs`` selects the sharded parallel path (``repro.ingest.shard``)
    when it resolves to more than one worker
    (:func:`~repro.utils.jobs.resolve_jobs`: ``None`` defers to
    ``$REPRO_JOBS``, unset means serial, 0 means one per CPU); one
    worker keeps the serial pipeline below.  Both paths produce byte-identical
    columns, checksum, taxonomy counts, and rejects sidecar.
    """
    if resolve_jobs(jobs) != 1:
        from repro.ingest.shard import scan_shards

        return scan_shards(
            [path], policy=policy, quarantine_path=quarantine_path, jobs=jobs
        )
    policy = policy or IngestPolicy.default()
    report = IngestReport(
        path=str(path), policy=policy.describe(), gzip=is_gzip(path)
    )
    ingest = _Ingest(path, policy, report)
    with telemetry.tracer.span("ingest.scan", path=str(path)) as scan_span:
        with telemetry.tracer.span("ingest.read_columns"):
            ln, u, v, t = _read_columns(path, ingest)
        with telemetry.tracer.span("ingest.validate", events=len(ln)):
            us, vs, ts = _validate_columns(ln, u, v, t, ingest)
        if ingest.quarantined:
            sidecar = quarantine_path or f"{path}.rejects"
            _write_rejects(sidecar, path, ingest.quarantined)
            report.quarantine_path = str(sidecar)
        report.events_accepted = len(ts)
        if len(ts):
            report.min_time = float(ts[0])
            report.max_time = float(ts[-1])
        report.checksum = stream_checksum(us, vs, ts)
        scan_span.set(
            events_parsed=report.events_parsed,
            events_accepted=report.events_accepted,
        )
        _record_ingest_metrics(report)
    return us, vs, ts, report


def _record_ingest_metrics(report: IngestReport) -> None:
    """Mirror the finished :class:`IngestReport` into telemetry counters.

    The counters in a recorded trace therefore match the run's ingest
    report exactly — ``repro trace summary`` can be cross-checked against
    ``repro audit`` output for the same file and policy.
    """
    registry = telemetry.metrics
    if not registry.enabled:
        return
    registry.counter("ingest.lines_total").inc(report.lines_total)
    registry.counter("ingest.events_parsed").inc(report.events_parsed)
    registry.counter("ingest.events_accepted").inc(report.events_accepted)
    for bucket, name in (
        (report.flagged, "ingest.flagged_total"),
        (report.repaired, "ingest.repaired_total"),
        (report.quarantined, "ingest.quarantined_total"),
    ):
        for error_class, count in bucket.items():
            registry.counter(name, **{"class": error_class}).inc(count)


def load_trace(
    path: "str | os.PathLike[str]",
    policy: "IngestPolicy | None" = None,
    quarantine_path: "str | os.PathLike[str] | None" = None,
    jobs: "int | None" = None,
) -> TemporalGraph:
    """Load a trace file into a :class:`TemporalGraph`, hardened.

    ``policy`` defaults to the legacy-compatible
    :meth:`IngestPolicy.default` (malformed lines and self-loops raise,
    duplicates drop, unsorted files sort).  The returned graph carries the
    load's :class:`IngestReport` as ``trace.ingest_report``.  ``jobs > 1``
    ingests through the sharded parallel path with byte-identical output.
    """
    us, vs, ts, report = scan_trace(
        path, policy=policy, quarantine_path=quarantine_path, jobs=jobs
    )
    trace = TemporalGraph.from_columns(us, vs, ts, validated=True)
    trace.ingest_report = report
    return trace


def iter_events(
    path: "str | os.PathLike[str]",
) -> Iterator[tuple[int, int, float]]:
    """Per-line streaming iterator with taxonomy-classified strict errors.

    The generator analogue of the legacy ``iter_trace_lines`` contract
    (2-column lines get synthetic line-number timestamps); the block
    pipeline of :func:`load_trace` supersedes it for whole-file loads.
    """
    with open_trace_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            verdict = classify_event_line(parts)
            if verdict is not None:
                error_class, detail = verdict
                raise TraceFormatError(error_class, str(path), lineno, line, detail)
            if len(parts) == 2:
                yield int(parts[0]), int(parts[1]), float(lineno)
            else:
                yield int(parts[0]), int(parts[1]), float(parts[2])
