"""Write-ahead log + checkpoints: durable state for the growing trace.

``repro serve`` mutates its graph live through ``POST /ingest``; without a
durability layer a crash discards every ingested edge and the restarted
server silently answers predictions from a stale prefix — exactly the
evaluation-integrity failure Junuthula et al. warn about when dynamic
predictors are scored against the wrong observed prefix.  This module is
the storage half of the fix (the server-side lifecycle lives in
:mod:`repro.serve.durability`):

- an **append-only write-ahead log** of accepted edge batches.  Records
  are length-prefixed and CRC-checksummed (the binary analogue of the
  cell journal's fsynced JSONL framing from :mod:`repro.eval.journal`),
  and the file opens with a header record binding the log to its *base
  trace* and :class:`~repro.ingest.IngestPolicy` by fingerprint — a WAL
  can never be replayed onto the wrong prefix or under a different
  screening policy.  Batch payloads are the raw ``int64/int64/float64``
  column bytes, so replayed events are bit-exact by construction.
- **torn-tail detection**: a crash can only damage the file's final
  record (every record is one buffered ``write`` followed by fsync per
  the cadence policy).  :func:`scan_wal` therefore accepts a truncated or
  checksum-failing *final* record as crash damage — reporting the torn
  byte count and the last valid offset so the writer can truncate and
  resume — and rejects the same damage anywhere else as real corruption.
- **checkpoints**: compact column-only pickles of the stream at a WAL
  sequence number (the same representation
  :class:`~repro.graph.snapshots.Snapshot` ships to pool workers),
  written atomically via temp-file + rename + directory fsync and
  retained N-deep.  Recovery = newest *valid* checkpoint + replay of the
  WAL records past it; a truncated or corrupt newer checkpoint is simply
  skipped in favour of an older valid one, and the WAL behind it still
  replays byte-identically.
- **recovery** (:func:`recover_state`): rebuild a
  :class:`~repro.graph.delta.DeltaGraph` from checkpoint + replay and
  finish with a mandatory :func:`~repro.graph.audit.audit_delta` pass —
  a recovered engine is never trusted until every maintained structure
  cross-checks against the replayed columns.

Crash-anywhere testing hooks: :func:`repro.eval.faults.before_key` fires
with keys ``wal.append`` (before a record hits the file), ``wal.fsync``
(between the buffered write and the fsync — the window where a power cut
tears the tail) and ``checkpoint.write`` (between the temp file and the
rename).  ``tests/test_crash_recovery.py`` drives kill schedules through
these points and asserts recovery is byte-identical to a never-crashed
reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.eval import faults
from repro.graph.dyngraph import TemporalGraph

#: file names inside a WAL directory.
WAL_FILE = "wal.log"
CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".ckpt"

#: magic bytes opening every WAL file; the trailing version digit is the
#: format version (bump on breaking changes).
WAL_MAGIC = b"REPROWAL1\n"
WAL_VERSION = 1
CHECKPOINT_VERSION = 1

#: record framing: little-endian (payload length, crc32-of-payload).
_FRAME = struct.Struct("<QI")
#: batch payload header after the kind byte: (sequence number, event count).
_BATCH = struct.Struct("<QQ")

#: payload kind bytes.
_KIND_HEADER = b"H"
_KIND_BATCH = b"B"

#: fault-plan keys honoured by this module (see repro.eval.faults).
APPEND_FAULT_KEY = "wal.append"
FSYNC_FAULT_KEY = "wal.fsync"
CHECKPOINT_FAULT_KEY = "checkpoint.write"


class WalError(ValueError):
    """Base class for every WAL failure."""


class WalCorruptError(WalError):
    """Damage a crash cannot explain (mid-file, not a torn tail)."""


class WalMismatchError(WalError):
    """The WAL or checkpoint was written for a different trace/policy."""


def wal_fingerprint(trace: TemporalGraph, policy) -> str:
    """Hex digest binding a WAL to its base trace and ingest policy.

    Hashes the accepted-column checksum of the base prefix (the same
    truncated sha256 the :class:`~repro.ingest.IngestReport` records),
    the base edge count, and the policy's class->action table.  Two
    servers share a fingerprint exactly when replaying one's WAL onto the
    other's base prefix is meaningful.
    """
    from repro.ingest.loader import stream_checksum

    u, v, t = trace.columns()
    payload = {
        "base_checksum": stream_checksum(u, v, t),
        "base_edges": int(trace.num_edges),
        "policy": policy.describe(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class WalRecord:
    """One durably logged batch of accepted (screened) events."""

    seq: int
    u: np.ndarray
    v: np.ndarray
    t: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def events(self) -> "list[tuple[int, int, float]]":
        return list(zip(self.u.tolist(), self.v.tolist(), self.t.tolist()))


@dataclass(frozen=True)
class WalTail:
    """What the scan found at the end of the file."""

    #: "clean" (file ends exactly on a record boundary) or "torn".
    status: str
    #: byte offset of the end of the last valid record.
    valid_offset: int
    #: bytes past the last valid record (0 when clean).
    torn_bytes: int
    #: human-readable account of the tear.
    detail: str = ""

    @property
    def clean(self) -> bool:
        return self.status == "clean"


def _encode_record(payload: bytes) -> bytes:
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _encode_batch(seq: int, u: np.ndarray, v: np.ndarray, t: np.ndarray) -> bytes:
    payload = b"".join(
        (
            _KIND_BATCH,
            _BATCH.pack(seq, len(t)),
            np.ascontiguousarray(u, dtype=np.int64).tobytes(),
            np.ascontiguousarray(v, dtype=np.int64).tobytes(),
            np.ascontiguousarray(t, dtype=np.float64).tobytes(),
        )
    )
    return _encode_record(payload)


def _decode_batch(payload: bytes, path: str, offset: int) -> WalRecord:
    if len(payload) < 1 + _BATCH.size:
        raise WalCorruptError(
            f"{path!r}: batch record at offset {offset} shorter than its header"
        )
    seq, count = _BATCH.unpack_from(payload, 1)
    expected = 1 + _BATCH.size + 24 * count
    if len(payload) != expected:
        raise WalCorruptError(
            f"{path!r}: batch record at offset {offset} declares {count} events "
            f"but carries {len(payload)} payload bytes (expected {expected})"
        )
    base = 1 + _BATCH.size
    u = np.frombuffer(payload, dtype=np.int64, count=count, offset=base)
    v = np.frombuffer(payload, dtype=np.int64, count=count, offset=base + 8 * count)
    t = np.frombuffer(
        payload, dtype=np.float64, count=count, offset=base + 16 * count
    )
    return WalRecord(seq=int(seq), u=u, v=v, t=t)


def scan_wal(
    path: "str | os.PathLike[str]",
    expected_fingerprint: "str | None" = None,
) -> "tuple[dict, list[WalRecord], WalTail]":
    """Read a WAL file: header, every intact batch record, tail verdict.

    Tolerates exactly the damage a crash can cause — a truncated or
    checksum-failing *final* record (the torn tail, reported, never
    raised) — and raises :class:`WalCorruptError` for anything else:
    checksum or structure failures that are followed by more data cannot
    be a crash artifact.  ``expected_fingerprint`` (when given) must
    match the header's, else :class:`WalMismatchError`.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(WAL_MAGIC) or not blob.startswith(WAL_MAGIC):
        raise WalCorruptError(
            f"{path!r} does not start with the WAL magic {WAL_MAGIC!r}"
        )
    pos = len(WAL_MAGIC)
    size = len(blob)
    header: "dict | None" = None
    records: "list[WalRecord]" = []
    tail = WalTail(status="clean", valid_offset=size, torn_bytes=0)

    def torn(detail: str) -> WalTail:
        return WalTail(
            status="torn",
            valid_offset=pos,
            torn_bytes=size - pos,
            detail=detail,
        )

    while pos < size:
        if size - pos < _FRAME.size:
            tail = torn(f"{size - pos} trailing bytes, shorter than a frame")
            break
        length, crc = _FRAME.unpack_from(blob, pos)
        body_start = pos + _FRAME.size
        if body_start + length > size:
            # The frame promises more bytes than exist.  At the physical
            # tail that is a torn write; a bogus length mid-file would
            # also land here, but it necessarily consumes the rest of the
            # file, so treating it as a tear loses nothing valid.
            tail = torn(
                f"record at offset {pos} declares {length} payload bytes, "
                f"file ends {size - body_start} bytes in"
            )
            break
        payload = blob[body_start : body_start + length]
        if zlib.crc32(payload) != crc:
            if body_start + length == size:
                tail = torn(f"checksum mismatch on the final record at {pos}")
                break
            raise WalCorruptError(
                f"{path!r}: checksum mismatch at offset {pos} with "
                f"{size - body_start - length} bytes following — mid-file "
                f"corruption, not a crash artifact"
            )
        if not payload:
            raise WalCorruptError(f"{path!r}: empty record at offset {pos}")
        kind = payload[:1]
        if pos == len(WAL_MAGIC):
            if kind != _KIND_HEADER:
                raise WalCorruptError(
                    f"{path!r} does not open with a header record"
                )
            try:
                header = json.loads(payload[1:].decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise WalCorruptError(
                    f"{path!r}: unreadable header record: {exc}"
                ) from None
        elif kind == _KIND_BATCH:
            record = _decode_batch(payload, path, pos)
            if record.seq != len(records) + 1:
                raise WalCorruptError(
                    f"{path!r}: batch at offset {pos} carries sequence "
                    f"{record.seq}, expected {len(records) + 1}"
                )
            records.append(record)
        else:
            # Unknown kinds are corruption today; a future version bump
            # would change WAL_MAGIC rather than smuggle new kinds in.
            raise WalCorruptError(
                f"{path!r}: unknown record kind {kind!r} at offset {pos}"
            )
        pos = body_start + length

    if header is None:
        raise WalCorruptError(f"{path!r} holds no intact header record")
    if (
        expected_fingerprint is not None
        and header.get("fingerprint") != expected_fingerprint
    ):
        raise WalMismatchError(
            f"WAL {path!r} was written for a different base trace/policy "
            f"(WAL fingerprint {str(header.get('fingerprint'))[:12]}..., "
            f"expected {expected_fingerprint[:12]}...); refusing to replay"
        )
    return header, records, tail


@dataclass
class WalVerifyReport:
    """Outcome of :func:`verify_wal` (the ``repro wal verify`` payload)."""

    path: str
    #: "clean" | "torn" | "corrupt"
    status: str
    records: int = 0
    events: int = 0
    torn_bytes: int = 0
    detail: str = ""
    header: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return self.status == "clean"


def verify_wal(path: "str | os.PathLike[str]") -> WalVerifyReport:
    """Scan a WAL read-only and classify it: clean / torn tail / corrupt."""
    path = os.fspath(path)
    try:
        header, records, tail = scan_wal(path)
    except WalCorruptError as exc:
        return WalVerifyReport(path=path, status="corrupt", detail=str(exc))
    return WalVerifyReport(
        path=path,
        status="clean" if tail.clean else "torn",
        records=len(records),
        events=sum(len(r) for r in records),
        torn_bytes=tail.torn_bytes,
        detail=tail.detail,
        header=header,
    )


class WriteAheadLog:
    """Appender over one WAL file; the reader side lives in :func:`scan_wal`.

    ``create`` starts a fresh log (header record included, immediately
    fsynced); ``open`` validates an existing one, **truncates any torn
    tail**, and positions for append at the next sequence number.  Every
    :meth:`append` is one buffered write + flush; :meth:`sync` pushes the
    OS buffer to disk.  The caller decides the cadence — the serving
    layer's group-commit policy (:mod:`repro.serve.durability`) calls
    ``sync`` per batch, per interval, or never.
    """

    def __init__(
        self, path: str, fh, seq: int, header: dict, offset: int
    ) -> None:
        self.path = path
        self._fh = fh
        self.seq = seq
        self.header = header
        #: end offset of the last appended record.
        self.offset = offset
        #: sequence number / offset known to have reached disk.
        self.synced_seq = seq
        self.synced_offset = offset
        self._appends = 0
        self._syncs = 0

    # -- constructors ---------------------------------------------------
    @classmethod
    def create(
        cls, path: "str | os.PathLike[str]", fingerprint: str, meta: "dict | None" = None
    ) -> "WriteAheadLog":
        path = os.fspath(path)
        header = {
            "version": WAL_VERSION,
            "fingerprint": fingerprint,
            **(meta or {}),
        }
        payload = _KIND_HEADER + json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        fh = open(path, "xb")
        fh.write(WAL_MAGIC + _encode_record(payload))
        fh.flush()
        os.fsync(fh.fileno())
        return cls(path, fh, seq=0, header=header, offset=fh.tell())

    @classmethod
    def open(
        cls,
        path: "str | os.PathLike[str]",
        expected_fingerprint: "str | None" = None,
    ) -> "tuple[WriteAheadLog, list[WalRecord], WalTail]":
        """Open an existing WAL for append, returning its surviving records.

        A torn tail is truncated away (it was never acknowledged as
        durable) so the next append starts on a record boundary.
        """
        path = os.fspath(path)
        header, records, tail = scan_wal(path, expected_fingerprint)
        fh = open(path, "r+b")
        if not tail.clean:
            fh.truncate(tail.valid_offset)
            fh.flush()
            os.fsync(fh.fileno())
        fh.seek(0, os.SEEK_END)
        wal = cls(path, fh, seq=len(records), header=header, offset=fh.tell())
        return wal, records, tail

    # -- writing --------------------------------------------------------
    @property
    def pending_records(self) -> int:
        """Records appended but not yet known durable (the durability lag)."""
        return self.seq - self.synced_seq

    def append(self, u: np.ndarray, v: np.ndarray, t: np.ndarray) -> int:
        """Buffer one batch record; returns its sequence number.

        The record is flushed to the OS but *not* fsynced — call
        :meth:`sync` (directly or via the group-commit policy) to make it
        durable.  Fault point ``wal.append`` fires before any byte is
        written, so an injected crash there loses the whole record.
        """
        if self._fh.closed:
            raise WalError(f"WAL {self.path!r} is closed")
        faults.before_key(APPEND_FAULT_KEY, self._appends)
        self._appends += 1
        record = _encode_batch(self.seq + 1, u, v, t)
        if telemetry.tracer.enabled:
            with telemetry.tracer.span(
                "wal.append", seq=self.seq + 1, events=len(t)
            ):
                self._fh.write(record)
                self._fh.flush()
        else:
            self._fh.write(record)
            self._fh.flush()
        self.seq += 1
        self.offset += len(record)
        return self.seq

    def sync(self) -> None:
        """fsync the file; everything appended so far becomes durable.

        Fault point ``wal.fsync`` fires between the buffered writes and
        the fsync — the window in which a power cut produces a torn tail.
        """
        if self.pending_records == 0:
            return
        faults.before_key(FSYNC_FAULT_KEY, self._syncs)
        self._syncs += 1
        os.fsync(self._fh.fileno())
        self.synced_seq = self.seq
        self.synced_offset = self.offset

    def close(self) -> None:
        if not self._fh.closed:
            self.sync()
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------
def checkpoint_path(directory: "str | os.PathLike[str]", seq: int) -> str:
    return os.path.join(
        os.fspath(directory), f"{CHECKPOINT_PREFIX}{seq:012d}{CHECKPOINT_SUFFIX}"
    )


def write_checkpoint(
    directory: "str | os.PathLike[str]",
    seq: int,
    trace: TemporalGraph,
    fingerprint: str,
) -> str:
    """Atomically persist the stream columns at WAL sequence ``seq``.

    The payload is the compact column-only representation (what snapshot
    pickling ships to pool workers) plus the fingerprint and a column
    checksum, pickled to a temp file, fsynced, renamed into place, and
    the directory fsynced — a crash leaves either the old set of
    checkpoints or the old set plus a complete new one, never a partial
    file under the real name.  Fault point ``checkpoint.write`` fires
    between the temp file and the rename (a crash there strands a
    ``.tmp`` file that recovery ignores and the next prune removes).
    """
    from repro.ingest.loader import stream_checksum

    u, v, t = trace.columns()
    payload = {
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "seq": int(seq),
        "u": np.ascontiguousarray(u, dtype=np.int64),
        "v": np.ascontiguousarray(v, dtype=np.int64),
        "t": np.ascontiguousarray(t, dtype=np.float64),
        "checksum": stream_checksum(u, v, t),
    }
    final = checkpoint_path(directory, seq)
    tmp = final + ".tmp"
    with telemetry.tracer.span("wal.checkpoint", seq=int(seq), edges=len(t)):
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        faults.before_key(CHECKPOINT_FAULT_KEY, 0)
        os.replace(tmp, final)
        _fsync_directory(directory)
    return final


def _fsync_directory(directory: "str | os.PathLike[str]") -> None:
    fd = os.open(os.fspath(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def list_checkpoints(
    directory: "str | os.PathLike[str]",
) -> "list[tuple[int, str]]":
    """(seq, path) for every checkpoint file, oldest first."""
    out: "list[tuple[int, str]]" = []
    for name in os.listdir(directory):
        if not (
            name.startswith(CHECKPOINT_PREFIX) and name.endswith(CHECKPOINT_SUFFIX)
        ):
            continue
        stem = name[len(CHECKPOINT_PREFIX) : -len(CHECKPOINT_SUFFIX)]
        if stem.isdigit():
            out.append((int(stem), os.path.join(os.fspath(directory), name)))
    return sorted(out)


def load_checkpoint(
    path: "str | os.PathLike[str]", expected_fingerprint: "str | None" = None
) -> "dict | None":
    """Load and validate one checkpoint; ``None`` when it is damaged.

    Damage — truncation, a corrupt pickle, a failed column checksum —
    returns ``None`` so recovery falls back to an older checkpoint (the
    WAL behind it still replays everything).  A *fingerprint* mismatch
    raises instead: that file belongs to a different serving lineage and
    silently skipping it would mask an operational mistake.
    """
    from repro.ingest.loader import stream_checksum

    try:
        with open(os.fspath(path), "rb") as fh:
            payload = pickle.load(fh)
    except Exception:  # noqa: BLE001 — any unpickling damage means invalid
        return None
    if not isinstance(payload, dict) or payload.get("version") != CHECKPOINT_VERSION:
        return None
    required = {"fingerprint", "seq", "u", "v", "t", "checksum"}
    if not required <= set(payload):
        return None
    if (
        expected_fingerprint is not None
        and payload["fingerprint"] != expected_fingerprint
    ):
        raise WalMismatchError(
            f"checkpoint {os.fspath(path)!r} belongs to a different WAL "
            f"lineage (fingerprint {str(payload['fingerprint'])[:12]}..., "
            f"expected {expected_fingerprint[:12]}...)"
        )
    if stream_checksum(payload["u"], payload["v"], payload["t"]) != payload["checksum"]:
        return None
    return payload


def newest_valid_checkpoint(
    directory: "str | os.PathLike[str]",
    expected_fingerprint: "str | None" = None,
    max_seq: "int | None" = None,
) -> "dict | None":
    """Newest loadable checkpoint, walking back over damaged ones.

    ``max_seq`` guards against a checkpoint claiming to cover WAL records
    that no longer exist (possible only if the sync-before-checkpoint
    invariant was violated); such a checkpoint is skipped.
    """
    for seq, path in reversed(list_checkpoints(directory)):
        if max_seq is not None and seq > max_seq:
            continue
        payload = load_checkpoint(path, expected_fingerprint)
        if payload is not None:
            return payload
    return None


def prune_checkpoints(directory: "str | os.PathLike[str]", keep: int) -> int:
    """Delete all but the newest ``keep`` checkpoints + stray temp files."""
    removed = 0
    entries = list_checkpoints(directory)
    doomed = entries[:-keep] if keep > 0 else entries
    for _seq, path in doomed:
        os.unlink(path)
        removed += 1
    for name in os.listdir(directory):
        if name.startswith(CHECKPOINT_PREFIX) and name.endswith(".tmp"):
            os.unlink(os.path.join(os.fspath(directory), name))
            removed += 1
    return removed


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------
@dataclass
class RecoveryPlan:
    """Where recovery of an existing WAL directory starts.

    ``start_trace`` is the newest valid checkpoint's columns (``None``
    when recovery starts from the base trace); ``records`` are the
    surviving WAL records *past* that checkpoint, still to be replayed.
    """

    start_trace: "TemporalGraph | None"
    checkpoint_seq: int
    records: "list[WalRecord]"
    tail: WalTail
    total_records: int

    @property
    def events(self) -> int:
        return sum(len(r) for r in self.records)

    def describe(self) -> dict:
        return {
            "checkpoint_seq": self.checkpoint_seq,
            "wal_records": self.total_records,
            "records_to_replay": len(self.records),
            "events_to_replay": self.events,
            "torn_bytes": self.tail.torn_bytes,
        }


def plan_recovery(
    wal_dir: "str | os.PathLike[str]",
    base_trace: TemporalGraph,
    policy,
    open_log=scan_wal,
) -> "tuple[object, RecoveryPlan]":
    """Read an existing WAL directory and pick where recovery starts.

    Fingerprints the base trace + policy, reads the log with
    ``open_log(path, fingerprint)`` (:func:`scan_wal` read-only, or
    :meth:`WriteAheadLog.open` to keep appending; either returns
    ``(handle, records, tail)``), picks the newest valid checkpoint at or
    below the surviving sequence and rebuilds its trace.  Returns the
    log handle and the :class:`RecoveryPlan`.
    """
    fingerprint = wal_fingerprint(base_trace, policy)
    wal_path = os.path.join(os.fspath(wal_dir), WAL_FILE)
    handle, records, tail = open_log(wal_path, fingerprint)
    checkpoint = newest_valid_checkpoint(
        wal_dir, fingerprint, max_seq=len(records)
    )
    if checkpoint is not None:
        start_trace = TemporalGraph.from_columns(
            checkpoint["u"], checkpoint["v"], checkpoint["t"], validated=True
        )
        checkpoint_seq = int(checkpoint["seq"])
    else:
        start_trace = None
        checkpoint_seq = 0
    plan = RecoveryPlan(
        start_trace=start_trace,
        checkpoint_seq=checkpoint_seq,
        records=[r for r in records if r.seq > checkpoint_seq],
        tail=tail,
        total_records=len(records),
    )
    return handle, plan


@dataclass
class RecoveryResult:
    """Everything :func:`recover_state` established about a WAL directory."""

    #: the recovered engine (checkpoint/base + replayed WAL records).
    engine: "object"
    #: WAL sequence the recovered engine is current through.
    wal_seq: int
    #: sequence of the checkpoint recovery started from (0 = base trace).
    checkpoint_seq: int
    #: WAL records replayed on top of the checkpoint.
    records_replayed: int
    #: events applied during replay.
    events_replayed: int
    #: torn bytes discarded from the WAL tail (crash damage).
    torn_bytes: int
    #: the mandatory post-replay audit report.
    audit: "object"
    #: recovery wall time (seconds).
    duration_s: float = 0.0

    @property
    def clean(self) -> bool:
        return bool(self.audit.ok)

    def describe(self) -> dict:
        return {
            "wal_seq": self.wal_seq,
            "checkpoint_seq": self.checkpoint_seq,
            "records_replayed": self.records_replayed,
            "events_replayed": self.events_replayed,
            "torn_bytes": self.torn_bytes,
            "audit_ok": bool(self.audit.ok),
            "duration_s": round(self.duration_s, 6),
        }


class RecoveryError(WalError):
    """Recovery replayed the WAL but the recovered state failed its audit."""

    def __init__(self, result: RecoveryResult) -> None:
        super().__init__(
            f"recovered engine failed its integrity audit: {result.audit.summary()}"
        )
        self.result = result


def replay_records(engine, records: "list[WalRecord]") -> int:
    """Apply WAL records to a delta engine; returns events applied."""
    applied = 0
    for record in records:
        with telemetry.tracer.span(
            "wal.replay", seq=record.seq, events=len(record)
        ):
            report = engine.apply(record.events())
        applied += report.applied
    return applied


def recover_state(
    wal_dir: "str | os.PathLike[str]",
    base_trace: TemporalGraph,
    policy,
) -> RecoveryResult:
    """Rebuild the durable engine state from a WAL directory.

    The recovery state machine: :func:`plan_recovery` (fingerprint the
    base trace + policy → scan the WAL, discarding a torn tail → pick the
    newest valid checkpoint at or below the surviving sequence) → build
    the engine from its columns (or the base trace) → replay the records
    past it through :meth:`DeltaGraph.apply` → run the mandatory
    :func:`~repro.graph.audit.audit_delta` pass.  Raises
    :class:`RecoveryError` when the audit fails — callers must not serve
    from an unaudited recovery.
    """
    from time import perf_counter

    from repro.graph.delta import DeltaGraph

    started = perf_counter()
    _header, plan = plan_recovery(wal_dir, base_trace, policy)
    engine = DeltaGraph(
        base_trace if plan.start_trace is None else plan.start_trace
    )
    events_replayed = replay_records(engine, plan.records)
    audit = engine.audit()
    duration = perf_counter() - started
    if telemetry.metrics.enabled:
        telemetry.metrics.histogram("wal.recovery_seconds").observe(duration)
    result = RecoveryResult(
        engine=engine,
        wal_seq=plan.total_records,
        checkpoint_seq=plan.checkpoint_seq,
        records_replayed=len(plan.records),
        events_replayed=events_replayed,
        torn_bytes=plan.tail.torn_bytes,
        audit=audit,
        duration_s=duration,
    )
    if not audit.ok:
        raise RecoveryError(result)
    return result
