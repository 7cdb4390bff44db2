"""DeltaGraph-backed score store: snapshot-consistent reads, policied writes.

The store owns the server's only mutable state.  Reads never touch the
live :class:`~repro.graph.delta.DeltaGraph` — they are served from the
*last-good snapshot*, the snapshot materialised after the most recent
successful write (or at startup).  Writes are serialised by the server,
screened through the ingest error taxonomy under an
:class:`~repro.ingest.IngestPolicy`, applied via ``delta.apply``, and
only then atomically swap in a freshly materialised snapshot.  A write
that fails — an injected fault, an apply error, or a failed integrity
audit — leaves the previous snapshot untouched, which is exactly what
lets the circuit breaker degrade reads to stale-but-served instead of
taking the whole service down.

Byte-parity with the batch pipeline holds by construction: the snapshot
is ``DeltaGraph.materialize()`` output (proven byte-identical to a full
rebuild by ``tests/test_delta_equivalence.py``), and per-pair scores are
computed by the same registered metric classes the experiment runner
uses, so a served score is bit-for-bit the score ``run_experiment``
would compute on the same prefix.

A read costs what its node's neighbourhood costs: its candidates come
from the node's CSR rows, never from the snapshot's full candidate
array; SP, LP and Katz_sc compute the node's row of their path matrix,
and LRW the node's row and column of ``P^m``, instead of the whole
matrix.  CN, AA and RA score a read's few hundred pairs through the
common-neighbour expansion, and BCN/BAA/BRA read the triangle counts
the engine keeps, so a written snapshot carries no candidate array or
score table: a write installs the structure and those counts only.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.eval import faults
from repro.graph.delta import DeltaGraph
from repro.graph.dyngraph import TemporalGraph
from repro.ingest import IngestPolicy, classify_event_line
from repro.metrics.base import all_metric_names, get_metric
from repro.metrics.candidates import candidate_pairs
from repro.metrics.kernels import score_pairs

#: fault-plan keys honoured by the store (see repro.eval.faults.before_key).
PREDICT_FAULT_KEY = "serve.predict"
INGEST_FAULT_KEY = "serve.ingest"


class UnknownNodeError(KeyError):
    """The queried node is not in the served snapshot."""


class IngestRejected(ValueError):
    """A strict-policy taxonomy violation in a POST /ingest body."""

    def __init__(self, error_class: str, lineno: int, detail: str) -> None:
        super().__init__(f"{error_class} at body line {lineno}: {detail}")
        self.error_class = error_class
        self.lineno = lineno
        self.detail = detail


class StoreWriteError(RuntimeError):
    """A write failed after screening (apply error or failed audit)."""


class ScoreStore:
    """Serving-side state: a delta engine plus its last-good snapshot.

    Thread-safety contract: ``predict`` may run concurrently from any
    number of pool threads; ``ingest_lines`` must be externally
    serialised (the server holds an asyncio lock across it).  The
    snapshot swap is a single attribute assignment, so readers always
    see either the old or the new snapshot, never a mix.
    """

    def __init__(
        self,
        trace: TemporalGraph,
        *,
        policy: "IngestPolicy | None" = None,
        audit_every: int = 0,
        durability=None,
    ) -> None:
        if trace.num_edges == 0:
            raise ValueError("cannot serve an empty trace")
        self.policy = policy if policy is not None else IngestPolicy.default()
        self.audit_every = audit_every
        #: optional :class:`~repro.serve.durability.DurabilityManager`;
        #: when set, accepted batches are WAL-logged before they are
        #: applied, so an ack always implies a replayable record.
        self.durability = durability
        self._engine = DeltaGraph(trace)
        self._snapshot = self._engine.materialize()
        self._batches_accepted = 0
        self._poisoned = False
        self._op_counts: dict[str, int] = {}
        self._op_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def snapshot(self):
        """The last-good snapshot (atomic reference read)."""
        return self._snapshot

    @property
    def poisoned(self) -> bool:
        """True after a failed audit, until :meth:`resync` runs."""
        return self._poisoned

    def describe(self) -> dict:
        snapshot = self._snapshot
        return {
            "snapshot_edges": snapshot.num_edges,
            "snapshot_nodes": snapshot.num_nodes,
            "snapshot_time": snapshot.time,
            "engine_edges": self._engine.num_edges,
            "batches_accepted": self._batches_accepted,
            "poisoned": self._poisoned,
            "durable": self.durability is not None,
            "metrics": all_metric_names(),
        }

    def _fault_point(self, key: str) -> None:
        """Run the deterministic fault hook with a per-key call index."""
        with self._op_lock:
            attempt = self._op_counts.get(key, 0)
            self._op_counts[key] = attempt + 1
        faults.before_key(key, attempt)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def predict(self, u: int, k: int, metric_name: str) -> dict:
        """Top-k predicted neighbours of ``u`` under ``metric_name``.

        Runs entirely against the last-good snapshot.  Candidates are the
        rows of the metric's own enumeration that touch ``u``, read from
        ``u``'s neighbourhood (``candidate_pairs(..., node=u)``) without
        building the snapshot's full candidate array.  Scores route
        through the batched kernel layer
        (:func:`repro.metrics.kernels.score_pairs`: the common-neighbour
        expansion for CN/AA/RA and the other neighbourhood metrics, the
        engine's triangle counts for BCN/BAA/BRA, one matrix row for
        SP/LP/Katz_sc, one row
        and one column of ``P^m`` for LRW), so each value is
        bit-identical to the batch pipeline's score for the same pair on
        the same prefix.  Ranking is deterministic:
        descending score, ascending neighbour id on ties — a stable
        contract for clients, unlike the evaluation protocol's random
        tie-breaking (which is a property of the *accuracy experiment*,
        not of a production ranking).
        """
        self._fault_point(PREDICT_FAULT_KEY)
        snapshot = self._snapshot
        metric = get_metric(metric_name)  # KeyError -> 400 upstream
        if not snapshot.has_node(u):
            raise UnknownNodeError(u)
        mine = candidate_pairs(snapshot, metric.candidate_strategy, node=u)
        predictions = []
        if len(mine):
            metric.fit(snapshot)
            scores = score_pairs(metric, snapshot, mine)
            others = np.where(mine[:, 0] == u, mine[:, 1], mine[:, 0])
            order = np.lexsort((others, -scores))[:k]
            predictions = [
                {"v": int(others[i]), "score": float(scores[i])}
                for i in order
            ]
        return {
            "u": int(u),
            "k": int(k),
            "metric": metric_name,
            "snapshot": {
                "edges": snapshot.num_edges,
                "nodes": snapshot.num_nodes,
                "time": snapshot.time,
            },
            "candidates": int(len(mine)),
            "predictions": predictions,
        }

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def ingest_lines(self, text: str) -> dict:
        """Screen, apply, and re-materialise one edge batch.

        ``text`` is trace-file syntax (``u v [t]`` per line; blank lines
        and ``#`` comments ignored).  Lines travel the same taxonomy as
        file ingest — parse errors, bad node ids, bad timestamps,
        self-loops, out-of-order and duplicate events — with the store's
        policy deciding strict (reject the whole batch, 400), repair, or
        quarantine (drop and count) per class.  The surviving events go
        through ``DeltaGraph.apply``; an optional audit runs every
        ``audit_every``-th accepted batch; success swaps in a fresh
        snapshot.  Everything before ``apply`` is side-effect-free, so a
        rejected batch changes nothing.
        """
        events, counts = self._screen(text)
        self._fault_point(INGEST_FAULT_KEY)
        if self._poisoned:
            raise StoreWriteError(
                "engine poisoned by an earlier audit failure; resync required"
            )
        logged = False
        if self.durability is not None and events:
            # WAL-before-apply: screening already enforced everything
            # ``apply`` validates (finite, non-negative, non-decreasing
            # past the stream end), so a logged batch always replays.
            # A WAL write failure aborts before any in-memory mutation —
            # the StoreWriteError trips the breaker and the server
            # degrades to read-only rather than acking non-durable data.
            try:
                self.durability.record_batch(events)
            except OSError as exc:
                raise StoreWriteError(f"WAL append failed: {exc}") from exc
            logged = True
        try:
            report = self._engine.apply(events)
        except ValueError as exc:
            if logged:
                # The WAL now holds a record the engine does not: the
                # in-memory state is behind the durable log and only a
                # restart (recovery replays the WAL) reconverges them.
                self._poisoned = True
            raise StoreWriteError(f"delta apply rejected the batch: {exc}") from exc
        self._batches_accepted += 1
        if self.audit_every and self._batches_accepted % self.audit_every == 0:
            audit = self._engine.audit()
            if not audit.ok:
                self._poisoned = True
                raise StoreWriteError(
                    f"delta audit failed after batch "
                    f"{self._batches_accepted}: {audit.summary()}"
                )
        if report.applied:
            self._snapshot = self._engine.materialize()
        counts["duplicate_edge"] = counts.get("duplicate_edge", 0) + report.duplicates
        counts["self_loop"] = counts.get("self_loop", 0) + report.self_loops
        return {
            "applied": report.applied,
            "new_nodes": report.new_nodes,
            "snapshot_edges": self._snapshot.num_edges,
            "rejected": {k: v for k, v in sorted(counts.items()) if v},
        }

    def resync(self) -> None:
        """Rebuild the engine from the last-good snapshot's prefix.

        The recovery path behind the breaker's half-open probe: after an
        audit failure the maintained delta structures cannot be trusted,
        but the last-good snapshot's event prefix can — it passed its own
        audit when it was materialised.  Rebuilding from that prefix
        discards everything after it (the batches that corrupted the
        engine) and restores the store to a provably consistent state.
        """
        if not self._poisoned:
            return
        good = self._snapshot
        self._engine = DeltaGraph(good.trace.prefix(good.num_edges))
        self._snapshot = self._engine.materialize()
        self._poisoned = False

    # ------------------------------------------------------------------
    # Durability path
    # ------------------------------------------------------------------
    def replay_wal(self, records) -> dict:
        """Replay surviving WAL records into the engine, audit, swap.

        The recovery tail: the store was constructed from the newest
        valid checkpoint's columns (or the base trace), so the engine is
        already at the checkpoint's WAL sequence and ``records`` are
        everything past it.  The audit is mandatory — a recovered engine
        that fails it poisons the store (reads keep serving the
        checkpoint snapshot; writes stay down) rather than serving
        unverified state.
        """
        from repro.graph.wal import replay_records

        applied = replay_records(self._engine, records)
        audit = self._engine.audit()
        if not audit.ok:
            self._poisoned = True
            raise StoreWriteError(
                f"post-replay audit failed: {audit.summary()}"
            )
        if applied:
            self._snapshot = self._engine.materialize()
        return {"records": len(records), "events": applied}

    def checkpoint_if_due(self) -> "int | None":
        """Cadence-gated checkpoint of the engine's current stream.

        Must run serialised with writes (the server calls it under the
        ingest lock) so the trace handed to the manager is at exactly the
        manager's WAL sequence.
        """
        if self.durability is None or self._poisoned:
            return None
        return self.durability.maybe_checkpoint(self._engine.trace)

    def finalize_durability(self) -> None:
        """Drain hook: final fsync + checkpoint + WAL close."""
        if self.durability is None:
            return
        self.durability.close(None if self._poisoned else self._engine.trace)

    # ------------------------------------------------------------------
    def _screen(self, text: str) -> "tuple[list[tuple[int, int, float]], dict]":
        """Apply the ingest taxonomy to a request body; policy decides."""
        policy = self.policy
        counts: dict[str, int] = {}

        def handle(error_class: str, lineno: int, detail: str) -> str:
            action = policy.action(error_class)
            if action == "strict":
                raise IngestRejected(error_class, lineno, detail)
            counts[error_class] = counts.get(error_class, 0) + 1
            return action

        parsed: list[tuple[int, int, float]] = []
        end_time = self._engine.trace.end_time if self._engine.num_edges else 0.0
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            verdict = classify_event_line(parts)
            if verdict is not None:
                handle(verdict[0], lineno, verdict[1])
                continue
            u, v = int(parts[0]), int(parts[1])
            t = float(parts[2]) if len(parts) == 3 else end_time
            if not math.isfinite(t):
                handle("nonfinite_time", lineno, f"timestamp {parts[2]!r}")
                continue
            if t < 0:
                action = handle("negative_time", lineno, f"timestamp {t!r}")
                if action != "repair":
                    continue
                t = 0.0  # the taxonomy's deterministic fix: clamp to zero
            if u == v:
                handle("self_loop", lineno, f"node {u}")
                continue
            parsed.append((u, v, t))

        # Ordering: the file-ingest repair is a stable time sort; the
        # serving twist is that events cannot be reordered into the
        # already-committed past, so anything older than the stream's end
        # is clamped up to it (repair) or dropped (quarantine).
        events: list[tuple[int, int, float]] = []
        last = end_time
        out_of_order = [
            i for i in range(1, len(parsed)) if parsed[i][2] < parsed[i - 1][2]
        ]
        stale = [i for i, ev in enumerate(parsed) if ev[2] < end_time]
        if out_of_order or stale:
            lineno = (out_of_order or stale)[0] + 1
            action = handle(
                "out_of_order",
                lineno,
                f"{len(out_of_order)} in-batch inversions, "
                f"{len(stale)} events before stream end {end_time!r}",
            )
            if action == "repair":
                parsed.sort(key=lambda ev: ev[2])
                events = [(u, v, max(t, end_time)) for u, v, t in parsed]
            else:  # quarantine: keep the longest in-order suffix stream
                for u, v, t in parsed:
                    if t >= last:
                        events.append((u, v, t))
                        last = t
                    else:
                        counts["out_of_order"] = counts.get("out_of_order", 0) + 1
        else:
            events = parsed

        if policy.action("duplicate_edge") == "strict" and events:
            seen: set = set()
            trace = self._engine.trace
            for lineno, (u, v, t) in enumerate(events, start=1):
                pair = (u, v) if u < v else (v, u)
                if pair in seen or trace.has_edge(u, v):
                    raise IngestRejected(
                        "duplicate_edge", lineno, f"edge {pair} already exists"
                    )
                seen.add(pair)
        return events, counts
