"""Serving-layer tests: units, robustness under injected faults, drain.

The integration cases run a real server (real sockets, real admission
queue, real worker pool) via :class:`repro.serve.ServerHarness`, with
failures scripted through :mod:`repro.eval.faults` — the same
deterministic plan machinery the batch runner's fault-tolerance suite
uses, pointed at the serve-layer keys ``serve.predict`` and
``serve.ingest``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.eval import faults
from repro.graph.io import write_trace
from repro.ingest import IngestPolicy
from repro.serve import (
    DEGRADED_HEADER,
    AdmissionQueue,
    CircuitBreaker,
    IngestRejected,
    Job,
    ScoreStore,
    ServeConfig,
    ServerHarness,
    StoreWriteError,
    UnknownNodeError,
    client,
    default_workers,
)
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN
from repro.serve.protocol import ProtocolError, read_request, response_bytes
from tests.conftest import build_trace

# A small diamond-plus-tail graph: enough two-hop structure for CN/RA
# scores, tiny enough that a /predict round trip is well under 10 ms.
SERVE_EVENTS = [
    (0, 1, 0.0),
    (1, 2, 1.0),
    (0, 2, 2.0),
    (2, 3, 3.0),
    (3, 4, 4.0),
    (0, 3, 5.0),
    (4, 5, 6.0),
    (1, 4, 7.0),
    (5, 6, 8.0),
    (2, 6, 9.0),
    (6, 7, 10.0),
    (0, 7, 11.0),
]


def serve_trace():
    return build_trace(SERVE_EVENTS)


@pytest.fixture
def fault_plan():
    """Install-and-clean fault plans; yields the installer."""
    try:
        yield lambda **kw: faults.install(faults.FaultPlan(**kw))
    finally:
        faults.clear()


# ---------------------------------------------------------------------------
# ServeConfig
# ---------------------------------------------------------------------------
class TestServeConfig:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.queue_size == 64
        assert config.resolved_workers >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_size": 0},
            {"queue_size": -3},
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
            {"drain_s": 0.0},
            {"breaker_threshold": 0},
            {"breaker_cooldown_s": -2.0},
            {"port": 70000},
            {"port": -1},
            {"workers": 0},
            {"audit_every": -1},
            {"max_k": 0},
            {"deadline_s": 60.0, "max_deadline_s": 30.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_workers_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_workers() == 3
        assert ServeConfig().resolved_workers == 3

    @pytest.mark.parametrize("value", ["-2", "abc"])
    def test_bad_env_workers_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError):
            default_workers()

    def test_zero_env_workers_means_one_per_cpu(self, monkeypatch):
        # The rule every REPRO_JOBS reader shares (repro.utils.jobs).
        monkeypatch.setenv("REPRO_JOBS", "0")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_workers() == 6
        monkeypatch.setenv("REPRO_JOBS", " 2")
        assert default_workers() == 2
        monkeypatch.delenv("REPRO_JOBS")
        assert default_workers() == 4  # unset: min(4, CPUs)

    def test_describe_reports_resolved_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        described = ServeConfig(workers=2).describe()
        assert described["workers"] == 2
        json.dumps(described)  # must stay JSON-safe for /statz


# ---------------------------------------------------------------------------
# CircuitBreaker (driven by a fake clock — no sleeping)
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        now = [0.0]
        breaker = CircuitBreaker(threshold, cooldown, clock=lambda: now[0])
        return breaker, now

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # not consecutive -> no trip

    def test_retry_after_counts_down(self):
        breaker, now = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(10.0)
        now[0] = 4.0
        assert breaker.retry_after() == pytest.approx(6.0)

    def test_half_open_admits_exactly_one_probe(self):
        breaker, now = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        now[0] = 10.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone queued behind it
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow()

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        breaker, now = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        now[0] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.retry_after() == pytest.approx(10.0)
        assert breaker.trips == 2

    def test_release_probe_frees_the_slot_without_closing(self):
        breaker, now = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        now[0] = 10.0
        assert breaker.allow()
        breaker.release_probe()
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # slot available again

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(0, 1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(1, 0.0)


# ---------------------------------------------------------------------------
# AdmissionQueue
# ---------------------------------------------------------------------------
class TestAdmissionQueue:
    def job(self, loop, name="j"):
        now = time.monotonic()
        return Job(
            name=name,
            run=lambda: None,
            future=loop.create_future(),
            enqueued_at=now,
            deadline_at=now + 5.0,
        )

    def test_rejects_when_full_and_counts_shed(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            queue = AdmissionQueue(2)
            assert queue.try_admit(self.job(loop))
            assert queue.try_admit(self.job(loop))
            assert not queue.try_admit(self.job(loop))  # reject-newest
            assert queue.depth == 2
            assert queue.stats.admitted == 2
            assert queue.stats.shed == 1
            assert queue.stats.max_depth == 2

        asyncio.run(scenario())

    def test_get_drains_jobs_then_sentinels(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            queue = AdmissionQueue(4)
            queue.try_admit(self.job(loop, "a"))
            queue.try_admit(self.job(loop, "b"))
            queue.close(workers=2)
            assert (await queue.get()).name == "a"
            assert (await queue.get()).name == "b"
            assert await queue.get() is None
            assert await queue.get() is None
            assert queue.depth == 0

        asyncio.run(scenario())

    def test_slot_frees_after_pickup(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            queue = AdmissionQueue(1)
            assert queue.try_admit(self.job(loop))
            assert not queue.try_admit(self.job(loop))
            await queue.get()
            assert queue.try_admit(self.job(loop))  # slot is free again

        asyncio.run(scenario())

    def test_zero_maxsize_rejected(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)


# ---------------------------------------------------------------------------
# HTTP protocol framing
# ---------------------------------------------------------------------------
class TestProtocol:
    def parse(self, data: bytes, max_body: int = 1024):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await read_request(reader, max_body)

        return asyncio.run(scenario())

    def test_parses_target_params_and_body(self):
        request = self.parse(
            b"POST /ingest?deadline_ms=250 HTTP/1.1\r\n"
            b"Host: x\r\nContent-Length: 8\r\n\r\n1 2 3.0\n"
        )
        assert request.method == "POST"
        assert request.path == "/ingest"
        assert request.params == {"deadline_ms": "250"}
        assert request.body == b"1 2 3.0\n"
        assert request.keep_alive

    def test_connection_close_honoured(self):
        request = self.parse(
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert self.parse(b"") is None

    def test_malformed_request_line_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            self.parse(b"NONSENSE\r\n\r\n")
        assert excinfo.value.status == 400

    def test_oversized_body_is_413(self):
        with pytest.raises(ProtocolError) as excinfo:
            self.parse(
                b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n",
                max_body=100,
            )
        assert excinfo.value.status == 413

    def test_response_bytes_roundtrip(self):
        raw = response_bytes(429, b'{"e":1}', headers={"Retry-After": "1"})
        text = raw.decode("latin-1")
        assert text.startswith("HTTP/1.1 429 Too Many Requests\r\n")
        assert "Retry-After: 1" in text
        assert text.endswith('\r\n\r\n{"e":1}')

    def test_content_type_override_does_not_duplicate(self):
        raw = response_bytes(
            200, b"x", headers={"Content-Type": "text/plain"}
        ).decode("latin-1")
        assert raw.count("Content-Type") == 1
        assert "Content-Type: text/plain" in raw


# ---------------------------------------------------------------------------
# ScoreStore
# ---------------------------------------------------------------------------
class TestScoreStore:
    def test_predict_is_deterministic_and_ranked(self):
        store = ScoreStore(serve_trace())
        a = store.predict(0, 5, "CN")
        b = store.predict(0, 5, "CN")
        assert a == b
        scores = [p["score"] for p in a["predictions"]]
        assert scores == sorted(scores, reverse=True)
        # ties break on ascending neighbour id
        for left, right in zip(a["predictions"], a["predictions"][1:]):
            if left["score"] == right["score"]:
                assert left["v"] < right["v"]

    def test_predict_unknown_node_raises(self):
        store = ScoreStore(serve_trace())
        with pytest.raises(UnknownNodeError):
            store.predict(999, 5, "CN")

    def test_predict_unknown_metric_raises_keyerror(self):
        store = ScoreStore(serve_trace())
        with pytest.raises(KeyError):
            store.predict(0, 5, "NOPE")

    def test_ingest_applies_and_swaps_snapshot(self):
        store = ScoreStore(serve_trace())
        before = store.snapshot
        result = store.ingest_lines("8 9 12.0\n9 10 13.0\n")
        assert result["applied"] == 2
        assert result["new_nodes"] == 3
        assert store.snapshot is not before
        assert store.snapshot.num_edges == before.num_edges + 2

    def test_strict_policy_rejects_whole_batch_without_side_effects(self):
        store = ScoreStore(serve_trace(), policy=IngestPolicy.strict())
        before = store.snapshot
        with pytest.raises(IngestRejected) as excinfo:
            store.ingest_lines("8 9 12.0\n5 5 13.0\n")
        assert excinfo.value.error_class == "self_loop"
        assert excinfo.value.lineno == 2
        assert store.snapshot is before
        assert store.snapshot.num_edges == before.num_edges

    def test_repair_policy_clamps_negative_and_stale_times(self):
        store = ScoreStore(serve_trace(), policy=IngestPolicy.repair())
        result = store.ingest_lines("8 9 -3.0\n")
        assert result["applied"] == 1
        # clamped to 0, then lifted to the stream end (no time travel)
        assert store.snapshot.trace.end_time == 11.0

    def test_quarantine_policy_drops_out_of_order_events(self):
        store = ScoreStore(serve_trace(), policy=IngestPolicy.quarantine())
        result = store.ingest_lines("8 9 12.0\n9 10 2.0\n10 11 13.0\n")
        assert result["applied"] == 2  # the in-order suffix survives
        assert result["rejected"].get("out_of_order", 0) >= 1

    def test_default_policy_counts_duplicates_without_applying(self):
        store = ScoreStore(serve_trace())
        result = store.ingest_lines("0 1 12.0\n")
        assert result["applied"] == 0
        assert result["rejected"] == {"duplicate_edge": 1}

    def test_comments_and_blank_lines_ignored(self):
        store = ScoreStore(serve_trace())
        result = store.ingest_lines("# header\n\n8 9 12.0\n")
        assert result["applied"] == 1

    def test_two_field_lines_get_the_stream_end_time(self):
        store = ScoreStore(serve_trace())
        result = store.ingest_lines("8 9\n")
        assert result["applied"] == 1
        assert store.snapshot.trace.end_time == 11.0

    def test_empty_trace_rejected(self):
        from repro.graph.dyngraph import TemporalGraph

        with pytest.raises(ValueError):
            ScoreStore(TemporalGraph())

    def test_audit_failure_poisons_then_resync_recovers(self, monkeypatch):
        store = ScoreStore(serve_trace(), audit_every=1)

        class FailedAudit:
            ok = False

            def summary(self):
                return "scripted violation"

        monkeypatch.setattr(store._engine, "audit", lambda: FailedAudit())
        with pytest.raises(StoreWriteError):
            store.ingest_lines("8 9 12.0\n")
        assert store.poisoned
        with pytest.raises(StoreWriteError):
            store.ingest_lines("9 10 13.0\n")  # poisoned: refuse writes
        monkeypatch.undo()
        store.resync()
        assert not store.poisoned
        # the engine is back at the last-good prefix and writable again
        assert store.ingest_lines("9 10 13.0\n")["applied"] == 1


# ---------------------------------------------------------------------------
# Integration: a live server per class/test via the harness
# ---------------------------------------------------------------------------
@pytest.fixture(scope="class")
def basic_server():
    with ServerHarness(serve_trace(), ServeConfig(port=0, workers=2)) as h:
        yield h


class TestServerBasics:
    def test_healthz_always_200(self, basic_server):
        response = basic_server.request("GET", "/healthz")
        assert response.status == 200
        assert response.json()["snapshot_edges"] == len(SERVE_EVENTS)

    def test_readyz_200_when_healthy(self, basic_server):
        assert basic_server.request("GET", "/readyz").status == 200

    def test_predict_contract(self, basic_server):
        response = basic_server.request("GET", "/predict?u=0&k=3&metric=CN")
        assert response.status == 200
        payload = response.json()
        assert payload["u"] == 0 and payload["metric"] == "CN"
        assert len(payload["predictions"]) <= 3
        assert {"v", "score"} <= set(payload["predictions"][0])
        assert "queue_wait_ms" in payload
        assert not response.degraded

    def test_unknown_node_404(self, basic_server):
        assert basic_server.request("GET", "/predict?u=555").status == 404

    def test_missing_u_400(self, basic_server):
        assert basic_server.request("GET", "/predict?k=3").status == 400

    @pytest.mark.parametrize(
        "target",
        [
            "/predict?u=zero",
            "/predict?u=0&k=zero",
            "/predict?u=0&k=0",
            "/predict?u=0&k=100000",
            "/predict?u=0&metric=NOPE",
            "/predict?u=0&deadline_ms=-5",
            "/predict?u=0&deadline_ms=soon",
        ],
    )
    def test_bad_parameters_400(self, basic_server, target):
        assert basic_server.request("GET", target).status == 400

    def test_unknown_route_404(self, basic_server):
        assert basic_server.request("GET", "/nope").status == 404

    def test_wrong_method_405(self, basic_server):
        response = basic_server.request("POST", "/predict?u=0")
        assert response.status == 405
        assert response.headers["allow"] == "GET"
        assert basic_server.request("GET", "/ingest").status == 405

    def test_ingest_applies_batch(self, basic_server):
        response = basic_server.request(
            "POST", "/ingest", body=b"20 21 30.0\n21 22 31.0\n"
        )
        assert response.status == 200
        payload = response.json()
        assert payload["applied"] == 2
        # the new edges are immediately visible to reads
        follow_up = basic_server.request("GET", "/predict?u=20&k=3&metric=CN")
        assert follow_up.status == 200

    def test_ingest_invalid_utf8_400(self, basic_server):
        assert (
            basic_server.request("POST", "/ingest", body=b"\xff\xfe").status
            == 400
        )

    def test_statz_reports_counters(self, basic_server):
        payload = basic_server.request("GET", "/statz").json()
        assert payload["queue"]["maxsize"] == 64
        assert payload["breaker"]["state"] == "closed"
        assert payload["server"]["requests"] > 0
        assert payload["config"]["workers"] == 2

    def test_metricz_404_without_telemetry(self, basic_server):
        assert basic_server.request("GET", "/metricz").status == 404


class TestServerRobustness:
    def test_hung_lookup_answers_504_within_deadline(self, fault_plan):
        fault_plan(hangs={"serve.predict": (2.0, 1)})
        config = ServeConfig(port=0, workers=2, deadline_s=0.3, drain_s=2.0)
        with ServerHarness(serve_trace(), config) as h:
            started = time.monotonic()
            response = h.request("GET", "/predict?u=0&k=3")
            elapsed = time.monotonic() - started
            assert response.status == 504
            assert elapsed < 1.5  # answered at the deadline, not the hang
            # the next lookup (fault exhausted) succeeds on a free worker
            assert h.request("GET", "/predict?u=0&k=3").status == 200
            # but health checks never waited behind the hung worker
            assert h.request("GET", "/healthz").status == 200

    def test_full_queue_sheds_with_429_and_retry_after(self, fault_plan):
        fault_plan(delays={"serve.predict": (0.4, 10)})
        config = ServeConfig(
            port=0, workers=1, queue_size=1, deadline_s=5.0, drain_s=10.0
        )
        with ServerHarness(serve_trace(), config) as h:
            futures = [
                h.submit(
                    client.request(
                        h.host, h.port, "GET", "/predict?u=0&k=3", timeout=15.0
                    )
                )
                for _ in range(4)
            ]
            responses = [f.result(timeout=20.0) for f in futures]
            statuses = sorted(r.status for r in responses)
            assert 429 in statuses, statuses
            assert 200 in statuses, statuses
            shed = next(r for r in responses if r.status == 429)
            assert "retry-after" in shed.headers
            assert shed.json()["queue_size"] == 1
            stats = h.request("GET", "/statz").json()
            assert stats["queue"]["shed"] >= 1

    def test_breaker_degrades_writes_and_recovers(self, fault_plan):
        fault_plan(errors={"serve.ingest": 2})
        config = ServeConfig(
            port=0,
            workers=2,
            breaker_threshold=2,
            breaker_cooldown_s=0.3,
            drain_s=2.0,
        )
        with ServerHarness(serve_trace(), config) as h:
            # two scripted write failures trip the breaker
            for _ in range(2):
                assert h.request("POST", "/ingest", body=b"8 9 12.0\n").status == 500
            # open: writes shed fast, reads degrade to the stale snapshot
            rejected = h.request("POST", "/ingest", body=b"8 9 12.0\n")
            assert rejected.status == 503
            assert "retry-after" in rejected.headers
            read = h.request("GET", "/predict?u=0&k=3")
            assert read.status == 200
            assert read.headers.get(DEGRADED_HEADER.lower()) == "stale-snapshot"
            assert h.request("GET", "/readyz").status == 503
            assert h.request("GET", "/healthz").status == 200  # still alive
            # cooldown elapses -> half-open -> the probe write succeeds
            time.sleep(0.4)
            probe = h.request("POST", "/ingest", body=b"8 9 12.0\n")
            assert probe.status == 200
            assert h.request("GET", "/readyz").status == 200
            assert not h.request("GET", "/predict?u=0&k=3").degraded
            stats = h.request("GET", "/statz").json()
            assert stats["breaker"]["state"] == "closed"
            assert stats["breaker"]["trips"] == 1

    def test_drain_completes_inflight_requests(self, fault_plan):
        fault_plan(delays={"serve.predict": (0.5, 1)})
        config = ServeConfig(port=0, workers=2, deadline_s=5.0, drain_s=5.0)
        h = ServerHarness(serve_trace(), config).start()
        try:
            future = h.submit(
                client.request(
                    h.host, h.port, "GET", "/predict?u=0&k=3", timeout=15.0
                )
            )
            time.sleep(0.15)  # let the slow request reach a worker
            clean = h.stop()
            assert clean is True
            assert future.result(timeout=5.0).status == 200
            assert h.server.stats.drained_clean is True
        finally:
            h.stop(drain=False)

    def test_new_requests_rejected_while_draining(self):
        config = ServeConfig(port=0, workers=1, drain_s=1.0)
        h = ServerHarness(serve_trace(), config).start()
        try:
            h.server._draining = True
            response = h.request("GET", "/predict?u=0&k=3")
            assert response.status == 503
            assert json.loads(response.body)["detail"] == "server is draining"
        finally:
            h.server._draining = False
            h.stop()


# ---------------------------------------------------------------------------
# The CLI process: SIGTERM drain, exit codes
# ---------------------------------------------------------------------------
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _src_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH", ""))
        if p
    )
    return env


def _spawn_server(tmp_path, *extra_args, env_extra=None):
    trace_path = tmp_path / "serve.txt"
    write_trace(serve_trace(), trace_path)
    env = _src_env()
    env.update(env_extra or {})
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--trace",
            str(trace_path),
            "--port",
            "0",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline().strip()
    match = re.search(r":(\d+)$", banner)
    assert match, f"no port in banner {banner!r} (stderr: {proc.stderr.read()})"
    return proc, int(match.group(1))


class TestServeProcess:
    def test_sigterm_drains_inflight_and_exits_zero(self, tmp_path):
        plan = faults.FaultPlan(delays={"serve.predict": (0.6, 1)})
        proc, port = _spawn_server(
            tmp_path,
            "--drain-s",
            "5",
            env_extra={faults.ENV_VAR: plan.to_json()},
        )
        try:
            result = {}

            def slow_request():
                result["response"] = client.sync_request(
                    "127.0.0.1", port, "GET", "/predict?u=0&k=3", timeout=15.0
                )

            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.2)  # the delayed request is now in flight
            proc.send_signal(signal.SIGTERM)
            thread.join(timeout=10.0)
            out, err = proc.communicate(timeout=15.0)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert result["response"].status == 200  # finished during drain
        assert proc.returncode == 0, err
        assert "drained cleanly" in err

    def test_sigterm_on_idle_server_exits_zero(self, tmp_path):
        proc, port = _spawn_server(tmp_path)
        try:
            assert (
                client.sync_request("127.0.0.1", port, "GET", "/healthz").status
                == 200
            )
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=15.0)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, err


class TestServeStartupImports:
    def test_serving_modules_do_not_import_scipy_optimize(self):
        """Only the LR/SVM fits use scipy.optimize; they import it on
        first fit, so a server start does not pay for it."""
        probe = (
            "import repro.__main__, repro.serve, repro.ingest, repro.graph.delta, sys; "
            "assert 'scipy.optimize' not in sys.modules"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=_src_env(),
            timeout=60,
        )
        assert result.returncode == 0, result.stderr


class TestServeCLIValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--trace", "x.txt", "--queue-size", "0"],
            ["serve", "--trace", "x.txt", "--queue-size", "lots"],
            ["serve", "--trace", "x.txt", "--workers", "-1"],
            ["serve", "--trace", "x.txt", "--deadline-ms", "0"],
            ["serve", "--trace", "x.txt", "--deadline-ms", "-250"],
            ["serve", "--trace", "x.txt", "--deadline-ms", "nan"],
            ["serve", "--trace", "x.txt", "--drain-s", "0"],
            ["serve", "--trace", "x.txt", "--breaker-threshold", "0"],
            ["serve", "--trace", "x.txt", "--breaker-cooldown-s", "-1"],
            ["serve", "--trace", "x.txt", "--audit-every", "-2"],
            ["serve", "--trace", "x.txt", "--port", "-80"],
            ["audit", "--trace", "x.txt", "--delta", "0"],
            ["audit", "--trace", "x.txt", "--delta", "-5"],
            ["audit", "--trace", "x.txt", "--delta", "ten"],
        ],
    )
    def test_nonpositive_or_invalid_flags_exit_2(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        # argparse prints exactly one usage line + one error line
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("usage:") is False
        assert "error:" in err[-1]
