"""Unit + integration suite for the shard subsystem internals.

Covers the planner (line-aligned boundaries, universal-newline line
counts, gzip whole-file shards), the ``repro-shards v1`` manifest and
its result cache (hit on identical bytes, miss on mutation, never a
stale serve), the gzip edge cases of the parallel path (multi-member
gzip, gzip+plain mixed sets, empty shards), per-shard rejects sidecars
round-tripping through ``read_rejects`` on a manifest, the pool driver's
fault tolerance (retry, rebuild, degrade — merged output unchanged),
``$REPRO_JOBS`` resolution, and the ``repro ingest`` / extended
``repro audit`` CLI.
"""

from __future__ import annotations

import gzip
import json
import os

import numpy as np
import pytest

from repro.__main__ import main
from repro.ingest import IngestPolicy, read_rejects, scan_trace
from repro.ingest.shard import (
    JOBS_ENV_VAR,
    ShardIngestError,
    load_shards,
    manifest_sources,
    plan_shards,
    read_manifest,
    read_manifest_rejects,
    resolve_jobs,
    resolve_shard_bytes,
    scan_shards,
    verify_shard,
    write_manifest,
)
from repro.ingest.shard import worker as shard_worker
from repro.ingest.shard.planner import MIN_SHARD_BYTES, _scan_chunk
from repro.utils import pool as pool_module
from tests.test_pool_supervisor import _FlakyPool


def write_trace_text(path, n=200, dirty=True, start=0, t0=0.0):
    lines = ["# repro-trace v2"]
    for i in range(n):
        lines.append(f"{start + i} {start + i + 1} {float(t0 + i)!r}")
    if dirty:
        lines.insert(50, "5 5 3.0")      # self_loop
        lines.append("not an event")     # parse_error
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------
class TestPlanner:
    def test_boundaries_are_line_aligned(self, tmp_path):
        path = write_trace_text(tmp_path / "t.txt", n=500, dirty=False)
        specs = plan_shards([path], shard_bytes=256)
        data = path.read_bytes()
        assert specs[0].byte_start == 0
        assert specs[-1].byte_end == len(data)
        for prev, cur in zip(specs, specs[1:]):
            assert prev.byte_end == cur.byte_start
            assert data[cur.byte_start - 1 : cur.byte_start] == b"\n"

    @pytest.mark.parametrize("payload, expected_lines", [
        (b"", 0),
        (b"a\nb\nc\n", 3),
        (b"a\nb\nc", 3),          # no trailing terminator
        (b"a\r\nb\r\nc\r\n", 3),  # CRLF
        (b"a\rb\rc", 3),          # bare CR
        (b"a\r\n\r\nb", 3),       # blank CRLF line in the middle
        (b"\n", 1),
    ])
    def test_line_counts_match_text_mode(self, tmp_path, payload, expected_lines):
        path = tmp_path / "t.txt"
        path.write_bytes(payload)
        with open(path, "rb") as fh:
            _checksum, lines = _scan_chunk(fh, 0, len(payload))
        assert lines == expected_lines
        with open(path, encoding="utf-8") as fh:
            assert lines == sum(1 for _ in fh)

    def test_crlf_never_straddles_a_buffer_seam(self, tmp_path):
        # \r\n pairs positioned around the 1 MiB scan-buffer boundary.
        path = tmp_path / "t.txt"
        payload = b"x" * ((1 << 20) - 1) + b"\r\n" + b"y\r\n"
        path.write_bytes(payload)
        with open(path, "rb") as fh:
            _checksum, lines = _scan_chunk(fh, 0, len(payload))
        assert lines == 2

    def test_start_lines_accumulate(self, tmp_path):
        path = write_trace_text(tmp_path / "t.txt", n=300, dirty=False)
        specs = plan_shards([path], shard_bytes=512)
        assert len(specs) > 2
        assert specs[0].start_line == 1
        for prev, cur in zip(specs, specs[1:]):
            assert cur.start_line == prev.start_line + prev.line_count
        total = specs[-1].start_line + specs[-1].line_count - 1
        with open(path, encoding="utf-8") as fh:
            assert total == sum(1 for _ in fh)

    def test_gzip_is_one_whole_file_shard(self, tmp_path):
        plain = write_trace_text(tmp_path / "a.txt", n=50, dirty=False)
        gz = tmp_path / "b.txt.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        specs = plan_shards([plain, gz], shard_bytes=128)
        gz_specs = [s for s in specs if s.gzip]
        assert len(gz_specs) == 1
        assert gz_specs[0].line_count == -1
        assert gz_specs[0].byte_start == 0
        assert gz_specs[0].byte_end == gz.stat().st_size

    def test_empty_file_gets_one_empty_shard(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        specs = plan_shards([path], shard_bytes=64)
        assert len(specs) == 1
        assert (specs[0].byte_start, specs[0].byte_end) == (0, 0)

    def test_resolve_shard_bytes(self, tmp_path):
        path = write_trace_text(tmp_path / "t.txt", n=100, dirty=False)
        assert resolve_shard_bytes([str(path)], shard_bytes=123) == 123
        derived = resolve_shard_bytes([str(path)], jobs=4)
        assert derived == MIN_SHARD_BYTES  # tiny file clamps up
        with pytest.raises(ValueError):
            resolve_shard_bytes([str(path)], shard_bytes=0)


# ---------------------------------------------------------------------------
# Manifest + cache
# ---------------------------------------------------------------------------
class TestManifest:
    def test_round_trip(self, tmp_path):
        path = write_trace_text(tmp_path / "t.txt", n=200, dirty=False)
        specs = plan_shards([path], shard_bytes=512)
        manifest = tmp_path / "t.shards.json"
        write_manifest(manifest, specs, 512)
        payload = read_manifest(manifest)
        assert payload["shard_bytes"] == 512
        assert payload["shards"] == specs
        assert manifest_sources(manifest) == [str(path)]
        assert all(verify_shard(spec) for spec in specs)

    def test_verify_shard_detects_mutation(self, tmp_path):
        path = write_trace_text(tmp_path / "t.txt", n=200, dirty=False)
        specs = plan_shards([path], shard_bytes=512)
        data = bytearray(path.read_bytes())
        data[specs[1].byte_start] = ord("9")
        path.write_bytes(bytes(data))
        assert verify_shard(specs[0])
        assert not verify_shard(specs[1])

    def test_bad_format_rejected(self, tmp_path):
        bogus = tmp_path / "m.json"
        bogus.write_text(json.dumps({"format": "something else"}))
        with pytest.raises(ValueError, match="repro-shards"):
            read_manifest(bogus)

    def test_cache_hits_and_invalidation(self, tmp_path):
        path = write_trace_text(tmp_path / "t.txt", n=400, dirty=True)
        manifest = tmp_path / "t.shards.json"
        first = scan_shards(
            [path], policy=IngestPolicy.repair(), jobs=1,
            shard_bytes=1024, manifest=manifest,
        )
        assert os.path.isdir(f"{manifest}.cache")
        second = scan_shards(
            [path], policy=IngestPolicy.repair(), jobs=1, manifest=manifest
        )
        rows = [r for r in second[3].shard_timings if r["shard"] != "plan"]
        assert rows and all(row["cached"] for row in rows)
        assert second[3].checksum == first[3].checksum
        assert second[0].tobytes() == first[0].tobytes()
        # a different policy must not reuse the cached parses
        other = scan_shards(
            [path], policy=IngestPolicy.quarantine(), jobs=1, manifest=manifest
        )
        rows = [r for r in other[3].shard_timings if r["shard"] != "plan"]
        assert not any(row["cached"] for row in rows)
        # same-length mutation (boundaries unmoved): exactly one shard's
        # checksum changes, it re-parses, and the output reflects the edit
        data = path.read_text(encoding="utf-8")
        mutated = data.replace("7 8 7.0", "7 8 9.5", 1)
        assert mutated != data and len(mutated) == len(data)
        path.write_text(mutated, encoding="utf-8")
        third = scan_shards(
            [path], policy=IngestPolicy.repair(), jobs=1, manifest=manifest
        )
        rows = [r for r in third[3].shard_timings if r["shard"] != "plan"]
        assert any(row["cached"] for row in rows)
        assert not all(row["cached"] for row in rows)
        serial = scan_trace(path, policy=IngestPolicy.repair())
        assert third[3].checksum == serial[3].checksum
        assert third[2].tobytes() == serial[2].tobytes()

    def test_corrupt_cache_entry_is_reparsed(self, tmp_path):
        path = write_trace_text(tmp_path / "t.txt", n=300, dirty=False)
        manifest = tmp_path / "t.shards.json"
        scan_shards([path], jobs=1, shard_bytes=1024, manifest=manifest)
        cache_dir = f"{manifest}.cache"
        entries = sorted(os.listdir(cache_dir))
        assert entries
        with open(os.path.join(cache_dir, entries[0]), "wb") as fh:
            fh.write(b"garbage, not an npz")
        us, vs, ts, report = scan_shards([path], jobs=1, manifest=manifest)
        serial = scan_trace(path)
        assert report.checksum == serial[3].checksum


# ---------------------------------------------------------------------------
# Rejects sidecars across shard sets (satellite a)
# ---------------------------------------------------------------------------
class TestShardRejects:
    def test_per_source_sidecars_round_trip_via_manifest(self, tmp_path):
        a = write_trace_text(tmp_path / "a.txt", n=80, dirty=True)
        b = write_trace_text(tmp_path / "b.txt", n=80, dirty=True, start=500)
        manifest = tmp_path / "set.shards.json"
        us, vs, ts, report = scan_shards(
            [a, b], policy=IngestPolicy.quarantine(), jobs=2,
            shard_bytes=256, manifest=manifest,
        )
        assert report.quarantine_paths == [f"{a}.rejects", f"{b}.rejects"]
        records = read_manifest_rejects(manifest)
        assert records == read_rejects(manifest)  # loader sniffs manifests
        assert {r.path for r in records} == {str(a), str(b)}
        # lossless: every record's raw line is byte-identical to its source
        for record in records:
            with open(record.path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert lines[record.lineno - 1] == record.line
        # per-source linenos overlap across files; path disambiguates
        linenos = [(r.path, r.lineno) for r in records]
        assert len(set(linenos)) == len(linenos)

    def test_single_source_honours_quarantine_path(self, tmp_path):
        a = write_trace_text(tmp_path / "a.txt", n=80, dirty=True)
        sidecar = tmp_path / "custom.rejects"
        _, _, _, report = scan_shards(
            [a], policy=IngestPolicy.quarantine(), jobs=1,
            shard_bytes=256, quarantine_path=sidecar,
        )
        assert report.quarantine_path == str(sidecar)
        assert sidecar.exists()

    def test_multi_source_rejects_custom_path(self, tmp_path):
        a = write_trace_text(tmp_path / "a.txt", n=20)
        b = write_trace_text(tmp_path / "b.txt", n=20)
        with pytest.raises(ValueError, match="single-source"):
            scan_shards(
                [a, b], policy=IngestPolicy.quarantine(),
                quarantine_path=tmp_path / "x.rejects",
            )


# ---------------------------------------------------------------------------
# Gzip edge cases in parallel mode (satellite c)
# ---------------------------------------------------------------------------
class TestGzipParallel:
    def _parity(self, paths, tmp_path, jobs=3):
        policy = IngestPolicy.repair()
        serial = scan_shards(paths, policy=policy, jobs=1, shard_bytes=256)
        parallel = scan_shards(paths, policy=policy, jobs=jobs, shard_bytes=256)
        assert parallel[3].checksum == serial[3].checksum
        for i in range(3):
            assert parallel[i].tobytes() == serial[i].tobytes()
        return parallel

    def test_multi_member_gzip(self, tmp_path):
        half1 = "\n".join(f"{i} {i + 1} {float(i)!r}" for i in range(50))
        half2 = "\n".join(f"{i} {i + 1} {float(i)!r}" for i in range(50, 100))
        gz = tmp_path / "multi.txt.gz"
        gz.write_bytes(
            gzip.compress((half1 + "\n").encode())
            + gzip.compress((half2 + "\n").encode())
        )
        us, vs, ts, report = self._parity([gz], tmp_path)
        assert report.events_accepted == 100  # both members read

    def test_mixed_gzip_and_plain_shard_set(self, tmp_path):
        plain = write_trace_text(tmp_path / "a.txt", n=120, dirty=True)
        gz_src = write_trace_text(tmp_path / "b.txt", n=120, dirty=True,
                                  start=900)
        gz = tmp_path / "b.txt.gz"
        gz.write_bytes(gzip.compress(gz_src.read_bytes()))
        gz_src.unlink()
        us, vs, ts, report = self._parity([plain, gz], tmp_path)
        assert report.gzip is True
        assert report.sources == [str(plain), str(gz)]

    def test_empty_shard_in_a_set(self, tmp_path):
        plain = write_trace_text(tmp_path / "a.txt", n=60, dirty=False)
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        us, vs, ts, report = self._parity([plain, empty], tmp_path)
        assert report.events_accepted == 60
        # and an empty file alone is a valid (empty) stream
        eu, ev, et, ereport = scan_shards([empty], jobs=2)
        assert len(et) == 0 and ereport.events_accepted == 0


# ---------------------------------------------------------------------------
# Pool fault tolerance
# ---------------------------------------------------------------------------
@pytest.fixture()
def flaky_pool(monkeypatch):
    _FlakyPool.fail_budget = 0
    _FlakyPool.created = 0
    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _FlakyPool)
    return _FlakyPool


def _specs_and_serial(tmp_path):
    path = write_trace_text(tmp_path / "t.txt", n=400, dirty=True)
    specs = plan_shards([path], shard_bytes=1024)
    assert len(specs) >= 3
    serial = scan_trace(path, policy=IngestPolicy.repair())
    return path, specs, serial


class TestPoolFaultTolerance:
    def test_broken_pool_rebuilds_and_completes(self, tmp_path, flaky_pool):
        path, specs, serial = _specs_and_serial(tmp_path)
        flaky_pool.fail_budget = 1
        us, vs, ts, report = scan_shards(
            [path], policy=IngestPolicy.repair(), jobs=2, shard_bytes=1024
        )
        assert flaky_pool.created >= 2  # the pool was rebuilt
        assert report.checksum == serial[3].checksum
        assert ts.tobytes() == serial[2].tobytes()

    def test_persistent_crashes_degrade_to_inline(self, tmp_path, flaky_pool):
        path, specs, serial = _specs_and_serial(tmp_path)
        flaky_pool.fail_budget = 10_000
        us, vs, ts, report = scan_shards(
            [path], policy=IngestPolicy.repair(), jobs=2, shard_bytes=1024
        )
        assert report.checksum == serial[3].checksum  # still correct

    def test_task_error_retries_then_raises(self, tmp_path, flaky_pool, monkeypatch):
        path, specs, serial = _specs_and_serial(tmp_path)
        real_parse = shard_worker.parse_shard
        calls = {"n": 0}

        def flaky_parse(spec_payload, policy_payload):
            calls["n"] += 1
            if spec_payload["index"] == 1 and calls["n"] < 3:
                raise OSError("simulated transient read failure")
            return real_parse(spec_payload, policy_payload)

        monkeypatch.setattr(shard_worker, "parse_shard", flaky_parse)
        us, vs, ts, report = scan_shards(
            [path], policy=IngestPolicy.repair(), jobs=2, shard_bytes=1024
        )
        assert report.checksum == serial[3].checksum

        def always_fails(spec_payload, policy_payload):
            raise OSError("permanent failure")

        monkeypatch.setattr(shard_worker, "parse_shard", always_fails)
        with pytest.raises(ShardIngestError, match="failed after"):
            scan_shards([path], policy=IngestPolicy.repair(), jobs=2,
                        shard_bytes=1024)


# ---------------------------------------------------------------------------
# Jobs resolution
# ---------------------------------------------------------------------------
class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs(None) == 5
        monkeypatch.delenv(JOBS_ENV_VAR)
        assert resolve_jobs(None) == 1

    def test_zero_means_cpu_count(self, monkeypatch):
        assert resolve_jobs(0) == max(1, os.cpu_count() or 1)

    def test_invalid(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_jobs(-2)
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)

    @pytest.mark.parametrize("value", [" 1", "01", "0"])
    def test_scan_trace_env_one_worker_stays_serial(
        self, tmp_path, monkeypatch, value
    ):
        """Values that resolve to one worker (0 on a one-CPU host) keep
        the serial pipeline instead of sharding with a single worker."""
        from repro.ingest.loader import scan_trace

        path = write_trace_text(tmp_path / "t.txt", n=50, dirty=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setenv(JOBS_ENV_VAR, value)
        *_, report = scan_trace(path)
        assert not report.shard_timings
        *_, report = scan_trace(path, jobs=0)
        assert not report.shard_timings

    def test_load_trace_env_opt_in(self, tmp_path, monkeypatch):
        from repro.ingest import load_trace

        path = write_trace_text(tmp_path / "t.txt", n=50, dirty=False)
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        serial = load_trace(path, jobs=1)
        sharded = load_trace(path, jobs=None)  # env decides
        su, sv, st = serial.columns()
        pu, pv, pt = sharded.columns()
        assert pt.tobytes() == st.tobytes()
        assert sharded.ingest_report.checksum == serial.ingest_report.checksum
        # the env-selected load really took the shard path (and jobs=1
        # explicitly really did not)
        assert sharded.ingest_report.shard_timings
        assert not serial.ingest_report.shard_timings


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_ingest_serial_vs_sharded_checksum(self, tmp_path, capsys):
        path = write_trace_text(tmp_path / "t.txt", n=300, dirty=True)
        assert main(["ingest", str(path), "--policy", "repair",
                     "--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["ingest", str(path), "--policy", "repair", "--jobs", "2",
                     "--shards", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checksum"] in serial_out
        assert payload["sources"] == [str(path)]
        assert any(r["shard"] == "plan" for r in payload["shard_timings"])

    def test_ingest_writes_manifest(self, tmp_path, capsys):
        path = write_trace_text(tmp_path / "t.txt", n=300, dirty=False)
        manifest = tmp_path / "t.shards.json"
        assert main(["ingest", str(path), "--jobs", "2", "--shards", "4",
                     "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        assert manifest_sources(manifest) == [str(path)]

    def test_ingest_strict_exit_2_names_offender(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        rows = [f"{i} {i + 1} {float(i)!r}" for i in range(100)]
        rows.insert(30, "4 4 30.0")  # self-loop at line 31
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["ingest", str(path), "--policy", "strict",
                     "--jobs", "2", "--shards", "4"]) == 2
        err = capsys.readouterr().err
        assert "[self_loop]" in err and ":31:" in err

    def test_audit_shard_set_and_manifest(self, tmp_path, capsys):
        a = write_trace_text(tmp_path / "a.txt", n=100, dirty=False)
        b = write_trace_text(tmp_path / "b.txt", n=100, dirty=False,
                             start=300, t0=100.0)
        manifest = tmp_path / "set.shards.json"
        assert main(["ingest", str(a), str(b), "--jobs", "2",
                     "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["audit", "--manifest", str(manifest), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert main(["audit", "--shards", str(a), str(b)]) == 0
        capsys.readouterr()

    def test_audit_requires_an_input(self, capsys):
        assert main(["audit"]) == 2
        assert "audit needs" in capsys.readouterr().err
