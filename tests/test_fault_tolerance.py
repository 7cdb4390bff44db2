"""Fault-injection suite: every recovery path reduces to exact results.

Uses :mod:`repro.eval.faults` to script the outages a long sweep meets
in the wild — a worker OOM-killed mid-cell, a transient exception, a
slow cell, a wedged C call — and asserts two things each time: the run
*completes*, and its canonical JSON is byte-identical to a clean serial
run's.  Recovery that changes numbers would be worse than no recovery.
"""

from __future__ import annotations

import pytest

from repro.eval import faults
from repro.eval.faults import KILL_EXIT_CODE, FaultPlan, InjectedFault
from repro.eval.retry import (
    CellExecutionError,
    CellFailure,
    CellTimeoutError,
    RetryPolicy,
    soft_deadline,
)
from repro.eval.runner import ExperimentSpec, run_experiment


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="faulty", dataset="facebook", scale=0.1, generation_seed=3,
        metrics=("CN", "PA"), repeats=2, max_steps=2,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """No fault plan leaks into or out of any test."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def clean_json():
    spec = small_spec()
    return run_experiment(spec, n_jobs=1).to_json()


# fast policy: real backoff shape, test-friendly durations
FAST = dict(backoff_base=0.01, backoff_max=0.05)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            kill={"CN:0:0": 1}, errors={"PA:1:0": 2},
            delays={"CN:1:1": (0.5, 1)}, hangs={"PA:0:0": (1.0, 2)},
            error_probability=0.25, seed=7,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, FaultPlan(errors={"CN:0:0": 1}).to_json())
        plan = faults.active_plan()
        assert plan is not None and plan.errors == {"CN:0:0": 1}

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, FaultPlan(errors={"CN:0:0": 1}).to_json())
        faults.install(FaultPlan(errors={"PA:0:0": 1}))
        assert faults.active_plan().errors == {"PA:0:0": 1}

    def test_validate_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="error_probability"):
            FaultPlan(error_probability=1.5).validate()

    def test_counted_error_fires_then_stops(self):
        faults.install(FaultPlan(errors={"CN:0:0": 2}))
        for attempt in (0, 1):
            with pytest.raises(InjectedFault):
                faults.before_cell(("CN", 0, 0), attempt)
        faults.before_cell(("CN", 0, 0), 2)  # attempt 2: clean
        faults.before_cell(("PA", 0, 0), 0)  # other cells: clean

    def test_probabilistic_errors_are_deterministic(self):
        plan = FaultPlan(error_probability=0.5, seed=11)
        faults.install(plan)
        outcomes = {}
        for step in range(20):
            cell = ("CN", step, 0)
            try:
                faults.before_cell(cell, 0)
                outcomes[cell] = "ok"
            except InjectedFault:
                outcomes[cell] = "fail"
            faults.before_cell(cell, 1)  # attempt > 0 never injected
        assert "fail" in outcomes.values() and "ok" in outcomes.values()
        for cell, outcome in outcomes.items():  # exact repeatability
            try:
                faults.before_cell(cell, 0)
                assert outcome == "ok"
            except InjectedFault:
                assert outcome == "fail"

    def test_kill_is_inert_outside_workers(self):
        """In the driver process a kill fault must not exit the run."""
        faults.install(FaultPlan(kill={"CN:0:0": 99}))
        faults.before_cell(("CN", 0, 0), 0)  # still alive
        assert KILL_EXIT_CODE != 0

    def test_crashes_round_trip_and_validate(self):
        plan = FaultPlan(crashes={"wal.append": 3, "checkpoint.write": 0})
        assert FaultPlan.from_json(plan.to_json()) == plan
        with pytest.raises(ValueError, match="crashes"):
            FaultPlan(crashes={"wal.append": -1}).validate()

    def test_crash_fires_only_on_the_scheduled_invocation(self):
        """Exact-index semantics: attempt != n passes through alive."""
        faults.install(FaultPlan(crashes={"wal.fsync": 5}))
        for attempt in (0, 1, 4, 6, 99):
            faults.before_key("wal.fsync", attempt)  # still alive
        faults.before_key("wal.append", 5)  # other keys: clean

    def test_crash_exits_even_outside_workers(self):
        """Unlike kill, crashes hard-exit the main process too."""
        import os
        import subprocess
        import sys

        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (repo_src, env.get("PYTHONPATH", "")) if p
        )
        env[faults.ENV_VAR] = FaultPlan(crashes={"boom": 0}).to_json()
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.eval import faults; faults.before_key('boom', 0); "
                "print('survived')",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == KILL_EXIT_CODE
        assert "survived" not in proc.stdout


class TestRetryPolicy:
    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5)
        cell = ("CN", 0, 0)
        series = [policy.backoff_seconds(cell, a) for a in range(1, 6)]
        assert series == [policy.backoff_seconds(cell, a) for a in range(1, 6)]
        assert series == sorted(series)
        assert all(s <= 0.5 * 1.1 for s in series)

    def test_jitter_differs_across_cells(self):
        policy = RetryPolicy(backoff_base=0.1)
        assert policy.backoff_seconds(("CN", 0, 0), 1) != policy.backoff_seconds(
            ("PA", 0, 0), 1
        )

    def test_validate(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0).validate()
        with pytest.raises(ValueError, match="timeout_seconds"):
            RetryPolicy(timeout_seconds=0).validate()

    def test_hard_deadline_derivation(self):
        assert RetryPolicy().hard_timeout_seconds() is None
        policy = RetryPolicy(timeout_seconds=1.0, hard_timeout_grace=3.0)
        assert policy.hard_timeout_seconds() == 5.0

    def test_soft_deadline_interrupts(self):
        import time

        with pytest.raises(CellTimeoutError):
            with soft_deadline(0.05):
                time.sleep(5.0)

    def test_soft_deadline_none_is_noop(self):
        with soft_deadline(None):
            pass


class TestSerialRecovery:
    def test_transient_error_is_retried(self, clean_json):
        faults.install(FaultPlan(errors={"CN:0:0": 2}))
        result = run_experiment(
            small_spec(), n_jobs=1, retry=RetryPolicy(max_attempts=3, **FAST)
        )
        assert result.to_json() == clean_json
        assert result.timing.retries == 2
        assert result.timing.failure_kinds() == {"exception": 2}

    def test_exhausted_retries_raise_with_history(self):
        faults.install(FaultPlan(errors={"CN:0:0": 99}))
        with pytest.raises(CellExecutionError, match="CN:0:0") as excinfo:
            run_experiment(
                small_spec(), n_jobs=1, retry=RetryPolicy(max_attempts=2, **FAST)
            )
        assert [f.kind for f in excinfo.value.failures] == ["exception", "exception"]

    def test_slow_cell_times_out_and_retries(self, clean_json):
        faults.install(FaultPlan(delays={"PA:1:0": (5.0, 1)}))
        result = run_experiment(
            small_spec(), n_jobs=1,
            retry=RetryPolicy(timeout_seconds=0.3, **FAST),
        )
        assert result.to_json() == clean_json
        assert result.timing.failure_kinds() == {"timeout": 1}


class TestParallelRecovery:
    def test_worker_kill_rebuilds_pool(self, monkeypatch, clean_json):
        monkeypatch.setenv(faults.ENV_VAR, FaultPlan(kill={"CN:0:0": 1}).to_json())
        result = run_experiment(
            small_spec(), n_jobs=2, retry=RetryPolicy(max_attempts=4, **FAST)
        )
        assert result.to_json() == clean_json
        assert result.timing.pool_rebuilds >= 1
        assert "crash" in result.timing.failure_kinds()
        assert "[faults]" in result.timing.summary()

    def test_soft_timeout_inside_worker_keeps_pool_alive(
        self, monkeypatch, clean_json
    ):
        monkeypatch.setenv(
            faults.ENV_VAR, FaultPlan(delays={"PA:1:0": (5.0, 1)}).to_json()
        )
        result = run_experiment(
            small_spec(), n_jobs=2,
            retry=RetryPolicy(timeout_seconds=0.5, **FAST),
        )
        assert result.to_json() == clean_json
        assert result.timing.pool_rebuilds == 0
        assert result.timing.failure_kinds() == {"timeout": 1}

    def test_hard_deadline_reclaims_wedged_worker(self, monkeypatch, clean_json):
        """A hang that swallows the soft signal — only the driver-side
        hard deadline (pool teardown + resubmit) can recover it."""
        monkeypatch.setenv(
            faults.ENV_VAR, FaultPlan(hangs={"CN:1:1": (30.0, 1)}).to_json()
        )
        result = run_experiment(
            small_spec(), n_jobs=2,
            retry=RetryPolicy(
                timeout_seconds=0.2, hard_timeout_grace=0.3,
                max_attempts=4, **FAST,
            ),
        )
        assert result.to_json() == clean_json
        assert result.timing.pool_rebuilds >= 1
        assert "timeout" in result.timing.failure_kinds()

    def test_repeated_pool_failure_degrades_to_serial(
        self, monkeypatch, clean_json
    ):
        """A cell that kills every worker it touches: the pool gives up
        after max_pool_rebuilds, but the run still completes serially
        (kill faults are inert in the driver, like a memory-bound cell
        that only fits outside the per-worker footprint)."""
        monkeypatch.setenv(faults.ENV_VAR, FaultPlan(kill={"CN:0:0": 99}).to_json())
        result = run_experiment(
            small_spec(), n_jobs=2,
            retry=RetryPolicy(max_attempts=10, max_pool_rebuilds=2, **FAST),
        )
        assert result.to_json() == clean_json
        assert result.timing.degraded_to_serial
        assert result.timing.pool_rebuilds == 3
        assert "degraded to serial" in result.timing.summary()

    def test_transient_worker_exception_retries_in_pool(
        self, monkeypatch, clean_json
    ):
        monkeypatch.setenv(faults.ENV_VAR, FaultPlan(errors={"PA:0:1": 1}).to_json())
        result = run_experiment(
            small_spec(), n_jobs=2, retry=RetryPolicy(max_attempts=3, **FAST)
        )
        assert result.to_json() == clean_json
        assert result.timing.pool_rebuilds == 0
        assert result.timing.retries == 1


class TestFailureAccounting:
    def test_cell_failure_payload_round_trip(self):
        failure = CellFailure(
            metric="CN", step=1, seed=0, kind="timeout", attempt=2, message="slow"
        )
        assert CellFailure.from_payload(failure.to_payload()) == failure

    def test_failures_ride_run_timing_json(self, tmp_path):
        faults.install(FaultPlan(errors={"CN:0:0": 1}))
        result = run_experiment(
            small_spec(), n_jobs=1, retry=RetryPolicy(max_attempts=2, **FAST)
        )
        path = tmp_path / "out.json"
        result.save(path, include_timing=True)
        from repro.eval.runner import ExperimentResult

        loaded = ExperimentResult.from_json(path.read_text())
        assert loaded.timing.retries == 1
        assert loaded.timing.failures[0]["kind"] == "exception"
        # canonical JSON stays clean of execution metadata
        assert "failures" not in result.to_json()

    def test_summary_table_surfaces_fault_line(self):
        faults.install(FaultPlan(errors={"CN:0:0": 1}))
        result = run_experiment(
            small_spec(), n_jobs=1, retry=RetryPolicy(max_attempts=2, **FAST)
        )
        table = result.summary_table()
        assert "[faults]" in table and "1 retries (1 exception)" in table
