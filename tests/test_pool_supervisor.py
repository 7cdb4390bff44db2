"""Pool supervisor suite: the one fault-tolerance loop, for both callers.

``repro.utils.pool.Supervisor`` runs the experiment runner's cells and
the sharded ingest's chunk parses.  These tests swap its process pool
for :class:`_FlakyPool`, an inline stand-in whose first futures resolve
to ``BrokenExecutor``, and pin the rules recovery must follow:

- a crash fails a task only once its attempts reach ``max_attempts +
  max_pool_rebuilds`` (``max_attempts=1, max_pool_rebuilds=0`` makes the
  first crash fatal), for a toy task, the shard caller and the cell
  caller alike;
- attempts burned in the pool still count after degrading inline;
- an interrupt tears the pool down instead of waiting on it.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, Future

import pytest

from repro.eval import faults
from repro.eval.faults import FaultPlan
from repro.eval.parallel import run_cells_parallel
from repro.eval.retry import CellExecutionError, RetryPolicy
from repro.eval.runner import (
    ExperimentSpec,
    build_plan,
    iter_cells,
    reduce_cells,
    run_experiment,
)
from repro.ingest import scan_trace
from repro.ingest.policy import IngestPolicy
from repro.ingest.shard import ShardIngestError, plan_shards, run_shards
from repro.utils import pool as pool_module
from repro.utils.pool import Supervisor


class _FlakyPool:
    """Inline stand-in for ProcessPoolExecutor whose first ``fail_budget``
    futures resolve to BrokenExecutor — deterministic crash injection.

    ``torn_down`` counts shutdowns that cancel pending futures, which only
    the supervisor's teardown asks for; a pool that finished its work
    shuts down waiting instead.
    """

    fail_budget = 0
    created = 0
    torn_down = 0

    def __init__(self, max_workers=None, initializer=None, initargs=()):
        type(self).created += 1

    def submit(self, fn, *args):
        future = Future()
        if type(self).fail_budget > 0:
            type(self).fail_budget -= 1
            future.set_exception(BrokenExecutor("simulated worker crash"))
        else:
            try:
                future.set_result(fn(*args))
            except BaseException as exc:  # task errors land in the future
                future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        if cancel_futures:
            type(self).torn_down += 1


@pytest.fixture()
def flaky_pool(monkeypatch):
    _FlakyPool.fail_budget = 0
    _FlakyPool.created = 0
    _FlakyPool.torn_down = 0
    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", _FlakyPool)
    return _FlakyPool


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


NO_BACKOFF = dict(backoff_base=0.0)


# ---------------------------------------------------------------------------
# The loop itself, on a toy task
# ---------------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


class _Exhausted(Exception):
    pass


class _Squares(Supervisor):
    """Toy caller: squares ints, records every hook call."""

    def __init__(self, policy, workers=2, fail_inline=()):
        super().__init__(policy, workers)
        self.fail_inline = set(fail_inline)
        self.results = {}
        self.failures = []
        self.inline_attempts = []

    def submit(self, pool, task, attempt):
        return pool.submit(_square, task)

    def run_inline(self, task, attempt):
        self.inline_attempts.append((task, attempt))
        if task in self.fail_inline:
            raise ValueError(f"task {task} fails inline")
        return _square(task)

    def completed(self, task, result, started):
        self.results[task] = result

    def failed(self, task, attempt, kind, exc):
        self.failures.append((task, attempt, kind))

    def exhausted(self, task, attempts, exc):
        return _Exhausted(task, attempts)


class TestSupervisorLoop:
    def test_clean_pool_run(self, flaky_pool):
        sup = _Squares(RetryPolicy(**NO_BACKOFF))
        sup.run(range(6))
        assert sup.results == {i: i * i for i in range(6)}
        assert flaky_pool.created == 1 and flaky_pool.torn_down == 0
        assert sup.inline_attempts == []
        assert (sup.retries, sup.pool_rebuilds, sup.degraded) == (0, 0, False)

    def test_one_worker_runs_inline(self, flaky_pool):
        sup = _Squares(RetryPolicy(**NO_BACKOFF), workers=1)
        sup.run(range(3))
        assert sup.results == {0: 0, 1: 1, 2: 4}
        assert flaky_pool.created == 0
        assert sup.inline_attempts == [(0, 0), (1, 0), (2, 0)]

    def test_crash_rebuilds_and_tears_the_broken_pool_down(self, flaky_pool):
        flaky_pool.fail_budget = 2  # both futures of the first pool
        sup = _Squares(RetryPolicy(**NO_BACKOFF))
        sup.run(range(4))
        assert sup.results == {i: i * i for i in range(4)}
        assert flaky_pool.created == 2 and flaky_pool.torn_down == 1
        assert sup.pool_rebuilds == 1 and not sup.degraded
        assert sorted(sup.failures) == [(0, 0, "crash"), (1, 0, "crash")]

    def test_first_crash_is_fatal_without_headroom(self, flaky_pool):
        flaky_pool.fail_budget = 10_000
        sup = _Squares(RetryPolicy(max_attempts=1, max_pool_rebuilds=0, **NO_BACKOFF))
        with pytest.raises(_Exhausted) as excinfo:
            sup.run(range(4))
        assert excinfo.value.args == (0, 1)
        assert flaky_pool.torn_down == 1

    def test_crashes_get_rebuild_headroom(self, flaky_pool):
        """Three crashes against max_attempts=2: fatal under a max_attempts
        budget, survivable under max_attempts + max_pool_rebuilds = 4."""
        flaky_pool.fail_budget = 10_000
        sup = _Squares(RetryPolicy(max_attempts=2, max_pool_rebuilds=2, **NO_BACKOFF))
        sup.run(range(4))
        assert sup.results == {i: i * i for i in range(4)}
        assert sup.degraded and sup.pool_rebuilds == 3
        assert sup.attempts[0] == 3
        assert [f for f in sup.failures if f[0] == 0] == [
            (0, 0, "crash"), (0, 1, "crash"), (0, 2, "crash"),
        ]

    def test_burned_attempts_count_after_degrading(self, flaky_pool):
        """Two crashes in the pool leave one attempt of max_attempts=3 for
        the inline run; a reset count would allow three."""
        flaky_pool.fail_budget = 4
        sup = _Squares(
            RetryPolicy(max_attempts=3, max_pool_rebuilds=1, **NO_BACKOFF),
            fail_inline={0},
        )
        with pytest.raises(_Exhausted) as excinfo:
            sup.run(range(2))
        assert excinfo.value.args == (0, 3)
        assert sup.inline_attempts == [(0, 2)]
        assert [f for f in sup.failures if f[0] == 0] == [
            (0, 0, "crash"), (0, 1, "crash"), (0, 2, "exception"),
        ]

    def test_inline_retries_in_place(self, flaky_pool):
        class _FailsOnce(_Squares):
            def run_inline(self, task, attempt):
                self.inline_attempts.append((task, attempt))
                if attempt == 0:
                    raise ValueError("transient")
                return _square(task)

        sup = _FailsOnce(RetryPolicy(max_attempts=2, **NO_BACKOFF), workers=1)
        sup.run([3])
        assert sup.results == {3: 9}
        assert sup.inline_attempts == [(3, 0), (3, 1)]
        assert sup.retries == 1

    def test_keyboard_interrupt_tears_the_pool_down(self, flaky_pool):
        class _Interrupted(_Squares):
            def completed(self, task, result, started):
                raise KeyboardInterrupt

        sup = _Interrupted(RetryPolicy(**NO_BACKOFF))
        with pytest.raises(KeyboardInterrupt):
            sup.run(range(4))
        assert flaky_pool.created == 1 and flaky_pool.torn_down == 1


# ---------------------------------------------------------------------------
# The shard caller
# ---------------------------------------------------------------------------
def _shard_specs(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("".join(f"{i} {i + 1} {float(i)!r}\n" for i in range(400)))
    specs = plan_shards([path], shard_bytes=1024)
    assert len(specs) >= 3
    return path, specs


class TestShardCaller:
    def test_first_crash_is_fatal_without_headroom(self, tmp_path, flaky_pool):
        _path, specs = _shard_specs(tmp_path)
        flaky_pool.fail_budget = 10_000
        with pytest.raises(ShardIngestError, match="failed after 1 attempts"):
            run_shards(specs, IngestPolicy.repair(), jobs=2,
                       max_attempts=1, max_pool_rebuilds=0)

    def test_crashes_degrade_with_rebuild_headroom(self, tmp_path, flaky_pool):
        path, specs = _shard_specs(tmp_path)
        flaky_pool.fail_budget = 10_000
        results, stats = run_shards(specs, IngestPolicy.repair(), jobs=2,
                                    max_attempts=2, max_pool_rebuilds=2)
        assert stats["degraded"] and stats["pool_rebuilds"] == 3
        assert sum(r["events_parsed"] for r in results) == scan_trace(
            path, policy=IngestPolicy.repair()
        )[3].events_parsed


# ---------------------------------------------------------------------------
# The cell caller
# ---------------------------------------------------------------------------
def _cells_and_plan():
    spec = ExperimentSpec(
        name="supervised", dataset="facebook", scale=0.1, generation_seed=3,
        metrics=("CN",), repeats=2, max_steps=1,
    )
    plan = build_plan(spec)
    return spec, plan, list(iter_cells(spec, len(plan.steps)))


class TestCellCaller:
    def test_first_crash_is_fatal_without_headroom(self, flaky_pool):
        spec, plan, cells = _cells_and_plan()
        flaky_pool.fail_budget = 10_000
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells_parallel(
                spec, cells, 2, plan=plan,
                policy=RetryPolicy(max_attempts=1, max_pool_rebuilds=0, **NO_BACKOFF),
            )
        assert [f.kind for f in excinfo.value.failures] == ["crash"]

    def test_crashes_degrade_with_rebuild_headroom(self, flaky_pool):
        spec, plan, cells = _cells_and_plan()
        flaky_pool.fail_budget = 10_000
        report = run_cells_parallel(
            spec, cells, 2, plan=plan,
            policy=RetryPolicy(max_attempts=2, max_pool_rebuilds=2, **NO_BACKOFF),
        )
        assert report.degraded and report.pool_rebuilds == 3
        assert [f.kind for f in report.failures] == ["crash"] * 6
        expected = run_experiment(spec, n_jobs=1).to_json()
        assert reduce_cells(plan, report.results).to_json() == expected

    def test_default_policy_degrades_after_the_fourth_rebuild(self, flaky_pool):
        spec, plan, cells = _cells_and_plan()
        flaky_pool.fail_budget = 10_000
        report = run_cells_parallel(spec, cells, 2, plan=plan,
                                    policy=RetryPolicy(**NO_BACKOFF))
        assert report.degraded and report.pool_rebuilds == 4
        assert len(report.results) == len(cells)

    def test_burned_attempts_count_after_degrading(self, flaky_pool):
        spec, plan, cells = _cells_and_plan()
        flaky_pool.fail_budget = 4  # two pool rounds of two cells each
        faults.install(FaultPlan(errors={"CN:0:0": 99}))
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells_parallel(
                spec, cells, 2, plan=plan,
                policy=RetryPolicy(max_attempts=3, max_pool_rebuilds=1, **NO_BACKOFF),
            )
        assert excinfo.value.cell == ("CN", 0, 0)
        assert [(f.kind, f.attempt) for f in excinfo.value.failures] == [
            ("crash", 0), ("crash", 1), ("exception", 2),
        ]


# ---------------------------------------------------------------------------
# Who loads the pool
# ---------------------------------------------------------------------------
def test_serial_paths_never_load_the_pool(tmp_path):
    """``import repro`` and a serial ingest load neither the supervisor
    nor the shard subsystem nor ``concurrent.futures.process``."""
    import os
    import subprocess
    import sys

    trace = tmp_path / "t.txt"
    trace.write_text("".join(f"{i} {i + 1} {float(i)!r}\n" for i in range(50)))
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {k: v for k, v in os.environ.items() if k != "REPRO_JOBS"}
    env["PYTHONPATH"] = src
    code = (
        "import sys\n"
        "import repro\n"
        "from repro.ingest import scan_trace\n"
        f"scan_trace({str(trace)!r})\n"
        f"scan_trace({str(trace)!r}, jobs=1)\n"
        "loaded = [m for m in ('repro.utils.pool', 'repro.ingest.shard',\n"
        "          'concurrent.futures.process') if m in sys.modules]\n"
        "print(loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
