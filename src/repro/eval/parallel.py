"""Experiment cells on the process-pool supervisor.

The experiment runner (:mod:`repro.eval.runner`) decomposes a run into
independent ``(metric, step, seed)`` cells whose RNGs derive purely from
the spec.  Both cell engines, the serial loop and the process pool, run
them on :class:`repro.utils.pool.Supervisor`.  It owns the bounded
in-flight window, retries with backoff, the hard deadline, the pool
rebuild after a worker crash and the degradation to serial; see that
module for the recovery rules.  What is specific to cells lives here:

- the worker initializer rebuilds the plan from the spec JSON once and
  pre-warms candidate caches, so cells cross the process boundary as
  three scalars, and switches telemetry to buffer-only worker mode when
  the driver records;
- each completed pool cell's shipped spans merge into the driver trace
  under a retroactive ``cell`` span;
- every failed attempt becomes a :class:`~repro.eval.retry.CellFailure`,
  and a cell out of attempts raises
  :class:`~repro.eval.retry.CellExecutionError` with its history.

Determinism is untouched by any recovery path: cells are pure functions
of the spec and ``reduce_cells`` is order-free, so a run that crashed,
retried, and rebuilt its pool reduces to canonical JSON byte-identical
to a clean serial run — enforced by ``tests/test_resume_parity.py`` and
``tests/test_fault_tolerance.py``.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence

from repro import telemetry
from repro.eval.retry import (
    CellExecutionError,
    CellFailure,
    CellTimeoutError,
    RetryPolicy,
    failure_span_attrs,
)
from repro.eval.runner import (
    Cell,
    CellResult,
    ExperimentPlan,
    ExperimentSpec,
    build_plan,
    execute_cell_attempt,
)
from repro.metrics.base import get_metric
from repro.metrics.candidates import prewarm_candidate_caches
from repro.utils.pool import Supervisor

#: per-worker-process plan, built once by :func:`_init_worker`.
_WORKER_PLAN: "ExperimentPlan | None" = None


def prewarm_plan(plan: ExperimentPlan) -> None:
    """Materialise every snapshot cache the plan's cells will touch."""
    strategies = tuple(
        get_metric(name).candidate_strategy for name in plan.spec.metrics
    )
    for prev, _current, _truth in plan.steps:
        prewarm_candidate_caches(prev, strategies)


def _init_worker(spec_json: str, telemetry_enabled: bool = False) -> None:
    """Worker initializer: rebuild the plan from the spec and warm caches.

    When the driver is recording, the worker swaps in buffer-only
    telemetry *before* the plan rebuild, so the per-worker plan/prewarm
    cost is captured too (it ships with the worker's first cell result).
    Otherwise the worker resets to the null instances — a forked child
    must never inherit the driver's recording tracer.
    """
    global _WORKER_PLAN
    if telemetry_enabled:
        telemetry.install_worker_mode()
    else:
        telemetry.reset()
    spec = ExperimentSpec.from_json(spec_json)
    plan = build_plan(spec)
    prewarm_plan(plan)
    _WORKER_PLAN = plan


def _run_cell(cell: Cell, attempt: int, policy: RetryPolicy) -> CellResult:
    """Worker task: one guarded attempt at one cell, through
    :func:`~repro.eval.runner.execute_cell_attempt` like an inline one.

    The soft deadline runs *here*, in the worker's main thread, so a
    timeout is an ordinary exception travelling back over the result
    queue — no pool teardown needed for the common slow-cell case.
    """
    if _WORKER_PLAN is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker used before its plan was initialised")
    result = execute_cell_attempt(_WORKER_PLAN, cell, attempt, policy)
    shipped = telemetry.drain_worker_payload()
    if shipped is not None:
        # Buffered spans (including any failed earlier attempts still in
        # the buffer — their spans are self-describing) ride home on the
        # result; the driver merges them and strips the field.
        result = dataclasses.replace(result, telemetry=shipped)
    return result


class CellSupervisor(Supervisor):
    """The cell hooks of the supervisor, for both engines.

    ``n_jobs`` below 2 runs the cells inline (the serial engine).
    ``on_result`` fires in the driver as each cell completes (the journal
    hook).  ``plan`` is built from ``spec`` on first inline use when not
    given, so a pool run that never degrades never builds it in the
    driver.  After :meth:`run`, ``results`` holds the executed cells and
    ``failures`` a :class:`~repro.eval.retry.CellFailure` per failed
    attempt, beside the supervisor's recovery counters.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        policy: "RetryPolicy | None" = None,
        on_result=None,
        n_jobs: int = 1,
        plan: "ExperimentPlan | None" = None,
    ):
        policy = policy or RetryPolicy()
        policy.validate()
        super().__init__(
            policy,
            n_jobs,
            initializer=_init_worker,
            initargs=(spec.to_json(), telemetry.tracer.enabled),
        )
        self.spec = spec
        self.plan = plan
        self.on_result = on_result
        self.results: "list[CellResult]" = []
        self.failures: "list[CellFailure]" = []

    def submit(self, pool, cell: Cell, attempt: int):
        return pool.submit(_run_cell, cell, attempt, self.policy)

    def run_inline(self, cell: Cell, attempt: int) -> CellResult:
        if self.plan is None:
            self.plan = build_plan(self.spec)
        return execute_cell_attempt(self.plan, cell, attempt, self.policy)

    def completed(
        self, cell: Cell, result: CellResult, started: "float | None"
    ) -> None:
        result = self._absorb_telemetry(cell, result, started)
        self.results.append(result)
        if self.on_result is not None:
            self.on_result(result)

    def failed(self, cell: Cell, attempt: int, kind: str, exc: BaseException) -> None:
        if kind == "crash":
            message = f"worker lost: {exc!r}"
        elif kind == "timeout" or isinstance(exc, CellTimeoutError):
            kind, message = "timeout", str(exc)
        else:
            message = f"{type(exc).__name__}: {exc}"
        metric, step, seed = cell
        self.failures.append(
            CellFailure(
                metric=metric, step=step, seed=seed,
                kind=kind, attempt=attempt, message=message,
            )
        )

    def exhausted(
        self, cell: Cell, attempts: int, exc: BaseException
    ) -> CellExecutionError:
        return CellExecutionError(cell, self._cell_failures(cell))

    def _cell_failures(self, cell: Cell) -> "list[CellFailure]":
        return [
            f for f in self.failures if (f.metric, f.step, f.seed) == cell
        ]

    def _absorb_telemetry(
        self, cell: Cell, result: CellResult, started_at: "float | None"
    ) -> CellResult:
        """Merge a worker's shipped spans/metrics into the driver trace.

        The driver records a retroactive ``cell`` span covering the
        submit→completion window (attributes: the cell key, its attempt
        number, and any retry/crash history from the failure records),
        then adopts the worker's spans under it, namespaced by the
        worker-incarnation token.  The telemetry payload never survives
        onto the stored result — journals and reducers see ``None``.
        """
        shipped = result.telemetry
        if shipped is None:
            return result
        result = dataclasses.replace(result, telemetry=None)
        tracer = telemetry.tracer
        if not tracer.enabled:
            return result
        end = time.monotonic()
        metric, step, seed = cell
        attrs = {
            "metric": metric, "step": step, "seed": seed,
            "attempt": self.attempts[cell], "engine": "pool",
            **failure_span_attrs(self._cell_failures(cell)),
        }
        span_id = tracer.record(
            "cell", started_at if started_at is not None else end, end, attrs
        )
        tracer.merge(
            shipped["spans"], parent_id=span_id, prefix=f"w{shipped['token']}:"
        )
        telemetry.metrics.merge(shipped["metrics"])
        return result


def run_cells_parallel(
    spec: ExperimentSpec,
    cells: Sequence[Cell],
    n_jobs: int,
    policy: "RetryPolicy | None" = None,
    on_result=None,
    plan: "ExperimentPlan | None" = None,
) -> CellSupervisor:
    """Execute ``cells`` over ``n_jobs`` worker processes, fault-tolerantly.

    ``on_result`` fires in the driver as each cell completes (the journal
    hook); ``plan`` is reused for the serial-degradation fallback so the
    driver does not rebuild what the caller already has.  Returns the
    finished supervisor: results plus the retry / crash / rebuild audit
    trail.
    """
    if n_jobs < 2:
        raise ValueError(f"run_cells_parallel needs n_jobs >= 2, got {n_jobs}")
    supervisor = CellSupervisor(spec, policy, on_result, n_jobs, plan)
    supervisor.run(cells)
    return supervisor
