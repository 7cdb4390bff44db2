"""Declarative experiment runner with JSON persistence.

A research pipeline needs runs that are *describable* (a spec you can
commit), *repeatable* (seeds in the spec) and *storable* (results as
JSON).  ``ExperimentSpec`` captures one metric-comparison experiment —
dataset, sequencing, metric list, repeat seeds, optional temporal filter —
and ``run_experiment`` executes it into an ``ExperimentResult`` that
serialises losslessly.

Execution is decomposed into independent ``(metric, step, seed)`` *work
cells*: every cell derives its RNG purely from the spec
(``seed * 1009 + step``, see :func:`cell_rng_seed`), so cells can run in
any order — or in parallel processes (``n_jobs`` / ``--jobs``, dispatched
by :mod:`repro.eval.parallel`) — and reduce to results bit-identical to
the serial loop.  Yang et al. (*Evaluating Link Prediction Methods*) show
evaluation-protocol drift silently changes conclusions; the parity is
therefore enforced by a property-based test suite rather than assumed.

The CLI front-end is ``python -m repro experiment --spec spec.json``.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from repro import telemetry
from repro.eval import faults
from repro.eval.experiment import PairFilter, evaluate_step, prediction_steps
from repro.eval.retry import RetryPolicy, soft_deadline
from repro.generators import presets
from repro.graph.io import read_trace
from repro.graph.snapshots import Snapshot, snapshot_sequence
from repro.metrics.base import all_metric_names, cache_stats
from repro.metrics.candidates import two_hop_pairs
from repro.temporal import TemporalFilter, calibrate_filter
from repro.utils.pairs import Pair

#: one unit of schedulable work: (metric name, step index, repeat seed).
Cell = tuple[str, int, int]


def cell_rng_seed(seed: int, step: int) -> int:
    """The RNG seed of one work cell — the single source of truth.

    ``seed * 1009 + step`` is the seeding scheme the original serial loop
    used; both the serial and the parallel path call this function, so the
    published numbers cannot drift between the two.
    """
    return seed * 1009 + step


@dataclass
class ExperimentSpec:
    """One experiment: dataset x sequencing x metrics x repeats."""

    name: str = "experiment"
    #: preset name ("facebook"/"renren"/"youtube") or a trace file path.
    dataset: str = "facebook"
    scale: float = 0.5
    generation_seed: int = 0
    delta: "int | None" = None
    start: "int | None" = None
    metrics: tuple[str, ...] = ("CN", "RA", "BRA", "PA")
    #: evaluation repeated with tie-break seeds 0..repeats-1 per step.
    repeats: int = 2
    max_steps: "int | None" = None
    #: calibrate and apply a temporal filter (Section 6) as well.
    with_filter: bool = False
    #: worker processes for execution (1 = serial, 0 = one per CPU core).
    #: An execution hint only: results are identical for every value.
    n_jobs: int = 1

    def validate(self) -> None:
        if not self.metrics:
            raise ValueError(
                "spec must name at least one metric (metrics=() describes "
                "an experiment with no work cells)"
            )
        unknown = [m for m in self.metrics if m not in all_metric_names()]
        if unknown:
            raise ValueError(f"unknown metrics in spec: {unknown}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.n_jobs < 0:
            raise ValueError("n_jobs must be >= 0 (0 means one per CPU core)")

    # -- persistence ----------------------------------------------------
    def to_json(self) -> str:
        payload = asdict(self)
        payload["metrics"] = list(self.metrics)
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        payload = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            # Tolerate fields written by newer versions (mirroring
            # RunTiming.from_payload) but say so: silent drops hide typos.
            warnings.warn(
                f"ExperimentSpec.from_json: ignoring unknown fields {unknown}",
                stacklevel=2,
            )
            payload = {k: v for k, v in payload.items() if k in known}
        payload["metrics"] = tuple(payload.get("metrics", ()))
        spec = cls(**payload)
        spec.validate()
        return spec

    @classmethod
    def load(cls, path: "str | os.PathLike[str]") -> "ExperimentSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass
class MetricSeries:
    """One metric's results over the evaluated steps (mean over repeats)."""

    metric: str
    ratios: list[float] = field(default_factory=list)
    absolutes: list[float] = field(default_factory=list)
    filtered_ratios: "list[float] | None" = None

    @property
    def mean_ratio(self) -> float:
        return float(np.mean(self.ratios)) if self.ratios else 0.0

    @property
    def mean_filtered_ratio(self) -> "float | None":
        if self.filtered_ratios is None:
            return None
        return float(np.mean(self.filtered_ratios))


@dataclass
class RunTiming:
    """Lightweight instrumentation of one ``run_experiment`` execution.

    Execution metadata, *not* part of the experiment's scientific output:
    two runs of the same spec produce identical series but different
    timings, which is why :meth:`ExperimentResult.to_json` excludes this
    block unless asked (``include_timing=True``).
    """

    n_jobs: int = 1
    wall_seconds: float = 0.0
    #: number of (metric, step, seed) work cells executed.
    cells: int = 0
    #: summed per-cell wall time (> wall_seconds means parallelism won).
    cell_seconds: float = 0.0
    max_cell_seconds: float = 0.0
    #: snapshot-cache memoisation counters accumulated over the cells.
    cache_hits: int = 0
    cache_misses: int = 0
    #: cells restored from a journal instead of executed.
    journal_cells: int = 0
    #: failed attempts that were retried (the run still completed).
    retries: int = 0
    #: times the worker pool was torn down and rebuilt mid-run.
    pool_rebuilds: int = 0
    #: True when repeated pool failures forced the serial fallback.
    degraded_to_serial: bool = False
    #: CellFailure payloads for every failed attempt (crash/timeout/exception).
    failures: list = field(default_factory=list)

    def to_payload(self) -> dict:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "RunTiming":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def failure_kinds(self) -> "dict[str, int]":
        """Failed-attempt counts by kind (``crash``/``timeout``/``exception``)."""
        counts: dict[str, int] = {}
        for payload in self.failures:
            kind = payload.get("kind", "unknown")
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def summary(self) -> str:
        lines = [
            f"[timing] {self.cells} cells in {self.wall_seconds:.2f}s wall "
            f"(n_jobs={self.n_jobs}, cell time {self.cell_seconds:.2f}s, "
            f"max cell {self.max_cell_seconds:.3f}s, "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses)"
        ]
        if self.journal_cells or self.failures or self.pool_rebuilds:
            kinds = self.failure_kinds()
            breakdown = ", ".join(f"{kinds[k]} {k}" for k in sorted(kinds))
            parts = [
                f"{self.journal_cells} cells from journal",
                f"{self.retries} retries"
                + (f" ({breakdown})" if breakdown else ""),
                f"{self.pool_rebuilds} pool rebuilds",
            ]
            if self.degraded_to_serial:
                parts.append("degraded to serial")
            lines.append(f"[faults] {', '.join(parts)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CellResult:
    """Outcome of one work cell, small and picklable for worker transport."""

    metric: str
    step: int
    seed: int
    ratio: float
    absolute: float
    filtered_ratio: "float | None"
    wall_seconds: float
    cache_hits: int
    cache_misses: int
    #: worker-buffered telemetry (``{"token", "spans", "metrics"}``) riding
    #: home on the result; the driver merges it into its trace and strips
    #: it before the result is journaled or reduced.  Never part of the
    #: scientific output.
    telemetry: "dict | None" = None


@dataclass
class ExperimentResult:
    """Everything ``run_experiment`` produces, JSON-serialisable."""

    spec: ExperimentSpec
    num_snapshots: int
    steps_evaluated: int
    series: dict[str, MetricSeries] = field(default_factory=dict)
    #: execution metadata; excluded from canonical JSON (see RunTiming).
    timing: "RunTiming | None" = None

    def ranking(self) -> list[str]:
        """Metrics sorted by mean accuracy ratio, best first."""
        return sorted(self.series, key=lambda m: -self.series[m].mean_ratio)

    def summary_table(self) -> str:
        lines = [f"{'metric':10s} {'mean ratio':>11s} {'best abs':>9s} {'filtered':>9s}"]
        for name in self.ranking():
            s = self.series[name]
            filtered = (
                f"{s.mean_filtered_ratio:9.2f}" if s.filtered_ratios else "        -"
            )
            best_abs = max(s.absolutes) if s.absolutes else 0.0
            lines.append(
                f"{name:10s} {s.mean_ratio:11.2f} {100 * best_abs:8.2f}% {filtered}"
            )
        if self.timing is not None:
            lines.append(self.timing.summary())
        return "\n".join(lines)

    # -- persistence ----------------------------------------------------
    def to_json(self, include_timing: bool = False) -> str:
        """Serialise the result.

        The default payload is *canonical*: it contains only the spec and
        the numbers it determines, so the same spec always produces
        byte-identical JSON regardless of ``n_jobs`` or machine load.
        ``include_timing=True`` appends the execution-metadata block.
        """
        payload = {
            "spec": json.loads(self.spec.to_json()),
            "num_snapshots": self.num_snapshots,
            "steps_evaluated": self.steps_evaluated,
            "series": {
                name: {
                    "ratios": s.ratios,
                    "absolutes": s.absolutes,
                    "filtered_ratios": s.filtered_ratios,
                }
                for name, s in self.series.items()
            },
        }
        if include_timing and self.timing is not None:
            payload["timing"] = self.timing.to_payload()
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        payload = json.loads(text)
        spec = ExperimentSpec.from_json(json.dumps(payload["spec"]))
        result = cls(
            spec=spec,
            num_snapshots=payload["num_snapshots"],
            steps_evaluated=payload["steps_evaluated"],
        )
        for name, data in payload["series"].items():
            result.series[name] = MetricSeries(
                metric=name,
                ratios=data["ratios"],
                absolutes=data["absolutes"],
                filtered_ratios=data.get("filtered_ratios"),
            )
        if payload.get("timing") is not None:
            result.timing = RunTiming.from_payload(payload["timing"])
        return result

    def save(self, path: "str | os.PathLike[str]", include_timing: bool = False) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(include_timing=include_timing) + "\n")


@dataclass
class ExperimentPlan:
    """Materialised execution context of one spec: steps plus filter.

    Built identically in the driver and in every worker process (both call
    :func:`build_plan` on the same spec), so work cells can be shipped as
    plain ``(metric, step_index, seed)`` tuples instead of pickled
    snapshots.
    """

    spec: ExperimentSpec
    num_snapshots: int
    steps: "list[tuple[Snapshot, Snapshot, set[Pair]]]"
    pair_filter: "PairFilter | None" = None


def _load_trace(spec: ExperimentSpec):
    if spec.dataset in presets.DATASETS:
        return presets.load(spec.dataset, scale=spec.scale, seed=spec.generation_seed)
    return read_trace(spec.dataset)


def build_plan(spec: ExperimentSpec, preflight_audit: bool = True) -> ExperimentPlan:
    """Load the trace, slice snapshots, and calibrate the optional filter.

    Everything here is a pure function of the spec (filter calibration is
    pinned to ``rng=0``), which is what makes worker-side reconstruction
    safe: any process holding the spec derives the identical plan.

    ``preflight_audit`` runs the columnar-core integrity auditor
    (:func:`repro.graph.audit.audit_graph`) on the loaded trace — a
    milliseconds-cheap vectorised pass — so a corrupted input raises
    :class:`~repro.graph.audit.TraceAuditError` with a diagnosis here,
    before any work cell of a potentially multi-hour journaled sweep runs.
    """
    spec.validate()
    trace = _load_trace(spec)
    if preflight_audit:
        from repro.graph.audit import require_clean

        require_clean(trace, context=f"pre-flight audit of {spec.dataset!r}")
    delta = spec.delta
    if delta is None:
        if spec.dataset in presets.DATASETS:
            delta = presets.snapshot_delta(spec.dataset, spec.scale)
        else:
            delta = max(10, trace.num_edges // 20)
    start = spec.start if spec.start is not None else max(delta, trace.num_edges // 3)
    snapshots = snapshot_sequence(trace, delta, start=start)
    steps = list(prediction_steps(snapshots))
    if spec.max_steps is not None:
        steps = steps[: spec.max_steps]
    if not steps:
        raise ValueError(
            f"spec produces no prediction steps (delta={delta}, start={start})"
        )

    pair_filter = None
    if spec.with_filter:
        cal_prev, _, cal_truth = steps[len(steps) // 2]
        pair_filter = TemporalFilter(
            calibrate_filter(cal_prev, cal_truth, two_hop_pairs(cal_prev), rng=0)
        )
    return ExperimentPlan(
        spec=spec,
        num_snapshots=len(snapshots),
        steps=steps,
        pair_filter=pair_filter,
    )


def iter_cells(spec: ExperimentSpec, num_steps: int) -> Iterator[Cell]:
    """Enumerate the run's work cells in the serial loop's order."""
    for metric in spec.metrics:
        for step in range(num_steps):
            for seed in range(spec.repeats):
                yield (metric, step, seed)


def execute_cell(plan: ExperimentPlan, cell: Cell) -> CellResult:
    """Run one ``(metric, step, seed)`` cell against a plan.

    This is the only place cells are evaluated — serial loop and process
    pool both call it — so the RNG derivation and the filtered/unfiltered
    call order are the same on every path by construction.
    """
    metric, step, seed = cell
    if telemetry.tracer.enabled:
        with telemetry.tracer.span(
            "cell.execute", metric=metric, step=step, seed=seed
        ):
            result = _execute_cell_impl(plan, cell)
        telemetry.metrics.counter("cells.completed").inc()
        telemetry.metrics.histogram("cell.seconds").observe(result.wall_seconds)
        return result
    return _execute_cell_impl(plan, cell)


def _execute_cell_impl(plan: ExperimentPlan, cell: Cell) -> CellResult:
    metric, step, seed = cell
    before = cache_stats()
    started = time.perf_counter()
    prev, _, truth = plan.steps[step]
    outcome = evaluate_step(
        metric, prev, truth, rng=cell_rng_seed(seed, step), step=step
    )
    filtered_ratio = None
    if plan.pair_filter is not None:
        filtered_ratio = evaluate_step(
            metric,
            prev,
            truth,
            rng=cell_rng_seed(seed, step),
            pair_filter=plan.pair_filter,
            step=step,
        ).ratio
    wall = time.perf_counter() - started
    after = cache_stats()
    return CellResult(
        metric=metric,
        step=step,
        seed=seed,
        ratio=outcome.ratio,
        absolute=outcome.absolute,
        filtered_ratio=filtered_ratio,
        wall_seconds=wall,
        cache_hits=after["hits"] - before["hits"],
        cache_misses=after["misses"] - before["misses"],
    )


def reduce_cells(
    plan: ExperimentPlan, results: Sequence[CellResult]
) -> ExperimentResult:
    """Fold cell results into an ``ExperimentResult``.

    Per-(metric, step) aggregation averages over seeds *in seed order*,
    reproducing the serial loop's ``float(np.mean([...]))`` reduction
    bit for bit no matter what order the cells finished in.
    """
    spec = plan.spec
    by_key: dict[tuple[str, int], list[CellResult]] = {}
    for cell in results:
        by_key.setdefault((cell.metric, cell.step), []).append(cell)
    result = ExperimentResult(
        spec=spec, num_snapshots=plan.num_snapshots, steps_evaluated=len(plan.steps)
    )
    for metric in spec.metrics:
        series = MetricSeries(metric=metric)
        if spec.with_filter:
            series.filtered_ratios = []
        for step in range(len(plan.steps)):
            # .get so a fully-absent (metric, step) group reports as the
            # intended "incomplete" RuntimeError, not a bare KeyError.
            cells = sorted(by_key.get((metric, step), ()), key=lambda c: c.seed)
            if len(cells) != spec.repeats:
                raise RuntimeError(
                    f"cell results for ({metric!r}, step {step}) are incomplete: "
                    f"got {len(cells)} of {spec.repeats}"
                )
            series.ratios.append(float(np.mean([c.ratio for c in cells])))
            series.absolutes.append(float(np.mean([c.absolute for c in cells])))
            if spec.with_filter:
                series.filtered_ratios.append(
                    float(np.mean([c.filtered_ratio for c in cells]))
                )
        result.series[metric] = series
    return result


def execute_cell_attempt(
    plan: ExperimentPlan, cell: Cell, attempt: int, policy: RetryPolicy
) -> CellResult:
    """One guarded attempt at one cell: faults, soft deadline, execute.

    The single choke point both execution engines (serial loop, pool
    worker) run a cell through, so fault injection and the soft timeout
    behave identically on every path.
    """
    with soft_deadline(policy.timeout_seconds):
        faults.before_cell(cell, attempt)
        return execute_cell(plan, cell)


def run_cells_serial(
    plan: ExperimentPlan,
    cells: Sequence[Cell],
    policy: "RetryPolicy | None" = None,
    on_result=None,
):
    """Execute cells in order, in-process, with retry/timeout/backoff.

    The supervisor's inline mode (:mod:`repro.utils.pool`) with the cell
    hooks of :mod:`repro.eval.parallel`, imported here rather than at
    module level so ``import repro`` never loads the process pool.
    Returns the finished :class:`~repro.eval.parallel.CellSupervisor`.
    """
    from repro.eval.parallel import CellSupervisor

    supervisor = CellSupervisor(plan.spec, policy, on_result, plan=plan)
    supervisor.run(cells)
    return supervisor


def run_experiment(
    spec: ExperimentSpec,
    n_jobs: "int | None" = None,
    journal=None,
    retry: "RetryPolicy | None" = None,
) -> ExperimentResult:
    """Execute one spec end to end.

    ``n_jobs`` overrides ``spec.n_jobs`` without mutating the spec (so the
    stored spec — and therefore the canonical result JSON — is independent
    of how the run was scheduled).  Any value produces identical results;
    values above 1 dispatch work cells over a process pool.

    ``journal`` (a path or an open
    :class:`~repro.eval.journal.CellJournal`) makes the run resumable:
    completed cells are appended durably as they finish, and a rerun
    against the same journal executes only the missing ones — reducing,
    by the order-independence of :func:`reduce_cells`, to canonical JSON
    byte-identical to an uninterrupted run.

    ``retry`` sets the per-cell timeout/retry/backoff policy
    (:class:`~repro.eval.retry.RetryPolicy`); failed attempts are
    recorded on ``result.timing.failures``.
    """
    spec.validate()
    policy = retry or RetryPolicy()
    policy.validate()
    from repro.utils.jobs import resolve_jobs

    jobs = resolve_jobs(spec.n_jobs if n_jobs is None else n_jobs)
    started = time.perf_counter()
    with telemetry.tracer.span(
        "run", name=spec.name, dataset=spec.dataset, n_jobs=jobs
    ):
        with telemetry.tracer.span("plan"):
            plan = build_plan(spec)
        cells = list(iter_cells(spec, len(plan.steps)))

        owns_journal = False
        if journal is not None and not hasattr(journal, "record"):
            from repro.eval.journal import CellJournal

            journal = CellJournal(journal, spec)
            owns_journal = True
        try:
            wanted = set(cells)
            restored = (
                {c: r for c, r in journal.completed.items() if c in wanted}
                if journal is not None
                else {}
            )
            missing = [c for c in cells if c not in restored]
            on_result = journal.record if journal is not None else None
            use_pool = jobs > 1 and len(missing) > 1
            if not use_pool:
                jobs = 1
            with telemetry.tracer.span(
                "execute",
                engine="pool" if use_pool else "serial",
                cells=len(missing),
                n_jobs=jobs,
                **policy.span_attrs(),
            ):
                if use_pool:
                    from repro.eval.parallel import run_cells_parallel

                    report = run_cells_parallel(
                        spec, missing, jobs,
                        policy=policy, on_result=on_result, plan=plan,
                    )
                else:
                    report = run_cells_serial(
                        plan, missing, policy, on_result=on_result
                    )
        finally:
            if owns_journal:
                journal.close()

        executed = report.results
        with telemetry.tracer.span("reduce", cells=len(cells)):
            result = reduce_cells(plan, list(restored.values()) + list(executed))
        result.timing = RunTiming(
            n_jobs=jobs,
            wall_seconds=time.perf_counter() - started,
            cells=len(executed),
            cell_seconds=float(sum(c.wall_seconds for c in executed)),
            max_cell_seconds=float(
                max((c.wall_seconds for c in executed), default=0.0)
            ),
            cache_hits=sum(c.cache_hits for c in executed),
            cache_misses=sum(c.cache_misses for c in executed),
            journal_cells=len(restored),
            retries=report.retries,
            pool_rebuilds=report.pool_rebuilds,
            degraded_to_serial=report.degraded,
            failures=[f.to_payload() for f in report.failures],
        )
        _record_run_metrics(result.timing)
    return result


def _record_run_metrics(timing: RunTiming) -> None:
    """Mirror the run's :class:`RunTiming` into telemetry counters.

    Recorded once per run from the same numbers the ``[timing]`` /
    ``[faults]`` footer prints, so ``repro trace summary`` and the
    run output can never disagree.
    """
    registry = telemetry.metrics
    if not registry.enabled:
        return
    registry.counter("cells.executed").inc(timing.cells)
    registry.counter("cells.journal_restored").inc(timing.journal_cells)
    registry.counter("cells.retries").inc(timing.retries)
    registry.counter("pool.rebuilds").inc(timing.pool_rebuilds)
    if timing.degraded_to_serial:
        registry.counter("pool.degraded_to_serial").inc()
    for kind, count in timing.failure_kinds().items():
        registry.counter("cells.failed_attempts", kind=kind).inc(count)
