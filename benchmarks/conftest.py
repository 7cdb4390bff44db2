"""Shared fixtures for the benchmark suite.

Every bench regenerates one table or figure of the paper.  The expensive
ingredients — the three synthetic traces, their snapshot sequences, and the
full metric sweep behind Figs. 5-8 and Tables 4-5 — are computed once per
session here and shared.

Environment knobs:

- ``REPRO_SCALE``  (default 0.75): multiplies trace sizes.
- ``REPRO_STEPS``  (default 6): prediction steps evaluated per network.
- ``REPRO_SEED``   (default 3): trace generation seed.
- ``REPRO_JOBS``   (default 1): worker processes for the metric sweep.
  Each sweep cell seeds its own RNG (``default_rng(1000 + step)``), so
  any job count produces identical sweep results.

Results are also written to ``benchmarks/results/*.txt`` so the tables
survive pytest's output capture.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.classify import sampled_instance
from repro.eval.experiment import MetricStepResult, evaluate_step, prediction_steps
from repro.generators import presets
from repro.graph.snapshots import Snapshot, snapshot_sequence
from repro.metrics import FIGURE5_METRICS
from repro.metrics.base import get_metric
from repro.metrics.candidates import prewarm_candidate_caches
from repro.utils.pairs import Pair

SCALE = float(os.environ.get("REPRO_SCALE", "0.75"))
STEPS = int(os.environ.get("REPRO_STEPS", "6"))
SEED = int(os.environ.get("REPRO_SEED", "3"))
JOBS = int(os.environ.get("REPRO_JOBS", "1"))

RESULTS_DIR = Path(__file__).parent / "results"

NETWORKS = ("facebook", "renren", "youtube")


def write_result(name: str, text: str) -> None:
    """Persist a bench's table under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n[{name}]\n{text}")


@dataclass
class NetworkData:
    """One network's trace, snapshot sequence, and prediction steps."""

    name: str
    trace: object
    snapshots: list[Snapshot]
    steps: list[tuple[Snapshot, Snapshot, set[Pair]]]
    eval_indices: list[int]  # which steps the sweep evaluates


def build_networks(
    scale: float = SCALE, step_count: int = STEPS, seed: int = SEED
) -> dict[str, NetworkData]:
    """Deterministically rebuild the three traces (default: the env knobs).

    Called by the session fixture *and* by sweep worker processes: the
    traces are pure functions of (scale, seed), so a worker reconstructing
    them locally sees byte-identical snapshots without any pickling.
    """
    out = {}
    for name in NETWORKS:
        trace = presets.load(name, scale=scale, seed=seed)
        delta = presets.snapshot_delta(name, scale)
        snaps = snapshot_sequence(trace, delta, start=trace.num_edges // 3)
        steps = list(prediction_steps(snaps))
        idx = np.linspace(0, len(steps) - 1, min(step_count, len(steps)), dtype=int)
        out[name] = NetworkData(
            name=name,
            trace=trace,
            snapshots=snaps,
            steps=steps,
            eval_indices=[int(i) for i in idx],
        )
    return out


@pytest.fixture(scope="session")
def networks() -> dict[str, NetworkData]:
    """The three calibrated traces with their snapshot sequences."""
    return build_networks()


def _sweep_cell(data: NetworkData, metric: str, i: int) -> MetricStepResult:
    """One sweep evaluation; the per-cell RNG makes cells order-free."""
    prev, _, truth = data.steps[i]
    return evaluate_step(metric, prev, truth, rng=np.random.default_rng(1000 + i), step=i)


#: per-worker rebuilt networks for the parallel sweep (REPRO_JOBS > 1).
_WORKER_NETWORKS: "dict[str, NetworkData] | None" = None


def _init_sweep_worker() -> None:
    global _WORKER_NETWORKS
    _WORKER_NETWORKS = build_networks()
    strategies = tuple(get_metric(m).candidate_strategy for m in FIGURE5_METRICS)
    for data in _WORKER_NETWORKS.values():
        for i in data.eval_indices:
            prewarm_candidate_caches(data.steps[i][0], strategies)


def _run_sweep_cell(cell: "tuple[str, str, int]") -> MetricStepResult:
    name, metric, i = cell
    return _sweep_cell(_WORKER_NETWORKS[name], metric, i)


@pytest.fixture(scope="session")
def metric_sweep(networks) -> dict[str, dict[str, list[MetricStepResult]]]:
    """Every Figure 5 metric evaluated on every selected step of every
    network — the shared substrate of Figs. 5-8 and Tables 4-5."""
    return run_sweep(networks, JOBS)


def run_sweep(networks, jobs: int = 1) -> dict[str, dict[str, list[MetricStepResult]]]:
    """The Figure 5 sweep, as ``sweep[network][metric]`` in step order.

    With ``jobs > 1`` the cells are dispatched over a process pool; each
    cell's RNG depends only on its step index, so the sweep is identical
    for any job count.
    """
    cells = [
        (name, metric, i)
        for name in networks
        for metric in FIGURE5_METRICS
        for i in networks[name].eval_indices
    ]
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(cells)), initializer=_init_sweep_worker
        ) as pool:
            results = list(pool.map(_run_sweep_cell, cells, chunksize=4))
    else:
        results = [_sweep_cell(networks[name], metric, i) for name, metric, i in cells]
    sweep: dict[str, dict[str, list[MetricStepResult]]] = {}
    for (name, metric, _i), result in zip(cells, results):
        sweep.setdefault(name, {}).setdefault(metric, []).append(result)
    return sweep


@pytest.fixture(scope="session")
def classification_instances(networks):
    """Two Table 6 style train/test instances per network (small & large).

    Facebook keeps all nodes (p = 100%); the two larger networks are
    snowball-sampled, mirroring Section 5.1 (we use a larger p than the
    paper's 2% because the synthetic traces are ~1000x smaller).  Each
    instance uses a 3-snapshot horizon for both the training labels and the
    test ground truth: our snapshot deltas are ~1000x smaller than the
    paper's, so a single-delta horizon leaves too few positives for stable
    classifier experiments.
    """
    fractions = {"facebook": 1.0, "renren": 0.6, "youtube": 0.65}
    instances: dict[str, list] = {}
    for name, data in networks.items():
        snaps = data.snapshots
        eras = [(-10, -7, -4), (-7, -4, -1)]  # (train, label/test, truth)
        instances[name] = [
            sampled_instance(
                snaps[a], snaps[b], snaps[c], fraction=fractions[name], rng=SEED
            )
            for a, b, c in eras
        ]
    return instances
