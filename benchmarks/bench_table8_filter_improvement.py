"""Table 8: accuracy ratio after filtering vs before, for every metric-based
algorithm and the SVM classifier, on every network.

Shape targets from the paper:
- filtering improves most algorithms (values >= ~1) and dramatically
  improves the weakest ones (the paper's SP: 14.9x on Renren, 15.7x on
  YouTube);
- a "-" appears where the unfiltered accuracy is zero (the paper's JC on
  YouTube);
- classifiers gain a modest factor (1.1-2.2x in the paper).
"""

import numpy as np

from benchmarks.conftest import write_result
from repro.classify import ClassificationPredictor
from repro.eval.experiment import evaluate_step
from repro.metrics.candidates import two_hop_pairs
from repro.temporal import TemporalFilter, calibrate_filter

METRICS = ("JC", "BCN", "BAA", "BRA", "LP", "LRW", "PPR", "SP", "Rescal", "PA")


def build_filters(networks):
    filters = {}
    for name, data in networks.items():
        cal_prev, _, cal_truth = data.steps[len(data.steps) // 2]
        filters[name] = TemporalFilter(
            calibrate_filter(cal_prev, cal_truth, two_hop_pairs(cal_prev), rng=0)
        )
    return filters


def improvement_table(networks, filters, metrics=METRICS):
    """``table[(network, metric)] = (unfiltered, filtered)`` mean ratios
    over the later half of each network's evaluated steps."""
    table = {}
    for name, data in networks.items():
        eval_idx = data.eval_indices[len(data.eval_indices) // 2 :]
        for metric in metrics:
            base, filtered = [], []
            for i in eval_idx:
                prev, _, truth = data.steps[i]
                base.append(evaluate_step(metric, prev, truth, rng=100 + i).ratio)
                filtered.append(
                    evaluate_step(
                        metric, prev, truth, rng=100 + i, pair_filter=filters[name]
                    ).ratio
                )
            table[(name, metric)] = (float(np.mean(base)), float(np.mean(filtered)))
    return table


def classifier_improvement(instances, filters):
    out = {}
    for name in ("facebook", "youtube"):
        inst = instances[name][1]
        predictor = ClassificationPredictor("SVM", theta=1 / 100, seed=0)
        predictor.train(inst.train_view, inst.label_view)
        base = predictor.predict_step(inst.test_view, inst.truth, rng=0).ratio
        filtered = predictor.predict_step(
            inst.test_view, inst.truth, rng=0, pair_filter=filters[name]
        ).ratio
        out[name] = (base, filtered)
    return out


def format_cell(base, filtered):
    if base == 0:
        return "    -" if filtered == 0 else "  new"
    return f"{filtered / base:5.2f}"


def test_table8_metric_filter_improvement(networks, benchmark):
    filters = build_filters(networks)
    table = benchmark.pedantic(
        lambda: improvement_table(networks, filters), rounds=1, iterations=1
    )
    lines = ["improvement = filtered ratio / unfiltered ratio"]
    header = f"{'network':10s} " + " ".join(f"{m:>6s}" for m in METRICS)
    lines.append(header)
    for name in networks:
        cells = " ".join(
            f"{format_cell(*table[(name, m)]):>6s}" for m in METRICS
        )
        lines.append(f"{name:10s} {cells}")
    write_result("table8_filter_improvement", "\n".join(lines))

    for name in networks:
        improvements = [
            table[(name, m)][1] / table[(name, m)][0]
            for m in METRICS
            if table[(name, m)][0] > 0
        ]
        # Most algorithms gain or hold; the mean improvement is >= ~1.
        assert np.mean(improvements) > 0.85, (name, improvements)
        # Someone gains substantially (the paper's bold column).
        gains_or_rescued = max(improvements) > 1.15 or any(
            table[(name, m)][0] == 0 and table[(name, m)][1] > 0 for m in METRICS
        )
        assert gains_or_rescued, (name, table)


def test_table8_classifier_filter_improvement(
    networks, classification_instances, benchmark
):
    filters = build_filters(networks)
    results = benchmark.pedantic(
        lambda: classifier_improvement(classification_instances, filters),
        rounds=1,
        iterations=1,
    )
    lines = []
    for name, (base, filtered) in results.items():
        lines.append(f"{name:10s} SVM: {base:.2f} -> {filtered:.2f}")
    write_result("table8_classifier_improvement", "\n".join(lines))
    for name, (base, filtered) in results.items():
        if base > 0:
            assert filtered >= 0.6 * base, (name, base, filtered)
