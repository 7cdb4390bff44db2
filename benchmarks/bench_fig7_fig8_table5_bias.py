"""Figure 7, Figure 8 and Table 5: sources of low prediction accuracy.

For a friendship snapshot these benches compare each metric's *predicted*
edges against the ground-truth edges along three axes:

- Fig. 7 — degree distribution of the involved nodes (JC and PPR skew to
  low degree; the CN family skews high);
- Fig. 8 — idle time of the involved nodes (metrics are biased towards
  dormant nodes relative to the ground truth);
- Table 5 — concentration: the share of predicted vs real edges touching
  the 0.1% most frequently predicted nodes (metrics overpredict a small
  hub set).
"""

from collections import Counter

import numpy as np

from benchmarks.conftest import write_result
from repro.temporal.activity import node_idle_times

METRICS = ("JC", "PPR", "BCN", "BAA", "BRA", "LRW", "LP", "Rescal")


def node_degrees_of_pairs(snapshot, pairs):
    return np.asarray(
        [snapshot.degree(int(u)) for pair in pairs for u in pair], dtype=float
    )


def node_idles_of_pairs(snapshot, pairs):
    idle = node_idle_times(snapshot)
    return idle[snapshot.positions_of(np.asarray(pairs, dtype=np.int64).ravel())]


def last_friendship_step(networks, metric_sweep, network="renren"):
    data = networks[network]
    last_j = len(data.eval_indices) - 1
    prev = data.steps[data.eval_indices[last_j]][0]
    truth = data.steps[data.eval_indices[last_j]][2]
    predictions = {
        metric: metric_sweep[network][metric][last_j].predicted
        for metric in METRICS
    }
    return prev, truth, predictions


def test_fig7_degree_bias(networks, metric_sweep, benchmark):
    prev, truth, predictions = benchmark(
        lambda: last_friendship_step(networks, metric_sweep)
    )
    truth_arr = np.asarray(sorted(truth))
    truth_deg = node_degrees_of_pairs(prev, truth_arr)
    lines = [f"ground truth median degree: {np.median(truth_deg):.1f}"]
    medians = {}
    for metric, pred in predictions.items():
        deg = node_degrees_of_pairs(prev, pred)
        medians[metric] = float(np.median(deg))
        lines.append(f"{metric:8s} median predicted degree: {medians[metric]:.1f}")
    write_result("fig7_degree_bias", "\n".join(lines))

    # Core Fig. 7 claim that survives our scale: the similarity metrics are
    # "strongly biased by node degree" — their predictions involve clearly
    # higher-degree nodes than the ground truth does.  (The paper's
    # JC/PPR-skew-low sub-observation needs the original graphs' huge
    # low-degree population and is reported, not asserted, here.)
    truth_median = float(np.median(truth_deg))
    high_biased = sum(1 for m in medians.values() if m > truth_median)
    assert high_biased >= len(medians) * 0.75, (truth_median, medians)


def test_fig8_idle_time_bias(networks, metric_sweep, benchmark):
    prev, truth, predictions = benchmark(
        lambda: last_friendship_step(networks, metric_sweep)
    )
    truth_arr = np.asarray(sorted(truth))
    truth_idle = float(np.median(node_idles_of_pairs(prev, truth_arr)))
    lines = [f"ground truth median idle: {truth_idle:.2f} days"]
    biased = 0
    for metric, pred in predictions.items():
        idle = float(np.median(node_idles_of_pairs(prev, pred)))
        lines.append(f"{metric:8s} median predicted idle: {idle:.2f} days")
        if idle >= truth_idle:
            biased += 1
    write_result("fig8_idle_time_bias", "\n".join(lines))

    # "Idle time of nodes in predicted edges by all metrics are larger than
    # that of ground truth."  Our generator's ground truth is itself heavily
    # recency-driven, so the separation is weaker than the paper's; require
    # the bias for a meaningful subset of metrics.
    assert biased >= 3, lines


def test_table5_node_concentration(networks, metric_sweep, benchmark):
    prev, truth, predictions = benchmark(
        lambda: last_friendship_step(networks, metric_sweep)
    )
    n_top = max(1, prev.num_nodes // 1000)  # the paper's 0.1%
    lines = [f"top node budget: {n_top} nodes (0.1%)"]
    overpredicting = 0
    for metric, pred in predictions.items():
        counts = Counter(int(u) for pair in pred for u in pair)
        top_nodes = {node for node, _ in counts.most_common(n_top)}
        pred_share = np.mean(
            [int(u) in top_nodes or int(v) in top_nodes for u, v in pred]
        )
        real_share = (
            np.mean([u in top_nodes or v in top_nodes for u, v in truth])
            if truth
            else 0.0
        )
        lines.append(
            f"{metric:8s} predicted: {100 * pred_share:5.1f}%  real: {100 * real_share:5.1f}%"
        )
        if pred_share > real_share:
            overpredicting += 1
    write_result("table5_node_concentration", "\n".join(lines))

    # Most metrics overpredict the involvement of their favourite nodes.
    assert overpredicting >= len(predictions) * 0.6, lines
