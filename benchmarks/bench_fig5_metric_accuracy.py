"""Figure 5: accuracy ratio of all metric-based algorithms over snapshots.

Shape targets from the paper:
- every metric beats random prediction over the sequence (ratio > 1 on
  average, with the weakest — SP — allowed to sit near the random line);
- SP and PA are consistently among the weakest on the friendship networks;
- the common-neighbour family (BCN/BAA/BRA) is in the top group on
  Renren and Facebook;
- Rescal is in the top group on YouTube while JC and PPR collapse there.
"""

import numpy as np

from benchmarks.conftest import write_result
from repro.eval.experiment import evaluate_step
from repro.metrics import FIGURE5_METRICS


def mean_ratios(sweep, network):
    return {
        metric: float(np.mean([r.ratio for r in results]))
        for metric, results in sweep[network].items()
    }


def test_fig5_accuracy_ratio_series(networks, metric_sweep, benchmark):
    # Time one representative evaluation step (RA on the last facebook step).
    data = networks["facebook"]
    prev, _, truth = data.steps[-1]
    benchmark.pedantic(
        lambda: evaluate_step("RA", prev, truth, rng=0), rounds=1, iterations=1
    )

    lines = []
    for name in networks:
        lines.append(f"-- {name} (accuracy ratio per evaluated snapshot) --")
        for metric in FIGURE5_METRICS:
            series = " ".join(f"{r.ratio:9.2f}" for r in metric_sweep[name][metric])
            lines.append(f"{metric:8s} {series}")
    write_result("fig5_metric_accuracy", "\n".join(lines))


def all_mean_ratios(sweep):
    return {network: mean_ratios(sweep, network) for network in sweep}


# The findings, each over ``ratios[network][metric]`` (mean accuracy
# ratios); ``tests/test_paper_claims.py`` runs the same checks in tier-1.


def check_all_beat_random_on_friendship(ratios):
    facebook = ratios["facebook"]
    strong = [m for m in FIGURE5_METRICS if m not in ("SP",)]
    beating = [m for m in strong if facebook[m] > 1.0]
    assert len(beating) >= len(strong) - 2, facebook


def check_sp_and_pa_weak_on_friendship(ratios):
    for network in ("facebook", "renren"):
        best = max(ratios[network].values())
        assert ratios[network]["SP"] < 0.5 * best, (network, ratios[network])
        assert ratios[network]["PA"] < best, (network, ratios[network])


def check_cn_family_top_group_on_friendship(ratios):
    for network in ("facebook", "renren"):
        mine = ratios[network]
        ranked = sorted(mine, key=mine.get, reverse=True)
        top_half = set(ranked[: len(ranked) // 2])
        assert top_half & {"BCN", "BAA", "BRA"}, (network, ranked)


def check_youtube_structure(ratios):
    youtube = ratios["youtube"]
    ranked = sorted(youtube, key=youtube.get, reverse=True)
    # Rescal in the top group; JC and SP at the bottom (paper Section 4.2).
    assert "Rescal" in ranked[:4], ranked
    assert youtube["JC"] <= 0.25 * max(youtube.values()), youtube
    assert youtube["SP"] <= 0.25 * max(youtube.values()), youtube


def test_fig5_all_beat_random_on_friendship(metric_sweep, benchmark):
    benchmark(lambda: None)  # keep this shape test active under --benchmark-only
    check_all_beat_random_on_friendship(all_mean_ratios(metric_sweep))


def test_fig5_sp_and_pa_weak_on_friendship(metric_sweep, benchmark):
    benchmark(lambda: None)  # keep this shape test active under --benchmark-only
    check_sp_and_pa_weak_on_friendship(all_mean_ratios(metric_sweep))


def test_fig5_cn_family_top_group_on_friendship(metric_sweep, benchmark):
    benchmark(lambda: None)  # keep this shape test active under --benchmark-only
    check_cn_family_top_group_on_friendship(all_mean_ratios(metric_sweep))


def test_fig5_youtube_structure(metric_sweep, benchmark):
    benchmark(lambda: None)  # keep this shape test active under --benchmark-only
    check_youtube_structure(all_mean_ratios(metric_sweep))
