"""The paper's findings, gated in tier-1 (marker ``paper_claims``).

Bitwise oracles pin a float fit to one formulation; these tests pin what
the paper found instead, so a rewrite that moves the last bits of a score
still has to keep every finding.  They run the claim benches' own checks
on the configuration the committed result files come from (scale 0.75,
6 evaluated steps, seed 3): at smaller scales the synthetic traces are
too small for the paper's orderings to hold.  Each test names the figure
or table it guards.
"""

import pytest

from benchmarks import bench_fig5_metric_accuracy as fig5
from benchmarks.bench_table8_filter_improvement import build_filters, improvement_table
from benchmarks.conftest import build_networks, run_sweep

pytestmark = pytest.mark.paper_claims

SCALE, STEP_COUNT, SEED = 0.75, 6, 3


@pytest.fixture(scope="module")
def networks():
    return build_networks(scale=SCALE, step_count=STEP_COUNT, seed=SEED)


@pytest.fixture(scope="module")
def fig5_ratios(networks):
    return fig5.all_mean_ratios(run_sweep(networks))


@pytest.fixture(scope="module")
def walk_filter_table(networks):
    return improvement_table(networks, build_filters(networks), ("PPR", "LRW"))


def test_fig5_all_beat_random_on_friendship(fig5_ratios):
    """Fig. 5: all but at most two metrics beat random on Facebook."""
    fig5.check_all_beat_random_on_friendship(fig5_ratios)


def test_fig5_sp_and_pa_weak_on_friendship(fig5_ratios):
    """Fig. 5: SP and PA are among the weakest on the friendship networks."""
    fig5.check_sp_and_pa_weak_on_friendship(fig5_ratios)


def test_fig5_cn_family_top_group_on_friendship(fig5_ratios):
    """Fig. 5: BCN/BAA/BRA reach the top half on Facebook and Renren."""
    fig5.check_cn_family_top_group_on_friendship(fig5_ratios)


def test_fig5_youtube_structure(fig5_ratios):
    """Fig. 5: Rescal is in YouTube's top group, JC and SP at its bottom."""
    fig5.check_youtube_structure(fig5_ratios)


#: Table 8 cells where this reproduction does not show the paper's gain;
#: strict, so a change that makes the filter help there fails until the
#: mark is removed.
NO_GAIN_HERE = {
    ("renren", "LRW"): "the filtered ratio reads 0.89x of the unfiltered one",
    ("youtube", "LRW"): "LRW's later YouTube steps score 0 with and without "
    "the filter",
}


@pytest.mark.parametrize(
    "network, metric",
    [
        pytest.param(
            network,
            metric,
            marks=[pytest.mark.xfail(strict=True, reason=NO_GAIN_HERE[(network, metric)])]
            if (network, metric) in NO_GAIN_HERE
            else [],
        )
        for network in ("facebook", "renren", "youtube")
        for metric in ("PPR", "LRW")
    ],
)
def test_table8_filter_improves_walks(walk_filter_table, network, metric):
    """Table 8: the temporal filter raises PPR's and LRW's accuracy ratio."""
    unfiltered, filtered = walk_filter_table[(network, metric)]
    assert filtered > unfiltered, (network, metric, unfiltered, filtered)
