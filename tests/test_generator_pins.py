"""Pinned output of the synthetic growth engine.

The growth engine draws from its neighbour sets' iteration order, its
degree urns and its recency state, so any change to how it keeps them
can shift every generated trace.  These values must not move without a
deliberate change to the generator, which also changes every
generator-fed result in ``benchmarks/results``.
"""

import hashlib

import pytest

from repro.extensions.directed import generate_directed_trace
from repro.generators import presets
from repro.generators.fit import measure_mechanisms
from repro.generators.social import social_config
from repro.generators.subscription import subscription_config
from repro.ingest.loader import stream_checksum

SCALE, SEED = 0.2, 7

#: preset -> (nodes, edges, stream checksum) at SCALE / SEED.
PRESET_STREAMS = {
    "facebook": (170, 1560, "355fa049f52561c8"),
    "renren": (260, 3600, "c4267319b884ed49"),
    "youtube": (520, 1400, "0ecdb2e534a8c680"),
}

#: preset -> measure_mechanisms() of its trace at SCALE / SEED.
PRESET_MECHANISMS = {
    "facebook": {
        "triadic_share": 0.801923076923077,
        "triadic_share_first_half": 0.8166666666666667,
        "triadic_share_second_half": 0.7871794871794872,
        "newcomer_share": 0.08717948717948718,
        "median_initiator_idle": 0.4583515303136707,
    },
    "renren": {
        "triadic_share": 0.9333333333333333,
        "triadic_share_first_half": 0.9055555555555556,
        "triadic_share_second_half": 0.9611111111111111,
        "newcomer_share": 0.03888888888888889,
        "median_initiator_idle": 0.3285911545573583,
    },
    "youtube": {
        "triadic_share": 0.4757142857142857,
        "triadic_share_first_half": 0.5114285714285715,
        "triadic_share_second_half": 0.44,
        "newcomer_share": 0.5107142857142857,
        "median_initiator_idle": 0.508771936812149,
    },
}


@pytest.fixture(scope="module")
def preset_traces():
    return {name: presets.load(name, scale=SCALE, seed=SEED) for name in PRESET_STREAMS}


@pytest.mark.parametrize("name", sorted(PRESET_STREAMS))
def test_preset_stream_is_pinned(preset_traces, name):
    trace = preset_traces[name]
    got = (trace.num_nodes, trace.num_edges, stream_checksum(*trace.columns()))
    assert got == PRESET_STREAMS[name]


@pytest.mark.parametrize("name", sorted(PRESET_MECHANISMS))
def test_measure_mechanisms_is_pinned(preset_traces, name):
    assert measure_mechanisms(preset_traces[name]) == PRESET_MECHANISMS[name]


@pytest.mark.parametrize(
    "config, expected",
    [
        (
            subscription_config(total_nodes=200, total_edges=600, duration_days=30),
            (600, "8e2063d6c64d56ac", "16833a002ce57497"),
        ),
        (
            social_config(total_nodes=200, total_edges=900, duration_days=30),
            (900, "821554268e2f72df", "b8565fb895fcdab2"),
        ),
    ],
    ids=["subscription", "social"],
)
def test_directions_are_pinned(config, expected):
    trace, directions = generate_directed_trace(config, seed=0)
    digest = hashlib.sha256(repr(list(directions.items())).encode()).hexdigest()
    got = (len(directions), digest[:16], stream_checksum(*trace.columns()))
    assert got == expected
