"""Recorded grouped (v3) channel draws.

``tests/data/grouped_draw_vectors.json`` holds, per case, the exact
link SNRs, the SHA-256 of every directed true channel and the
post-construction generator state of grouped networks, recorded while
the bank still evaluated every response at build time.  Evaluating
responses on first read must reproduce them bit for bit, and must leave
the generator where the eager build left it.
"""

import hashlib

import numpy as np
import pytest

from repro.sim.network import Network
from repro.sim.scenarios import (
    custom_pairs_scenario,
    scenario_factory,
    three_pair_scenario,
)

FORCED = {(0, 1): 12.0, (1, 0): 99.0, (2, 3): 25.0, (5, 4): 7.5}


def _scenario_kwargs(case_id):
    if case_id.startswith("antennas-"):
        counts = [int(part) for part in case_id.split("-")[1:]]
        return custom_pairs_scenario(counts), {}
    if case_id == "three-pair/forced-snrs":
        return three_pair_scenario(), {"forced_link_snrs_db": FORCED}
    if case_id == "three-pair/64-subcarriers":
        return three_pair_scenario(), {}
    scenario = scenario_factory(case_id)()
    return scenario, {"testbed": scenario.make_testbed()}


def _digest(channel):
    return hashlib.sha256(np.ascontiguousarray(channel).tobytes()).hexdigest()


def _cases(recorded_vectors):
    return recorded_vectors("grouped_draw_vectors.json")["cases"]


CASE_IDS = [
    "antennas-1-1",
    "antennas-2-2",
    "antennas-3-3-3",
    "antennas-1-2-3",
    "antennas-3-1-2-2-1",
    "three-pair/forced-snrs",
    "three-pair/64-subcarriers",
    "dense-lan-100-bursty",
]


def test_every_recorded_case_is_exercised(recorded_vectors):
    assert [case["id"] for case in _cases(recorded_vectors)] == CASE_IDS


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_grouped_draws_match_recorded(case_id, recorded_vectors):
    case = {c["id"]: c for c in _cases(recorded_vectors)}[case_id]
    scenario, kwargs = _scenario_kwargs(case_id)
    rng = np.random.default_rng(case["seed"])
    network = Network(
        scenario.stations,
        scenario.pairs,
        rng,
        n_subcarriers=case["n_subcarriers"],
        channel_draws="grouped",
        **kwargs,
    )
    # The generator state is checked before any channel is read: reads
    # must never draw.
    state = rng.bit_generator.state
    recorded = case["post_draw_state"]
    assert str(state["state"]["state"]) == recorded["state"]
    assert str(state["state"]["inc"]) == recorded["inc"]
    assert state["has_uint32"] == recorded["has_uint32"]
    assert state["uinteger"] == recorded["uinteger"]

    pairs = sorted(network.channels.pairs())
    assert [list(pair) for pair in pairs] == case["pairs"]
    shapes = set()
    for (a, b), snr, (forward, reverse) in zip(pairs, case["snr_db"], case["sha256"]):
        assert network.link_snr_db(a, b) == snr
        assert network.link_snr_db(b, a) == snr
        channel = network.true_channel(a, b)
        shapes.add(tuple(channel.shape))
        assert _digest(channel) == forward, (a, b)
        assert _digest(network.true_channel(b, a)) == reverse, (b, a)
    assert shapes == {tuple(shape) for shape in case["shapes"]}
    assert rng.bit_generator.state == state
