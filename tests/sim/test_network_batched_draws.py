"""Tests for the batched network-construction pipeline.

The load-bearing guarantee: the batched draws -- grouped tap scaling, one
stacked FFT per antenna-shape group -- are *bit-identical* to the
per-pair loop they replaced, for every antenna mix, with and without
forced link SNRs, all the way down to the post-draw generator state (so
every downstream draw, and therefore every simulated metric, is
unchanged).  The per-pair outputs are recorded in
``tests/data/per_pair_draw_vectors.json``.
"""

import hashlib

import numpy as np
import pytest

from repro.channel.multipath import MultipathChannel, frequency_response_batch
from repro.channel.testbed import default_testbed, dense_testbed
from repro.exceptions import ConfigurationError
from repro.sim.network import Network, _subcarrier_bins
from repro.sim.runner import SimulationConfig, run_simulation
from repro.sim.scenarios import (
    custom_pairs_scenario,
    dense_lan_scenario,
    three_pair_scenario,
)


@pytest.fixture
def per_pair_cases(recorded_vectors):
    """The recorded per-pair draw cases, by id."""
    cases = recorded_vectors("per_pair_draw_vectors.json")["cases"]
    return {case["id"]: case for case in cases}


def _build(scenario, seed, **kwargs):
    rng = np.random.default_rng(seed)
    network = Network(
        scenario.stations, scenario.pairs, rng, channel_draws="batched", **kwargs
    )
    return network, rng


def _assert_matches_recorded(network, rng, case):
    links = sorted(network.channels.pairs())
    assert links == [(link["tx"], link["rx"]) for link in case["links"]]
    for (a, b), link in zip(links, case["links"]):
        assert network.link_snr_db(a, b) == link["snr_db"]
        assert network.link_snr_db(b, a) == link["reverse_snr_db"]
        channel = network.true_channel(a, b)
        assert list(channel.shape) == link["shape"]
        digest = hashlib.sha256(np.ascontiguousarray(channel).tobytes()).hexdigest()
        assert digest == link["sha256"], (a, b)
    # Both paths consumed exactly the same random numbers, so everything
    # drawn afterwards (estimation noise fallback, MAC draws) agrees too.
    state = rng.bit_generator.state
    recorded = case["post_draw_state"]
    assert str(state["state"]["state"]) == recorded["state"]
    assert str(state["state"]["inc"]) == recorded["inc"]
    assert state["has_uint32"] == recorded["has_uint32"]
    assert state["uinteger"] == recorded["uinteger"]


class TestBatchedDrawsBitIdentical:
    @pytest.mark.parametrize(
        "antenna_counts",
        [[1, 1], [2, 2], [3, 3, 3], [1, 2, 3], [3, 1, 2, 2, 1]],
    )
    def test_antenna_mixes(self, antenna_counts, per_pair_cases):
        scenario = custom_pairs_scenario(antenna_counts)
        case = per_pair_cases["antennas-" + "-".join(map(str, antenna_counts))]
        _assert_matches_recorded(*_build(scenario, seed=3, n_subcarriers=8), case)

    def test_forced_snr_links(self, per_pair_cases):
        scenario = three_pair_scenario()
        forced = {(0, 1): 12.0, (2, 3): 25.0, (5, 4): 7.5}
        _assert_matches_recorded(
            *_build(scenario, seed=5, n_subcarriers=8, forced_link_snrs_db=forced),
            per_pair_cases["three-pair/forced-snrs"],
        )

    def test_dense_lan_on_dense_testbed(self, per_pair_cases):
        scenario = dense_lan_scenario(n_pairs=8, seed=11)
        _assert_matches_recorded(
            *_build(scenario, seed=2, n_subcarriers=8, testbed=scenario.make_testbed()),
            per_pair_cases["dense-lan-8pairs-seed11"],
        )

    def test_full_subcarrier_resolution(self, per_pair_cases):
        scenario = three_pair_scenario()
        _assert_matches_recorded(
            *_build(scenario, seed=9, n_subcarriers=64),
            per_pair_cases["three-pair/64-subcarriers"],
        )

    def test_downstream_metrics_identical(self, per_pair_cases):
        """Same channels -> bit-identical simulated metrics."""
        config = SimulationConfig(duration_us=8_000.0, n_subcarriers=8)
        scenario = three_pair_scenario()
        case = per_pair_cases["three-pair/downstream"]
        network, rng = _build(scenario, seed=6, n_subcarriers=8)
        _assert_matches_recorded(network, rng, case)
        metrics = run_simulation(scenario, "n+", seed=21, config=config, network=network)
        assert metrics.to_dict() == case["metrics"]

    def test_empty_network_still_builds(self):
        """No stations -> no pairs, on every draw path."""
        for mode in ("batched", "grouped"):
            network = Network([], [], np.random.default_rng(0), channel_draws=mode)
            assert network.channels.n_pairs == 0 and network.channels.n_groups == 0

    def test_unknown_draw_mode_rejected(self):
        scenario = three_pair_scenario()
        with pytest.raises(ConfigurationError):
            Network(
                scenario.stations,
                scenario.pairs,
                np.random.default_rng(0),
                channel_draws="turbo",
            )


class TestMultipathBatchPrimitives:
    def test_random_batch_matches_sequential_random(self):
        rng_batch = np.random.default_rng(17)
        rng_seq = np.random.default_rng(17)
        decays = np.array([0.6, 1.5, 3.0, 0.6])
        gains = np.array([1.0, 4.0, 0.25, 10.0])
        taps = MultipathChannel.random_batch(
            n_rx=2,
            n_tx=3,
            rng=rng_batch,
            n_channels=4,
            n_taps=3,
            decay_samples=decays,
            average_gain=gains,
        )
        assert taps.shape == (4, 3, 2, 3)
        for index in range(4):
            channel = MultipathChannel.random(
                n_rx=2,
                n_tx=3,
                rng=rng_seq,
                n_taps=3,
                decay_samples=float(decays[index]),
                average_gain=float(gains[index]),
            )
            assert np.array_equal(taps[index], channel.taps)
        assert rng_batch.bit_generator.state == rng_seq.bit_generator.state

    def test_frequency_response_batch_matches_per_channel(self):
        rng = np.random.default_rng(4)
        taps = MultipathChannel.random_batch(2, 2, rng, n_channels=5, n_taps=4)
        responses = frequency_response_batch(taps, 64)
        assert responses.shape == (5, 64, 2, 2)
        for index in range(5):
            expected = MultipathChannel(taps=taps[index]).frequency_response(64)
            assert np.array_equal(responses[index], expected)

    def test_random_batch_validates_taps_and_raw(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            MultipathChannel.random_batch(1, 1, rng, n_channels=2, n_taps=999)
        with pytest.raises(ConfigurationError):
            MultipathChannel.random_batch(1, 1, rng=None, n_channels=2)
        from repro.exceptions import DimensionError

        with pytest.raises(DimensionError):
            MultipathChannel.random_batch(
                1, 1, rng=None, n_channels=2, n_taps=3, raw=np.zeros((2, 3, 2, 2, 2))
            )


class TestTestbedLinkBatch:
    @pytest.mark.parametrize("testbed_factory", [default_testbed, dense_testbed])
    def test_matches_sequential_links(self, testbed_factory):
        testbed = testbed_factory()
        rng_batch = np.random.default_rng(23)
        rng_seq = np.random.default_rng(23)
        tx_locations = [0, 1, 2, 3]
        rx_locations = [4, 5, 6, 7]
        forced = [None, 18.0, None, 9.0]
        links = testbed.link_batch(
            tx_locations, rx_locations, n_tx=2, n_rx=3, rng=rng_batch, snr_db=forced
        )
        for link, a, b, snr in zip(links, tx_locations, rx_locations, forced):
            expected = testbed.link(a, b, n_tx=2, n_rx=3, rng=rng_seq, snr_db=snr)
            assert link.snr_db == expected.snr_db
            assert np.array_equal(link.channel.taps, expected.channel.taps)
        assert rng_batch.bit_generator.state == rng_seq.bit_generator.state

    def test_mismatched_lengths_rejected(self):
        testbed = default_testbed()
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            testbed.link_batch([0, 1], [2], n_tx=1, n_rx=1, rng=rng)
        with pytest.raises(ConfigurationError):
            testbed.link_batch([0, 1], [2, 3], n_tx=1, n_rx=1, rng=rng, snr_db=[1.0])


class TestSubcarrierBinCache:
    def test_bins_are_cached_and_read_only(self):
        first = _subcarrier_bins(8)
        second = _subcarrier_bins(8)
        assert first is second
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1

    def test_bins_match_the_ofdm_layout(self):
        from repro.phy.ofdm import OfdmConfig

        data_bins = np.array(OfdmConfig().data_indices)
        assert np.array_equal(_subcarrier_bins(64), data_bins)
        assert np.array_equal(_subcarrier_bins(data_bins.size + 5), data_bins)
        eight = _subcarrier_bins(8)
        assert eight.size == 8
        assert set(eight) <= set(data_bins)
