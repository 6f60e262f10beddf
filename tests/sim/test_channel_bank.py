"""Tests for the ChannelBank storage and the batched estimate prefetch.

The load-bearing guarantees:

* reciprocal channel directions are read-only *transposed views* of the
  forward direction's memory (no copies) -- and mutating any returned
  channel raises, which is what guards the shared-view invariant;
* the ``(tx, rx) -> (group, slot, transposed)`` index is consistent with
  the per-group draws evaluated as a whole, on every draw contract;
* responses are computed on first read only -- none at build time, one
  per distinct link a run reads -- and a fade on a never-read link is
  bit-identical to read-then-fade;
* ``HardwareProfile.perturb_channel_batch`` is bit-identical to the
  equivalent sequence of per-channel ``perturb_channel`` calls;
* ``Network.prefetch_estimates`` fills the estimate memo in stacked
  draws under the grouped contract and is a strict no-op under the v2
  contract (its lazy draw order is part of v2 reproducibility).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.channel.hardware import HardwareProfile
from repro.channel.multipath import MultipathChannel, frequency_response_at_bins_batch
from repro.exceptions import DimensionError
from repro.sim.network import DRAW_CONTRACTS, ChannelBank, Network
from repro.sim.faults import FadeEpisode, FaultInjector, FaultSchedule
from repro.sim.runner import SimulationConfig, build_network, mac_seed, run_simulation
from repro.sim.scenarios import (
    custom_pairs_scenario,
    scenario_factory,
    three_pair_scenario,
)


def _eval(taps):
    return frequency_response_at_bins_batch(taps, np.arange(4))


def _network(mode, seed=3, antenna_counts=(1, 2, 3, 2)):
    scenario = custom_pairs_scenario(list(antenna_counts))
    return Network(
        scenario.stations,
        scenario.pairs,
        np.random.default_rng(seed),
        n_subcarriers=8,
        channel_draws=mode,
    )


class TestSharedViewInvariant:
    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_reciprocal_is_a_transposed_view_not_a_copy(self, mode):
        network = _network(mode)
        forward = network.true_channel(0, 3)
        reverse = network.true_channel(3, 0)
        assert np.array_equal(reverse, forward.transpose(0, 2, 1))
        assert np.shares_memory(forward, reverse)

    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_mutating_a_returned_channel_raises(self, mode):
        """The regression test of the shared-view invariant: a consumer
        writing into a channel would silently corrupt the reciprocal
        direction (same memory), so the bank refuses the write."""
        network = _network(mode)
        forward = network.true_channel(0, 3)
        reverse = network.true_channel(3, 0)
        for channel in (forward, reverse):
            assert not channel.flags.writeable
            with pytest.raises(ValueError):
                channel[0, 0, 0] = 1.0 + 0.0j

    def test_estimated_channels_are_read_only_too(self):
        network = _network("grouped")
        network.reseed_estimation_noise(1)
        estimate = network.estimated_channel(0, 1)
        with pytest.raises(ValueError):
            estimate[0, 0, 0] = 0.0


class TestChannelBankIndex:
    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_lookup_is_consistent_with_the_stacks(self, mode):
        network = _network(mode)
        bank = network.channels
        for a, b in bank.pairs():
            group, slot, transposed = bank.lookup(a, b)
            assert not transposed
            group_r, slot_r, transposed_r = bank.lookup(b, a)
            assert (group_r, slot_r, transposed_r) == (group, slot, True)
            # The per-slot response equals evaluating the whole group.
            stack = bank._evaluators[group](
                MultipathChannel.taps_from_normals(bank._raws[group], bank._scales[group])
            )
            assert np.array_equal(bank.channel(a, b), stack[slot])
            assert bank.snr_db(a, b) == bank.snr_db(b, a)

    def test_one_group_per_antenna_shape(self):
        network = _network("grouped", antenna_counts=(1, 2, 3, 2, 1))
        bank = network.channels
        shapes = set()
        for a, b in bank.pairs():
            shape = bank.channel(a, b).shape[1:]  # (N, M)
            shapes.add((shape[1], shape[0]))  # stored keyed by (n_tx, n_rx)
        assert bank.n_groups == len(shapes)
        assert bank.n_pairs == 10 * 9 // 2

    def test_unknown_link_raises_keyerror(self):
        network = _network("grouped")
        with pytest.raises(KeyError):
            network.channels.lookup(0, 999)

    def test_add_group_validates_shapes(self):
        bank = ChannelBank()
        raw = np.zeros((1, 3, 2, 1, 1))
        scales = np.ones((1, 3))
        with pytest.raises(DimensionError):
            bank.add_group([(0, 1)], np.zeros((2, 3, 2, 1, 1)), scales, [5.0], _eval)
        with pytest.raises(DimensionError):
            bank.add_group([(0, 1)], raw, np.ones((1, 4)), [5.0], _eval)
        with pytest.raises(DimensionError):
            bank.add_group([(0, 1)], raw, scales, [5.0, 6.0], _eval)
        bank.add_group(np.array([[0, 1]]), raw, scales, [5.0], _eval)
        assert bank.pairs() == [(0, 1)]

    def test_nbytes_counts_each_pair_once(self):
        """Each pair's draws (tap normals, tap scales, SNR) are counted
        once; a materialised response is counted once, and reading the
        reciprocal direction (a view) adds nothing."""
        network = _network("grouped", antenna_counts=(2, 2))
        bank = network.channels
        n_taps = network.testbed.n_taps
        per_pair_draws = (n_taps * 2 * 2 * 2 + n_taps + 1) * 8  # float64
        assert bank.nbytes == bank.n_pairs * per_pair_draws
        per_response = 8 * 2 * 2 * 16  # n_sub * N * M * complex128
        network.true_channel(0, 1)
        network.true_channel(1, 0)
        network.true_channel(0, 1)
        assert bank.nbytes == bank.n_pairs * per_pair_draws + per_response
        network.true_channel(2, 3)
        assert bank.nbytes == bank.n_pairs * per_pair_draws + 2 * per_response


def _grouped_lan(seed=3):
    scenario = scenario_factory("dense-lan-100-bursty")()
    config = SimulationConfig(
        duration_us=20_000.0, n_subcarriers=8, channel_draws="grouped"
    )
    return scenario, config, build_network(scenario, seed, config)


def _all_links(network):
    return {
        (a, b): (network.true_channel(a, b).copy(), network.link_snr_db(a, b))
        for a, b in network.channels.pairs()
    }


class TestOnDemandEvaluation:
    """Responses are computed on first read, never at build time, and a
    slot read late (or never) behaves exactly like one read early."""

    def test_build_materialises_nothing_and_a_run_only_what_it_reads(self):
        scenario, config, network = _grouped_lan()
        bank = network.channels
        assert bank.n_pairs == 100 * 99 // 2
        assert bank.n_materialised == 0
        read = set()
        evaluate = bank.channel

        def recording(tx_id, rx_id):
            read.add(bank.lookup(tx_id, rx_id)[:2])
            return evaluate(tx_id, rx_id)

        bank.channel = recording
        run_simulation(scenario, "n+", seed=mac_seed(3), config=config, network=network)
        assert 0 < len(read) < bank.n_pairs // 10
        assert bank.n_materialised == len(read)

    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_materialised_response_still_raises_on_write(self, mode):
        network = _network(mode)
        bank = network.channels
        for _ in range(2):  # first read computes, second read hits the memo
            for channel in (network.true_channel(1, 2), network.true_channel(2, 1)):
                assert not channel.flags.writeable
                with pytest.raises(ValueError):
                    channel[0, 0, 0] = 0.0
        bank.scale_links([(1, 2)], 0.5, snr_delta_db=-6.0)
        with pytest.raises(ValueError):
            network.true_channel(2, 1)[0, 0, 0] = 0.0

    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_fade_on_never_read_link_matches_read_then_fade(self, mode):
        """scale -> snapshot -> scale -> restore on a link nobody read is
        bit-identical to the same sequence after an explicit read."""
        results = []
        for read_first in (False, True):
            network = _network(mode, antenna_counts=(1, 2, 3))
            bank = network.channels
            pristine = _network(mode, antenna_counts=(1, 2, 3)).true_channel(4, 1)
            if read_first:
                bank.channel(1, 4)
            else:
                assert bank.n_materialised == 0
            bank.scale_links([(4, 1)], 10.0 ** (-17.0 / 20.0), snr_delta_db=-17.0)
            faded = bank.snapshot_links([(1, 4)])[0]
            bank.scale_links([(1, 4)], 0.25, snr_delta_db=-12.0)
            bank.update_links([(1, 4, *faded)])
            final = network.true_channel(4, 1)
            assert np.array_equal(final, pristine * 10.0 ** (-17.0 / 20.0))
            results.append((final.tobytes(), faded[0].tobytes(), network.link_snr_db(4, 1)))
        assert results[0] == results[1]

    @pytest.mark.parametrize("mode", DRAW_CONTRACTS)
    def test_fade_and_restore_of_a_never_read_link_is_exact(self, mode):
        network = _network(mode)
        twin = _network(mode)
        snapshot = network.snapshot_link(3, 0)
        network.fade_link(3, 0, 23.0)
        network.restore_link(3, 0, *snapshot)
        assert np.array_equal(network.true_channel(0, 3), twin.true_channel(0, 3))
        assert network.link_snr_db(0, 3) == twin.link_snr_db(0, 3)

    def test_finalize_leaves_a_shared_grouped_network_pristine(self):
        """Fades still active at the end of a run are restored, whether
        or not anything read the faded links before the fade."""
        scenario, config, network = _grouped_lan(seed=5)
        schedule = FaultSchedule(
            [
                FadeEpisode(start_us=10.0, duration_us=1e6, tx_id=a, rx_id=b, depth_db=25.0)
                for a, b in [(0, 1), (7, 2), (40, 99), (98, 13)]
            ]
        )
        network.true_channel(0, 1)
        injector = FaultInjector(schedule, network, seed=5)
        injector.advance(20.0)
        assert injector.fades_applied == 4
        assert not np.array_equal(
            network.true_channel(99, 40), _grouped_lan(seed=5)[2].true_channel(99, 40)
        )
        injector.finalize()
        run_simulation(
            scenario,
            "n+",
            seed=mac_seed(5),
            config=replace(config, fault_profile="mixed"),
            network=network,
        )
        pristine = _all_links(_grouped_lan(seed=5)[2])
        after = _all_links(network)
        assert after.keys() == pristine.keys()
        for link, (channel, snr) in pristine.items():
            assert np.array_equal(after[link][0], channel), link
            assert after[link][1] == snr, link


class TestPerturbChannelBatch:
    @pytest.mark.parametrize("reciprocity", [False, True])
    def test_bit_identical_to_sequential_perturbs(self, reciprocity):
        hardware = HardwareProfile()
        rng = np.random.default_rng(11)
        channels = rng.standard_normal((5, 8, 2, 3)) + 1j * rng.standard_normal((5, 8, 2, 3))
        rng_batch = np.random.default_rng(99)
        rng_seq = np.random.default_rng(99)
        batch = hardware.perturb_channel_batch(channels, rng_batch, reciprocity=reciprocity)
        for index in range(channels.shape[0]):
            expected = hardware.perturb_channel(
                channels[index], rng_seq, reciprocity=reciprocity
            )
            assert np.array_equal(batch[index], expected)
        assert rng_batch.bit_generator.state == rng_seq.bit_generator.state

    def test_rejects_unstacked_input(self):
        with pytest.raises(ValueError):
            HardwareProfile().perturb_channel_batch(
                np.zeros(4, dtype=complex), np.random.default_rng(0)
            )


class TestPrefetchEstimates:
    def test_noop_under_v2_contracts(self):
        network = _network("batched")
        network.reseed_estimation_noise(5)
        state_before = network._estimation_rng.bit_generator.state
        network.prefetch_estimates([(0, 1, False), (0, 3, True)])
        assert network._estimate_memo == {}
        assert network._estimation_rng.bit_generator.state == state_before

    def test_fills_the_memo_under_grouped(self):
        network = _network("grouped")
        network.reseed_estimation_noise(5)
        network.prefetch_estimates([(0, 1, False), (0, 3, True), (0, 1, False)])
        assert set(network._estimate_memo) == {(0, 1, False), (0, 3, True)}
        # Later per-link queries hit the memo (same object, no new draws).
        prefetched = network._estimate_memo[(0, 1, False)]
        state = network._estimation_rng.bit_generator.state
        assert network.estimated_channel(0, 1) is prefetched
        assert network._estimation_rng.bit_generator.state == state

    def test_prefetched_estimates_are_perturbed_channels(self):
        """A prefetched estimate is close to (but not exactly) the true
        channel, like any lazy estimate."""
        network = _network("grouped")
        network.reseed_estimation_noise(5)
        network.prefetch_estimates([(0, 1, False)])
        estimate = network.estimated_channel(0, 1)
        true = network.true_channel(0, 1)
        error = np.linalg.norm(estimate - true) / np.linalg.norm(true)
        assert 0.0 < error < 0.1

    def test_grouped_simulation_is_deterministic(self):
        """The prefetch path is part of the seeded v3 contract: repeated
        runs produce bit-identical metrics."""
        config = SimulationConfig(
            duration_us=10_000.0, n_subcarriers=8, channel_draws="grouped"
        )
        first = run_simulation(three_pair_scenario(), "n+", seed=13, config=config)
        second = run_simulation(three_pair_scenario(), "n+", seed=13, config=config)
        assert first.to_dict() == second.to_dict()
