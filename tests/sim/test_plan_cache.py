"""Tests for the per-simulation plan cache and the static-channel memo.

The load-bearing guarantees:

* channel estimates are measured once per ``(tx, rx, direction)`` per
  simulation and reused (static-channel invariant), and reseeding the
  estimation stream re-measures;
* with estimates frozen, the planning math is pure, so a simulation with
  the plan cache enabled is *bit-identical* to one that recomputes every
  plan (asserted on the paper topology and on dense bursty LANs, where
  joins exercise the join-plan cache);
* the cache actually hits -- repeated contention configurations become
  dictionary lookups.
"""

import numpy as np
import pytest

from repro.mac.plan import PlanCache, stream_signature
from repro.phy.rates import MCS_TABLE
from repro.sim.runner import (
    SimulationConfig,
    _ESTIMATION_STREAM_TAG,
    _EventDrivenLoop,
    build_network,
    run_simulation,
)
from repro.sim.scenarios import (
    dense_lan_scenario,
    heterogeneous_ap_scenario,
    scenario_factory,
    three_pair_scenario,
)

FAST = SimulationConfig(duration_us=10_000.0, n_subcarriers=8)


class TestEstimatedChannelMemo:
    def test_estimate_is_measured_once(self):
        scenario = three_pair_scenario()
        network = build_network(scenario, 1, FAST)
        network.reseed_estimation_noise(7)
        first = network.estimated_channel(0, 1)
        second = network.estimated_channel(0, 1)
        assert first is second
        assert not first.flags.writeable

    def test_directions_are_estimated_separately(self):
        scenario = three_pair_scenario()
        network = build_network(scenario, 1, FAST)
        network.reseed_estimation_noise(7)
        direct = network.estimated_channel(0, 1)
        reciprocal = network.estimated_channel(0, 1, reciprocity=True)
        assert not np.array_equal(direct, reciprocal)

    def test_reseeding_remeasures(self):
        scenario = three_pair_scenario()
        network = build_network(scenario, 1, FAST)
        network.reseed_estimation_noise(7)
        first = network.estimated_channel(0, 1)
        network.reseed_estimation_noise(8)
        second = network.estimated_channel(0, 1)
        assert not np.array_equal(first, second)
        # Same seed -> same measurement, regardless of what ran between.
        network.reseed_estimation_noise(7)
        assert np.array_equal(network.estimated_channel(0, 1), first)


class TestPlanCacheEquivalence:
    """Cache on == cache off, bit for bit (planning is pure)."""

    @pytest.mark.parametrize("protocol", ["802.11n", "n+", "beamforming"])
    def test_three_pair_all_protocols(self, protocol):
        on = run_simulation(
            three_pair_scenario(), protocol, seed=11, config=FAST, plan_cache=True
        )
        off = run_simulation(
            three_pair_scenario(), protocol, seed=11, config=FAST, plan_cache=False
        )
        assert on.to_dict() == off.to_dict()

    def test_heterogeneous_multi_receiver(self):
        on = run_simulation(
            heterogeneous_ap_scenario(), "n+", seed=4, config=FAST, plan_cache=True
        )
        off = run_simulation(
            heterogeneous_ap_scenario(), "n+", seed=4, config=FAST, plan_cache=False
        )
        assert on.to_dict() == off.to_dict()

    def test_dense_lan_30_bursty(self):
        """The ISSUE's acceptance workload: joins, collisions and idle
        gaps all hit the cache on a dense bursty LAN."""
        scenario = dense_lan_scenario(
            n_pairs=15, seed=30, packet_rate_pps=300.0, name="dense-lan-30-bursty"
        )
        config = SimulationConfig(duration_us=20_000.0, n_subcarriers=8)
        on = run_simulation(scenario, "n+", seed=2, config=config, plan_cache=True)
        off = run_simulation(scenario, "n+", seed=2, config=config, plan_cache=False)
        assert on.to_dict() == off.to_dict()

    @pytest.mark.parametrize("plan_cache", [True, False])
    def test_cache_matches_recorded_metrics(self, plan_cache, recorded_metrics):
        """Cached and uncached runs both reproduce the metrics recorded
        from the per-agent scans and the condensed loop."""
        metrics = run_simulation(
            three_pair_scenario(), "n+", seed=5, config=FAST, plan_cache=plan_cache
        )
        assert metrics.to_dict() == recorded_metrics["three-pair/n+/seed5"]


class TestPlanCacheHits:
    def _run_with_cache(self, scenario, seed, config):
        network = build_network(scenario, seed, config)
        network.reseed_estimation_noise((seed, _ESTIMATION_STREAM_TAG))
        cache = PlanCache()
        loop = _EventDrivenLoop(
            scenario,
            "n+",
            np.random.default_rng(seed),
            config,
            network,
            seed=seed,
            plan_cache=cache,
        )
        metrics = loop.run()
        return cache, metrics

    def test_saturated_topology_mostly_hits(self):
        """On the saturated paper topology the same few contention
        configurations repeat round after round."""
        cache, _ = self._run_with_cache(three_pair_scenario(), 1, FAST)
        assert cache.misses > 0
        assert cache.hits > cache.misses

    def test_join_plans_are_cached(self):
        cache, metrics = self._run_with_cache(three_pair_scenario(), 1, FAST)
        join_keys = [key for key in cache._store if key[0] == "join-plan"]
        assert sum(link.joins for link in metrics.links.values()) > 0
        assert join_keys

    def test_counters_start_at_zero(self):
        cache = PlanCache()
        assert cache.hits == 0 and cache.misses == 0 and len(cache) == 0
        value = cache.get(("k",), lambda: 41)
        assert value == 41 and cache.misses == 1
        assert cache.get(("k",), lambda: 0) == 41
        assert cache.hits == 1


class TestStreamSignature:
    def test_signature_ignores_ids_and_payloads(self):
        from repro.phy.rates import MCS_TABLE
        from repro.sim.medium import ScheduledStream

        def stream(stream_id, payload, start):
            return ScheduledStream(
                stream_id=stream_id,
                transmitter_id=2,
                receiver_id=3,
                precoders=np.zeros((4, 2), dtype=complex),
                power=0.5,
                mcs=MCS_TABLE[0],
                payload_bits=payload,
                start_us=start,
                end_us=start + 100.0,
                join_order=1,
            )

        a = stream_signature([stream(7, 1000, 0.0), stream(8, 1000, 0.0)])
        b = stream_signature([stream(99, 2400, 50.0), stream(12, 0, 50.0)])
        assert a == b
        assert a == ((2, 3, 1, 0), (2, 3, 1, 1))

    def test_signature_distinguishes_structure(self):
        from repro.phy.rates import MCS_TABLE
        from repro.sim.medium import ScheduledStream

        def stream(tx, rx, order):
            return ScheduledStream(
                stream_id=0,
                transmitter_id=tx,
                receiver_id=rx,
                precoders=np.zeros((4, 2), dtype=complex),
                power=1.0,
                mcs=MCS_TABLE[0],
                payload_bits=0,
                start_us=0.0,
                end_us=1.0,
                join_order=order,
            )

        base = stream_signature([stream(0, 1, 0)])
        assert base != stream_signature([stream(0, 1, 1)])
        assert base != stream_signature([stream(0, 2, 0)])
        assert base != stream_signature([stream(4, 1, 0)])
        assert base != stream_signature([stream(0, 1, 0), stream(0, 1, 0)])


class _KindCountingCache(PlanCache):
    """A :class:`PlanCache` that also counts hits and misses per key kind."""

    def __init__(self) -> None:
        super().__init__()
        self.kind_hits = {}
        self.kind_misses = {}

    def get(self, key, compute):
        kind = key[0]
        before = self.misses
        value = super().get(key, compute)
        counter = self.kind_misses if self.misses > before else self.kind_hits
        counter[kind] = counter.get(kind, 0) + 1
        return value


def _run_counting(monkeypatch, scenario, seed, config):
    """``run_simulation`` with its plan cache swapped for a counting one."""
    import repro.sim.runner as runner

    caches = []

    def make_cache():
        caches.append(_KindCountingCache())
        return caches[-1]

    monkeypatch.setattr(runner, "PlanCache", make_cache)
    metrics = run_simulation(scenario, "n+", seed=seed, config=config)
    (cache,) = caches
    return cache, metrics


class TestReceiverCoreMemo:
    """The delivery-time link abstraction memoizes its channel-only core
    (``"rx-snr-core"``) and still draws the suppression jitter per call."""

    def test_saturated_three_pair_hits_the_core_memo(self, monkeypatch):
        config = SimulationConfig(duration_us=100_000.0, n_subcarriers=8)
        cache, _ = _run_counting(monkeypatch, three_pair_scenario(), 1, config)
        hits = cache.kind_hits.get("rx-snr-core", 0)
        misses = cache.kind_misses.get("rx-snr-core", 0)
        assert misses > 0
        assert hits / (hits + misses) >= 0.9

    # Long enough for fades to hit links while their configurations recur.
    FAULTY_CONFIG = SimulationConfig(duration_us=50_000.0, n_subcarriers=8)

    def test_faulty_lan_cached_equals_uncached(self):
        scenario = scenario_factory("dense-lan-20-faulty")
        config = self.FAULTY_CONFIG
        on = run_simulation(scenario(), "n+", seed=9, config=config, plan_cache=True)
        off = run_simulation(scenario(), "n+", seed=9, config=config, plan_cache=False)
        assert on.to_dict() == off.to_dict()

    def test_fades_retire_core_entries(self, monkeypatch):
        """Under faults the same contention configuration is recomputed
        once per channel epoch: core keys that differ only in their epoch
        signature coexist in the cache."""
        scenario = scenario_factory("dense-lan-20-faulty")()
        cache, _ = _run_counting(monkeypatch, scenario, 9, self.FAULTY_CONFIG)
        epochs = {}
        for key in cache._store:
            if key[0] == "rx-snr-core":
                epochs.setdefault(key[:4], set()).add(key[4])
        assert epochs
        assert any(len(signatures) > 1 for signatures in epochs.values())

    def test_memo_keeps_results_and_generator_state(self, monkeypatch):
        """A filled or hit memo returns the uncached SNRs, shares read-only
        arrays, and leaves the generator where the uncached call does."""
        import repro.sim.runner as runner
        from repro.sim.link_abstraction import receiver_stream_snrs

        captured = []

        def spy(network, receiver_id, wanted, concurrent, rng=None, plan_cache=None):
            if not captured and len(concurrent) > len(wanted):
                captured.append((network, receiver_id, list(wanted), list(concurrent)))
            return receiver_stream_snrs(
                network, receiver_id, wanted, concurrent, rng, plan_cache
            )

        monkeypatch.setattr(runner, "receiver_stream_snrs", spy)
        run_simulation(three_pair_scenario(), "n+", seed=3, config=FAST)
        assert captured
        network, receiver_id, wanted, concurrent = captured[0]

        cache = PlanCache()
        results, next_draws = [], []
        for plan_cache in (None, cache, cache):
            rng = np.random.default_rng(17)
            results.append(
                receiver_stream_snrs(network, receiver_id, wanted, concurrent, rng, plan_cache)
            )
            next_draws.append(rng.random())
        assert (cache.misses, cache.hits) == (1, 1)
        assert len(set(next_draws)) == 1
        for result in results[1:]:
            assert result.keys() == results[0].keys()
            for stream_id, snrs in result.items():
                assert np.array_equal(snrs, results[0][stream_id])
        (core,) = cache._store.values()
        assert not core.enhancement.flags.writeable
        assert not core.rank_deficient.flags.writeable


def _run_with_final_state(monkeypatch, scenario, protocol, seed, config, plan_cache):
    """``run_simulation`` plus the run generator's state after the run."""
    import repro.sim.runner as runner

    states = []
    original = runner._EventDrivenLoop.run

    def run(loop):
        result = original(loop)
        states.append(loop.rng.bit_generator.state)
        return result

    monkeypatch.setattr(runner._EventDrivenLoop, "run", run)
    metrics = run_simulation(
        scenario, protocol, seed=seed, config=config, plan_cache=plan_cache
    )
    (state,) = states
    return metrics.to_dict(), state


class TestLinkTailMemo:
    """The link tail (SNRs -> ESNR -> MCS / delivery probability) is
    memoized with its configuration without changing a bit of any run."""

    FIG12_CONFIG = SimulationConfig(duration_us=120_000.0, n_subcarriers=16)
    FAULTY_AUTO_CONFIG = SimulationConfig(duration_us=50_000.0, fidelity="auto")

    @pytest.mark.parametrize("protocol", ["n+", "802.11n"])
    def test_fig12_cached_equals_uncached(self, monkeypatch, protocol):
        runs = [
            _run_with_final_state(
                monkeypatch, three_pair_scenario(), protocol, 2, self.FIG12_CONFIG, flag
            )
            for flag in (True, False)
        ]
        assert runs[0] == runs[1]

    def test_faulty_fidelity_auto_cached_equals_uncached(self, monkeypatch):
        scenario = scenario_factory("dense-lan-50-faulty")
        runs = [
            _run_with_final_state(
                monkeypatch, scenario(), "n+", 4, self.FAULTY_AUTO_CONFIG, flag
            )
            for flag in (True, False)
        ]
        assert runs[0] == runs[1]

    def test_memoized_arrays_are_read_only(self, monkeypatch):
        config = SimulationConfig(duration_us=30_000.0, n_subcarriers=8)
        cache, _ = _run_counting(monkeypatch, three_pair_scenario(), 1, config)
        cores = [v for k, v in cache._store.items() if k[0] == "rx-snr-core"]
        measured = [v for k, v in cache._store.items() if k[0] == "measured-snrs"]
        tails = [core.tail for core in cores if core.tail is not None]
        assert tails and measured
        for tail in tails:
            with pytest.raises(ValueError):
                tail.snrs_db[0, 0] = 0.0
        for link in measured:
            with pytest.raises(ValueError):
                link.snrs_db[0] = 0.0

    def test_carried_esnrs_match_the_returned_snrs(self, monkeypatch):
        """Memo hits and misses, with and without residual streams, carry
        the ESNR of exactly the arrays they return."""
        import repro.sim.runner as runner
        from repro.phy.esnr import esnr_for_modulation

        seen = {"memoized": 0, "per-call": 0}
        original = runner.receiver_stream_snrs

        def spy(network, receiver_id, wanted, concurrent, rng=None, plan_cache=None):
            snrs = original(network, receiver_id, wanted, concurrent, rng, plan_cache)
            assert snrs.keys() == snrs.esnr_db.keys() == {s.stream_id for s in wanted}
            for stream_id, array in snrs.items():
                expected = esnr_for_modulation(array, MCS_TABLE[0].modulation)
                assert snrs.esnr_db[stream_id].hex() == expected.hex()
                seen["per-call" if array.flags.writeable else "memoized"] += 1
            return snrs

        monkeypatch.setattr(runner, "receiver_stream_snrs", spy)
        run_simulation(three_pair_scenario(), "n+", seed=1, config=self.FIG12_CONFIG)
        assert seen["memoized"] > 0 and seen["per-call"] > 0
