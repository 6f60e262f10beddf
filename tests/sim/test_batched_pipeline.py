"""Tests for the round pipeline and its batched per-round queries.

The load-bearing guarantees:

* the pipeline reproduces, bit for bit, the metrics recorded from the
  per-agent scans and the condensed slot-polling loop it replaced
  (``tests/data/round_pipeline_vectors.json``), for saturated and bursty
  traffic, on the paper topologies and dense LANs;
* the batched ``has_traffic`` / ``next_traffic_time_us`` /
  join-eligibility masks agree with the agents' own methods at every
  round of a real run (checked by a cross-checking loop subclass);
* a joining protocol that does not declare the vectorized join rule is
  asked through its own ``can_join`` and still reproduces n+ exactly;
* results do not depend on the order the agents were built in (shuffled
  pair order, same network, same metrics);
* the vectorised idle-gap computation reproduces the recorded
  slot-stepping walk bit for bit (``tests/data/idle_end_vectors.json``).
"""

import os

import numpy as np
import pytest

from repro.mac.nplus import NPlusMac
from repro.mac.variants import _VARIANTS, register_variant
from repro.sim.runner import (
    SimulationConfig,
    _ESTIMATION_STREAM_TAG,
    _EventDrivenLoop,
    _slot_aligned_idle_end,
    build_network,
    run_simulation,
)
from repro.sim.scenarios import (
    Scenario,
    dense_lan_scenario,
    scenario_factory,
    three_pair_scenario,
)

FAST = SimulationConfig(duration_us=10_000.0, n_subcarriers=8)


class TestPipelineEquivalence:
    """The pipeline == the recorded per-agent/condensed metrics, bit for bit."""

    @pytest.mark.parametrize("protocol", ["802.11n", "n+", "beamforming"])
    def test_three_pair_all_protocols(self, protocol, recorded_metrics):
        metrics = run_simulation(three_pair_scenario(), protocol, seed=11, config=FAST)
        assert metrics.to_dict() == recorded_metrics[f"three-pair/{protocol}/seed11"]

    @pytest.mark.parametrize("name", ["dense-lan-20", "dense-lan-30", "dense-lan-50"])
    def test_dense_lans(self, name, recorded_metrics):
        scenario = scenario_factory(name)()
        config = SimulationConfig(duration_us=4_000.0, n_subcarriers=8)
        metrics = run_simulation(scenario, "n+", seed=3, config=config)
        assert metrics.to_dict() == recorded_metrics[f"{name}/n+/seed3"]

    @pytest.mark.parametrize("rate_pps", [60.0, 300.0])
    def test_bursty_traffic(self, rate_pps, recorded_metrics):
        config = SimulationConfig(
            duration_us=25_000.0, n_subcarriers=8, packet_rate_pps=rate_pps
        )
        metrics = run_simulation(three_pair_scenario(), "n+", seed=5, config=config)
        recorded = recorded_metrics[f"three-pair/n+/seed5/rate{rate_pps:g}"]
        assert metrics.to_dict() == recorded

    def test_bursty_dense_lan(self, recorded_metrics):
        scenario = scenario_factory("dense-lan-20-bursty")()
        config = SimulationConfig(duration_us=6_000.0, n_subcarriers=8)
        metrics = run_simulation(scenario, "n+", seed=2, config=config)
        assert metrics.to_dict() == recorded_metrics["dense-lan-20-bursty/n+/seed2"]


class _CheckedLoop(_EventDrivenLoop):
    """Loop that cross-checks every batched query against the agents' own
    ``has_traffic`` / ``next_traffic_time_us`` / ``can_join``, mid-run, on
    live simulation state.

    The cross-checks are side-effect-free: the per-agent calls re-refill
    agents the batched path already refilled (or skipped as provable
    no-ops), so the simulation trajectory is untouched -- which the tests
    confirm by comparing the final metrics against an unchecked run.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked_contention_rounds = 0
        self.checked_join_rounds = 0

    def _contending_agents(self, now):
        batched = super()._contending_agents(now)
        reference = [a for a in self.agents.values() if a.has_traffic(now)]
        assert [a.node_id for a in batched] == sorted(a.node_id for a in reference)
        self.checked_contention_rounds += 1
        return batched

    def _next_traffic_time_us(self, now):
        batched = super()._next_traffic_time_us(now)
        reference = min(
            (a.next_traffic_time_us(now) for a in self.agents.values()),
            default=float("inf"),
        )
        assert batched == reference
        return batched

    def _join_eligible(self, now, exhausted):
        batched = super()._join_eligible(now, exhausted)
        reference = [
            a
            for a in self.agents.values()
            if a.supports_joining
            and a.node_id not in exhausted
            and a.can_join(now, self.medium, self.config.min_join_airtime_us)
        ]
        assert [a.node_id for a in batched] == sorted(a.node_id for a in reference)
        self.checked_join_rounds += 1
        return batched


def _run_checked(scenario, seed, config):
    network = build_network(scenario, seed, config)
    network.reseed_estimation_noise((seed, _ESTIMATION_STREAM_TAG))
    loop = _CheckedLoop(
        scenario, "n+", np.random.default_rng(seed), config, network, seed=seed
    )
    return loop, loop.run()


class TestMaskEquivalence:
    """The batched masks vs per-agent ``has_traffic``/``can_join``, checked
    at every single round of live dense-LAN runs."""

    @pytest.mark.parametrize("name", ["dense-lan-20", "dense-lan-30", "dense-lan-50"])
    def test_masks_on_saturated_dense_lans(self, name):
        scenario = scenario_factory(name)()
        config = SimulationConfig(duration_us=3_000.0, n_subcarriers=8)
        loop, metrics = _run_checked(scenario, 7, config)
        assert loop.checked_contention_rounds > 0
        if name == "dense-lan-20":
            # The denser LANs are collision-bound in a short window; the
            # join phase (and its mask check) only runs after a clean win.
            assert loop.checked_join_rounds > 0
        # The cross-checking did not perturb the simulation.
        unchecked = run_simulation(
            scenario,
            "n+",
            seed=7,
            config=config,
            network=build_network(scenario, 7, config),
        )
        assert metrics.to_dict() == unchecked.to_dict()

    def test_masks_on_bursty_dense_lan(self):
        scenario = scenario_factory("dense-lan-20-bursty")()
        config = SimulationConfig(duration_us=6_000.0, n_subcarriers=8)
        loop, metrics = _run_checked(scenario, 9, config)
        assert loop.checked_contention_rounds > 0

    def test_traffic_arrays_are_sorted_and_static_columns_match(self):
        scenario = scenario_factory("dense-lan-20")()
        config = SimulationConfig(duration_us=1_000.0, n_subcarriers=8)
        network = build_network(scenario, 1, config)
        loop = _EventDrivenLoop(
            scenario, "n+", np.random.default_rng(1), config, network, seed=1
        )
        arrays = loop.arrays
        assert list(arrays.node_ids) == sorted(arrays.node_ids)
        by_id = {agent.node_id: agent for agent in loop.agents.values()}
        for row, node_id in enumerate(arrays.node_ids):
            agent = by_id[int(node_id)]
            assert arrays.n_antennas[row] == agent.n_antennas
            assert arrays.supports_joining[row] == agent.supports_joining
        # Saturated scenario: after the first round's refills everyone is
        # backlogged and nobody has a pending arrival to poll for.
        loop._contending_agents(0.0)
        assert arrays.backlogged.all()
        assert np.isinf(arrays.next_arrival_us).all()


class _UndeclaredJoinMac(NPlusMac):
    """n+ whose agents do not declare ``vectorized_join_eligibility``, so
    the runner must ask each joiner's own ``can_join``."""

    protocol_name = "n+-undeclared-join"
    vectorized_join_eligibility = False
    can_join_calls = 0

    def can_join(self, now_us, medium, min_airtime_us):
        type(self).can_join_calls += 1
        return super().can_join(now_us, medium, min_airtime_us)


@pytest.fixture
def undeclared_join_protocol():
    name = _UndeclaredJoinMac.protocol_name
    register_variant(name, _UndeclaredJoinMac, overwrite=True)
    _UndeclaredJoinMac.can_join_calls = 0
    try:
        yield name
    finally:
        _VARIANTS.pop(name, None)


class TestCanJoinFallback:
    """A joining protocol without the vectorized-join declaration takes
    the per-agent ``can_join`` path and still reproduces n+ exactly."""

    @pytest.mark.parametrize(
        "name,seed,duration_us,case_id",
        [
            ("three-pair", 11, 10_000.0, "three-pair/n+/seed11"),
            ("dense-lan-20-bursty", 2, 6_000.0, "dense-lan-20-bursty/n+/seed2"),
        ],
    )
    def test_undeclared_joiner_matches_recorded_metrics(
        self,
        name,
        seed,
        duration_us,
        case_id,
        undeclared_join_protocol,
        recorded_metrics,
    ):
        config = SimulationConfig(duration_us=duration_us, n_subcarriers=8)
        metrics = run_simulation(
            scenario_factory(name)(), undeclared_join_protocol, seed=seed, config=config
        )
        assert _UndeclaredJoinMac.can_join_calls > 0
        assert metrics.to_dict() == recorded_metrics[case_id]


class TestShuffledAgentOrderDeterminism:
    """Metrics are a function of the topology, not of agent build order."""

    @pytest.mark.parametrize("rate_pps", [None, 250.0])
    def test_reversed_pair_order_is_identical(self, rate_pps, recorded_metrics):
        scenario = dense_lan_scenario(n_pairs=6, seed=9, packet_rate_pps=rate_pps)
        shuffled = Scenario(
            scenario.name,
            scenario.stations,
            list(reversed(scenario.pairs)),
            testbed_factory=scenario.testbed_factory,
            packet_rate_pps=scenario.packet_rate_pps,
        )
        config = SimulationConfig(duration_us=6_000.0, n_subcarriers=8)
        network = build_network(scenario, 4, config)
        forward = run_simulation(scenario, "n+", seed=4, config=config, network=network)
        reversed_order = run_simulation(
            shuffled, "n+", seed=4, config=config, network=network
        )
        assert forward.to_dict() == reversed_order.to_dict()
        recorded = recorded_metrics[f"dense-lan-6pairs-seed9/n+/seed4/rate{rate_pps}"]
        assert forward.to_dict() == recorded


@pytest.fixture
def idle_ends(recorded_vectors):
    """Recorded slot-stepping results, by ``(now, arrival, window)``."""
    table = {}
    for case in recorded_vectors("idle_end_vectors.json")["cases"]:
        arrival = case["next_arrival_us"]
        arrival = float("inf") if arrival is None else arrival
        table[(case["now_us"], arrival, case["duration_us"])] = case["idle_end_us"]
    return table


class TestSlotAlignedIdleEnd:
    """The vectorised idle-gap computation vs the recorded stepping walk."""

    def test_matches_reference_on_random_gaps(self, idle_ends):
        rng = np.random.default_rng(0)
        for _ in range(300):
            now = float(rng.uniform(0.0, 1e6))
            arrival = now + float(rng.uniform(0.0, 2e5))
            duration = float(rng.uniform(0.0, 1e6))
            expected = idle_ends[(now, arrival, duration)]
            assert _slot_aligned_idle_end(now, arrival, duration) == expected

    def test_immediate_cases(self, idle_ends):
        for gap in ((100.0, 50.0, 1e6), (100.0, float("inf"), 90.0)):
            assert _slot_aligned_idle_end(*gap) == idle_ends[gap]

    def test_infinite_arrival_stops_at_window_end(self, idle_ends):
        gap = (0.0, float("inf"), 5_000.0)
        assert _slot_aligned_idle_end(*gap) == idle_ends[gap]

    def test_gap_longer_than_one_chunk(self, idle_ends):
        """A gap of ~70k slots spans several 64k-element cumsum chunks."""
        now = 123.456
        gap = (now, now + 70_000 * 9.0 + 1.0, 1e9)
        assert _slot_aligned_idle_end(*gap) == idle_ends[gap]


class TestDenseLan100:
    def test_new_scenarios_are_registered(self):
        from repro.sim.scenarios import available_scenarios

        names = available_scenarios()
        for name in (
            "dense-lan-100",
            "dense-lan-200",
            "dense-lan-100-bursty",
            "dense-lan-200-bursty",
        ):
            assert name in names
        assert len(scenario_factory("dense-lan-100")().stations) == 100
        assert len(scenario_factory("dense-lan-200")().stations) == 200
        assert scenario_factory("dense-lan-100-bursty")().packet_rate_pps == 150.0

    def test_dense_lan_100_smoke(self):
        """A dense-lan-100 run completes end to end on the batched
        pipeline (shrunk under REPRO_QUICK, default-duration otherwise)."""
        scenario = scenario_factory("dense-lan-100")()
        duration = 20_000.0 if os.environ.get("REPRO_QUICK") else 100_000.0
        config = SimulationConfig(duration_us=duration, n_subcarriers=8)
        metrics = run_simulation(scenario, "n+", seed=1, config=config)
        assert len(metrics.links) == 50
        assert metrics.elapsed_us >= duration
