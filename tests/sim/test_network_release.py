"""A finished run frees its network by reference counting alone.

Every MAC agent reports to the run's traffic arrays, which list every
agent.  Unless the run breaks that cycle when it ends, the agents -- and
the :class:`~repro.sim.network.Network` they hold -- stay alive until
the cyclic garbage collector runs, so a sweep's peak memory depends on
the collector's cadence.  These tests disable the collector and check
that the network built by ``build_network`` is gone as soon as the run
(or a one-cell sweep) returns, including when the run fails.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.exceptions import SimulationError
from repro.sim import sweep as sweep_module
from repro.sim.runner import SimulationConfig, build_network, mac_seed, run_simulation
from repro.sim.scenarios import scenario_factory
from repro.sim.sweep import run_sweep

CASES = {
    "three-pair": SimulationConfig(duration_us=10_000.0, n_subcarriers=8),
    "dense-lan-20-faulty": SimulationConfig(
        duration_us=20_000.0, n_subcarriers=8, fidelity="auto"
    ),
}


@pytest.fixture
def no_cyclic_gc():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_simulation_frees_its_network(no_cyclic_gc, name):
    scenario = scenario_factory(name)()
    network = build_network(scenario, 7, CASES[name])
    ref = weakref.ref(network)
    run_simulation(scenario, "n+", seed=mac_seed(7), config=CASES[name], network=network)
    del network
    assert ref() is None


def test_failing_run_frees_its_network(no_cyclic_gc):
    scenario = scenario_factory("three-pair")()
    config = SimulationConfig(duration_us=10_000.0, n_subcarriers=8, max_rounds=1)
    network = build_network(scenario, 7, config)
    ref = weakref.ref(network)
    try:
        run_simulation(scenario, "n+", seed=mac_seed(7), config=config, network=network)
    except SimulationError:
        pass
    else:
        pytest.fail("the round budget should have been exceeded")
    del network
    assert ref() is None


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_cell_sweep_frees_its_network(no_cyclic_gc, monkeypatch, name):
    refs = []

    def recording_build_network(*args, **kwargs):
        network = build_network(*args, **kwargs)
        refs.append(weakref.ref(network))
        return network

    monkeypatch.setattr(sweep_module, "build_network", recording_build_network)
    run_sweep(name, ["n+"], n_runs=1, seed=3, config=CASES[name], workers=1)
    assert len(refs) == 1
    assert refs[0]() is None
