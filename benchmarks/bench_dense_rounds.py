"""Dense-LAN round-pipeline benchmarks.

The runner evaluates the per-round MAC queries -- who has traffic, when
does traffic arrive next, who may join -- as array operations over
:class:`repro.sim.traffic.TrafficStateArrays` instead of one Python call
per agent.  These benchmarks time a default-duration (100 ms) simulation
of the ``dense-lan-100`` scenarios on a pre-built network, so the
measured time is exactly the round pipeline (network construction is
excluded).  Every run also asserts the metrics recorded from the
per-agent pipeline the batching replaced
(``tests/data/round_pipeline_vectors.json``) -- the batching is a pure
speedup, never a behaviour change.

Both entries are tracked in ``BENCH_core.json``; run
``python benchmarks/run_all.py --compare`` to gate regressions.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.sim.runner import SimulationConfig, build_network, run_simulation
from repro.sim.scenarios import scenario_factory

#: The paper-default observation window (SimulationConfig.duration_us).
_CONFIG = SimulationConfig(duration_us=100_000.0, n_subcarriers=8)
_SEED = 1
_VECTORS = (
    Path(__file__).resolve().parent.parent
    / "tests"
    / "data"
    / "round_pipeline_vectors.json"
)

_networks: dict = {}


def _setup(scenario_name: str):
    """Build (once) the scenario and its network."""
    if scenario_name not in _networks:
        scenario = scenario_factory(scenario_name)()
        _networks[scenario_name] = (scenario, build_network(scenario, _SEED, _CONFIG))
    return _networks[scenario_name]


def _recorded_metrics(scenario_name: str) -> dict:
    case_id = f"{scenario_name}/n+/seed{_SEED}/bench"
    cases = json.loads(_VECTORS.read_text())["cases"]
    return next(case["metrics"] for case in cases if case["id"] == case_id)


def _run(scenario_name: str):
    scenario, network = _setup(scenario_name)
    metrics = run_simulation(
        scenario, "n+", seed=_SEED, config=_CONFIG, network=network
    )
    # Bit for bit the metrics the per-agent pipeline produced.
    assert metrics.to_dict() == _recorded_metrics(scenario_name)
    return metrics


def bench_dense_lan_100_rounds_batched(benchmark):
    """Round pipeline, 100-station saturated LAN, 100 ms window."""
    metrics = benchmark(lambda: _run("dense-lan-100"))
    assert metrics.elapsed_us >= _CONFIG.duration_us


def bench_dense_lan_100_bursty_rounds_batched(benchmark):
    """Round pipeline on the bursty 100-station LAN (joins + idle gaps)."""
    metrics = benchmark(lambda: _run("dense-lan-100-bursty"))
    assert metrics.elapsed_us >= _CONFIG.duration_us
