"""Sweep cell keys: recorded vectors and the per-sweep planning pass.

``tests/data/cell_key_vectors.json`` holds cell keys recorded while every
key still serialised its whole payload with one ``json.dumps`` call.
Keys hashed from a per-sweep prefix must reproduce them byte for byte --
through the module function, both cache backends, and the rows a sweep
writes -- or every existing results store would silently stop hitting.
"""

import dataclasses

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.mac.variants import resolve_protocol
from repro.sim.runner import SimulationConfig
from repro.sim.store import ResultsStore
from repro.sim.sweep import CellKeyer, SweepCache, cell_key, run_sweep

SWEEP_CONFIG = "sweep-replay"


def _vectors(recorded_vectors):
    return recorded_vectors("cell_key_vectors.json")


def _protocol(vectors, index):
    protocol = vectors["protocols"][index]
    return tuple(protocol) if isinstance(protocol, list) else protocol


def _arguments(vectors, case):
    fingerprint = (
        vectors["scenario_fingerprints"][case["scenario"]] if case["fingerprinted"] else None
    )
    return (
        case["scenario"],
        _protocol(vectors, case["protocol"]),
        case["run_seed"],
        SimulationConfig(**vectors["configs"][case["config"]]),
        fingerprint,
    )


def _recorded(vectors, scenario, config_id):
    """``{(protocol key, run seed): key}`` of the fingerprinted cases."""
    return {
        (resolve_protocol(_protocol(vectors, c["protocol"])).key, c["run_seed"]): c["key"]
        for c in vectors["keys"]
        if c["scenario"] == scenario and c["config"] == config_id and c["fingerprinted"]
    }


def test_recorded_configs_cover_every_field(recorded_vectors):
    vectors = _vectors(recorded_vectors)
    fields = {f.name for f in dataclasses.fields(SimulationConfig)}
    for config in vectors["configs"].values():
        assert set(config) == fields
    every = vectors["configs"]["every-optional-field"]
    assert all(value is not None for value in every.values())


def test_module_function_reproduces_recorded_keys(recorded_vectors):
    vectors = _vectors(recorded_vectors)
    assert len(vectors["keys"]) == 288
    for case in vectors["keys"]:
        assert cell_key(*_arguments(vectors, case)) == case["key"], case


@pytest.mark.parametrize("backend", [ResultsStore, SweepCache])
def test_backends_reproduce_recorded_keys(recorded_vectors, tmp_path, backend):
    vectors = _vectors(recorded_vectors)
    cache = backend(tmp_path)
    for case in vectors["keys"]:
        assert cache.cell_key(*_arguments(vectors, case)) == case["key"], case


def test_one_keyer_serves_a_whole_mixed_grid(recorded_vectors):
    vectors = _vectors(recorded_vectors)
    keyers = {}
    for case in vectors["keys"]:
        scenario, protocol, run_seed, config, fingerprint = _arguments(vectors, case)
        coordinate = (scenario, case["config"], fingerprint)
        if coordinate not in keyers:
            keyers[coordinate] = CellKeyer(scenario, config, fingerprint)
        assert keyers[coordinate](protocol, run_seed) == case["key"], case


@pytest.mark.parametrize("backend", ["sqlite", "json"])
def test_sweep_rows_carry_the_recorded_keys(recorded_vectors, tmp_path, backend):
    vectors = _vectors(recorded_vectors)
    recorded = {
        coordinate: key
        for coordinate, key in _recorded(vectors, "two-pair", SWEEP_CONFIG).items()
        if coordinate[1] in (0, 1)
    }
    protocols = [_protocol(vectors, i) for i in range(len(vectors["protocols"]))]
    config = SimulationConfig(**vectors["configs"][SWEEP_CONFIG])
    for seed in (0, 1):
        result = run_sweep(
            "two-pair", protocols, n_runs=1, seed=seed, config=config,
            cache_dir=tmp_path, cache_backend=backend,
        )
        assert result.cache_misses == len(protocols)
    assert len(recorded) == 2 * len(protocols)
    if backend == "sqlite":
        rows = ResultsStore(tmp_path).query(scenario="two-pair")
        assert {(row.protocol, row.run_seed): row.key for row in rows} == recorded
        assert all(row.status == "done" for row in rows)
    else:
        assert {path.stem for path in tmp_path.glob("*.json")} == set(recorded.values())


def _count_config_serialisations(monkeypatch, tmp_path, n_runs):
    """``dataclasses.asdict(SimulationConfig)`` calls of one cached sweep,
    plus the describe dicts the sweep registered its cells with."""
    calls = []
    original = dataclasses.asdict

    def counting(obj, *args, **kwargs):
        if isinstance(obj, SimulationConfig):
            calls.append(obj)
        return original(obj, *args, **kwargs)

    described = []
    begin = ResultsStore.begin_sweep

    def recording(self, sweep_id, manifest, cells):
        described.extend(describe for _, describe in cells)
        return begin(self, sweep_id, manifest, cells)

    monkeypatch.setattr(dataclasses, "asdict", counting)
    monkeypatch.setattr(ResultsStore, "begin_sweep", recording)
    run_sweep(
        "two-pair", ["n+", ("n+", {"retry_cap": 3})], n_runs=n_runs, seed=5,
        config=SimulationConfig(duration_us=2_000.0, n_subcarriers=8),
        cache_dir=tmp_path / f"runs-{n_runs}",
    )
    monkeypatch.undo()
    return len(calls), described


def test_config_serialisation_does_not_grow_with_the_grid(monkeypatch, tmp_path):
    small, _ = _count_config_serialisations(monkeypatch, tmp_path, 2)
    large, described = _count_config_serialisations(monkeypatch, tmp_path, 20)
    assert small == large
    assert len(described) == 40
    by_protocol = {}
    for describe in described:
        by_protocol.setdefault(describe["protocol"], []).append(describe["protocol_params"])
    assert set(by_protocol) == {"n+", "n+[retry_cap=3]"}
    for column in by_protocol.values():
        first = column[0]
        assert all(params == first for params in column)
        assert len({id(params) for params in column}) == len(column)
    assert by_protocol["n+[retry_cap=3]"][0]["retry_cap"] == 3


def test_numpy_seed_matches_the_equal_int_seed(tmp_path):
    results = {}
    for name, seed in (("int", 3), ("numpy", np.int64(3))):
        result = run_sweep("two-pair", ["n+"], n_runs=2, seed=seed, cache_dir=tmp_path / name)
        rows = ResultsStore(tmp_path / name).query()
        results[name] = (
            sorted((row.run_seed, row.key) for row in rows),
            [m.to_dict() for m in result.results["n+"]],
            result.sweep_id,
        )
    assert results["numpy"] == results["int"]


def test_non_integer_seed_raises_before_any_store_file(tmp_path):
    with pytest.raises(ConfigurationError, match="seed must be an integer"):
        run_sweep("two-pair", ["n+"], n_runs=1, seed=1.5, cache_dir=tmp_path / "store")
    assert not (tmp_path / "store").exists()
