"""Recorded link tails: SNRs -> ESNR -> MCS pick and delivery probability.

``tests/data/link_tail_vectors.json`` holds, per seeded run, every
delivery evaluation's per-stream ESNR and probability, every MCS pick
with the ESNR it was made from, the run generator's final state and a
digest of the metrics, recorded while every delivery and every pick
still re-derived its ESNR from the SNRs.  Memoizing the ESNR with the
link configuration must reproduce them bit for bit.
"""

import hashlib
import json
import sys

import pytest

# The variant registry imports the MAC agents lazily; import them up
# front so the spies below replace every binding of the spied names.
import repro.mac.beamforming  # noqa: F401
import repro.mac.dot11n  # noqa: F401
import repro.mac.nplus  # noqa: F401
import repro.sim.runner as runner
from repro.sim.runner import SimulationConfig, run_simulation
from repro.sim.scenarios import scenario_factory

CASE_IDS = ["three-pair/n+", "three-pair/802.11n", "dense-lan-50-faulty/auto/n+"]


def _cases(recorded_vectors):
    return recorded_vectors("link_tail_vectors.json")["cases"]


def _patch_everywhere(monkeypatch, module, name, make):
    """Replace ``module.name`` in every ``repro`` module that bound it."""
    original = getattr(module, name)
    wrapped = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "repro" or mod_name.startswith("repro.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapped)


def _run_recording(monkeypatch, case):
    import repro.phy.esnr as esnr

    deliveries, picks, states = [], [], []

    def spy_snrs(original):
        def wrapper(*args, **kwargs):
            deliveries.append([])
            return original(*args, **kwargs)

        return wrapper

    def spy_delivery(original):
        def wrapper(esnr_db, mcs, packet_bits):
            probability = original(esnr_db, mcs, packet_bits)
            deliveries[-1].append([float(esnr_db).hex(), probability.hex()])
            return probability

        return wrapper

    def spy_pick(original):
        def wrapper(esnr_db, table=esnr.MCS_TABLE, margin_db=0.0):
            mcs = original(esnr_db, table, margin_db)
            picks.append([float(esnr_db).hex(), mcs.index])
            return mcs

        return wrapper

    def spy_run(original):
        def wrapper(loop):
            result = original(loop)
            states.append(loop.rng.bit_generator.state)
            return result

        return wrapper

    monkeypatch.setattr(runner, "receiver_stream_snrs", spy_snrs(runner.receiver_stream_snrs))
    monkeypatch.setattr(
        runner, "delivery_probability_for_esnr", spy_delivery(runner.delivery_probability_for_esnr)
    )
    _patch_everywhere(monkeypatch, esnr, "mcs_for_esnr", spy_pick)
    monkeypatch.setattr(runner._EventDrivenLoop, "run", spy_run(runner._EventDrivenLoop.run))
    metrics = run_simulation(
        scenario_factory(case["scenario"])(),
        case["protocol"],
        seed=case["seed"],
        config=SimulationConfig(**case["config"]),
    )
    (state,) = states
    digest = hashlib.sha256(
        json.dumps(metrics.to_dict(), sort_keys=True).encode()
    ).hexdigest()
    return deliveries, picks, state, digest


def test_every_recorded_case_is_exercised(recorded_vectors):
    assert [case["id"] for case in _cases(recorded_vectors)] == CASE_IDS


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_link_tail_matches_recording(monkeypatch, recorded_vectors, case_id):
    (case,) = [c for c in _cases(recorded_vectors) if c["id"] == case_id]
    deliveries, picks, state, digest = _run_recording(monkeypatch, case)
    assert deliveries == case["deliveries"]
    assert picks == case["mcs_picks"]
    assert state == case["rng_state"]
    assert digest == case["metrics_sha256"]
