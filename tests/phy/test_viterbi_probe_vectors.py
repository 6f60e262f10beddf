"""Probe-length Viterbi and full-PHY probe verdicts against recorded vectors.

``tests/data/viterbi_probe_vectors.json`` holds the output of the decoder
as it was before its table-metric rewrite: 1024-bit frames decoded
through :class:`~repro.phy.coding.codec.Codec` at every ``MCS_TABLE``
entry (so every puncturing rate the table uses), from hard bits, soft
LLRs, rounded (tie-heavy) LLRs and LLRs with ±inf entries; the same
input kinds through the 4-state ``0o5/0o7`` encoder; and the delivered
verdicts of 200 seeded :func:`~repro.sim.fidelity.simulate_probe_delivery`
probes around each MCS's delivery cliff.  The inputs are regenerated
here from the seeds below, so the file stores only outputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.phy.coding.codec import Codec
from repro.phy.coding.convolutional import ConvolutionalEncoder
from repro.phy.coding.puncturing import depuncture, puncture
from repro.phy.coding.viterbi import viterbi_decode
from repro.phy.rates import MCS_TABLE
from repro.sim.fidelity import simulate_probe_delivery

VECTORS = "viterbi_probe_vectors.json"
PAYLOAD_BITS = 1024
VECTOR_SEED = 20_140
PROBE_SEED = 20_141
N_PROBES = 200
INPUT_KINDS = ("hard", "soft", "soft-rounded", "soft-inf")
CUSTOM_RATES = ((1, 2), (3, 4))


def _received(coded: np.ndarray, kind: str, rng: np.random.Generator) -> np.ndarray:
    """A noisy observation of the 0/1 stream ``coded``, as ``kind`` input."""
    if kind == "hard":
        flips = (rng.random(coded.size) < 0.03).astype(np.int8)
        return (coded ^ flips).astype(float)
    if kind == "soft-rounded":
        return np.rint((1.0 - 2.0 * coded) * 1.5 + rng.normal(0.0, 1.0, coded.size))
    llrs = (1.0 - 2.0 * coded) * 2.0 + rng.normal(0.0, 1.4, coded.size)
    if kind == "soft-inf":
        hit = rng.random(coded.size) < 0.005
        llrs[hit] = np.where(rng.random(int(hit.sum())) < 0.5, np.inf, -np.inf)
    return llrs


def codec_decoded(mcs_index: int, kind: str) -> np.ndarray:
    """Decode a seeded 1024-bit frame at ``MCS_TABLE[mcs_index]``."""
    rng = np.random.default_rng([VECTOR_SEED, mcs_index, INPUT_KINDS.index(kind)])
    codec = Codec(MCS_TABLE[mcs_index])
    bits = rng.integers(0, 2, PAYLOAD_BITS).astype(np.int8)
    received = _received(codec.encode(bits), kind, rng)
    return codec.decode(received, PAYLOAD_BITS, soft=kind != "hard")


def custom_decoded(rate, kind: str) -> np.ndarray:
    """Decode a seeded 1024-bit frame of the 4-state ``0o5/0o7`` code."""
    rng = np.random.default_rng(
        [VECTOR_SEED, 99, rate[0], rate[1], INPUT_KINDS.index(kind)]
    )
    encoder = ConvolutionalEncoder(g0=0o5, g1=0o7, constraint_length=3)
    bits = rng.integers(0, 2, PAYLOAD_BITS).astype(np.int8)
    mother = encoder.encode(bits)
    received = _received(puncture(mother, rate), kind, rng)
    coded = depuncture(received, rate, mother.size)
    return viterbi_decode(coded, PAYLOAD_BITS, soft=kind != "hard", encoder=encoder)


def probe_verdicts() -> str:
    """``"0"``/``"1"`` verdicts of the seeded probes, one per probe."""
    verdicts = []
    for index in range(N_PROBES):
        mcs = MCS_TABLE[index % len(MCS_TABLE)]
        rng = np.random.default_rng([PROBE_SEED, index])
        offset_db = rng.uniform(-6.0, 2.0)
        snrs = mcs.min_esnr_db + offset_db + rng.normal(0.0, 1.5, 16)
        verdicts.append("1" if simulate_probe_delivery(snrs, mcs, rng) else "0")
    return "".join(verdicts)


def case_ids():
    """Every decoder case id, in the file's order."""
    ids = [f"mcs{index}/{kind}" for index in range(len(MCS_TABLE)) for kind in INPUT_KINDS]
    ids += [f"custom-5-7-k3/{num}-{den}/{kind}" for num, den in CUSTOM_RATES for kind in INPUT_KINDS]
    return ids


def decoded_for(case_id: str) -> np.ndarray:
    """Regenerate the input of ``case_id`` and decode it."""
    head, *rest = case_id.split("/")
    if head.startswith("mcs"):
        return codec_decoded(int(head[3:]), rest[0])
    num, den = (int(part) for part in rest[0].split("-"))
    return custom_decoded((num, den), rest[1])


def _bits_string(bits: np.ndarray) -> str:
    return "".join(str(int(bit)) for bit in bits)


@pytest.fixture
def recorded(recorded_vectors):
    return recorded_vectors(VECTORS)


def test_file_covers_every_case(recorded):
    assert [case["id"] for case in recorded["cases"]] == case_ids()


# ±inf LLRs turn path metrics into inf - inf = NaN; the recorded bits pin
# how the decoder carries on from there, so numpy's warning is expected.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("case_id", case_ids())
def test_decoder_matches_recorded_bits(recorded, case_id):
    expected = {case["id"]: case["decoded"] for case in recorded["cases"]}[case_id]
    assert _bits_string(decoded_for(case_id)) == expected


def test_probe_verdicts_match_recorded(recorded):
    verdicts = recorded["probe_verdicts"]
    # The seeded offsets straddle the cliff: both verdicts must occur.
    assert "0" in verdicts and "1" in verdicts
    assert probe_verdicts() == verdicts
