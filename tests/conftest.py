"""Shared pytest fixtures."""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

#: Recorded test vectors (outputs of replaced reference implementations).
DATA_DIR = Path(__file__).resolve().parent / "data"


def _decode_complex(obj: dict):
    """``{"shape", "real", "imag"}`` objects are exact complex arrays."""
    if obj.keys() == {"shape", "real", "imag"}:
        values = np.array(obj["real"]) + 1j * np.array(obj["imag"])
        return values.reshape(obj["shape"])
    return obj


@lru_cache(maxsize=None)
def _load_vectors(name: str) -> dict:
    return json.loads((DATA_DIR / name).read_text(), object_hook=_decode_complex)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: full-PHY-heavy or otherwise expensive tests, deselected by "
        "`make test-fast` (pytest -m 'not slow')",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def rng_factory():
    """Factory for generators with distinct but deterministic seeds."""

    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make


@pytest.fixture
def recorded_vectors():
    """Loader of a recorded-vector JSON file under ``tests/data`` by name."""
    return _load_vectors


@pytest.fixture
def recorded_metrics():
    """``NetworkMetrics.to_dict()`` of every case of
    ``tests/data/round_pipeline_vectors.json``, by case id."""
    cases = _load_vectors("round_pipeline_vectors.json")["cases"]
    return {case["id"]: case["metrics"] for case in cases}
