"""The 802.11 frame scrambler (127-bit maximal-length sequence).

Scrambling whitens the data so that the OFDM signal has no strong
spectral lines; the same self-synchronising generator
``x^7 + x^4 + 1`` is used for scrambling and descrambling.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["scramble", "descramble", "scrambler_sequence"]

#: Default initial state of the 7-bit scrambler register (all ones).
DEFAULT_SEED = 0x7F

#: Period of the maximal-length sequence of the 7-bit register.
_PERIOD = 127


def scrambler_sequence(length: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Return ``length`` bits of the 802.11 scrambling sequence."""
    if length < 0:
        raise ValueError("length must be non-negative")
    state = seed & 0x7F
    if state == 0:
        raise ValueError("scrambler seed must be non-zero")
    out = np.empty(length, dtype=np.int8)
    for i in range(length):
        feedback = ((state >> 6) ^ (state >> 3)) & 1
        out[i] = feedback
        state = ((state << 1) | feedback) & 0x7F
    return out


@lru_cache(maxsize=None)
def _period(seed: int) -> np.ndarray:
    """One read-only period of the sequence started from ``seed``."""
    period = scrambler_sequence(_PERIOD, seed)
    period.setflags(write=False)
    return period


def scramble(bits: np.ndarray, seed: int = DEFAULT_SEED) -> np.ndarray:
    """XOR ``bits`` with the scrambling sequence.

    Every non-zero seed starts a sequence of period 127, so the sequence
    is one cached period tiled to the frame length.
    """
    bits = np.asarray(bits, dtype=np.int8)
    return (bits ^ np.resize(_period(seed & 0x7F), bits.size)).astype(np.int8)


def descramble(bits: np.ndarray, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Reverse :func:`scramble` (the operation is an involution)."""
    return scramble(bits, seed)
