"""Viterbi decoding of the 802.11 convolutional code.

Supports hard-decision decoding (Hamming branch metrics on 0/1 inputs)
and soft-decision decoding (correlation metrics on log-likelihood
ratios).  Punctured positions are marked by erasure values and contribute
zero branch metric.

The decoder is vectorized in three stages:

* **Table branch metrics.**  A rate-1/2 branch emits one of only four
  coded-bit pairs, so the metric of every pair at every step is one
  ``(n_steps, 4)`` table, gathered through the trellis tables into each
  state's two incoming branch metrics.
* **Decisions after the recursion.**  Each trellis step of the
  add-compare-select recursion is two ufunc calls on whole state
  vectors: add the branch metrics into that step's stored candidates,
  then take their minimum as the next path metrics.  The survivor
  decisions of all steps come from one compare of the stored
  candidates once the recursion is done.
* **Packed traceback.**  The decisions are packed eight states to a
  byte and read bit by bit along the surviving path.

The decoded bits of the per-state implementation this replaced, and of
the decoder before the table metrics, are pinned as recorded vectors
(``tests/data/viterbi_reference_vectors.json``,
``tests/data/viterbi_probe_vectors.json``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DecodingError
from repro.phy.coding.convolutional import ConvolutionalEncoder, default_encoder

__all__ = ["viterbi_decode", "ERASURE"]

#: Marker inserted by :func:`repro.phy.coding.puncturing.depuncture` for
#: coded positions that were never transmitted.
ERASURE = np.nan


def _checked_pairs(
    coded: np.ndarray,
    n_data_bits: int,
    encoder: ConvolutionalEncoder,
    terminated: bool,
) -> np.ndarray:
    """Validate the coded stream and reshape it to ``(n_steps, 2)``."""
    coded = np.asarray(coded, dtype=float)
    if coded.size % 2 != 0:
        raise DecodingError(f"coded length {coded.size} is not a multiple of 2")
    n_steps = coded.size // 2
    total_bits = n_data_bits + (encoder.tail_bits if terminated else 0)
    if n_steps < total_bits:
        raise DecodingError(
            f"coded stream has {n_steps} steps but {total_bits} bits are expected"
        )
    return coded[: 2 * total_bits].reshape(total_bits, 2)


#: Coded bits of the four output pairs of a rate-1/2 branch, shape
#: ``(2, 4)``: column ``2 * c0 + c1`` is the pair ``(c0, c1)``.
_PATTERN_BITS = np.array([[0, 0, 1, 1], [0, 1, 0, 1]], dtype=np.int8)
#: The same pairs as correlation signs: +1 for bit 0, -1 for bit 1.
_PATTERN_SIGNS = 1.0 - 2.0 * _PATTERN_BITS


def _pattern_metrics(pairs: np.ndarray, soft: bool) -> np.ndarray:
    """Branch metric of each of the four output pairs, shape ``(n_steps, 4)``.

    Erasures (NaN) are masked to zero, so punctured positions contribute
    nothing in both the hard (Hamming) and the soft (negative correlation)
    formulation.
    """
    valid = ~np.isnan(pairs)  # (n_steps, 2)
    if soft:
        llr = np.where(valid, pairs, 0.0)
        # Bit value 0 should be rewarded when llr > 0; bit 1 when llr < 0.
        return -(llr[:, :, None] * _PATTERN_SIGNS).sum(axis=1)
    received = np.rint(np.where(valid, pairs, 0.0)).astype(np.int8)
    mismatch = (received[:, :, None] != _PATTERN_BITS) & valid[:, :, None]
    return mismatch.sum(axis=1, dtype=np.float64)


def viterbi_decode(
    coded: np.ndarray,
    n_data_bits: int,
    soft: bool = False,
    encoder: ConvolutionalEncoder | None = None,
    terminated: bool = True,
) -> np.ndarray:
    """Decode a rate-1/2 coded sequence back to ``n_data_bits`` bits.

    Parameters
    ----------
    coded:
        The received coded stream.  For hard decoding this is a 0/1 array
        (possibly with :data:`ERASURE` at punctured positions); for soft
        decoding it is an array of LLRs.
    n_data_bits:
        Number of information bits to return (excluding tail bits).
    soft:
        Use soft-decision branch metrics.
    encoder:
        The encoder whose trellis to use; defaults to the 802.11 encoder.
    terminated:
        Whether the encoder appended tail bits (the decoder then forces
        the final state to zero).
    """
    encoder = encoder or default_encoder()
    pairs = _checked_pairs(coded, n_data_bits, encoder, terminated)
    n_steps = pairs.shape[0]
    n_states = encoder.n_states

    _, outputs = encoder.transitions()
    prev_states, prev_bits = encoder.predecessors()

    # Gather each state's two incoming branch metrics for every step from
    # the four-pattern table, so the recursion below only touches
    # (n_states, 2) arrays.  The trellis has butterfly structure: the
    # predecessors of state ``s`` are ``(2s, 2s + 1) mod n_states``, so the
    # gathered path metrics of the lower and the upper half of the states
    # are both exactly ``path_metric.reshape(n_half, 2)`` -- the
    # add-compare-select step then needs no per-step index gather at all,
    # only a broadcast add.
    n_half = n_states // 2
    incoming_outputs = outputs[prev_states, prev_bits]  # (n_states, 2, 2)
    patterns = 2 * incoming_outputs[..., 0] + incoming_outputs[..., 1]
    candidates = _pattern_metrics(pairs, soft)[:, patterns].reshape(n_steps, 2, n_half, 2)

    # Path metrics of every step, so each step is two ufunc calls: add the
    # branch metrics into that step's candidates, then take the minimum
    # into the next step's path metrics.
    path_metrics = np.empty((n_steps + 1, n_states))
    path_metrics[0] = np.inf
    path_metrics[0, 0] = 0.0
    sources = path_metrics.reshape(n_steps + 1, n_half, 2)
    targets = path_metrics.reshape(n_steps + 1, 2, n_half)[1:]
    low, high = candidates[..., 0], candidates[..., 1]
    for step_candidates, source, step_low, step_high, target in zip(
        candidates, sources, low, high, targets
    ):
        np.add(step_candidates, source, out=step_candidates)
        np.minimum(step_low, step_high, out=target)
    path_metric = path_metrics[n_steps]
    # Survivor decisions of every step at once.  The strict comparison
    # keeps the first (lower-state) predecessor on ties, matching the
    # reference decoder's scan order.
    choices = (high < low).reshape(n_steps, n_states)

    if terminated:
        final_state = 0
        if not np.isfinite(path_metric[0]):
            final_state = int(np.argmin(path_metric))
    else:
        final_state = int(np.argmin(path_metric))

    # Trace back through the decisions packed eight states to a byte.
    # Plain Python ints are faster than numpy scalar indexing for this
    # strictly sequential walk.
    packed = np.packbits(choices, axis=1, bitorder="little")
    n_bytes = packed.shape[1]
    packed_list = packed.ravel().tolist()
    prev_state_list = prev_states.ravel().tolist()
    prev_bit_list = prev_bits.ravel().tolist()
    bits = [0] * n_steps
    state = final_state
    for step in range(n_steps - 1, -1, -1):
        branch = 2 * state + ((packed_list[step * n_bytes + (state >> 3)] >> (state & 7)) & 1)
        bits[step] = prev_bit_list[branch]
        state = prev_state_list[branch]
    return np.array(bits[:n_data_bits], dtype=np.int8)
