"""Projection and zero-forcing decoding, and post-projection SNR.

A receiver in n+ decodes a wanted stream by projecting the received
signal onto a direction orthogonal to everything else (ongoing
interference plus its own other streams) and scaling -- the standard
zero-forcing decoder (§3.4, Fig. 7).  The post-projection SNR depends on
the angle between the wanted stream and the interference, which is why
n+ must pick bitrates per packet; the helpers here compute exactly that
quantity for the link-abstraction simulator and the bitrate selector.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DecodingError, DimensionError
from repro.utils import guarded
from repro.utils.db import linear_to_db
from repro.utils.linalg import (
    orthonormal_basis,
    orthonormal_complement,
    rank_and_pinv,
    rank_and_pinv_batch,
    singular_value_ranks,
)

__all__ = [
    "zero_forcing_decode",
    "project_and_decode",
    "post_projection_snr",
    "post_projection_snr_db",
    "post_projection_snr_batch",
    "post_projection_snr_db_batch",
    "zf_noise_enhancement_batch",
    "snr_from_zf_enhancement",
    "projection_angle",
]


def zero_forcing_decode(received: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """Zero-forcing estimate of the transmitted symbols.

    Parameters
    ----------
    received:
        ``(N,)`` or ``(N, T)`` received samples.
    channel:
        ``(N, S)`` effective channel of the S streams.

    Returns
    -------
    numpy.ndarray
        ``(S,)`` or ``(S, T)`` symbol estimates.
    """
    h = np.asarray(channel, dtype=complex)
    if h.ndim == 1:
        h = h.reshape(-1, 1)
    y = np.asarray(received, dtype=complex)
    squeeze = y.ndim == 1
    if squeeze:
        y = y.reshape(-1, 1)
    if y.shape[0] != h.shape[0]:
        raise DimensionError(
            f"received dimension {y.shape[0]} does not match channel rows {h.shape[0]}"
        )
    rank, pinv = rank_and_pinv(h)
    if rank < h.shape[1]:
        raise DecodingError("wanted streams are not separable (rank-deficient channel)")
    estimate = pinv @ y
    return estimate[:, 0] if squeeze else estimate


def project_and_decode(
    received: np.ndarray,
    wanted_channel: np.ndarray,
    interference_directions: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Decode wanted streams after projecting out known interference.

    Parameters
    ----------
    received:
        ``(N,)`` or ``(N, T)`` received samples.
    wanted_channel:
        ``(N, n)`` effective channel of the wanted streams.
    interference_directions:
        ``(N, k)`` effective channel vectors of interference (ongoing
        transmissions and/or residual streams).  ``None`` or empty means
        plain zero-forcing.
    """
    y = np.asarray(received, dtype=complex)
    squeeze = y.ndim == 1
    if squeeze:
        y = y.reshape(-1, 1)
    hw = np.asarray(wanted_channel, dtype=complex)
    if hw.ndim == 1:
        hw = hw.reshape(-1, 1)

    if interference_directions is None or np.asarray(interference_directions).size == 0:
        out = zero_forcing_decode(y, hw)
        return out[:, 0] if squeeze else out

    hi = np.asarray(interference_directions, dtype=complex)
    if hi.ndim == 1:
        hi = hi.reshape(-1, 1)
    projector = orthonormal_complement(hi)  # (N, N-k)
    if projector.shape[1] < hw.shape[1]:
        raise DecodingError(
            "after removing interference there are fewer dimensions than wanted streams"
        )
    y_proj = projector.conj().T @ y
    h_proj = projector.conj().T @ hw
    out = zero_forcing_decode(y_proj, h_proj)
    return out[:, 0] if squeeze else out


def post_projection_snr(
    wanted_channel: np.ndarray,
    interference_directions: Optional[np.ndarray],
    noise_power: float,
    signal_power: float = 1.0,
    residual_interference_power: float = 0.0,
) -> np.ndarray:
    """Per-stream post-projection SNR of the zero-forcing receiver (linear).

    Parameters
    ----------
    wanted_channel:
        ``(N, n)`` effective channels of the wanted streams.
    interference_directions:
        ``(N, k)`` channel vectors of interference to project out (or
        ``None``).
    noise_power:
        Thermal noise power per receive antenna (linear).
    signal_power:
        Transmit power per stream (linear).
    residual_interference_power:
        Extra interference power that survives nulling/alignment at this
        receiver (hardware imperfections, §6.2); it is treated as
        additional white noise.

    Returns
    -------
    numpy.ndarray
        Length-``n`` array of linear SNRs.
    """
    hw = np.asarray(wanted_channel, dtype=complex)
    if hw.ndim == 1:
        hw = hw.reshape(-1, 1)
    n_streams = hw.shape[1]
    if interference_directions is not None and np.asarray(interference_directions).size:
        hi = np.asarray(interference_directions, dtype=complex)
        if hi.ndim == 1:
            hi = hi.reshape(-1, 1)
        projector = orthonormal_complement(hi)
        h_eff = projector.conj().T @ hw
    else:
        h_eff = hw
    if h_eff.shape[0] < n_streams:
        return np.zeros(n_streams)
    rank, w = rank_and_pinv(h_eff)
    if rank < n_streams:
        return np.zeros(n_streams)
    noise_total = noise_power + residual_interference_power
    enhancement = np.sum(np.abs(w) ** 2, axis=1)
    return signal_power / (noise_total * np.maximum(enhancement, 1e-30))


def zf_noise_enhancement_batch(
    wanted_channels: np.ndarray,
    interference_directions: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-subcarrier zero-forcing noise enhancement after projection.

    On every subcarrier the wanted channels are projected orthogonal to
    the interference directions and zero-forced; stream ``j``'s noise
    enhancement is the squared norm of row ``j`` of the pseudo-inverse,
    so its post-projection SNR is ``signal / (noise * enhancement)``.
    This is the part of :func:`post_projection_snr_batch` that depends
    on the channels only, not on noise or residual interference, which
    is what lets the link abstraction memoize it per contention
    configuration.

    Parameters
    ----------
    wanted_channels:
        ``(n_sub, N, n)`` effective channels of the wanted streams.
    interference_directions:
        ``(n_sub, N, k)`` interference directions to project out, or
        ``None``.

    Returns
    -------
    tuple
        ``(enhancement, rank_deficient)``: the ``(n_sub, n)`` noise
        enhancement and the ``(n_sub,)`` mask of subcarriers whose
        projected channel cannot separate the wanted streams (fewer
        dimensions left than streams, or a rank-deficient projection);
        the enhancement is ``inf`` there.
    """
    hw = np.asarray(wanted_channels, dtype=complex)
    if hw.ndim != 3:
        raise DimensionError(f"wanted channels must have shape (n_sub, N, n), got {hw.shape}")
    n_sub, _, n_streams = hw.shape

    hi = None
    if interference_directions is not None and np.asarray(interference_directions).size:
        hi = np.asarray(interference_directions, dtype=complex)

    guards = guarded.guards_enabled()
    if guards:
        # NaN/Inf-poisoned subcarriers decode nothing: zero the poisoned
        # matrices (their SNR comes out 0) instead of letting LAPACK raise
        # or NaN propagate into the metrics.  No-op on finite stacks.
        hw, _ = guarded.sanitize_stack(hw)
        if hi is not None:
            hi, _ = guarded.sanitize_stack(hi)

    if hi is None:
        return _zf_enhancement(hw, n_streams)
    # Batched orthonormal complement of the interference: its width is
    # N - rank, so one batched projection needs one rank throughout.
    if guards:
        u, s, _ = guarded.svd_stack(hi, full_matrices=True)
    else:
        u, s, _ = np.linalg.svd(hi, full_matrices=True)
    ranks = singular_value_ranks(s)
    rank = int(ranks[0])
    if np.all(ranks == rank):
        return _zf_enhancement(u[:, :, rank:].conj().transpose(0, 2, 1) @ hw, n_streams)
    # Degenerate interference whose rank varies across subcarriers: each
    # subcarrier projects onto its own complement.
    enhancement = np.empty((n_sub, n_streams))
    deficient = np.empty(n_sub, dtype=bool)
    for k in range(n_sub):
        projector = u[k][:, ranks[k]:]
        h_eff = projector.conj().T @ hw[k]
        enhancement[k : k + 1], deficient[k : k + 1] = _zf_enhancement(h_eff[None], n_streams)
    return enhancement, deficient


def _zf_enhancement(h_eff: np.ndarray, n_streams: int) -> Tuple[np.ndarray, np.ndarray]:
    """Noise enhancement and rank-deficiency mask of a projected stack."""
    n_sub = h_eff.shape[0]
    if h_eff.shape[1] < n_streams:
        return np.full((n_sub, n_streams), np.inf), np.ones(n_sub, dtype=bool)
    rank, w = rank_and_pinv_batch(h_eff)  # w: (n_sub, n, rows)
    enhancement = np.sum(np.abs(w) ** 2, axis=2)
    deficient = rank < n_streams
    enhancement[deficient] = np.inf
    return enhancement, deficient


def snr_from_zf_enhancement(
    enhancement: np.ndarray,
    rank_deficient: np.ndarray,
    noise_power: float,
    signal_power: float = 1.0,
    residual_interference_power=0.0,
) -> np.ndarray:
    """Linear post-projection SNRs from :func:`zf_noise_enhancement_batch`.

    ``signal / ((noise + residual) * enhancement)`` per subcarrier and
    stream, zero on rank-deficient subcarriers; with guards enabled a
    non-finite SNR is zeroed and noted as a ``"nonfinite-snr"``
    degradation.  ``residual_interference_power`` is a scalar or
    ``(n_sub,)`` and is treated as extra white noise.
    """
    n_sub = enhancement.shape[0]
    residual = np.broadcast_to(np.asarray(residual_interference_power, dtype=float), (n_sub,))
    noise_total = noise_power + residual
    snr = signal_power / (noise_total[:, None] * np.maximum(enhancement, 1e-30))
    snr[rank_deficient] = 0.0
    if guarded.guards_enabled() and not np.isfinite(snr).all():
        guarded.note_degradation("nonfinite-snr")
        snr = np.where(np.isfinite(snr), snr, 0.0)
    return snr


def post_projection_snr_batch(
    wanted_channels: np.ndarray,
    interference_directions: Optional[np.ndarray],
    noise_power: float,
    signal_power: float = 1.0,
    residual_interference_power=0.0,
) -> np.ndarray:
    """Per-subcarrier, per-stream post-projection SNR in one batched pass.

    The link-abstraction simulator evaluates :func:`post_projection_snr`
    once per OFDM subcarrier; this helper runs the whole stack through
    batched ``np.linalg`` calls instead.  It is
    :func:`zf_noise_enhancement_batch` composed with
    :func:`snr_from_zf_enhancement`.

    Parameters
    ----------
    wanted_channels:
        ``(n_sub, N, n)`` effective channels of the wanted streams.
    interference_directions:
        ``(n_sub, N, k)`` interference directions to project out, or
        ``None``.
    noise_power:
        Thermal noise power per receive antenna (linear).
    signal_power:
        Transmit power per stream (linear).
    residual_interference_power:
        Scalar or ``(n_sub,)`` residual interference treated as extra
        white noise.

    Returns
    -------
    numpy.ndarray
        ``(n_sub, n)`` linear SNRs, matching a per-subcarrier loop over
        :func:`post_projection_snr`.
    """
    enhancement, rank_deficient = zf_noise_enhancement_batch(
        wanted_channels, interference_directions
    )
    return snr_from_zf_enhancement(
        enhancement, rank_deficient, noise_power, signal_power, residual_interference_power
    )


def post_projection_snr_db_batch(
    wanted_channels: np.ndarray,
    interference_directions: Optional[np.ndarray],
    noise_power: float,
    signal_power: float = 1.0,
    residual_interference_power=0.0,
) -> np.ndarray:
    """dB version of :func:`post_projection_snr_batch`."""
    return linear_to_db(
        post_projection_snr_batch(
            wanted_channels,
            interference_directions,
            noise_power,
            signal_power,
            residual_interference_power,
        )
    )


def post_projection_snr_db(
    wanted_channel: np.ndarray,
    interference_directions: Optional[np.ndarray],
    noise_power: float,
    signal_power: float = 1.0,
    residual_interference_power: float = 0.0,
) -> np.ndarray:
    """dB version of :func:`post_projection_snr`."""
    return linear_to_db(
        post_projection_snr(
            wanted_channel,
            interference_directions,
            noise_power,
            signal_power,
            residual_interference_power,
        )
    )


def projection_angle(wanted_direction: np.ndarray, interference_directions: np.ndarray) -> float:
    """The angle theta of Fig. 7 between a wanted stream and the
    interference subspace, in radians.

    The post-projection amplitude of the wanted stream scales as
    ``sin(theta)``; small angles mean low SNR and a low bitrate.
    """
    w = np.asarray(wanted_direction, dtype=complex).reshape(-1, 1)
    hi = np.asarray(interference_directions, dtype=complex)
    if hi.ndim == 1:
        hi = hi.reshape(-1, 1)
    if hi.size == 0:
        return float(np.pi / 2)
    basis = orthonormal_basis(hi)
    w_norm = np.linalg.norm(w)
    if w_norm == 0:
        return 0.0
    in_plane = np.linalg.norm(basis.conj().T @ w)
    cos_theta = float(np.clip(in_plane / w_norm, 0.0, 1.0))
    return float(np.arccos(cos_theta))
