"""Effective SNR and the ESNR-to-bitrate mapping (§3.4).

n+ selects the bitrate of each packet from the effective SNR (ESNR)
measured on the light-weight RTS *after projecting out ongoing
transmissions*.  The ESNR, introduced by Halperin et al. [16], compresses
the per-subcarrier SNRs of a frequency-selective channel into a single
number by going through the bit-error-rate domain:

1. compute the uncoded BER each subcarrier would see for a given
   modulation,
2. average the BERs over subcarriers,
3. map the average BER back to the SNR of a flat channel with the same
   BER -- that flat-equivalent SNR is the ESNR.

That literal mapping is :func:`esnr_ber_average`.  Rate selection and
the delivery model use the mean-mutual-information mapping instead
(:func:`esnr_for_modulation`), which is modulation-agnostic: one ESNR
per packet is compared against the per-MCS thresholds
(:func:`mcs_for_esnr`) to pick the fastest scheme expected to deliver
the packet.

Because the mapping ignores the modulation, the ESNR is a property of
the SNRs alone, and the simulator evaluates it once per link
configuration: :func:`esnr_rows` maps every stream of a reception in one
pass, the link abstraction and the MAC's measured-SNR memo keep the
result beside the SNRs it came from, and the MCS pick
(:func:`mcs_for_esnr`) and the delivery model
(:func:`delivery_probability_for_esnr`) take that ESNR instead of
re-deriving it.  :func:`select_mcs` and
:func:`packet_delivery_probability` are the same steps starting from
the SNRs.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from repro.phy.modulation import Modulation, get_modulation
from repro.phy.rates import MCS, MCS_TABLE
from repro.utils.db import linear_to_db

__all__ = [
    "per_subcarrier_snr_db",
    "effective_snr_db",
    "select_mcs",
    "mcs_for_esnr",
    "esnr_for_modulation",
    "esnr_rows",
    "esnr_ber_average",
    "delivery_margin_db",
    "margin_for_esnr",
    "packet_delivery_probability",
    "delivery_probability_for_esnr",
]


def per_subcarrier_snr_db(
    channel_gains: np.ndarray,
    noise_power: float,
    signal_power: float = 1.0,
) -> np.ndarray:
    """Per-subcarrier SNR (dB) from complex channel gains and noise power.

    Parameters
    ----------
    channel_gains:
        Complex effective channel gain of the wanted stream on each
        subcarrier (after any projection / equalisation).
    noise_power:
        Noise (plus residual interference) power per subcarrier, linear.
    signal_power:
        Transmit power allocated to the stream, linear.
    """
    gains = np.abs(np.asarray(channel_gains, dtype=complex)) ** 2
    noise = max(float(noise_power), 1e-30)
    return linear_to_db(signal_power * gains / noise)


def _ber_for_snr(modulation: Modulation, snr_db: float) -> float:
    """Uncoded BER of ``modulation`` at a given SNR (AWGN approximation)."""
    return min(0.5, max(modulation.bit_error_probability(snr_db), 1e-15))


def esnr_ber_average(subcarrier_snrs_db: Sequence[float], modulation: Modulation) -> float:
    """The uncoded-BER-averaging effective SNR.

    Averages the per-subcarrier *uncoded* BER for ``modulation`` and
    inverts the BER curve to find the flat-channel SNR with the same
    average BER.  This is the most literal reading of the ESNR definition,
    but because it ignores the convolutional code and interleaver it is
    dominated by the single worst subcarrier; the simulator therefore uses
    :func:`esnr_for_modulation` (mutual-information averaging) for rate
    selection and keeps this variant for comparison and unit tests.
    """
    snrs = np.asarray(list(subcarrier_snrs_db), dtype=float)
    if snrs.size == 0:
        return -np.inf
    bers = np.array([_ber_for_snr(modulation, snr) for snr in snrs])
    mean_ber = float(np.mean(bers))
    if mean_ber <= 1e-14:
        return float(np.max(snrs))
    if mean_ber >= 0.5 - 1e-12:
        return float(np.min(snrs))

    def objective(snr_db: float) -> float:
        return _ber_for_snr(modulation, snr_db) - mean_ber

    low, high = -20.0, 60.0
    # The BER curve is monotonically decreasing in SNR, so bisection works.
    try:
        return float(brentq(objective, low, high))
    except ValueError:
        # mean BER outside the achievable bracket; clamp.
        return float(np.clip(np.mean(snrs), low, high))


def esnr_for_modulation(subcarrier_snrs_db: Sequence[float], modulation: Modulation) -> float:
    """Effective SNR of a frequency-selective channel for a coded system.

    Per-subcarrier SNRs are mapped to mutual information
    (``log2(1 + SNR)``), averaged, and mapped back to the SNR of a flat
    channel with the same average -- the standard mean-mutual-information
    effective-SNR mapping used in system-level OFDM simulators.  Unlike a
    plain uncoded-BER average (:func:`esnr_ber_average`), this captures the
    fact that the convolutional code and interleaver recover isolated
    faded subcarriers, which is what makes the ESNR-to-rate table of
    Halperin et al. an accurate packet-delivery predictor in practice.

    The mapping is modulation-agnostic: ``modulation`` is accepted for
    symmetry with :func:`esnr_ber_average` but never read, and no
    constellation saturation is applied (the information is the
    unbounded Shannon ``log2(1 + SNR)``).  One evaluation therefore
    serves every MCS of a table (:func:`select_mcs`).
    """
    snrs = np.asarray(subcarrier_snrs_db, dtype=float)
    if snrs.size == 0:
        return -np.inf
    return _esnr_from_mean_information(float(np.mean(_mutual_information(snrs))))


def esnr_rows(snrs_db: np.ndarray) -> Tuple[float, ...]:
    """:func:`esnr_for_modulation` of every row of a ``(n_rows, n_sub)``
    array, in one pass.

    The mutual information of all rows is computed at once and averaged
    along the contiguous last axis, where each row is summed in the same
    order as the 1-D mean of :func:`esnr_for_modulation`; each result is
    therefore bit-identical to evaluating that row on its own.
    """
    rows = np.ascontiguousarray(snrs_db, dtype=float)
    if rows.shape[-1] == 0:
        return (-np.inf,) * rows.shape[0]
    mean_information = np.mean(_mutual_information(rows), axis=-1)
    return tuple(_esnr_from_mean_information(float(m)) for m in mean_information)


def _mutual_information(snrs_db: np.ndarray) -> np.ndarray:
    """Shannon information ``log2(1 + SNR)`` of dB SNRs, elementwise."""
    return np.log2(1.0 + np.power(10.0, snrs_db / 10.0))


def _esnr_from_mean_information(mean_information: float) -> float:
    """The flat-channel SNR (dB) carrying ``mean_information`` bits."""
    effective_linear = max(2.0**mean_information - 1.0, 1e-12)
    return float(10.0 * np.log10(effective_linear))


def effective_snr_db(
    subcarrier_snrs_db: Sequence[float],
    modulation: Optional[Modulation] = None,
) -> float:
    """Effective SNR of a set of per-subcarrier SNRs.

    The mean-mutual-information mapping of :func:`esnr_for_modulation`,
    which never reads ``modulation``: the result is the same for every
    modulation, and QPSK merely fills the argument when it is omitted.
    """
    modulation = modulation or get_modulation("qpsk")
    return esnr_for_modulation(subcarrier_snrs_db, modulation)


def mcs_for_esnr(
    esnr_db: float,
    table: Iterable[MCS] = MCS_TABLE,
    margin_db: float = 0.0,
) -> MCS:
    """The fastest MCS whose ESNR threshold ``esnr_db`` meets (§3.4).

    Scans ``table`` in order and keeps the last entry with
    ``esnr_db >= min_esnr_db + margin_db``; if none qualifies the first
    (most robust) entry is returned.  The scan makes no monotonicity
    assumption about the table.
    """
    table = list(table)
    best = table[0]
    for mcs in table:
        if esnr_db >= mcs.min_esnr_db + margin_db:
            best = mcs
    return best


def select_mcs(
    subcarrier_snrs_db: Sequence[float],
    table: Iterable[MCS] = MCS_TABLE,
    margin_db: float = 0.0,
) -> MCS:
    """Pick the fastest MCS whose ESNR threshold is met (§3.4).

    The per-subcarrier SNRs are compressed into one mutual-information
    effective SNR (:func:`esnr_for_modulation`, which is the same for
    every modulation) and :func:`mcs_for_esnr` picks the fastest scheme
    whose ``min_esnr_db`` (plus an optional safety margin) it meets.  If
    none qualifies the most robust MCS is returned.
    """
    table = list(table)
    esnr = esnr_for_modulation(subcarrier_snrs_db, table[0].modulation)
    return mcs_for_esnr(esnr, table, margin_db)


def delivery_margin_db(
    subcarrier_snrs_db: Sequence[float],
    mcs: MCS,
    threshold_offset_db: float = 2.5,
) -> float:
    """Signed ESNR distance (dB) to the 50% delivery point at ``mcs``.

    The abstraction's delivery model is a logistic centred
    ``threshold_offset_db`` *below* ``mcs.min_esnr_db`` (see
    :func:`packet_delivery_probability`): the per-MCS thresholds of
    Halperin et al. mark where delivery is already likely, not the 50%
    point.  This helper exposes that margin directly so the fidelity
    layer (:mod:`repro.sim.fidelity`) classifies links against the *same*
    cliff centre the probability model uses -- a link with
    ``|margin| <= band_db`` sits in the uncertain region where the
    abstraction and the full transceiver may disagree.
    """
    esnr = esnr_for_modulation(subcarrier_snrs_db, mcs.modulation)
    return margin_for_esnr(esnr, mcs, threshold_offset_db)


def margin_for_esnr(esnr_db: float, mcs: MCS, threshold_offset_db: float = 2.5) -> float:
    """:func:`delivery_margin_db` from an already evaluated ESNR."""
    return float(esnr_db - mcs.min_esnr_db + threshold_offset_db)


def packet_delivery_probability(
    subcarrier_snrs_db: Sequence[float],
    mcs: MCS,
    packet_bits: int,
    steepness_db: float = 1.0,
    threshold_offset_db: float = 2.5,
) -> float:
    """Probability that a packet at ``mcs`` is delivered, given the ESNR.

    The paper's prototype observes essentially binary behaviour around the
    ESNR threshold (packets either deliver or not); we model the packet
    delivery ratio as a logistic function of the ESNR margin with a
    configurable steepness, which reproduces that cliff while keeping the
    simulation differentiable in the SNR.  The per-MCS ``min_esnr_db``
    values are the points where delivery is already *likely* (that is how
    the ESNR-to-rate table of Halperin et al. is defined), so the logistic
    is centred ``threshold_offset_db`` below the threshold: a packet sent
    exactly at threshold succeeds with probability ~0.9, one sent a couple
    of dB above essentially always succeeds, and one sent a couple of dB
    below almost always fails.

    The ESNR of :func:`esnr_for_modulation` followed by
    :func:`delivery_probability_for_esnr`.
    """
    esnr = esnr_for_modulation(subcarrier_snrs_db, mcs.modulation)
    return delivery_probability_for_esnr(
        esnr, mcs, packet_bits, steepness_db, threshold_offset_db
    )


def delivery_probability_for_esnr(
    esnr_db: float,
    mcs: MCS,
    packet_bits: int,
    steepness_db: float = 1.0,
    threshold_offset_db: float = 2.5,
) -> float:
    """:func:`packet_delivery_probability` from an already evaluated ESNR."""
    margin = margin_for_esnr(esnr_db, mcs, threshold_offset_db)
    base = 1.0 / (1.0 + np.exp(-margin / max(steepness_db, 1e-3)))
    # Longer packets are slightly harder to deliver at the same BER.
    length_factor = min(1.0, 12_000 / max(packet_bits, 1))
    exponent = 1.0 + 0.25 * (1.0 - length_factor)
    return float(base**exponent)
