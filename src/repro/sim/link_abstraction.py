"""Link abstraction: from streams on the air to post-projection SNRs.

Instead of simulating every sample of every packet, the MAC-level
simulator computes -- per OFDM subcarrier -- the SNR each wanted stream
would see at its receiver after the receiver projects out the
interference it can see and zero-forces among its wanted streams.  The
computation uses:

* the *true* channels of the run (the pre-coders, in contrast, were
  computed by the transmitters from *estimated* channels).  True
  channels come out of the :class:`repro.sim.network.ChannelBank` as
  read-only (possibly transposed) views of shared memoised responses, so
  everything here treats them as immutable inputs -- slicing and
  einsum-ing views is fine, in-place writes would raise,
* the pre-coding vectors and power of every stream on the air,
* the residual-interference model of the hardware profile for streams
  that were pre-coded to protect this receiver (imperfect nulling and
  alignment, §6.2).

How an interfering stream is handled depends on what the receiver can
know about it:

* a stream whose transmitter *protected* this receiver (nulling or
  alignment) contributes only residual noise;
* a stream that was already on the air when this receiver's transmission
  started -- or another stream from the *same* transmitter -- was present
  in the preamble the receiver used for channel estimation, so the
  receiver projects it out (it costs a signal dimension);
* a stream that appeared later *without* protecting this receiver (a
  secondary-contention collision) is untreatable interference and is
  counted at full power.

All per-subcarrier quantities are computed as stacked ``(n_sub, ...)``
arrays through batched ``np.linalg`` operations.  The per-subcarrier
announced-subspace formulation (``_announced_subspace_reference``)
remains as the degenerate-channel fallback and is asserted equivalent
by the test suite.

:func:`receiver_stream_snrs` splits into a channel-only core and a
per-call step.  The core -- stream classification, the wanted and
projection matrices, the zero-forcing noise enhancement after
projection (:func:`repro.mimo.decoder.zf_noise_enhancement_batch`) and
the unprotected power of every residual and raw interferer -- is a pure
function of the contention configuration and the channel epochs, so
when the caller hands over the run's :class:`~repro.mac.plan.PlanCache`
it is memoized under an ``"rx-snr-core"`` key.  The per-call step draws
the residual-suppression jitter (the only per-round randomness),
accumulates the residual interference and composes the SNRs, so cached
and uncached calls consume the generator identically and return the
same bits.

The result also carries each wanted stream's MI-ESNR
(:class:`StreamSnrs`), the quantity the delivery model reads, evaluated
for all wanted streams in one pass (:func:`repro.phy.esnr.esnr_rows`)
when first read.  When no residual (protecting) stream reaches the
receiver nothing is drawn, so the SNRs are as pure as the rest of the
core and are composed with it, and their ESNRs are kept with it: both
are evaluated once per configuration.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.mac.plan import PlanCache, involved_node_ids, stream_signature
from repro.mimo.decoder import snr_from_zf_enhancement, zf_noise_enhancement_batch
from repro.mimo.dof import InterferenceStrategy
from repro.phy.esnr import esnr_rows
from repro.sim.medium import ScheduledStream
from repro.utils.db import linear_to_db
from repro.utils.linalg import singular_value_ranks

__all__ = [
    "StreamSnrs",
    "receiver_stream_snrs",
    "unprotected_interference_power",
    "unprotected_interference_power_batch",
    "interference_directions_at",
    "announced_decoding_subspace",
]


def unprotected_interference_power(
    channel: np.ndarray, stream: ScheduledStream, subcarrier: int
) -> float:
    """Average per-receive-antenna power the stream would create at a
    receiver with no protective pre-coding, on one subcarrier.

    For a unit-norm pre-coder drawn independently of the channel, the
    expected per-antenna interference power is ``power * ||H||_F^2 / (N M)``.
    """
    h = channel[subcarrier]
    n_rx, n_tx = h.shape
    return float(stream.power * np.sum(np.abs(h) ** 2) / (n_rx * n_tx))


def unprotected_interference_power_batch(
    channel: np.ndarray, stream: ScheduledStream
) -> np.ndarray:
    """:func:`unprotected_interference_power` on every subcarrier at once."""
    n_rx, n_tx = channel.shape[1:]
    return stream.power * np.sum(np.abs(channel) ** 2, axis=(1, 2)) / (n_rx * n_tx)


def _effective_column(channel: np.ndarray, stream: ScheduledStream, subcarrier: int) -> np.ndarray:
    """The effective (power-scaled) channel column of a stream at a receiver."""
    h = channel[subcarrier]
    precoder = stream.precoders[subcarrier]
    return np.sqrt(stream.power) * (h @ precoder)


def _effective_columns(channel: np.ndarray, stream: ScheduledStream) -> np.ndarray:
    """The effective channel column of a stream on every subcarrier,
    shape ``(n_sub, N)``."""
    return np.sqrt(stream.power) * np.einsum("knm,km->kn", channel, stream.precoders)


def interference_directions_at(
    network, receiver_id: int, streams: Sequence[ScheduledStream]
) -> np.ndarray:
    """Effective channel columns of ``streams`` at a receiver.

    Returns a complex array of shape ``(n_subcarriers, N, len(streams))``
    -- the directions along which those streams arrive, which is what the
    receiver projects out and what defines its unwanted space.
    """
    streams = list(streams)
    n_sub = network.n_subcarriers
    n_rx = network.station(receiver_id).n_antennas
    out = np.zeros((n_sub, n_rx, len(streams)), dtype=complex)
    for index, stream in enumerate(streams):
        channel = network.true_channel(stream.transmitter_id, receiver_id)
        out[:, :, index] = _effective_columns(channel, stream)
    return out


def _uniform_orthonormal_basis(stack: np.ndarray):
    """Batched :func:`repro.utils.linalg.orthonormal_basis` over a stack.

    Returns ``(bases, True)`` with shape ``(batch, n, rank)`` when every
    matrix in the stack has the same rank, else ``(None, False)`` so the
    caller can fall back to the per-matrix path.
    """
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    ranks = singular_value_ranks(s)
    rank = int(ranks[0])
    if not np.all(ranks == rank):
        return None, False
    return u[:, :, :rank], True


def announced_decoding_subspace(
    network,
    receiver_id: int,
    wanted_streams: Sequence[ScheduledStream],
    interference_streams: Sequence[ScheduledStream],
) -> np.ndarray:
    """The per-subcarrier U-perp a receiver announces in its light-weight CTS.

    U-perp spans the directions the receiver actually uses to decode its
    wanted streams: the wanted effective channels projected orthogonal to
    the interference the receiver already sees.  A joiner that keeps its
    signal orthogonal to U-perp (Claim 3.4) therefore cannot disturb the
    receiver's decoding.

    Returns an array of shape ``(n_subcarriers, N, n_wanted)``.
    """
    wanted = list(wanted_streams)
    n_wanted = len(wanted)
    wanted_dirs = interference_directions_at(network, receiver_id, wanted)
    interference_dirs = (
        interference_directions_at(network, receiver_id, interference_streams)
        if interference_streams
        else None
    )

    columns = wanted_dirs
    if interference_dirs is not None and interference_dirs.shape[2]:
        ortho, uniform = _uniform_orthonormal_basis(interference_dirs)
        if not uniform:
            return _announced_subspace_reference(wanted_dirs, interference_dirs, n_wanted)
        columns = columns - ortho @ (ortho.conj().transpose(0, 2, 1) @ columns)

    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    ranks = singular_value_ranks(s)
    if not np.all(ranks == n_wanted):
        # Degenerate channel on some subcarrier: take the readable path,
        # which pads with arbitrary orthonormal directions.
        return _announced_subspace_reference(wanted_dirs, interference_dirs, n_wanted)
    return u[:, :, :n_wanted]


def _announced_subspace_reference(
    wanted_dirs: np.ndarray,
    interference_dirs: Optional[np.ndarray],
    n_wanted: int,
) -> np.ndarray:
    """Per-subcarrier reference formulation of the announced subspace."""
    from repro.utils.linalg import (
        orthonormal_basis,
        orthonormal_complement,
        project_out_subspace,
    )

    n_sub, n_rx, _ = wanted_dirs.shape
    out = np.zeros((n_sub, n_rx, n_wanted), dtype=complex)
    for k in range(n_sub):
        columns = wanted_dirs[k]
        if interference_dirs is not None and interference_dirs.shape[2]:
            columns = project_out_subspace(columns, interference_dirs[k])
        basis = orthonormal_basis(columns)
        out[k, :, : basis.shape[1]] = basis
        if basis.shape[1] < n_wanted:
            # Degenerate channel: pad with arbitrary orthonormal directions
            # so downstream shapes stay consistent.
            filler = orthonormal_complement(basis)
            missing = n_wanted - basis.shape[1]
            out[k, :, basis.shape[1] : n_wanted] = filler[:, :missing]
    return out


class _LinkTail:
    """The composed ``(n_wanted, n_sub)`` SNRs in dB of one reception and
    their per-stream ESNRs, evaluated in one pass on first read and kept.

    A memoized core shares its tail, so the ESNRs of a configuration are
    evaluated once however often it recurs, and a caller that never
    reads them (the MAC's measured SNRs) never pays for them.
    """

    __slots__ = ("snrs_db", "_esnr_db")

    def __init__(self, snrs_db: np.ndarray) -> None:
        self.snrs_db = snrs_db
        self._esnr_db: Optional[Tuple[float, ...]] = None

    @property
    def esnr_db(self) -> Tuple[float, ...]:
        if self._esnr_db is None:
            self._esnr_db = esnr_rows(self.snrs_db)
        return self._esnr_db


class StreamSnrs(dict):
    """What :func:`receiver_stream_snrs` returns: ``stream_id ->``
    per-subcarrier SNRs in dB, plus :attr:`esnr_db`.

    The arrays may be shared with a memoized core and are then
    read-only.
    """

    __slots__ = ("_stream_ids", "_tail")

    def __init__(self, stream_ids: Sequence[int] = (), tail: Optional[_LinkTail] = None) -> None:
        super().__init__(zip(stream_ids, tail.snrs_db) if tail is not None else ())
        self._stream_ids = tuple(stream_ids)
        self._tail = tail

    @property
    def esnr_db(self) -> Dict[int, float]:
        """``stream_id ->`` the MI-ESNR
        (:func:`repro.phy.esnr.esnr_for_modulation`) of that stream's
        SNRs."""
        if self._tail is None:
            return {}
        return dict(zip(self._stream_ids, self._tail.esnr_db))


class _ReceiverCore(NamedTuple):
    """The channel-only part of :func:`receiver_stream_snrs`.

    ``residual`` holds ``(unprotected power, aligned)`` per residual
    (protecting) stream and ``raw`` the unprotected power per raw
    (untreatable) stream, each ``(n_sub,)``, in ``concurrent_streams``
    order.  Without residual streams nothing is drawn per call, so
    ``tail`` holds the composed SNRs (and their ESNRs); it is ``None``
    otherwise.  Arrays are read-only: a memoized core is shared by
    reference.
    """

    enhancement: np.ndarray
    rank_deficient: np.ndarray
    residual: Tuple[Tuple[np.ndarray, bool], ...]
    raw: Tuple[np.ndarray, ...]
    tail: Optional[_LinkTail]


def _receiver_core(
    network,
    receiver_id: int,
    wanted: Sequence[ScheduledStream],
    concurrent_streams: Sequence[ScheduledStream],
) -> _ReceiverCore:
    """Classify the concurrent streams and compute everything that
    depends on the channels only: the zero-forcing noise enhancement of
    the wanted streams after projection, the unprotected power of every
    residual and raw stream and, when there is no residual stream, the
    SNRs and ESNRs themselves."""
    wanted_ids = {s.stream_id for s in wanted}
    transmitter_id = wanted[0].transmitter_id
    first_wanted_order = min(s.join_order for s in wanted)

    # Pre-fetch channels from every involved transmitter to this receiver.
    transmitters = {s.transmitter_id for s in concurrent_streams} | {transmitter_id}
    channels = {
        tx: network.true_channel(tx, receiver_id) for tx in transmitters if tx != receiver_id
    }

    projection_streams: List[ScheduledStream] = []
    residual_streams: List[ScheduledStream] = []
    raw_streams: List[ScheduledStream] = []
    for stream in concurrent_streams:
        if stream.stream_id in wanted_ids:
            continue
        if stream.transmitter_id == receiver_id:
            # A node does not interfere with its own reception (half duplex:
            # it would not be receiving at all; guard anyway).
            continue
        if stream.protects(receiver_id):
            residual_streams.append(stream)
        elif stream.transmitter_id == transmitter_id or stream.join_order <= first_wanted_order:
            projection_streams.append(stream)
        else:
            raw_streams.append(stream)

    wanted_matrix = np.stack(
        [_effective_columns(channels[s.transmitter_id], s) for s in wanted], axis=2
    )  # (n_sub, N, n_wanted)
    interference = (
        np.stack(
            [_effective_columns(channels[s.transmitter_id], s) for s in projection_streams],
            axis=2,
        )
        if projection_streams
        else None
    )
    enhancement, rank_deficient = zf_noise_enhancement_batch(wanted_matrix, interference)

    def unprotected(stream: ScheduledStream) -> np.ndarray:
        return _read_only(
            unprotected_interference_power_batch(channels[stream.transmitter_id], stream)
        )

    residual = tuple(
        (
            unprotected(stream),
            stream.protected_receivers.get(receiver_id, InterferenceStrategy.NULL)
            is InterferenceStrategy.ALIGN,
        )
        for stream in residual_streams
    )
    raw = tuple(unprotected(stream) for stream in raw_streams)
    tail = None
    if not residual:
        tail = _link_tail(
            network, enhancement, rank_deficient, raw, np.zeros(network.n_subcarriers)
        )
        _read_only(tail.snrs_db)
    return _ReceiverCore(
        _read_only(enhancement),
        _read_only(rank_deficient),
        residual,
        raw,
        tail,
    )


def _link_tail(
    network,
    enhancement: np.ndarray,
    rank_deficient: np.ndarray,
    raw: Sequence[np.ndarray],
    residual_power: np.ndarray,
) -> _LinkTail:
    """The ``(n_wanted, n_sub)`` SNRs in dB (and their per-stream ESNRs).

    ``residual_power`` holds the residual streams' interference; the raw
    streams' powers are added to it (in place) one by one -- never
    pre-summed -- since this accumulation order fixes the bits seeded
    runs reproduce.
    """
    for unprotected in raw:
        residual_power += unprotected
    per_stream_db = linear_to_db(
        snr_from_zf_enhancement(
            enhancement,
            rank_deficient,
            noise_power=network.noise_power,
            signal_power=1.0,
            residual_interference_power=residual_power,
        )
    )  # (n_sub, n_wanted)
    return _LinkTail(np.ascontiguousarray(per_stream_db.T))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def receiver_stream_snrs(
    network,
    receiver_id: int,
    wanted_streams: Sequence[ScheduledStream],
    concurrent_streams: Sequence[ScheduledStream],
    rng: Optional[np.random.Generator] = None,
    plan_cache: Optional[PlanCache] = None,
) -> StreamSnrs:
    """Per-subcarrier post-projection SNRs of the wanted streams.

    Parameters
    ----------
    network:
        The :class:`repro.sim.network.Network` of the run (provides true
        channels, the hardware profile and the noise normalisation).
    receiver_id:
        The receiving node.
    wanted_streams:
        The streams this receiver wants to decode (all from one
        transmitter).
    concurrent_streams:
        Every stream on the air during the reception, including the wanted
        ones.
    rng:
        Optional generator for the residual-suppression spread; omit for a
        deterministic mean-suppression model.
    plan_cache:
        Optional per-simulation :class:`~repro.mac.plan.PlanCache`.  When
        given, the channel-only core (stream classification, projection,
        zero-forcing noise enhancement, unprotected powers, and the
        SNRs and ESNRs of a receiver no residual stream reaches) is
        memoized per contention configuration and channel epoch; the
        suppression jitter is still drawn on every call that needs it,
        so the result and the generator's state are the same with or
        without a cache.

    Returns
    -------
    StreamSnrs
        Maps each wanted stream's ``stream_id`` to an array of
        per-subcarrier SNRs in dB; its ``esnr_db`` maps the same ids to
        the MI-ESNR of each array.
    """
    wanted = list(wanted_streams)
    if not wanted:
        return StreamSnrs()
    concurrent = list(concurrent_streams)
    if plan_cache is None:
        core = _receiver_core(network, receiver_id, wanted, concurrent)
    else:
        key = (
            "rx-snr-core",
            receiver_id,
            stream_signature(wanted),
            stream_signature(concurrent),
            network.epoch_signature(
                involved_node_ids(wanted, concurrent, extra=(receiver_id,))
            ),
        )
        core = plan_cache.get(
            key, lambda: _receiver_core(network, receiver_id, wanted, concurrent)
        )

    stream_ids = [stream.stream_id for stream in wanted]
    if core.tail is not None:
        return StreamSnrs(stream_ids, core.tail)

    # One draw per (subcarrier, stream) in row-major order, matching the
    # draw order of the per-subcarrier loop so seeded runs reproduce.
    jitter = (
        network.hardware.draw_suppression_jitter(
            rng, size=(network.n_subcarriers, len(core.residual))
        )
        if rng is not None
        else None
    )
    residual_power = np.zeros(network.n_subcarriers)
    for index, (unprotected, aligned) in enumerate(core.residual):
        residual_power += network.hardware.residual_interference_power_batch(
            unprotected,
            aligned=aligned,
            suppression_jitter_db=None if jitter is None else jitter[:, index],
        )
    return StreamSnrs(
        stream_ids,
        _link_tail(network, core.enhancement, core.rank_deficient, core.raw, residual_power),
    )
