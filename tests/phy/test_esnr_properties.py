"""Property tests for the ESNR mappings (repro.phy.esnr).

Three families of properties:

* :func:`~repro.phy.esnr.esnr_for_modulation` is monotone under
  per-subcarrier SNR increases (and exact on flat channels);
* :func:`~repro.phy.esnr.select_mcs` is consistent with the per-MCS
  thresholds at +/-epsilon around every boundary;
* the ordering between the uncoded-BER-averaging ESNR and the
  mutual-information ESNR is pinned: both are bounded by the best
  subcarrier, they coincide on flat channels, and a deep fade drags the
  BER average (far) below the MI average -- the worst-subcarrier
  domination that motivated switching rate selection to the MI mapping;
* the ESNR-taking forms the simulator memoizes through are bit-equal to
  the SNR-taking ones: :func:`~repro.phy.esnr.esnr_rows` row by row to
  :func:`~repro.phy.esnr.esnr_for_modulation`, and
  :func:`~repro.phy.esnr.delivery_probability_for_esnr` to
  :func:`~repro.phy.esnr.packet_delivery_probability`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.phy.esnr import (
    delivery_margin_db,
    delivery_probability_for_esnr,
    esnr_ber_average,
    esnr_for_modulation,
    esnr_rows,
    packet_delivery_probability,
    select_mcs,
)
from repro.phy.rates import MCS_TABLE

# dB SNRs as the link abstraction produces them: rank-deficient
# subcarriers sit at the -300 dB floor, the rest anywhere a link can be.
_SNR_DB = st.one_of(
    st.floats(min_value=-40.0, max_value=60.0, allow_nan=False),
    st.just(-300.0),
)


def _snr_rows(min_rows=1):
    shapes = st.tuples(st.integers(min_rows, 4), st.integers(1, 64))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=_SNR_DB))


class TestMutualInformationEsnr:
    def test_flat_channel_is_exact(self):
        for snr in (-5.0, 0.0, 7.5, 22.0, 40.0):
            flat = np.full(16, snr)
            for mcs in MCS_TABLE:
                assert esnr_for_modulation(flat, mcs.modulation) == pytest.approx(
                    snr, abs=1e-9
                )

    def test_monotone_under_single_subcarrier_increase(self, rng):
        modulation = MCS_TABLE[3].modulation
        for _ in range(50):
            snrs = rng.uniform(-5.0, 35.0, size=int(rng.integers(2, 17)))
            base = esnr_for_modulation(snrs, modulation)
            bumped = snrs.copy()
            index = int(rng.integers(0, snrs.size))
            bumped[index] += float(rng.uniform(0.1, 10.0))
            assert esnr_for_modulation(bumped, modulation) > base

    def test_monotone_under_uniform_increase(self, rng):
        modulation = MCS_TABLE[0].modulation
        for _ in range(20):
            snrs = rng.uniform(-5.0, 35.0, size=8)
            base = esnr_for_modulation(snrs, modulation)
            assert esnr_for_modulation(snrs + 3.0, modulation) > base

    def test_bounded_by_best_and_worst_subcarrier(self, rng):
        modulation = MCS_TABLE[5].modulation
        for _ in range(50):
            snrs = rng.uniform(-5.0, 35.0, size=8)
            esnr = esnr_for_modulation(snrs, modulation)
            assert float(np.min(snrs)) - 1e-9 <= esnr <= float(np.max(snrs)) + 1e-9

    def test_empty_channel_is_minus_infinity(self):
        assert esnr_for_modulation([], MCS_TABLE[0].modulation) == -np.inf


class TestSelectMcsBoundaries:
    """select_mcs at +/-epsilon around every per-MCS threshold.

    On a flat channel the ESNR equals the SNR exactly, so a flat channel
    epsilon above a threshold must satisfy exactly the MCS at (and below)
    that threshold, and epsilon below must not satisfy it.
    """

    EPSILON = 0.1

    def test_just_above_each_threshold_selects_that_mcs(self):
        for mcs in MCS_TABLE:
            flat = np.full(8, mcs.min_esnr_db + self.EPSILON)
            assert select_mcs(flat).index == mcs.index

    def test_just_below_each_threshold_selects_the_previous_mcs(self):
        for mcs in MCS_TABLE:
            flat = np.full(8, mcs.min_esnr_db - self.EPSILON)
            selected = select_mcs(flat)
            if mcs.index == 0:
                # Nothing qualifies below the first threshold; the most
                # robust MCS is the documented fallback.
                assert selected.index == 0
            else:
                assert selected.index == mcs.index - 1

    def test_margin_shifts_the_boundary(self):
        for mcs in MCS_TABLE[1:]:
            flat = np.full(8, mcs.min_esnr_db + self.EPSILON)
            assert select_mcs(flat, margin_db=1.0).index == mcs.index - 1
            assert select_mcs(flat, margin_db=-1.0).index >= mcs.index

    def test_thresholds_are_strictly_increasing(self):
        thresholds = [mcs.min_esnr_db for mcs in MCS_TABLE]
        assert thresholds == sorted(thresholds)
        assert len(set(thresholds)) == len(thresholds)


class TestEsnrOrderingPinned:
    """esnr_ber_average vs esnr_for_modulation, pinned."""

    def test_flat_channels_coincide(self):
        for mcs in MCS_TABLE:
            # Within the informative range of the BER curve inversion.
            flat = np.full(8, mcs.min_esnr_db - 2.0)
            ber = esnr_ber_average(flat, mcs.modulation)
            mi = esnr_for_modulation(flat, mcs.modulation)
            assert ber == pytest.approx(mi, abs=0.05)

    def test_both_bounded_by_the_best_subcarrier(self, rng):
        for mcs in MCS_TABLE:
            for _ in range(20):
                snrs = rng.uniform(-5.0, 35.0, size=8)
                best = float(np.max(snrs))
                assert esnr_ber_average(snrs, mcs.modulation) <= best + 1e-6
                assert esnr_for_modulation(snrs, mcs.modulation) <= best + 1e-9

    def test_deep_fade_drags_the_ber_average_below(self):
        # One faded subcarrier dominates the BER average but barely
        # moves the MI average -- the asymmetry that makes the BER
        # variant a poor predictor for coded systems.
        for mcs in MCS_TABLE:
            snrs = np.full(8, 25.0)
            snrs[0] = 0.0
            ber = esnr_ber_average(snrs, mcs.modulation)
            mi = esnr_for_modulation(snrs, mcs.modulation)
            assert ber < mi
            assert mi - ber > 3.0  # far below, not marginally

    def test_ber_average_saturates_to_the_best_subcarrier(self):
        # Once every subcarrier's uncoded BER underflows, the BER-domain
        # average carries no information and the mapping pins to the best
        # subcarrier -- above the MI average by construction.  This is
        # the one regime where the usual ordering flips, documented here.
        snrs = np.array([38.0, 40.0, 42.0, 44.0])
        modulation = MCS_TABLE[0].modulation  # BPSK: deepest underflow
        ber = esnr_ber_average(snrs, modulation)
        mi = esnr_for_modulation(snrs, modulation)
        assert ber == pytest.approx(float(np.max(snrs)), abs=1e-6)
        assert ber > mi


class TestDeliveryMargin:
    def test_margin_matches_the_logistic_centre(self, rng):
        # p(delivery) crosses 0.5 exactly where the margin crosses 0 --
        # the shared-centre contract the fidelity band relies on.
        for mcs in MCS_TABLE:
            centre = mcs.min_esnr_db - 2.5
            just_above = np.full(8, centre + 0.2)
            just_below = np.full(8, centre - 0.2)
            assert delivery_margin_db(just_above, mcs) > 0
            assert delivery_margin_db(just_below, mcs) < 0
            assert packet_delivery_probability(just_above, mcs, 1000) > 0.5
            assert packet_delivery_probability(just_below, mcs, 1000) < 0.5

    def test_margin_is_probability_monotone(self, rng):
        mcs = MCS_TABLE[4]
        snrs = [rng.uniform(mcs.min_esnr_db - 8, mcs.min_esnr_db + 8, size=8) for _ in range(20)]
        margins = [delivery_margin_db(s, mcs) for s in snrs]
        probabilities = [packet_delivery_probability(s, mcs, 12_000) for s in snrs]
        order = np.argsort(margins)
        assert list(np.array(probabilities)[order]) == sorted(probabilities)


class TestEsnrTakingFormsAreBitEqual:
    @given(rows=_snr_rows())
    @settings(max_examples=200, deadline=None)
    def test_row_esnr_matches_each_row_alone(self, rows):
        modulation = MCS_TABLE[0].modulation
        expected = tuple(esnr_for_modulation(row, modulation) for row in rows)
        assert esnr_rows(rows) == expected
        # The link abstraction hands over a transposed (n_sub, n_wanted) view.
        assert esnr_rows(np.ascontiguousarray(rows.T).T) == expected

    @given(
        rows=_snr_rows(),
        mcs_index=st.integers(0, len(MCS_TABLE) - 1),
        packet_bits=st.integers(1, 200_000),
        steepness_db=st.floats(min_value=0.25, max_value=4.0),
        threshold_offset_db=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_delivery_from_esnr_matches_delivery_from_snrs(
        self, rows, mcs_index, packet_bits, steepness_db, threshold_offset_db
    ):
        mcs = MCS_TABLE[mcs_index]
        for row, esnr in zip(rows, esnr_rows(rows)):
            expected = packet_delivery_probability(
                row, mcs, packet_bits, steepness_db, threshold_offset_db
            )
            got = delivery_probability_for_esnr(
                esnr, mcs, packet_bits, steepness_db, threshold_offset_db
            )
            assert got.hex() == expected.hex()

    def test_empty_rows_are_minus_infinity(self):
        assert esnr_rows(np.zeros((2, 0))) == (-np.inf, -np.inf)
