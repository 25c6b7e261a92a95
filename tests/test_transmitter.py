"""Transmit-side tests: sorting, superposition, reflector phases, encoding."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from irsmas.channel import ChannelMatrix, sample_channel, trial_rng
from irsmas.core import SystemConfig, bits_to_int, make_constellation
from irsmas.rac import build_rac_table, rac_row
from irsmas.transmitter import (
    aligning_phases,
    encode,
    gather_phases,
    phase_index,
    reflector_phases,
)
from reference import reflector_phases as reference_reflector_phases
from reference import sort_weights_asc, sort_weights_desc, superpose

CFG = SystemConfig()
TABLE = build_rac_table(CFG.n_rx, CFG.n_sel)
BPSK = make_constellation(2)


class TestSorting:
    """The reference slot order that the scalar encoder and receivers use."""

    def test_descending_example(self):
        np.testing.assert_array_equal(sort_weights_desc([3.0, 5.0]), [2, 1])

    def test_tie_prefers_smaller_slot(self):
        np.testing.assert_array_equal(sort_weights_desc([5.0, 5.0]), [1, 2])

    def test_ascending_is_reverse(self):
        w = [2.0, 9.0, 4.0]
        np.testing.assert_array_equal(sort_weights_asc(w), sort_weights_desc(w)[::-1])

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=8))
    def test_descending_is_permutation_and_sorted(self, w):
        order = sort_weights_desc(w)
        assert sorted(order.tolist()) == list(range(1, len(w) + 1))
        values = [w[slot - 1] for slot in order]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestSuperpose:
    """The reference superposition that the scalar path uses."""

    def test_frozen_bpsk_values(self):
        # alpha (0.2, 0.8), strongest slot first in order_desc
        x = superpose([1.0, -1.0], order_desc=[1, 2], alpha=(0.2, 0.8))
        assert x == pytest.approx(-0.4472135954999579)
        x = superpose([1.0, 1.0], order_desc=[1, 2], alpha=(0.2, 0.8))
        assert x == pytest.approx(1.3416407864998738)

    def test_order_reassigns_power(self):
        # swapping the order swaps which slot gets the big share
        a = superpose([1.0, -1.0], order_desc=[1, 2], alpha=(0.2, 0.8))
        b = superpose([1.0, -1.0], order_desc=[2, 1], alpha=(0.2, 0.8))
        assert a == pytest.approx(0.4472135954999579 - 0.8944271909999159)
        assert b == pytest.approx(0.8944271909999159 - 0.4472135954999579)

    def test_symbol_energy_scales_linearly(self):
        # symbols of amplitude 2.5 superpose to 2.5 times the unit-amplitude value
        x1 = superpose([1.0, -1.0], [1, 2], (0.2, 0.8))
        x2 = superpose([2.5, -2.5], [1, 2], (0.2, 0.8))
        assert x2 == pytest.approx(2.5 * x1)

    def test_single_slot(self):
        assert superpose([1j], [1], (1.0,)) == pytest.approx(1j)


class TestReflectorPhases:
    def rng(self):
        return trial_rng(1234, 0)

    def test_unit_modulus(self):
        ch = sample_channel(12, 64, self.rng())
        theta = reflector_phases(ch.h[:2, :], 32)
        assert np.max(np.abs(np.abs(theta) - 1.0)) <= 1e-12
        h = np.stack([sample_channel(16, 64, trial_rng(5, t)).h for t in range(16)])
        assert np.max(np.abs(np.abs(aligning_phases(h)) - 1.0)) <= 4 * np.finfo(float).eps

    def test_aligning_phases_match_exponential_form(self):
        # conj(h)/|h| is exp(-j arg h) up to rounding, also for tiny and huge entries
        h = np.stack([sample_channel(16, 64, trial_rng(6, t)).h for t in range(16)])
        h[0] *= 1e-300
        h[1] *= 1e300
        want = np.exp(-1j * np.angle(h))
        assert np.max(np.abs(aligning_phases(h) - want)) <= 1e-15

    def test_zero_entries_give_exactly_one(self):
        h = sample_channel(4, 8, self.rng()).h
        h[1, 2] = 0
        h[2, :] = complex(-0.0, -0.0)
        theta = aligning_phases(h)
        assert np.all(theta[h == 0] == 1)
        np.testing.assert_array_equal(theta[h != 0], aligning_phases(h[h != 0]))
        out = np.full(h.shape, np.nan, dtype=complex)  # an out array is overwritten
        assert aligning_phases(h, out=out) is out
        np.testing.assert_array_equal(out, theta)

    def test_all_zero_channel_is_quiet(self):
        h = np.zeros((3, 4, 9), dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = aligning_phases(h)
            block = reflector_phases(h[0, :2], 4)
            rows = gather_phases(theta, np.zeros((3, 1), dtype=np.int64), 2)
        assert np.all(theta == 1) and np.all(block == 1) and np.all(rows == 1)

    def test_block_alignment_gain(self):
        # within its own block, the product h * theta must be real positive
        # and equal to the channel magnitude
        ch = sample_channel(12, 64, self.rng())
        sel_channel = ch.h[[2, 7], :]
        theta = reflector_phases(sel_channel, 32)
        own0 = sel_channel[0, :32] * theta[:32]
        own1 = sel_channel[1, 32:] * theta[32:]
        np.testing.assert_allclose(own0.imag, 0, atol=1e-12)
        np.testing.assert_allclose(own1.imag, 0, atol=1e-12)
        np.testing.assert_allclose(own0.real, np.abs(sel_channel[0, :32]), atol=1e-12)
        np.testing.assert_allclose(own1.real, np.abs(sel_channel[1, 32:]), atol=1e-12)

    def test_leftover_aligned_to_first_row(self):
        # 65 reflectors, 2 slots: delta=32, one leftover aligned to row 0
        ch = sample_channel(4, 65, self.rng())
        sel_channel = ch.h[:2, :]
        theta = reflector_phases(sel_channel, 32)
        tail = sel_channel[0, 64] * theta[64]
        assert abs(tail.imag) <= 1e-12 and tail.real > 0

    @pytest.mark.parametrize("n_rx,n_sel,n_refl", [(12, 2, 64), (8, 3, 31), (5, 1, 7)])
    def test_row_phases_match_per_row_phases(self, n_rx, n_sel, n_refl):
        # a stack of 3 trials, each with every row of its table, tail reflectors included
        table = build_rac_table(n_rx, n_sel)
        h = np.stack([sample_channel(n_rx, n_refl, trial_rng(9, t)).h for t in range(3)])
        rows = np.broadcast_to(np.arange(table.row_count), (3, table.row_count))
        theta = gather_phases(aligning_phases(h), rows, n_sel)
        index = phase_index(n_rx, n_sel, n_refl)
        assert phase_index(n_rx, n_sel, n_refl) is index and not index.flags.writeable
        for t in range(3):
            for r, row in enumerate(table.rows):
                want = reference_reflector_phases(h[t, row - 1], n_refl // n_sel)
                np.testing.assert_array_equal(theta[t, r], want)

    def test_aligned_gain_beats_random(self):
        # the beamforming gain at the aligned antenna dwarfs a random antenna
        ch = sample_channel(12, 64, self.rng())
        theta = reflector_phases(ch.h[:1, :], 64)
        gains = np.abs(ch.h @ theta)
        assert gains[0] > 3 * gains[1:].max()


class TestEncode:
    def make_inputs(self, seed=0, trial=5):
        rng = trial_rng(seed, trial)
        bits = rng.integers(0, 2, size=CFG.block_len)
        ch = sample_channel(CFG.n_rx, CFG.n_refl, rng)
        return bits, ch

    def test_selected_row_matches_index_bits(self):
        bits, ch = self.make_inputs()
        tx = encode(bits, ch, CFG, TABLE)
        p = bits_to_int(bits[: CFG.l1])
        np.testing.assert_array_equal(tx.sel, rac_row(TABLE, p))

    def test_transmit_scalar_matches_manual_composition(self):
        bits, ch = self.make_inputs()
        tx = encode(bits, ch, CFG, TABLE)
        # rebuild by hand: slot j's symbol from its own bit block, power
        # ratio by descending-weight position
        symbols = np.array(
            [
                BPSK.points[bits_to_int(bits[CFG.l1 + (j - 1) : CFG.l1 + j])]
                for j in (1, 2)
            ]
        )
        expected = superpose(symbols, tx.order_desc, CFG.alpha)
        assert tx.x == expected  # bit for bit

    def test_weights_are_row_norms(self):
        bits, ch = self.make_inputs()
        tx = encode(bits, ch, CFG, TABLE)
        np.testing.assert_allclose(
            tx.weights, np.linalg.norm(ch.h[tx.sel - 1, :], axis=1), atol=1e-12
        )

    def test_strongest_slot_gets_smallest_ratio(self):
        bits, ch = self.make_inputs()
        tx = encode(bits, ch, CFG, TABLE)
        strongest = int(np.argmax(tx.weights)) + 1
        assert tx.order_desc[0] == strongest  # paired with alpha[0] = min

    def test_wrong_bit_count_raises(self):
        _, ch = self.make_inputs()
        with pytest.raises(ValueError, match="bits"):
            encode(np.zeros(7, dtype=int), ch, CFG, TABLE)

    def test_zero_index_bits_select_row_zero(self):
        _, ch = self.make_inputs()
        bits = np.zeros(CFG.block_len, dtype=int)
        tx = encode(bits, ch, CFG, TABLE)
        np.testing.assert_array_equal(tx.sel, [1, 2])
        # both symbols are +1 (bit 0), so x = sqrt(.2) + sqrt(.8)
        assert tx.x == pytest.approx(1.3416407864998738)

    def test_qpsk_encode(self):
        cfg = dataclasses.replace(CFG, mod_order=4)
        qpsk = make_constellation(4)
        rng = trial_rng(7, 1)
        bits = rng.integers(0, 2, size=cfg.block_len)
        ch = sample_channel(cfg.n_rx, cfg.n_refl, rng)
        tx = encode(bits, ch, cfg, TABLE)
        symbols = np.array(
            [
                qpsk.points[bits_to_int(bits[cfg.l1 + (j - 1) * 2 : cfg.l1 + j * 2])]
                for j in (1, 2)
            ]
        )
        expected = superpose(symbols, tx.order_desc, cfg.alpha)
        assert tx.x == expected  # bit for bit
