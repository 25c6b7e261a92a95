"""Transmit-side tests: sorting, superposition, reflector phases, encoding."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from irsmas.channel import trial_rng
from irsmas.core import SystemConfig, make_constellation
from irsmas.detection import cross_gains
from irsmas.rac import build_rac_table, rac_row
from irsmas.transmitter import (
    aligning_phases,
    encode_batch,
    gain_index,
    reflector_blocks,
    reflector_phases,
    row_norms,
    slot_order,
)
from reference import bits_to_int, sample_channel
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
        h = sample_channel(12, 64, self.rng())
        theta = reflector_phases(h[:2, :])
        assert np.max(np.abs(np.abs(theta) - 1.0)) <= 1e-12
        h = np.stack([sample_channel(16, 64, trial_rng(5, t)) for t in range(16)])
        assert np.max(np.abs(np.abs(aligning_phases(h)) - 1.0)) <= 4 * np.finfo(float).eps

    def test_aligning_phases_match_exponential_form(self):
        # conj(h)/|h| is exp(-j arg h) up to rounding, also for tiny and huge entries
        h = np.stack([sample_channel(16, 64, trial_rng(6, t)) for t in range(16)])
        h[0] *= 1e-300
        h[1] *= 1e300
        want = np.exp(-1j * np.angle(h))
        assert np.max(np.abs(aligning_phases(h) - want)) <= 1e-15

    def test_zero_entries_give_exactly_one(self):
        h = sample_channel(4, 8, self.rng())
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
            block = reflector_phases(h[0, :2])
            cross, _ = cross_gains(h, theta, 2)
        assert np.all(theta == 1) and np.all(block == 1) and np.all(cross == 0)
        assert cross.shape == (3, 3, 4, 4)  # two blocks of 4 and a leftover one

    def test_block_alignment_gain(self):
        # within its own block, the product h * theta must be real positive
        # and equal to the channel magnitude
        h = sample_channel(12, 64, self.rng())
        sel_channel = h[[2, 7], :]
        theta = reflector_phases(sel_channel)
        own0 = sel_channel[0, :32] * theta[:32]
        own1 = sel_channel[1, 32:] * theta[32:]
        np.testing.assert_allclose(own0.imag, 0, atol=1e-12)
        np.testing.assert_allclose(own1.imag, 0, atol=1e-12)
        np.testing.assert_allclose(own0.real, np.abs(sel_channel[0, :32]), atol=1e-12)
        np.testing.assert_allclose(own1.real, np.abs(sel_channel[1, 32:]), atol=1e-12)

    def test_leftover_aligned_to_first_row(self):
        # 65 reflectors, 2 slots: delta=32, one leftover aligned to row 0
        h = sample_channel(4, 65, self.rng())
        sel_channel = h[:2, :]
        theta = reflector_phases(sel_channel)
        tail = sel_channel[0, 64] * theta[64]
        assert abs(tail.imag) <= 1e-12 and tail.real > 0

    @pytest.mark.parametrize("n_rx,n_sel,n_refl", [(12, 2, 64), (8, 3, 31), (5, 1, 7)])
    def test_row_phases_match_per_row_phases(self, n_rx, n_sel, n_refl):
        # a stack of 3 trials, each with every row of its table, tail reflectors included
        table = build_rac_table(n_rx, n_sel)
        h = np.stack([sample_channel(n_rx, n_refl, trial_rng(9, t)) for t in range(3)])
        phases, index = aligning_phases(h), gain_index(n_rx, n_sel, n_refl)
        blocks = [block for block, _ in reflector_blocks(n_refl, n_sel)]
        for t in range(3):
            for r, row in enumerate(table.rows):
                # block k of row r takes the phases of antenna index[k, r]
                theta = np.concatenate([phases[t, a, block]
                                        for block, a in zip(blocks, index[:, r])])
                want = reference_reflector_phases(h[t, row - 1], n_refl // n_sel)
                np.testing.assert_array_equal(theta, want)

    @pytest.mark.parametrize("n_rx,n_sel,n_refl", [(12, 2, 64), (8, 3, 64), (5, 4, 4), (5, 1, 7)])
    def test_gain_index_follows_phase_index(self, n_rx, n_sel, n_refl):
        # block k of every row gathers its phases from the antenna index[k]:
        # the row's antenna of the slot that reflector_blocks gives block k
        index = gain_index(n_rx, n_sel, n_refl)
        assert gain_index(n_rx, n_sel, n_refl) is index and not index.flags.writeable
        assert len(index) == n_sel + (n_refl % n_sel > 0)  # a leftover block is the last
        rows = build_rac_table(n_rx, n_sel).rows
        blocks = reflector_blocks(n_refl, n_sel)
        # a leftover block only when n_sel does not divide n_refl
        assert [block.stop - block.start for block, _ in blocks] == (
            [n_refl // n_sel] * n_sel + [n_refl % n_sel] * (n_refl % n_sel > 0))
        for antenna, (_, slot) in zip(index, blocks):
            np.testing.assert_array_equal(antenna, rows[:, slot] - 1)

    def test_aligned_gain_beats_random(self):
        # the beamforming gain at the aligned antenna dwarfs a random antenna
        h = sample_channel(12, 64, self.rng())
        theta = reflector_phases(h[:1, :])
        gains = np.abs(h @ theta)
        assert gains[0] > 3 * gains[1:].max()


class TestRowNorms:
    """``row_norms`` orders the slots, so it must equal the reference's
    ``np.linalg.norm`` bit for bit, into a buffer or not."""

    @pytest.mark.parametrize("shape", [(1, 12, 64), (32, 12, 64), (7, 5, 37), (3, 64, 1)])
    def test_equal_to_linalg_norm(self, shape):
        rng = np.random.default_rng(sum(shape))
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h[0, 0] = 0  # a dead antenna
        h[-1, -1, 0] = 1e-300  # squares underflow
        h[-1, 0] *= 1e150  # squares near the top of the range
        out = np.full((shape[0] + 2, *shape[1:]), np.nan, dtype=complex)[1:-1]
        want = np.linalg.norm(h, axis=-1)
        for got in (row_norms(h), row_norms(h, out=out)):
            np.testing.assert_array_equal(got, want)


def encode_one(bits, h, cfg):
    """``encode_batch`` of one block on channel h (a stack of one), and what
    ``slot_order`` says of the row it sent: (x, antennas, weights, slots by
    descending weight, 1-based)."""
    table = build_rac_table(cfg.n_rx, cfg.n_sel)
    norms = row_norms(h[None])
    p, _, x = encode_batch(np.asarray(bits)[None], norms, cfg, table)
    (sel,), (weights,), (order,) = slot_order(p, norms, table)
    return x[0], sel, weights, order + 1


class TestEncode:
    def make_inputs(self, seed=0, trial=5):
        rng = trial_rng(seed, trial)
        bits = rng.integers(0, 2, size=CFG.block_len)
        return bits, sample_channel(CFG.n_rx, CFG.n_refl, rng)

    def test_selected_row_matches_index_bits(self):
        bits, h = self.make_inputs()
        _, sel, _, _ = encode_one(bits, h, CFG)
        p = bits_to_int(bits[: CFG.l1])
        np.testing.assert_array_equal(sel, rac_row(TABLE, p))

    def test_transmit_scalar_matches_manual_composition(self):
        bits, h = self.make_inputs()
        x, _, _, order_desc = encode_one(bits, h, CFG)
        # rebuild by hand: slot j's symbol from its own bit block, power
        # ratio by descending-weight position
        symbols = np.array(
            [
                BPSK.points[bits_to_int(bits[CFG.l1 + (j - 1) : CFG.l1 + j])]
                for j in (1, 2)
            ]
        )
        expected = superpose(symbols, order_desc, CFG.alpha)
        assert x == expected  # bit for bit

    def test_weights_are_row_norms(self):
        bits, h = self.make_inputs()
        _, sel, weights, _ = encode_one(bits, h, CFG)
        np.testing.assert_allclose(weights, np.linalg.norm(h[sel - 1, :], axis=1), atol=1e-12)

    def test_strongest_slot_gets_smallest_ratio(self):
        bits, h = self.make_inputs()
        _, _, weights, order_desc = encode_one(bits, h, CFG)
        strongest = int(np.argmax(weights)) + 1
        assert order_desc[0] == strongest  # paired with alpha[0] = min

    def test_zero_index_bits_select_row_zero(self):
        _, h = self.make_inputs()
        bits = np.zeros(CFG.block_len, dtype=int)
        x, sel, _, _ = encode_one(bits, h, CFG)
        np.testing.assert_array_equal(sel, [1, 2])
        # both symbols are +1 (bit 0), so x = sqrt(.2) + sqrt(.8)
        assert x == pytest.approx(1.3416407864998738)

    def test_qpsk_encode(self):
        cfg = dataclasses.replace(CFG, mod_order=4)
        qpsk = make_constellation(4)
        rng = trial_rng(7, 1)
        bits = rng.integers(0, 2, size=cfg.block_len)
        h = sample_channel(cfg.n_rx, cfg.n_refl, rng)
        x, _, _, order_desc = encode_one(bits, h, cfg)
        symbols = np.array(
            [
                qpsk.points[bits_to_int(bits[cfg.l1 + (j - 1) * 2 : cfg.l1 + j * 2])]
                for j in (1, 2)
            ]
        )
        expected = superpose(symbols, order_desc, cfg.alpha)
        assert x == expected  # bit for bit
