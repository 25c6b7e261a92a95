"""Channel model tests: statistics, streams, propagation, decomposition,
alignment gain."""

import numpy as np
import pytest

from irsmas.channel import (
    ChannelMatrix,
    TrialStreams,
    add_noise,
    alignment_gain,
    decompose_received,
    draw_trials,
    propagate,
    sample_channel,
    trial_rng,
)
from irsmas.core import SystemConfig
from irsmas.transmitter import reflector_phases
from reference import draw_trial

CFG = SystemConfig()


class TestSampleChannel:
    def test_moments(self):
        rng = np.random.default_rng(42)
        h = sample_channel(100, 1000, rng).h  # 1e5 entries
        assert abs(np.mean(h.real)) <= 0.02 and abs(np.mean(h.imag)) <= 0.02
        assert abs(np.var(h.real) - 0.5) <= 0.01
        assert abs(np.var(h.imag) - 0.5) <= 0.01
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) <= 0.02

    def test_magnitude_is_rayleigh(self):
        rng = np.random.default_rng(7)
        h = sample_channel(100, 1000, rng).h
        assert abs(np.mean(np.abs(h)) - np.sqrt(np.pi) / 2) <= 0.01

    def test_beta_is_amplitude(self):
        ch = sample_channel(4, 8, np.random.default_rng(0))
        np.testing.assert_array_equal(ch.beta, np.abs(ch.h))


class TestTrialRng:
    def test_deterministic(self):
        a = trial_rng(3, 17).standard_normal(8)
        b = trial_rng(3, 17).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams(self):
        a = trial_rng(3, 17).standard_normal(8)
        b = trial_rng(3, 18).standard_normal(8)
        c = trial_rng(4, 17).standard_normal(8)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_index_outside_the_counter_rejected(self):
        streams = TrialStreams(3)
        for trial in (-1, 2**64):
            with pytest.raises(ValueError, match=r"^trial_index:"):
                trial_rng(3, trial)
            with pytest.raises(ValueError, match=r"^trial_index:"):
                streams.start(trial)
        last = trial_rng(3, 2**64 - 1).standard_normal(4)
        streams.start(2**64 - 1)
        np.testing.assert_array_equal(streams.rng.standard_normal(4), last)

    @pytest.mark.parametrize("trial", [3.0, 3.5, np.float64(3.0), "3"])
    def test_non_integer_index_rejected(self, trial):
        with pytest.raises(ValueError, match=r"^trial_index:"):
            trial_rng(3, trial)
        with pytest.raises(ValueError, match=r"^trial_index:"):
            TrialStreams(3).start(trial)

    @pytest.mark.parametrize("trial", [0, 5, np.int64(5), np.uint64(2**64 - 1), 2**64 - 1])
    def test_stream_is_philox_at_the_trial_counter(self, trial):
        # a trial's stream address: key seed, counter (0, 0, 0, trial index)
        counter = np.array([0, 0, 0, trial], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=7, counter=counter))
        np.testing.assert_array_equal(trial_rng(7, trial).standard_normal(9),
                                      want.standard_normal(9))


class TestDrawTrials:
    """``draw_trials`` re-points one generator at each trial's stream; every
    draw must equal the trial's own ``trial_rng`` stream, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("trials", [range(0, 6), range(2**32 - 3, 2**32 + 3),
                                        range(1000, 1003), range(2**64 - 3, 2**64)])
    # an odd count leaves the reference generator a cached 32-bit half
    @pytest.mark.parametrize("n_bits", [1, 7, 8])
    def test_matches_per_trial_streams(self, seed, trials, n_bits):
        n_rx, n_refl = 3, 5
        bits, h, noise = draw_trials(TrialStreams(seed), trials, n_bits, n_rx, n_refl)
        for k, trial_index in enumerate(trials):
            want = draw_trial(seed, trial_index, n_bits, n_rx, n_refl)
            np.testing.assert_array_equal(bits[k], want[0])
            np.testing.assert_array_equal(h[k], want[1])
            np.testing.assert_array_equal(noise[k], want[2])

    def test_streams_serve_many_chunks(self):
        # one generator, built once, re-pointed at every trial of every chunk
        seed, n_bits, n_rx, n_refl = 2**63 + 5, 7, 3, 5
        streams = TrialStreams(seed)
        for trials in (range(40, 44), range(2**32 - 1, 2**32 + 2), range(3)):
            got = draw_trials(streams, trials, n_bits, n_rx, n_refl)
            want = draw_trials(TrialStreams(seed), trials, n_bits, n_rx, n_refl)
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part, want_part)


class TestPropagate:
    def test_phase_cancellation_example(self):
        ch = ChannelMatrix(np.array([[2.0 * np.exp(1j * np.pi / 3)]]))
        theta = np.array([np.exp(-1j * np.pi / 3)])
        y = propagate(ch, theta, 1.0, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(y, [2.0], atol=1e-12)

    def test_zero_input(self):
        rng = np.random.default_rng(1)
        ch = sample_channel(4, 8, rng)
        theta = np.ones(8, dtype=complex)
        y = propagate(ch, theta, 0.0, 0.0, rng)
        np.testing.assert_array_equal(y, np.zeros(4, dtype=complex))

    def test_noise_variance(self):
        rng = np.random.default_rng(2)
        ch = ChannelMatrix(np.zeros((200, 1), dtype=complex))
        sigma = 1.7
        samples = np.concatenate(
            [propagate(ch, np.ones(1, complex), 0.0, sigma, rng) for _ in range(500)]
        )
        assert abs(np.mean(np.abs(samples) ** 2) - sigma**2) <= 0.02 * sigma**2

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        ch = sample_channel(4, 8, rng)
        with pytest.raises(ValueError, match="reflectors"):
            propagate(ch, np.ones(7, complex), 1.0, 0.0, rng)

    def test_noiseless_reproducible(self):
        ch = sample_channel(4, 8, trial_rng(0, 0))
        theta = reflector_phases(ch.h[:2, :])
        y1 = propagate(ch, theta, 1 + 1j, 0.0, trial_rng(0, 1))
        y2 = propagate(ch, theta, 1 + 1j, 0.0, trial_rng(0, 1))
        np.testing.assert_array_equal(y1, y2)

    def test_noise_is_add_noise_of_the_draws(self):
        # propagate draws the real, then the imaginary noise parts and
        # scales them as the engine does
        ch = sample_channel(4, 8, trial_rng(0, 0))
        theta = reflector_phases(ch.h[:2, :])
        y = propagate(ch, theta, 0.3 - 1j, 2.5, trial_rng(0, 1))
        rng = trial_rng(0, 1)
        noise = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_array_equal(y, add_noise(ch.h @ theta * (0.3 - 1j), noise, 2.5))


class TestDecompose:
    def test_parts_sum_to_received_sample(self):
        for trial in range(50):
            ch = sample_channel(CFG.n_rx, CFG.n_refl, trial_rng(11, trial))
            sel = np.array([3, 9])
            theta = reflector_phases(ch.h[sel - 1, :])
            x = 0.3 - 1.1j
            y = ch.h @ theta * x
            for slot in (1, 2):
                c, nc, lo = decompose_received(ch, theta, x, sel, slot)
                assert abs((c + nc + lo) - y[sel[slot - 1] - 1]) <= 1e-9

    def test_single_antenna_has_no_interference(self):
        ch = sample_channel(4, 8, trial_rng(5, 0))
        sel = np.array([2])
        theta = reflector_phases(ch.h[sel - 1, :])
        c, nc, lo = decompose_received(ch, theta, 1.0, sel, 1)
        assert nc == 0j and lo == 0j
        assert c == pytest.approx(np.sum(np.abs(ch.h[1, :])))

    def test_zeroed_other_block_kills_interference(self):
        ch = sample_channel(4, 8, trial_rng(6, 0))
        h = ch.h.copy()
        h[0, 4:] = 0.0  # block 2 (slots of antenna 2) contributes nothing at antenna 1
        ch = ChannelMatrix(h)
        sel = np.array([1, 2])
        theta = reflector_phases(ch.h[sel - 1, :])
        _, nc, _ = decompose_received(ch, theta, 1.0, sel, 1)
        assert nc == 0j

    def test_constructive_is_beta_sum(self):
        ch = sample_channel(6, 12, trial_rng(8, 2))
        sel = np.array([1, 4])
        theta = reflector_phases(ch.h[sel - 1, :])
        x = 2.0
        c, _, _ = decompose_received(ch, theta, x, sel, 2)
        assert c == pytest.approx(np.sum(np.abs(ch.h[3, 6:])) * x)

    def test_slot_out_of_range(self):
        ch = sample_channel(4, 8, trial_rng(9, 0))
        theta = np.ones(8, complex)
        with pytest.raises(IndexError):
            decompose_received(ch, theta, 1.0, np.array([1, 2]), 3)
        with pytest.raises(IndexError):
            decompose_received(ch, theta, 1.0, np.array([1, 2]), 0)


class TestSnr:
    """``alignment_gain``: the aligned signal energy over the unaligned one."""

    def test_coherent_gain_unit_magnitudes(self):
        # single antenna, every |h| = 1: the aligned energy is N^2, the
        # unaligned one |sum conj(h)|^2
        rng = np.random.default_rng(4)
        n = 16
        h = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(1, n)))
        ch = ChannelMatrix(np.vstack([h, sample_channel(1, n, rng).h]))
        got = alignment_gain(ch, np.array([1]))
        assert got == pytest.approx(n**2 / abs(np.sum(h)) ** 2)

    def test_alignment_maximizes_block_gain(self):
        rng = np.random.default_rng(5)
        ch = sample_channel(2, 32, rng)
        aligned = np.abs(np.sum(np.abs(ch.h[0, :])))
        for _ in range(50):
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 32))
            assert aligned >= abs(np.sum(ch.h[0, :] * phases)) - 1e-9

    def test_aligned_exceeds_unaligned_on_average(self):
        gains = [alignment_gain(sample_channel(CFG.n_rx, CFG.n_refl, trial_rng(21, trial)),
                                np.array([1, 2]))
                 for trial in range(60)]
        assert np.median(gains) > 5.0

    def test_single_reflector_unaligned(self):
        # one reflector, one antenna: aligning it changes no magnitude
        ch = ChannelMatrix(np.array([[1.5 * np.exp(0.4j)]]))
        assert alignment_gain(ch, np.array([1])) == pytest.approx(1.0)

    def test_two_antennas_of_constructed_blocks(self):
        # antenna 1 sees block 1 as 1, 1 and block 2 as 0, 0; antenna 2 sees
        # block 1 as 0, 0 and block 2 as 1j, -1.  Aligned: 2^2 at each
        # antenna.  Unaligned: 2 |1 + 1 + conj(1j) + conj(-1)|^2 = 2 |1 - 1j|^2.
        ch = ChannelMatrix(np.array([[1, 1, 0, 0], [0, 0, 1j, -1]]))
        assert alignment_gain(ch, np.array([1, 2])) == pytest.approx(8 / 4)

    def test_gain_grows_with_reflector_count(self):
        # coherent blocks add N^2, the unaligned sums only N
        means = [np.mean([alignment_gain(sample_channel(CFG.n_rx, n_refl, trial_rng(31, t)),
                                         np.array([1, 2]))
                          for t in range(200)])
                 for n_refl in (16, 64)]
        assert means[1] > 2 * means[0]
