"""Single-antenna baseline tests."""

import numpy as np
import pytest

from irsmas.baselines import SasScheme, sas_detect_batch, sas_encode_batch, sas_mac
from irsmas.channel import sample_channel, trial_rng
from irsmas.core import SystemConfig, bits_to_int
from irsmas.harness import run_trial
from irsmas.transmitter import aligning_phases
from reference import make_sas_trial as make_trial


def encode_one(bits, h, scheme):
    """``sas_encode_batch`` on a stack of one: (x, theta)."""
    x, theta = sas_encode_batch(np.asarray(bits)[None], aligning_phases(h[None]), scheme)
    return x[0], theta[0]


def detect_one(y, h, scheme):
    """``sas_detect_batch`` on a stack of one: (bits, distance)."""
    bits, distance = sas_detect_batch(y[None], h[None], aligning_phases(h[None]), scheme)
    return bits[0], distance[0]


class TestScheme:
    def test_capacities(self):
        assert SasScheme(mode="ssk", n_rx=16).bits_per_tx == 4
        assert SasScheme(mode="sm", n_rx=16, mod_order=2).bits_per_tx == 5
        assert SasScheme(mode="sm", n_rx=16, mod_order=4).bits_per_tx == 6

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            SasScheme(mode="ssk", n_rx=12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SasScheme(mode="both", n_rx=16)


class TestEncode:
    def test_all_reflectors_align_to_target(self):
        scheme = SasScheme(mode="ssk", n_rx=16)
        bits, ch, *_ = make_trial(scheme, 0)
        x, theta = encode_one(bits, ch.h, scheme)
        target = bits_to_int(bits) + 1
        aligned = ch.h[target - 1, :] * theta
        np.testing.assert_allclose(aligned.imag, 0, atol=1e-12)
        assert (aligned.real >= 0).all()
        assert np.max(np.abs(np.abs(theta) - 1.0)) <= 1e-12

    def test_ssk_sends_bare_energy(self):
        scheme = SasScheme(mode="ssk", n_rx=16, sym_energy=1.0)
        bits, ch, *_ = make_trial(scheme, 1)
        x, _ = encode_one(bits, ch.h, scheme)
        assert x == 1.0

    def test_target_is_leading_bits(self):
        scheme = SasScheme(mode="sm", n_rx=16, mod_order=2)
        ch = sample_channel(16, 64, trial_rng(0, 2))
        x, theta = encode_one([1, 0, 1, 1, 0], ch.h, scheme)
        np.testing.assert_array_equal(theta, aligning_phases(ch.h)[0b1011])
        assert x == pytest.approx(1.0)  # symbol bit 0 -> +1

    @pytest.mark.parametrize("mode,order", [("ssk", 2), ("sm", 2), ("sm", 16)])
    def test_batch_matches_scalar(self, mode, order):
        scheme = SasScheme(mode=mode, n_rx=16, mod_order=order)
        trials = [make_trial(scheme, trial, n_refl=37) for trial in range(20)]
        bits = np.stack([t[0] for t in trials])
        h = np.stack([t[1].h for t in trials])
        x, theta = sas_encode_batch(bits, aligning_phases(h), scheme)
        for k, (_, _, x_ref, theta_ref, _, _) in enumerate(trials):
            assert x[k] == x_ref
            np.testing.assert_array_equal(theta[k], theta_ref)


class TestDetect:
    @pytest.mark.parametrize("mode,order", [("ssk", 2), ("sm", 2), ("sm", 4)])
    def test_noiseless_round_trip(self, mode, order):
        scheme = SasScheme(mode=mode, n_rx=16, mod_order=order)
        for trial in range(100):
            bits, ch, *_, y = make_trial(scheme, trial, seed=4)
            got, distance = detect_one(y, ch.h, scheme)
            np.testing.assert_array_equal(got, bits)
            assert distance <= 1e-12

    def test_noisy_errors_recoverable_at_high_snr(self):
        scheme = SasScheme(mode="sm", n_rx=16, mod_order=2)
        wrong = 0
        for trial in range(100):
            bits, ch, *_, y = make_trial(scheme, trial, seed=5, sigma=0.5)
            got, _ = detect_one(y, ch.h, scheme)
            wrong += int(not np.array_equal(got, bits))
        assert wrong == 0  # 64 aligned reflectors vs sigma=0.5: huge margin


class TestMac:
    def test_frozen_counts_for_64_reflectors(self):
        base = 8 * 16 * 64 + 10 * 16 - 1  # 8351
        assert sas_mac(SasScheme(mode="ssk", n_rx=16), 64) == 16 * base == 133_616
        assert sas_mac(SasScheme(mode="sm", n_rx=16, mod_order=2), 64) == 32 * base == 267_232
        assert sas_mac(SasScheme(mode="sm", n_rx=16, mod_order=4), 64) == 64 * base == 534_464

    def test_detect_reports_same_count(self):
        scheme = SasScheme(mode="ssk", n_rx=16)
        cfg = SystemConfig(n_rx=16, n_sel=1, alpha=(1.0,))
        assert run_trial(cfg, "sas-ssk", "ml", 6).mac == sas_mac(scheme, 64)
