"""Single-antenna baseline tests."""

import dataclasses

import numpy as np
import pytest

from irsmas.baselines import (
    baseline_config,
    baseline_values,
    sas_detect_batch,
    sas_encode_batch,
    sas_gains,
)
from irsmas.channel import sample_channel, trial_rng
from irsmas.core import SystemConfig, bits_to_int, validate_config
from irsmas.detection import mac_ml
from irsmas.harness import bits_per_tx, check_run, run_trial
from irsmas.transmitter import aligning_phases
from reference import direct_sas_detect, make_sas_trial

SAS_CFG = SystemConfig(n_rx=16, n_sel=1, alpha=(1.0,))


def sas_cfg(**fields) -> SystemConfig:
    return dataclasses.replace(SAS_CFG, **fields)


def encode_one(bits, h, cfg, scheme):
    """``sas_encode_batch`` on a stack of one: (x, theta)."""
    values = baseline_values(scheme, cfg.mod_order, cfg.sym_energy)
    x, theta = sas_encode_batch(np.asarray(bits)[None], aligning_phases(h[None]), values,
                                bits_per_tx(cfg, scheme))
    return x[0], theta[0]


def detect_one(y, h, cfg, scheme):
    """``sas_detect_batch`` on a stack of one: (bits, distance)."""
    values = baseline_values(scheme, cfg.mod_order, cfg.sym_energy)
    gains = sas_gains(h[None], aligning_phases(h[None]))
    bits, distance = sas_detect_batch(y[None], gains, values, bits_per_tx(cfg, scheme))
    return bits[0], distance[0]


class TestScheme:
    def test_capacities(self):
        assert bits_per_tx(SAS_CFG, "sas-ssk") == 4
        assert bits_per_tx(sas_cfg(mod_order=2), "sas-sm") == 5
        assert bits_per_tx(sas_cfg(mod_order=4), "sas-sm") == 6
        # the selection fields are pinned, whatever the config says
        assert bits_per_tx(SystemConfig(n_rx=16, mod_order=4), "sas-sm") == 6
        assert bits_per_tx(SystemConfig(n_rx=16, n_sel=3), "sas-ssk") == 4

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="n_rx: must be a power of two"):
            validate_config(sas_cfg(n_rx=12), "sas-ssk")
        # run_trial validates too, rather than searching 12 targets with 3 bits
        with pytest.raises(ValueError, match="n_rx: must be a power of two"):
            run_trial(SystemConfig(n_rx=12), "sas-ssk", "ml", 0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="scheme: expected one of"):
            check_run("sas-both")
        with pytest.raises(ValueError, match="scheme: expected one of"):
            bits_per_tx(SAS_CFG, "both")

    def test_baseline_config_pins_one_full_power_slot(self):
        cfg = SystemConfig(n_rx=16, n_sel=3, alpha=(0.1, 0.3, 0.6), n_iters=5)
        assert baseline_config(cfg) == dataclasses.replace(cfg, n_sel=1, alpha=(1.0,))
        assert baseline_config(SAS_CFG) is SAS_CFG

    def test_values_are_cached_and_read_only(self):
        values = baseline_values("sas-sm", 4, 2.0)
        assert baseline_values("sas-sm", 4, 2.0) is values
        assert not values.flags.writeable
        np.testing.assert_array_equal(baseline_values("sas-ssk", 4, 2.0), [2.0])


class TestEncode:
    def test_all_reflectors_align_to_target(self):
        bits, ch, *_ = make_sas_trial(SAS_CFG, "sas-ssk", 0)
        x, theta = encode_one(bits, ch.h, SAS_CFG, "sas-ssk")
        target = bits_to_int(bits) + 1
        aligned = ch.h[target - 1, :] * theta
        np.testing.assert_allclose(aligned.imag, 0, atol=1e-12)
        assert (aligned.real >= 0).all()
        assert np.max(np.abs(np.abs(theta) - 1.0)) <= 1e-12

    def test_ssk_sends_bare_energy(self):
        cfg = sas_cfg(sym_energy=1.0)
        bits, ch, *_ = make_sas_trial(cfg, "sas-ssk", 1)
        x, _ = encode_one(bits, ch.h, cfg, "sas-ssk")
        assert x == 1.0

    def test_target_is_leading_bits(self):
        ch = sample_channel(16, 64, trial_rng(0, 2))
        x, theta = encode_one([1, 0, 1, 1, 0], ch.h, SAS_CFG, "sas-sm")
        np.testing.assert_array_equal(theta, aligning_phases(ch.h)[0b1011])
        assert x == pytest.approx(1.0)  # symbol bit 0 -> +1

    @pytest.mark.parametrize("mode,order", [("ssk", 2), ("sm", 2), ("sm", 16)])
    def test_batch_matches_scalar(self, mode, order):
        cfg, scheme = sas_cfg(mod_order=order, n_refl=37), "sas-" + mode
        trials = [make_sas_trial(cfg, scheme, trial) for trial in range(20)]
        bits = np.stack([t[0] for t in trials])
        h = np.stack([t[1].h for t in trials])
        values = baseline_values(scheme, cfg.mod_order, cfg.sym_energy)
        x, theta = sas_encode_batch(bits, aligning_phases(h), values, bits_per_tx(cfg, scheme))
        for k, (_, _, x_ref, theta_ref, _, _) in enumerate(trials):
            assert x[k] == x_ref
            np.testing.assert_array_equal(theta[k], theta_ref)


class TestDetect:
    @pytest.mark.parametrize("mode,order", [("ssk", 2), ("sm", 2), ("sm", 4)])
    def test_noiseless_round_trip(self, mode, order):
        cfg, scheme = sas_cfg(mod_order=order, seed=4), "sas-" + mode
        for trial in range(100):
            bits, ch, *_, y = make_sas_trial(cfg, scheme, trial)
            got, distance = detect_one(y, ch.h, cfg, scheme)
            np.testing.assert_array_equal(got, bits)
            assert distance <= 1e-12
            ref_bits, _ = direct_sas_detect(y, ch, cfg, scheme)
            np.testing.assert_array_equal(ref_bits, bits)

    def test_noisy_errors_recoverable_at_high_snr(self):
        cfg = sas_cfg(mod_order=2, seed=5, noise_sigma=0.5)
        wrong = 0
        for trial in range(100):
            bits, ch, *_, y = make_sas_trial(cfg, "sas-sm", trial)
            got, _ = detect_one(y, ch.h, cfg, "sas-sm")
            wrong += int(not np.array_equal(got, bits))
        assert wrong == 0  # 64 aligned reflectors vs sigma=0.5: huge margin


class TestMac:
    def test_frozen_counts_for_64_reflectors(self):
        base = 8 * 16 * 64 + 10 * 16 - 1  # 8351
        counts = [mac_ml(cfg, bits_per_tx(cfg, scheme)) for cfg, scheme in
                  [(SAS_CFG, "sas-ssk"), (sas_cfg(mod_order=2), "sas-sm"),
                   (sas_cfg(mod_order=4), "sas-sm")]]
        assert counts == [16 * base, 32 * base, 64 * base] == [133_616, 267_232, 534_464]

    def test_detect_reports_same_count(self):
        assert run_trial(SAS_CFG, "sas-ssk", "ml", 6).mac == mac_ml(SAS_CFG, 4) == 133_616
        # the sm baseline is billed exactly as ml at n_sel 1
        assert run_trial(SAS_CFG, "sas-sm", "ml", 6).mac == mac_ml(SAS_CFG) == 267_232
