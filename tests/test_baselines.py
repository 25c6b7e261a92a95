"""Single-antenna baseline tests: a baseline is the mas engine at n_sel 1."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from irsmas.baselines import baseline_config
from irsmas.channel import ChannelMatrix, sample_channel, trial_rng
from irsmas.cli import parse_run_spec
from irsmas.core import (
    MOD_ORDERS,
    SystemConfig,
    make_constellation,
    superposition_axes,
    validate_config,
)
from irsmas.detection import cross_gains, detected_bits, mac_ml, ml_detect_batch
from irsmas.harness import (
    _block_counts,
    bits_per_tx,
    check_run,
    run_sweep,
    run_trial,
    scheme_config,
)
from irsmas.rac import build_rac_table
from irsmas.transmitter import aligning_phases, encode, encode_batch, reflector_phases
from reference import bits_to_int, direct_sas_detect, make_sas_trial

SAS_CFG = SystemConfig(n_rx=16, n_sel=1, alpha=(1.0,))
SCHEMES = ("mas", "sas-sm", "sas-ssk")


def sas_cfg(**fields) -> SystemConfig:
    return dataclasses.replace(SAS_CFG, **fields)


def encode_one(bits, h, cfg, scheme):
    """``encode`` under the baseline's pin: (x, theta)."""
    cfg = scheme_config(cfg, scheme, "ml")
    tx = encode(bits, ChannelMatrix(h), cfg, build_rac_table(cfg.n_rx, cfg.n_sel))
    return tx.x, tx.theta


def detect_one(y, h, cfg, scheme):
    """``ml_detect_batch`` on a stack of one, under the baseline's pin:
    (bits, distance)."""
    cfg = scheme_config(cfg, scheme, "ml")
    table = build_rac_table(cfg.n_rx, cfg.n_sel)
    p_hat, labels, distance = ml_detect_batch(
        y[None], *cross_gains(h[None], aligning_phases(h[None]), cfg.n_sel),
        np.linalg.norm(h[None], axis=-1), cfg, table)
    return detected_bits(p_hat, labels, cfg)[0], distance[0]


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
        assert baseline_config(cfg, "mas") is cfg

    def test_ssk_pins_the_one_value_alphabet(self):
        cfg = SystemConfig(n_rx=16, n_sel=3, alpha=(0.1, 0.3, 0.6), mod_order=16)
        ssk = baseline_config(cfg, "sas-ssk")
        assert ssk == dataclasses.replace(cfg, n_sel=1, alpha=(1.0,), mod_order=1)
        assert baseline_config(ssk, "sas-ssk") is ssk
        assert (ssk.bits_per_sym, ssk.l2, ssk.block_len) == (0, 0, 4)

    def test_values_are_cached_and_read_only(self):
        # a baseline transmits the superposition set of its pin: one
        # constellation point (sas-sm), or 1 alone (sas-ssk)
        values = superposition_axes(4, (1.0,)).values
        assert superposition_axes(4, (1.0,)).values is values
        assert not values.flags.writeable
        np.testing.assert_array_equal(values, make_constellation(4).points)
        ssk = baseline_config(sas_cfg(mod_order=4), "sas-ssk")
        np.testing.assert_array_equal(superposition_axes(ssk.mod_order, ssk.alpha).values, [1.0])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_gate_passes_its_own_config_again(self, scheme):
        cfg = SystemConfig(n_rx=16, mod_order=4, n_trials=7, seed=3)
        once = scheme_config(cfg, scheme, "ml")
        assert scheme_config(once, scheme, "ml") == once
        assert run_sweep(once, scheme, "ml", workers=1) == run_sweep(cfg, scheme, "ml",
                                                                     workers=1)


class TestAlphabetStaysInternal:
    """The order 1 of the sas-ssk pin is no modulation any caller can ask for."""

    BAD_ORDERS = (0, 1, 3, 8, 32, 128, -2)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_validate_config_rejects_every_other_order(self, scheme):
        for order in self.BAD_ORDERS:
            with pytest.raises(ValueError, match="mod_order"):
                validate_config(sas_cfg(mod_order=order), scheme)
        for order in MOD_ORDERS.values():
            validate_config(sas_cfg(mod_order=order), scheme)

    @pytest.mark.parametrize("scheme", ["mas", "sas-sm"])
    def test_runs_reject_the_one_value_alphabet(self, scheme):
        cfg = SystemConfig(n_rx=16, mod_order=1, n_trials=2)
        with pytest.raises(ValueError, match="mod_order"):
            run_trial(cfg, scheme, "ml", 0)
        with pytest.raises(ValueError, match="mod_order"):
            run_sweep(cfg, scheme, "ml", workers=1)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cli_and_config_file_reject_every_other_order(self, scheme, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        for name in ("1", "none", "ssk", "qam8", "qam1", str(MOD_ORDERS["qpsk"])):
            path.write_text(f"scheme={scheme}\nmod={name}\n")
            for argv in (["--scheme", scheme, "--nr", "16", "--mod", name],
                         ["--config", str(path), "--nr", "16"]):
                with pytest.raises(SystemExit) as exc:
                    parse_run_spec(argv)
                assert exc.value.code == 2
                assert "mod" in capsys.readouterr().err

    def test_one_value_alphabet_builds_without_a_warning(self):
        points = make_constellation(1).points
        np.testing.assert_array_equal(points, [1.0])
        assert make_constellation(1).bits_per_sym == 0
        assert not points.flags.writeable

    @pytest.mark.parametrize("order", sorted(MOD_ORDERS.values()))
    def test_ssk_rows_say_no_modulation_whatever_the_order(self, order):
        cfg = SystemConfig(n_rx=8, mod_order=order, n_trials=40, seed=2,
                           snr_grid_db=(-30.0, float("inf")))
        rows = run_sweep(cfg, "sas-ssk", "ml", workers=1)
        assert [row.modulation for row in rows] == ["none", "none"]
        assert rows == run_sweep(dataclasses.replace(cfg, mod_order=2), "sas-ssk", "ml",
                                 workers=1)


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
        bits, ch, *_ = make_sas_trial(SAS_CFG, "sas-ssk", 1)
        x, _ = encode_one(bits, ch.h, SAS_CFG, "sas-ssk")
        assert x == 1.0

    def test_target_is_leading_bits(self):
        ch = sample_channel(16, 64, trial_rng(0, 2))
        x, theta = encode_one([1, 0, 1, 1, 0], ch.h, SAS_CFG, "sas-sm")
        np.testing.assert_array_equal(theta, aligning_phases(ch.h)[0b1011])
        assert x == pytest.approx(1.0)  # symbol bit 0 -> +1

    @pytest.mark.parametrize("mode,order", [("ssk", 2), ("sm", 2), ("sm", 16)])
    def test_batch_matches_scalar(self, mode, order):
        scheme = "sas-" + mode
        cfg = scheme_config(sas_cfg(mod_order=order, n_refl=37), scheme, "ml")
        trials = [make_sas_trial(cfg, scheme, trial) for trial in range(20)]
        bits = np.stack([t[0] for t in trials])
        h = np.stack([t[1].h for t in trials])
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        p, labels, x = encode_batch(bits, np.linalg.norm(h, axis=-1), cfg, table)
        for k, (_, _, x_ref, theta_ref, target, _) in enumerate(trials):
            assert x[k] == x_ref and table.rows[p[k], 0] == target
            # the symbol bits packed; none, and label 0, for ssk
            assert labels[k].tolist() == [bits_to_int(bits[k, cfg.l1 :])]
            np.testing.assert_array_equal(reflector_phases(h[k, target - 1]), theta_ref)


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
        cfg = sas_cfg(mod_order=2, seed=5)
        wrong = 0
        for trial in range(100):
            bits, ch, *_, y = make_sas_trial(cfg, "sas-sm", trial, sigma=0.5)
            got, _ = detect_one(y, ch.h, cfg, "sas-sm")
            wrong += int(not np.array_equal(got, bits))
        assert wrong == 0  # 64 aligned reflectors vs sigma=0.5: huge margin


class TestMac:
    def test_frozen_counts_for_64_reflectors(self):
        base = 8 * 16 * 64 + 10 * 16 - 1  # 8351
        counts = [mac_ml(scheme_config(cfg, scheme, "ml")) for cfg, scheme in
                  [(SAS_CFG, "sas-ssk"), (sas_cfg(mod_order=2), "sas-sm"),
                   (sas_cfg(mod_order=4), "sas-sm")]]
        assert counts == [16 * base, 32 * base, 64 * base] == [133_616, 267_232, 534_464]

    def test_detect_reports_same_count(self):
        ssk = baseline_config(SAS_CFG, "sas-ssk")
        assert run_trial(SAS_CFG, "sas-ssk", "ml", 6).mac == mac_ml(ssk) == 133_616
        # the sm baseline is billed exactly as ml at n_sel 1
        assert run_trial(SAS_CFG, "sas-sm", "ml", 6).mac == mac_ml(SAS_CFG) == 267_232


class TestBaselineIsMas:
    """sas-sm is mas with ml at n_sel 1 and alpha (1.0,), n_rx a power of two."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_rx,order,n_refl,snrs", [
        (8, 2, 64, (-36.0, -30.0, float("inf"))),
        (16, 4, 37, (-30.0, -26.0, float("inf"))),
        (4, 16, 64, (-24.0, -20.0, float("inf"))),
    ])
    def test_same_rows_but_the_scheme(self, workers, n_rx, order, n_refl, snrs):
        cfg = SystemConfig(n_rx=n_rx, n_sel=1, alpha=(1.0,), n_cand_antennas=n_rx,
                           n_refl=n_refl, mod_order=order, snr_grid_db=snrs,
                           n_trials=1100, seed=n_rx + order, error_budget=None)
        mas = run_sweep(cfg, "mas", "ml", workers=workers)
        sas = run_sweep(cfg, "sas-sm", "ml", workers=workers)
        assert [dataclasses.replace(row, scheme="sas-sm") for row in mas] == sas
        assert sas[0].block_errors > 0 and sas[-1].block_errors == 0


def test_baseline_block_memory_is_bounded():
    """One 32-trial sas-sm block at 64 rx and 64-QAM holds the channels and
    (T, n_rx, n_rx) gains, not an (n_rx, n_rx, M) distance term a trial."""
    cfg = scheme_config(SystemConfig(n_rx=64, mod_order=64), "sas-sm", "ml")
    job = (cfg, "ml", 0, 32, (0.05,))
    want = _block_counts(job)  # build the cached tables first
    tracemalloc.start()
    try:
        assert _block_counts(job) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
