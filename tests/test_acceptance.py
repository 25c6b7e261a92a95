"""End-to-end acceptance checks for the nine headline claims.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to see them all).
Monte Carlo comparisons use a conservative block-level standard error,
se = sqrt(p(1-p)/trials), and a 3-sigma tolerance.
"""

import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from irsmas.channel import (
    decompose_received,
    propagate,
    sample_channel,
    trial_rng,
)
from irsmas.core import SystemConfig, make_constellation, validate_config
from irsmas.detection import mac_ml, mac_ssd, ml_detect, ssd_detect
from irsmas.harness import bits_per_tx, run_sweep, run_trial
from irsmas.rac import build_rac_table, rac_row
from irsmas.transmitter import encode, reflector_phases
from reference import monte_carlo_se, rac_find
from reference import run_trial as reference_run_trial

BPSK_CFG = SystemConfig()  # 12 rx, 2 selected, 64 reflectors, [0.2, 0.8]
QPSK_CFG = dataclasses.replace(BPSK_CFG, mod_order=4)
SAS_CFG = dataclasses.replace(BPSK_CFG, n_rx=16, n_sel=1, alpha=(1.0,))

TRIALS = 10_000
GRID_SCALING = (-20.0, -18.0, -16.0, -14.0, -12.0)        # criterion 4
GRID_GAP = (-16.0, -15.0, -14.0, -13.0, -12.0, -11.0, -10.0)  # criteria 5, 9
GRID_TOP = (-12.0, -10.0, -8.0)                            # criterion 3


def _check(criterion: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _sweep(cfg, scheme, detector, grid, trials=TRIALS):
    cfg = dataclasses.replace(
        cfg, snr_grid_db=grid, n_trials=trials, error_budget=None
    )
    return run_sweep(cfg, scheme, detector, workers=1)


def _pair_se(row_a, row_b):
    return math.sqrt(
        monte_carlo_se(row_a.ber, row_a.trials) ** 2
        + monte_carlo_se(row_b.ber, row_b.trials) ** 2
    )


@pytest.fixture(scope="module")
def gap_sweeps():
    """N=64 ML and SSD sweeps on the fine grid (shared by criteria 5 and 9)."""
    ssd = _sweep(BPSK_CFG, "mas", "ssd", GRID_GAP)
    ml = _sweep(BPSK_CFG, "mas", "ml", GRID_GAP)
    return ssd, ml


@pytest.fixture(scope="module")
def scaling_sweeps():
    """64- vs 128-reflector sweeps for both detectors (criterion 4)."""
    cfg128 = dataclasses.replace(BPSK_CFG, n_refl=128)
    return {
        ("ssd", 64): _sweep(BPSK_CFG, "mas", "ssd", GRID_SCALING),
        ("ssd", 128): _sweep(cfg128, "mas", "ssd", GRID_SCALING),
        ("ml", 64): _sweep(BPSK_CFG, "mas", "ml", GRID_SCALING),
        ("ml", 128): _sweep(cfg128, "mas", "ml", GRID_SCALING),
    }


def test_criterion_1_capacities():
    values = {
        "mas bpsk": validate_config(BPSK_CFG).block_len,
        "mas qpsk": validate_config(QPSK_CFG).block_len,
        "sas-sm bpsk": bits_per_tx(SAS_CFG, "sas-sm"),
        "sas-sm qpsk": bits_per_tx(dataclasses.replace(SAS_CFG, mod_order=4), "sas-sm"),
        "sas-ssk": bits_per_tx(SAS_CFG, "sas-ssk"),
    }
    expected = {"mas bpsk": 8, "mas qpsk": 10, "sas-sm bpsk": 5,
                "sas-sm qpsk": 6, "sas-ssk": 4}
    _check(1, "per-transmission capacities", values == expected,
           " ".join(f"{k}={v}" for k, v in values.items()))


def test_criterion_2_noiseless_exactness():
    ml_block_errors = 0
    ssd_block_errors = 0
    for trial in range(1000):
        ml_block_errors += run_trial(BPSK_CFG, "mas", "ml", trial).block_error
        ssd_block_errors += run_trial(BPSK_CFG, "mas", "ssd", trial).block_error
    ok = ml_block_errors == 0 and ssd_block_errors <= 1
    _check(2, "noiseless exactness over 1000 trials", ok,
           f"ml_block_errors={ml_block_errors} ssd_block_errors={ssd_block_errors}")


def test_criterion_2_noiseless_exactness_three_selected():
    # With three slots the ssd receiver must cancel every decoded component,
    # not only the latest one (which left 145/300 blocks in error here).
    cfg = dataclasses.replace(BPSK_CFG, n_sel=3, n_refl=96, alpha=(0.05, 0.2, 0.75))
    validate_config(cfg)
    ml_block_errors = sum(run_trial(cfg, "mas", "ml", t).block_error for t in range(300))
    ssd_block_errors = sum(run_trial(cfg, "mas", "ssd", t).block_error for t in range(300))
    sweep_block_errors = _sweep(cfg, "mas", "ssd", (float("inf"),), trials=300)[0].block_errors
    ok = ml_block_errors == 0 and ssd_block_errors <= 1 and sweep_block_errors == ssd_block_errors
    _check(2, "noiseless exactness with three selected antennas over 300 trials", ok,
           f"ml_block_errors={ml_block_errors} ssd_block_errors={ssd_block_errors} "
           f"sweep_block_errors={sweep_block_errors}")


def test_criterion_2_three_selected_sweep_matches_reference():
    # run_trial runs the sweep engine on one trial, so the case above
    # compares the sweep with the engine; this one compares it with the
    # independent scalar path of tests/reference.py.
    cfg = dataclasses.replace(BPSK_CFG, n_sel=3, n_refl=96, alpha=(0.05, 0.2, 0.75))
    ref_block_errors = sum(
        reference_run_trial(cfg, "mas", "ssd", t).block_error for t in range(300))
    sweep_block_errors = _sweep(cfg, "mas", "ssd", (float("inf"),), trials=300)[0].block_errors
    ok = ref_block_errors <= 1 and sweep_block_errors == ref_block_errors
    _check(2, "three selected antennas: sweep matches the scalar reference over 300 trials",
           ok, f"reference_block_errors={ref_block_errors} "
           f"sweep_block_errors={sweep_block_errors}")


def test_criterion_3_asbt_saturation():
    capacities = {"mas bpsk": 8, "mas qpsk": 10, "sas-sm bpsk": 5,
                  "sas-sm qpsk": 6, "sas-ssk": 4}
    sweeps = {
        "mas bpsk": _sweep(BPSK_CFG, "mas", "ml", GRID_TOP),
        "mas qpsk": _sweep(QPSK_CFG, "mas", "ml", GRID_TOP),
        "sas-sm bpsk": _sweep(SAS_CFG, "sas-sm", "ml", GRID_TOP),
        "sas-sm qpsk": _sweep(dataclasses.replace(SAS_CFG, mod_order=4),
                              "sas-sm", "ml", GRID_TOP),
        "sas-ssk": _sweep(SAS_CFG, "sas-ssk", "ml", GRID_TOP),
    }
    problems = []
    for name, rows in sweeps.items():
        top = rows[-1]
        if top.ber >= 1e-4:
            problems.append(f"{name}: top-point ber={top.ber:.2e} >= 1e-4")
        if abs(top.asbt_perbit - capacities[name]) > 0.05:
            problems.append(
                f"{name}: asbt={top.asbt_perbit:.4f} not within 0.05 of "
                f"{capacities[name]}"
            )
    for i, snr in enumerate(GRID_TOP):
        mas_min = min(sweeps["mas bpsk"][i].asbt_perbit,
                      sweeps["mas qpsk"][i].asbt_perbit)
        sm_max = max(sweeps["sas-sm bpsk"][i].asbt_perbit,
                     sweeps["sas-sm qpsk"][i].asbt_perbit)
        sm_min = min(sweeps["sas-sm bpsk"][i].asbt_perbit,
                     sweeps["sas-sm qpsk"][i].asbt_perbit)
        ssk = sweeps["sas-ssk"][i].asbt_perbit
        if not (mas_min >= sm_max >= sm_min >= ssk):
            problems.append(f"ordering broken at {snr} dB")
    tops = " ".join(f"{k}={v[-1].asbt_perbit:.3f}" for k, v in sweeps.items())
    _check(3, "throughput saturates at capacity, schemes ordered",
           not problems, "; ".join(problems) or tops)


def test_criterion_4_reflector_scaling(scaling_sweeps):
    problems = []
    for detector in ("ssd", "ml"):
        for r64, r128 in zip(scaling_sweeps[(detector, 64)],
                             scaling_sweeps[(detector, 128)]):
            if r64.ber < 100 / r64.trials:
                continue  # too few error events to compare
            tol = 3 * _pair_se(r64, r128)
            if r128.ber > r64.ber + tol:
                problems.append(
                    f"{detector}@{r64.snr_db}dB: {r128.ber:.3e} > {r64.ber:.3e}+{tol:.1e}"
                )
    detail = "; ".join(problems) if problems else (
        f"e.g. ssd@-16dB: 128refl={scaling_sweeps[('ssd', 128)][2].ber:.2e} "
        f"<= 64refl={scaling_sweeps[('ssd', 64)][2].ber:.2e}"
    )
    _check(4, "doubling the reflectors never hurts BER", not problems, detail)


def test_criterion_5_detector_gap(gap_sweeps):
    ssd, ml = gap_sweeps
    crossing = next((i for i, r in enumerate(ml) if r.ber < 1e-2), None)
    problems = []
    if crossing is None:
        problems.append("ML never dropped below 1e-2 on the grid")
    else:
        ratio = ssd[crossing].ber / max(ml[crossing].ber, 1e-12)
        if ratio > 10.0:
            problems.append(
                f"ssd/ml ratio {ratio:.1f} > 10 at {ml[crossing].snr_db} dB"
            )
    for rs, rm in zip(ssd, ml):
        if rs.ber < rm.ber - 3 * _pair_se(rs, rm):
            problems.append(f"ssd beat ml at {rs.snr_db} dB")
    detail = "; ".join(problems) if problems else (
        f"first ML<1e-2 at {ml[crossing].snr_db} dB: "
        f"ssd={ssd[crossing].ber:.3e} ml={ml[crossing].ber:.3e} "
        f"ratio={ssd[crossing].ber / ml[crossing].ber:.2f}"
    )
    _check(5, "low-complexity detector stays within 10x of ML", not problems, detail)


def test_criterion_6_complexity_formulas():
    mml = mac_ml(BPSK_CFG)
    mssd = mac_ssd(BPSK_CFG, 15)
    ratio = mssd / mml
    ok = (mml == 1_603_328 and mssd == 50_155
          and abs(ratio - 0.03128) <= 1e-5)
    _check(6, "MAC complexity formulas", ok,
           f"mac_ml={mml} mac_ssd={mssd} ratio={ratio:.7f}")


def test_criterion_7_oracle_equivalence():
    """ml_detect vs an independently coded brute-force enumerator."""
    cfg = dataclasses.replace(
        BPSK_CFG, n_rx=4, n_sel=2, n_refl=4, n_cand_antennas=3, n_iters=4,
    )
    table = build_rac_table(4, 2)
    const = make_constellation(2)
    sigma = 10 ** (5 / 20)  # -5 dB: low enough for frequent detection errors
    combos = list(itertools.islice(itertools.combinations(range(1, 5), 2), 4))

    def oracle(y, h):
        best = (np.inf, None, None, None)
        for p, ants in enumerate(combos):
            theta = np.empty(4, dtype=complex)
            for i, a in enumerate(ants):
                blk = slice(2 * i, 2 * i + 2)
                theta[blk] = np.exp(-1j * np.angle(h[a - 1, blk]))
            g = h @ theta
            w = [math.sqrt(np.sum(np.abs(h[a - 1, :]) ** 2)) for a in ants]
            order = (2, 1) if w[1] > w[0] else (1, 2)
            for s_strong in (1.0, -1.0):       # smallest power ratio
                for s_weak in (1.0, -1.0):     # largest power ratio
                    x = math.sqrt(0.2) * s_strong + math.sqrt(0.8) * s_weak
                    d = float(np.sum(np.abs(y - g * x) ** 2))
                    if d < best[0]:
                        best = (d, p, (s_strong, s_weak), order)
        _, p, (s_strong, s_weak), order = best
        slot_bits = [0, 0]
        slot_bits[order[0] - 1] = 0 if s_strong > 0 else 1
        slot_bits[order[1] - 1] = 0 if s_weak > 0 else 1
        return [p >> 1 & 1, p & 1] + slot_bits

    mismatches = 0
    disagreements = []
    for trial in range(1000):
        rng = trial_rng(7, trial)
        bits = rng.integers(0, 2, size=cfg.block_len)
        ch = sample_channel(cfg.n_rx, cfg.n_refl, rng)
        tx = encode(bits, ch, cfg, table)
        y = propagate(ch, tx.theta, tx.x, sigma, rng)
        got = ml_detect(y, ch, cfg, table, const).bits
        want = oracle(y, ch.h)
        if not np.array_equal(got, want):
            mismatches += 1
            if len(disagreements) < 3:
                disagreements.append(trial)
    _check(7, "ML detector matches brute-force oracle", mismatches == 0,
           f"mismatches={mismatches}/1000"
           + (f" first at trials {disagreements}" if disagreements else ""))


def test_criterion_8_structural_invariants(tmp_path):
    problems = []

    # received-signal decomposition reconstructs the sample
    worst = 0.0
    for trial in range(1000):
        ch = sample_channel(BPSK_CFG.n_rx, BPSK_CFG.n_refl, trial_rng(13, trial))
        p = trial % 64
        table = build_rac_table(12, 2)
        sel = rac_row(table, p)
        theta = reflector_phases(ch.h[sel - 1, :])
        x = 0.7 - 0.2j
        y = ch.h @ theta * x
        for slot in (1, 2):
            c, nc, lo = decompose_received(ch, theta, x, sel, slot)
            worst = max(worst, abs(c + nc + lo - y[sel[slot - 1] - 1]))
    if worst > 1e-9:
        problems.append(f"decomposition residual {worst:.2e} > 1e-9")

    # unit-modulus reflector phases
    ch = sample_channel(12, 64, trial_rng(14, 0))
    theta = reflector_phases(ch.h[:2, :])
    if np.max(np.abs(np.abs(theta) - 1.0)) > 1e-12:
        problems.append("reflector phases not unit modulus")

    # constellation normalization
    for order in (2, 4, 16, 64):
        energy = np.mean(np.abs(make_constellation(order).points) ** 2)
        if abs(energy - 1.0) > 1e-12:
            problems.append(f"constellation {order} energy {energy}")

    # power ratios sum to one (validated), antenna-set round trip
    validate_config(BPSK_CFG)
    table = build_rac_table(12, 2)
    if not all(rac_find(table, rac_row(table, p)) == p for p in range(64)):
        problems.append("rac round trip broken")

    # worker count must not change emitted bytes
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        env = dict(os.environ, IRSMAS_WORKERS=workers)
        proc = subprocess.run(
            [sys.executable, "-m", "irsmas", "--trials", "2000",
             "--snr", "-14,-12", "--seed", "3", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode != 0:
            problems.append(f"cli failed with {workers} workers: {proc.stderr}")
        else:
            outputs.append(out.read_bytes())
    if len(outputs) == 2 and outputs[0] != outputs[1]:
        problems.append("CSV differs between 1 and 2 workers")

    _check(8, "structural invariants and determinism", not problems,
           "; ".join(problems) or f"max decomposition residual {worst:.2e}")


def test_criterion_9_monotonicity(gap_sweeps):
    ssd, _ = gap_sweeps
    problems = []
    for a, b in zip(ssd, ssd[1:]):
        tol = 3 * _pair_se(a, b)
        if b.ber > a.ber + tol:
            problems.append(
                f"{a.snr_db}->{b.snr_db} dB: {a.ber:.3e} -> {b.ber:.3e} (+{tol:.1e})"
            )
    curve = " ".join(f"{r.ber:.2e}" for r in ssd)
    _check(9, "BER non-increasing along the SNR grid", not problems,
           "; ".join(problems) or curve)
