"""Monte Carlo harness: per-trial simulation, metric aggregation, SNR sweeps.

Trials are scheduled in fixed blocks of 1000 so that early stopping and
parallel execution cannot change the result: a run consumes a prefix of
the block sequence, each block is a pure function of (config, scheme,
detector, block index), and counts are summed in block order.  The same
seed therefore yields bit-identical output for any worker count.

Every block, of every scheme and detector, runs through the batched
engine: chunks of CHUNK_TRIALS trials pass each stage (draws, encode,
propagate, detect) as arrays over trials x candidates.  Every trial draws
from its own stream and gets the same arithmetic whatever chunk it runs
in, so a block's counts equal the sum of ``run_trial`` outcomes over its
trials.  ``run_trial`` runs one trial as a chunk of one.
"""

import os
from dataclasses import dataclass, replace
from functools import lru_cache
from multiprocessing import Pool

import numpy as np

from .baselines import SasScheme, sas_detect_batch, sas_encode_batch, sas_mac
from .channel import draw_trials, propagate_batch
from .core import MOD_NAMES, SystemConfig, make_constellation, validate_config
from .detection import (
    check_ml_guard,
    detected_bits,
    mac_ml,
    mac_ssd,
    ml_detect_batch,
    ssd_detect_batch,
)
from .rac import build_rac_table
from .transmitter import aligning_phases, encode_batch

BLOCK_TRIALS = 1000
# Trials the batched engine carries through each stage at once.
CHUNK_TRIALS = 16

SCHEMES = ("mas", "sas-sm", "sas-ssk")
DETECTORS = ("ml", "ssd")

CSV_COLUMNS = (
    "scheme",
    "detector",
    "modulation",
    "n_reflectors",
    "snr_db",
    "trials",
    "bit_errors",
    "total_bits",
    "ber",
    "block_errors",
    "bler",
    "asbt_perbit",
    "asbt_block",
    "mean_mac",
)


@dataclass
class TrialOutcome:
    bit_errors: int
    block_error: int
    mac: int


@dataclass
class SweepRow:
    """One operating point of a sweep; fields mirror the CSV columns."""

    scheme: str
    detector: str
    modulation: str
    n_reflectors: int
    snr_db: float
    trials: int
    bit_errors: int
    total_bits: int
    ber: float
    block_errors: int
    bler: float
    asbt_perbit: float
    asbt_block: float
    mean_mac: float

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}


@lru_cache(maxsize=None)
def _constellation(mod_order: int):
    return make_constellation(mod_order)


@lru_cache(maxsize=None)
def _sas(mode: str, n_rx: int, mod_order: int, sym_energy: float) -> SasScheme:
    return SasScheme(mode=mode, n_rx=n_rx, mod_order=mod_order, sym_energy=sym_energy)


def _sas_scheme(cfg: SystemConfig, scheme: str) -> SasScheme:
    mode = "sm" if scheme == "sas-sm" else "ssk"
    return _sas(mode, cfg.n_rx, cfg.mod_order, cfg.sym_energy)


def bits_per_tx(cfg: SystemConfig, scheme: str) -> int:
    """Bits carried by one transmission under the given scheme."""
    if scheme == "mas":
        return cfg.block_len
    return _sas_scheme(cfg, scheme).bits_per_tx


def _chunk_counts(cfg: SystemConfig, scheme: str, detector: str, trials: range):
    """(bit errors, block errors, MACs) of a few trials, run as arrays.

    Each trial draws bits, channel and noise from its own ``trial_rng``
    stream, in that order, then is encoded, propagated and detected.
    """
    bits, h, noise = draw_trials(cfg.seed, trials, bits_per_tx(cfg, scheme), cfg.n_rx,
                                 cfg.n_refl)
    if scheme == "mas":
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        const = _constellation(cfg.mod_order)
        x, theta = encode_batch(bits, h, cfg, table, const)
        y = propagate_batch(h, theta, x, noise, cfg.noise_sigma)
        if detector == "ml":
            p_hat, labels, _ = ml_detect_batch(y, h, cfg, table, const)
            mac = len(trials) * mac_ml(cfg)
        else:
            p_hat, labels, _, n_cand = ssd_detect_batch(y, h, cfg, table, const)
            mac = sum(mac_ssd(cfg, int(n)) for n in n_cand)
        bits_hat = detected_bits(p_hat, labels, cfg)
    else:
        sas = _sas_scheme(cfg, scheme)
        phases = aligning_phases(h)  # every target's reflector phases, shared
        x, theta = sas_encode_batch(bits, phases, sas)
        y = propagate_batch(h, theta, x, noise, cfg.noise_sigma)
        bits_hat, _ = sas_detect_batch(y, h, phases, sas)
        mac = len(trials) * sas_mac(sas, cfg.n_refl)
    errors = np.count_nonzero(bits != bits_hat, axis=1)
    return int(errors.sum()), int(np.count_nonzero(errors)), mac


def run_trial(cfg: SystemConfig, scheme: str, detector: str, trial_index: int) -> TrialOutcome:
    """Simulate one transmission block and count its bit and block errors:
    the engine on a chunk of one trial."""
    trials = range(trial_index, trial_index + 1)
    return TrialOutcome(*_chunk_counts(cfg, scheme, detector, trials))


def _block_counts(args):
    """Aggregate counts for one scheduling block (top level for pickling)."""
    cfg, scheme, detector, start, count = args
    stop = start + count
    parts = [_chunk_counts(cfg, scheme, detector, range(lo, min(lo + CHUNK_TRIALS, stop)))
             for lo in range(start, stop, CHUNK_TRIALS)]
    return (count, *(sum(column) for column in zip(*parts)))


def compute_metrics(trials: int, bit_errors: int, block_errors: int,
                    mac_total: int, block_len: int) -> dict:
    """Aggregate raw counts into BER, block error rate, throughput, mean MACs."""
    total_bits = trials * block_len
    ber = bit_errors / total_bits
    bler = block_errors / trials
    return {
        "trials": trials,
        "bit_errors": bit_errors,
        "total_bits": total_bits,
        "ber": ber,
        "block_errors": block_errors,
        "bler": bler,
        "asbt_perbit": block_len * (1.0 - ber),
        "asbt_block": block_len * (1.0 - bler),
        "mean_mac": mac_total / trials,
    }


def monte_carlo_se(rate: float, trials: int) -> float:
    """Standard error of a Monte Carlo rate estimate (binomial approximation)."""
    return float(np.sqrt(max(rate * (1.0 - rate), 0.0) / trials))


def _available_parallelism() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _resolve_workers(workers) -> int:
    if workers is None:
        workers = os.environ.get("IRSMAS_WORKERS") or _available_parallelism()
    return max(1, int(workers))


def _point_counts(cfg: SystemConfig, scheme: str, detector: str, workers: int):
    """Run one operating point, stopping at a block boundary once the error
    budget is met.  Blocks are consumed strictly in index order so the
    consumed prefix, and hence every count, is identical for any worker
    count."""
    n_blocks = (cfg.n_trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    jobs = []
    for b in range(n_blocks):
        start = b * BLOCK_TRIALS
        count = min(BLOCK_TRIALS, cfg.n_trials - start)
        jobs.append((cfg, scheme, detector, start, count))

    trials = bit_errors = block_errors = mac_total = 0

    def consume(result) -> bool:
        nonlocal trials, bit_errors, block_errors, mac_total
        trials += result[0]
        bit_errors += result[1]
        block_errors += result[2]
        mac_total += result[3]
        return cfg.error_budget is not None and block_errors >= cfg.error_budget

    if workers == 1:
        for job in jobs:
            if consume(_block_counts(job)):
                break
    else:
        with Pool(workers) as pool:
            for result in pool.imap(_block_counts, jobs):
                if consume(result):
                    break
    return trials, bit_errors, block_errors, mac_total


def run_sweep(cfg: SystemConfig, scheme: str = "mas", detector: str = "ssd",
              workers=None) -> list:
    """Sweep the configured SNR grid and return one SweepRow per point."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if detector not in DETECTORS:
        raise ValueError(f"detector must be one of {DETECTORS}, got {detector!r}")
    if scheme != "mas" and detector != "ml":
        raise ValueError("baseline schemes are detected with the exhaustive ml search")
    validate_config(cfg, scheme)
    if scheme == "mas" and detector == "ml":
        check_ml_guard(cfg)
    workers = _resolve_workers(workers)

    block_len = bits_per_tx(cfg, scheme)
    modulation = "none" if scheme == "sas-ssk" else MOD_NAMES[cfg.mod_order]
    rows = []
    for snr_db in cfg.snr_grid_db:
        sigma = 0.0 if np.isposinf(snr_db) else 10.0 ** (-snr_db / 20.0)
        point_cfg = replace(cfg, noise_sigma=sigma)
        counts = _point_counts(point_cfg, scheme, detector, workers)
        metrics = compute_metrics(*counts, block_len)
        rows.append(SweepRow(
            scheme=scheme,
            detector=detector if scheme == "mas" else "ml",
            modulation=modulation,
            n_reflectors=cfg.n_refl,
            snr_db=float(snr_db),
            **metrics,
        ))
    return rows
