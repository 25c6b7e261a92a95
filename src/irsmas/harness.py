"""Monte Carlo harness: per-trial simulation, metric aggregation, SNR sweeps.

Trials are scheduled in fixed blocks of 1000 so that early stopping and
parallel execution cannot change the result: a point consumes a prefix of
its block sequence, each block is a pure function of (config, detector,
block index), and counts are summed in block order.  The same
seed therefore yields bit-identical output for any worker count.

Points differ only in their noise level, and a trial sees the same bits,
channel and noise at each, so a sweep's job is one block for the points
still live when it is handed out: drawn, encoded and propagated once, then
detected at each point.  Jobs go out in block order through one scheduler,
on one process pool for the whole sweep (or in process with one worker).
With fewer blocks than workers, the points are dealt round-robin into
max(1, min(points, workers // blocks)) groups, whose jobs each draw the block.

Every block, of every scheme and detector, runs through the batched
engine: chunks of CHUNK_TRIALS trials pass each stage (draws, encode,
propagate, detect) as arrays over trials x candidates.  Below the gate,
``scheme_config``, a baseline is the mas config its pin made, so the
engine reads the config and the detector, never the scheme.  Every trial
draws from its own stream and gets the same arithmetic whatever chunk it
runs in, so a block's counts equal the sum of ``run_trial`` outcomes over
its trials.  ``run_trial`` runs one trial as a chunk of one.
"""

import math
import operator
import os
import queue
from dataclasses import dataclass, fields, replace
from multiprocessing import Pool

import numpy as np

from .baselines import baseline_config
from .channel import add_noise, draw_layout, draw_trials, propagate_batch
from .core import MOD_NAMES, MOD_ORDERS, SystemConfig, validate_config
from .detection import (
    check_ml_guard,
    detected_bits,
    mac_ml,
    mac_ssd,
    ml_detect_batch,
    ml_gains,
    ssd_detect_batch,
)
from .rac import build_rac_table
from .transmitter import aligning_phases, encode_batch

BLOCK_TRIALS = 1000
# Trials the batched engine carries through each stage at once.
CHUNK_TRIALS = 32

SCHEMES = ("mas", "sas-sm", "sas-ssk")
DETECTORS = ("ml", "ssd")


@dataclass
class TrialOutcome:
    bit_errors: int
    block_error: int
    mac: int


@dataclass
class SweepRow:
    """One operating point of a sweep; its fields are the CSV columns, in order."""

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


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


def check_run(scheme: str, detector: str = "ml") -> None:
    """Reject an unknown scheme or detector, or a baseline detected by anything
    but ``ml``, naming the field; without a detector, check the scheme alone."""
    if scheme not in SCHEMES:
        raise ValueError(f"scheme: expected one of {SCHEMES}, got {scheme!r}")
    if detector not in DETECTORS:
        raise ValueError(f"detector: expected one of {DETECTORS}, got {detector!r}")
    if scheme != "mas" and detector != "ml":
        raise ValueError(f"detector: baseline schemes are detected with the exhaustive ml "
                         f"search, got {detector!r} for {scheme}")


def scheme_config(cfg: SystemConfig, scheme: str, detector: str) -> SystemConfig:
    """``cfg`` as ``scheme`` reads it, ``baseline_config``'s pin for a
    baseline, after ``check_run``, ``validate_config`` and, for ``ml``,
    ``check_ml_guard`` on the search's 2^block_len hypotheses: the one gate
    of every run.  A config it returned passes it again unchanged."""
    check_run(scheme, detector)
    # sas-ssk reads no modulation order, and the order 1 that its pin sets
    # is none that validate_config accepts: a config pinned here before is
    # checked with BPSK in its place
    if (scheme, cfg.mod_order) == ("sas-ssk", 1):
        validate_config(replace(cfg, mod_order=MOD_ORDERS["bpsk"]), scheme)
    else:
        validate_config(cfg, scheme)
    cfg = baseline_config(cfg, scheme)
    if detector == "ml":
        check_ml_guard(cfg)
    return cfg


def bits_per_tx(cfg: SystemConfig, scheme: str) -> int:
    """Bits carried by one transmission under the given scheme."""
    check_run(scheme)
    return baseline_config(cfg, scheme).block_len


def _chunk_counts(cfg: SystemConfig, detector: str, trials: range, sigmas,
                  workspace=None) -> list:
    """(bit errors, block errors, MACs) of a few trials, run as arrays, at
    each noise level of ``sigmas``.

    Each trial draws bits, channel and noise from its own ``trial_rng``
    stream, in that order, and is encoded and propagated once; each sigma
    then scales and adds the noise and detects.  ``cfg`` is
    ``scheme_config``'s, a baseline's included, so every scheme takes the
    same stages; its noise_sigma is not read.  ``workspace``, if given, is
    ``_workspace`` for at least this many trials, and the chunk overwrites
    its arrays instead of allocating them.
    """
    draws, buffers = workspace or (None, [])
    n_trials = len(trials)
    table = build_rac_table(cfg.n_rx, cfg.n_sel)
    bits, h, noise = draw_trials(cfg.seed, trials, cfg.block_len, cfg.n_rx, cfg.n_refl,
                                 out=draws)
    # every antenna's reflector phases, from which every theta of the chunk is gathered
    phases = aligning_phases(h, out=buffers[0][:n_trials] if buffers else None)
    # the row norms order the slots, for the encoder and either detector;
    # one slot needs no order
    norms = np.linalg.norm(h, axis=-1) if cfg.n_sel > 1 else None
    x, theta = encode_batch(bits, norms, phases, cfg, table)
    if detector == "ml":
        gains, energy = ml_gains(h, phases, cfg, table, buffers[1:] or None)
    received = propagate_batch(h, theta, x)
    counts = []
    for sigma in sigmas:
        y = add_noise(received, noise, sigma)
        if detector == "ml":
            p_hat, labels, _ = ml_detect_batch(y, gains, energy, norms, cfg, table)
            mac = n_trials * mac_ml(cfg)
        else:
            p_hat, labels, _, n_cand = ssd_detect_batch(y, h, norms, phases, cfg, table)
            mac = int(mac_ssd(cfg, n_cand).sum())
        errors = np.count_nonzero(bits != detected_bits(p_hat, labels, cfg), axis=1)
        counts.append((int(errors.sum()), int(np.count_nonzero(errors)), mac))
    return counts


def _workspace(cfg: SystemConfig, detector: str, n_trials: int):
    """The large arrays of a chunk of up to ``n_trials`` trials of
    ``scheme_config``'s ``cfg``: the draws' buffers and a list of the rest:
    the aligning phases, and for ``ml``, of any scheme, the ``ml_gains``
    buffers, one reflector block's cross gains (n_trials, n_rx, n_rx) and
    the gains stack (n_trials, n_rx, C).  The phases share the normals'
    bytes, so they cost no memory.

    A block allocates them once and every chunk overwrites them, so the
    chunk loop does not free and fault in the same pages again.  They are
    views of one allocation, at offsets that are multiples of 64 bytes:
    freed at the end of a block as one large mmap'ed chunk, it makes glibc
    raise its heap trim threshold to twice its size, so the heap keeps the
    pages that the next block's workspace and temporaries reuse.
    """
    layout = draw_layout(n_trials, cfg.block_len, cfg.n_rx, cfg.n_refl)
    if detector == "ml":
        n_rows = build_rac_table(cfg.n_rx, cfg.n_sel).row_count
        layout += [((n_trials, cfg.n_rx, cfg.n_rx), np.dtype(complex)),
                   ((n_trials, cfg.n_rx, n_rows), np.dtype(complex))]
    nbytes = [math.prod(shape) * dtype.itemsize for shape, dtype in layout]
    starts = np.cumsum([0] + [-(-n // 64) * 64 for n in nbytes])
    memory = np.empty(starts[-1], dtype=np.uint8)
    arrays = [memory[lo : lo + n].view(dtype).reshape(shape)
              for (shape, dtype), n, lo in zip(layout, nbytes, starts)]
    draws, channels = arrays[:4], arrays[2]
    # the phases, shaped like the channels: draw_trials has consumed the
    # normals by the time the phases are computed
    phases = draws[1].ravel().view(complex)[: channels.size].reshape(channels.shape)
    return draws, [phases, *arrays[4:]]


def run_trial(cfg: SystemConfig, scheme: str, detector: str, trial_index: int) -> TrialOutcome:
    """Simulate one transmission block and count its bit and block errors:
    the engine on a chunk of one trial."""
    cfg = scheme_config(cfg, scheme, detector)
    trials = range(trial_index, trial_index + 1)
    return TrialOutcome(*_chunk_counts(cfg, detector, trials, (cfg.noise_sigma,))[0])


def _block_counts(args) -> list:
    """(trials, bit errors, block errors, MACs) of one scheduling block at
    each noise level of ``sigmas`` (top level for pickling)."""
    cfg, detector, start, count, sigmas = args
    stop = start + count
    workspace = _workspace(cfg, detector, min(CHUNK_TRIALS, count))
    parts = [_chunk_counts(cfg, detector, range(lo, min(lo + CHUNK_TRIALS, stop)), sigmas,
                           workspace)
             for lo in range(start, stop, CHUNK_TRIALS)]
    return [(count, *(sum(column) for column in zip(*point))) for point in zip(*parts)]


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


def _available_parallelism() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _resolve_workers(workers) -> int:
    """Worker count: ``workers`` if given, else ``IRSMAS_WORKERS`` if set and
    not empty, else every available core.  Anything but an integer >= 1 (a
    float such as 2.5 included) is rejected, naming where it came from."""
    source = "workers"
    if workers is None:
        workers = os.environ.get("IRSMAS_WORKERS")
        if not workers:
            return _available_parallelism()
        source = "IRSMAS_WORKERS"
    try:
        count = int(workers) if isinstance(workers, str) else operator.index(workers)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {workers!r}")
    return count


class _Point:
    """One SNR point's share of the scheduler: the results waiting for their
    turn, and the counts of the consumed prefix."""

    def __init__(self, error_budget):
        self.budget = error_budget
        self.consumed = 0
        self.waiting = {}  # block index -> counts that arrived out of order
        self.counts = (0, 0, 0, 0)  # trials, bit errors, block errors, MACs
        self.stopped = False

    def take(self, block: int, result) -> None:
        """Consume every result now next in block order, stopping at a block
        boundary once the error budget is met; later results are dropped."""
        if self.stopped:
            return
        self.waiting[block] = result
        while self.consumed in self.waiting:
            result = self.waiting.pop(self.consumed)
            self.consumed += 1
            self.counts = tuple(a + b for a, b in zip(self.counts, result))
            if self.budget is not None and self.counts[2] >= self.budget:
                self.stopped = True
                self.waiting.clear()
                return


def _sweep_counts(cfg: SystemConfig, sigmas: list, detector: str, workers: int) -> list:
    """(trials, bit errors, block errors, MACs) of every point of a sweep,
    one point per noise level of ``sigmas``.

    Jobs of (block, a group's live points) go out in block order, at most
    ``workers`` in flight.  Each point consumes its results strictly in
    block order, so the consumed prefix, and hence every count, is
    identical for any worker count.
    """
    points = [_Point(cfg.error_budget) for _ in sigmas]
    n_blocks = -(-cfg.n_trials // BLOCK_TRIALS)
    n_groups = max(1, min(len(points), workers // n_blocks))
    workers = min(workers, n_blocks * n_groups)
    jobs = ((block, range(g, len(points), n_groups))
            for block in range(n_blocks) for g in range(n_groups))
    done = queue.SimpleQueue()  # (points, block, counts or the exception raised)

    def next_job():
        for block, group in jobs:
            live = [i for i in group if not points[i].stopped]
            if live:
                start = block * BLOCK_TRIALS
                count = min(BLOCK_TRIALS, cfg.n_trials - start)
                return live, block, (cfg, detector, start, count,
                                     tuple(sigmas[i] for i in live))
            if all(p.stopped for p in points):
                break
        return None

    def run(submit):
        in_flight = 0
        while True:
            while in_flight < workers and (job := next_job()) is not None:
                submit(*job)
                in_flight += 1
            if not in_flight:
                return
            live, block, result = done.get()
            in_flight -= 1
            if isinstance(result, BaseException):
                raise result
            for i, counts in zip(live, result):
                points[i].take(block, counts)

    if workers == 1:
        run(lambda live, block, job: done.put((live, block, _block_counts(job))))
    else:
        with Pool(workers) as pool:
            def submit(live, block, job):
                pool.apply_async(_block_counts, (job,),
                                 callback=lambda result: done.put((live, block, result)),
                                 error_callback=lambda exc: done.put((live, block, exc)))
            run(submit)
    return [p.counts for p in points]


def run_sweep(cfg: SystemConfig, scheme: str = "mas", detector: str = "ssd",
              workers=None) -> list:
    """Sweep the configured SNR grid and return one SweepRow per point."""
    cfg = scheme_config(cfg, scheme, detector)
    workers = _resolve_workers(workers)

    sigmas = [0.0 if np.isposinf(snr_db) else 10.0 ** (-snr_db / 20.0)
              for snr_db in cfg.snr_grid_db]
    sweep_counts = _sweep_counts(cfg, sigmas, detector, workers)
    modulation = MOD_NAMES.get(cfg.mod_order, "none")  # sas-ssk's order 1 is no modulation
    rows = []
    for snr_db, counts in zip(cfg.snr_grid_db, sweep_counts):
        metrics = compute_metrics(*counts, cfg.block_len)
        rows.append(SweepRow(
            scheme=scheme,
            detector=detector,
            modulation=modulation,
            n_reflectors=cfg.n_refl,
            snr_db=float(snr_db),
            **metrics,
        ))
    return rows
