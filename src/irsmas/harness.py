"""Monte Carlo harness: per-trial simulation, metric aggregation, SNR sweeps.

Trials are scheduled in fixed blocks of 1000 so that early stopping and
parallel execution cannot change the result: a point consumes a prefix of
its block sequence, each block is a pure function of (config, detector,
block index), and counts are summed in block order.  The same
seed therefore yields bit-identical output for any worker count.

Points differ only in their noise level, and a trial sees the same bits,
channel and noise at each, so a sweep's job is one block for the points
still live when it is handed out: drawn and encoded once, with the
per-block cross gains that give every antenna combination its effective
gain formed once, for the noiseless received vectors and the detector
alike, and never written after.  The received vectors of every live
point are stacked, and one detector call a stack serves them all.  Jobs
go out in block order through one scheduler, on one process pool for the
whole sweep (or in process with one worker).  With fewer blocks than
workers, the points are dealt round-robin into max(1, min(points,
workers // blocks)) groups, whose jobs each draw the block.

Every block, of every scheme and detector, runs through the batched
engine, in one workspace of the same layout for either detector, as
arrays over trials x candidates.  A block is cut into stacks of chunks
of CHUNK_TRIALS trials, sized by ``_workspace``.  Each chunk is drawn, and
its phases, cross gains and row norms formed, in chunk-sized draw
buffers; each stack is encoded, propagated and detected at once.  Below
the gate, ``scheme_config``, a baseline is the mas config its pin made,
so the engine reads the config and the detector, never the scheme.
Every trial draws from its own stream and gets the same arithmetic
whatever chunk and stack it runs in, so a block's counts equal the sum of
``run_trial`` outcomes over its trials.  ``run_trial`` is
``_block_counts`` on a block of one trial.
"""

import math
import operator
import os
import queue
from dataclasses import dataclass, fields, replace
from multiprocessing import Pool

import numpy as np

from .baselines import baseline_config
from .channel import TrialStreams, add_noise, check_trial_index, draw_layout, draw_trials
from .core import MOD_NAMES, MOD_ORDERS, SystemConfig, snr_to_sigma, validate_config
from .detection import (
    candidate_gains,
    check_ml_guard,
    cross_gains,
    mac_ml,
    mac_ssd,
    ml_detect_batch,
    ssd_detect_batch,
)
from .rac import build_rac_table
from .transmitter import aligning_phases, encode_batch, reflector_blocks, row_norms

BLOCK_TRIALS = 1000
# Trials the batched engine draws and forms cross gains for at once.
CHUNK_TRIALS = 32
# Most received vectors (trials x live points) a stack of chunks detects at
# once, unless one chunk's are more.
STACK_ROWS = 128

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


def _stack_counts(cfg: SystemConfig, detector: str, trials: range, sigmas, workspace) -> list:
    """(bit errors, block errors, MACs) of a stack of trials at each noise
    level of ``sigmas``, run as arrays in ``workspace``, ``_workspace``'s
    for at least this many trials.

    Chunk by chunk, in the workspace's draw buffers, each trial draws bits,
    channel and noise from its own ``trial_rng`` stream, in that order, and
    its chunk's phases give its ``cross_gains`` and row norms, kept with its
    bits and unit noise in the stack's arrays; nothing writes the cross
    gains after.  The stack is then encoded at once.  The noiseless received
    vector is the sent row's ``candidate_gains`` times x, so a noiseless
    distance is exactly 0, and one detector call takes the received vectors
    of every level, stacked level by level.  A trial's bit errors are the
    set bits of the detected row XOR the sent one plus those of each slot's
    detected label XOR the sent label (both packed by ``encode_batch``), and
    it is a block error when any is set.  ``cfg`` is ``scheme_config``'s, a
    baseline's included.
    """
    draws, (phases, cross, norms, bits, noise), streams = workspace
    n_trials, n_points = len(trials), len(sigmas)
    step = len(phases)  # the draw buffers' chunk
    table = build_rac_table(cfg.n_rx, cfg.n_sel)
    cross = cross[:, :n_trials]
    norms, bits, noise = norms[:n_trials], bits[:n_trials], noise[:n_trials]
    for lo in range(0, n_trials, step):
        chunk = slice(lo, min(lo + step, n_trials))
        bits[chunk], h, noise[chunk] = draw_trials(streams, trials[chunk], cfg.block_len,
                                                   cfg.n_rx, cfg.n_refl, out=draws)
        # every antenna's reflector phases, from which every gain of the chunk is formed
        u = aligning_phases(h, out=phases[: len(h)])
        _, index = cross_gains(h, u, cfg.n_sel, out=cross[:, chunk])
        # the row norms order the slots, for the encoder and either
        # detector.  The cross gains have read the phases, so their buffer
        # takes the norms' conj(h) h.
        norms[chunk] = row_norms(h, out=u)
    p, labels, x = encode_batch(bits, norms, cfg, table)
    received = candidate_gains(cross, index, p[:, None])[:, 0] * x[:, None]
    y = np.concatenate([add_noise(received, noise, sigma) for sigma in sigmas])
    shape = n_points, n_trials
    if detector == "ml":
        p_hat, labels_hat, _ = ml_detect_batch(y, cross, index, norms, cfg, table)
        macs = [n_trials * mac_ml(cfg)] * n_points
    else:
        p_hat, labels_hat, _, n_cand = ssd_detect_batch(y, cross, index, norms, cfg, table)
        macs = mac_ssd(cfg, n_cand).reshape(shape).sum(axis=1)
    errors = (np.bitwise_count(p_hat.reshape(shape) ^ p)
              + np.bitwise_count(labels_hat.reshape(*shape, -1) ^ labels).sum(axis=-1))
    return [(int(e.sum()), int(np.count_nonzero(e)), int(mac)) for e, mac in zip(errors, macs)]


def _workspace(cfg: SystemConfig, count: int, n_points: int):
    """The stack length of a block of ``count`` trials of
    ``scheme_config``'s ``cfg`` at ``n_points`` live points, and the
    workspace its stacks share.  A stack is k chunks of CHUNK_TRIALS
    trials, k = STACK_ROWS // (CHUNK_TRIALS n_points), at least 1, lowered
    so that the stack's cross gains take no more bytes than one chunk's
    draw buffers; never more than the block.

    The workspace holds the draws' chunk-sized buffers and aligning phases
    (in the normals' bytes), the stack's ``cross_gains`` (K, stack, n_rx,
    n_rx), row norms, bits and unit noise, which each chunk fills in its
    own rows, and the seed's ``TrialStreams``, one Philox generator for
    every trial of the block.  A block builds it once and every stack
    reuses it, so the stack loop does not fault in the same pages again.
    Its arrays are views of one allocation, at offsets that are multiples
    of 64 bytes: freed at the end of a block as one large mmap'ed chunk, it
    makes glibc raise its heap trim threshold to twice its size, so the
    heap keeps the pages that the next block's workspace and temporaries reuse.
    """
    chunk = min(CHUNK_TRIALS, count)
    layout = draw_layout(chunk, cfg.block_len, cfg.n_rx, cfg.n_refl)
    draw_bytes = sum(math.prod(shape) * dtype.itemsize for shape, dtype in layout)
    n_blocks = len(reflector_blocks(cfg.n_refl, cfg.n_sel))
    cross_bytes = n_blocks * chunk * cfg.n_rx * cfg.n_rx * np.dtype(complex).itemsize
    k = max(1, min(STACK_ROWS // (CHUNK_TRIALS * n_points), draw_bytes // cross_bytes))
    n_stack = min(k * CHUNK_TRIALS, count)
    layout += [((n_blocks, n_stack, cfg.n_rx, cfg.n_rx), np.dtype(complex)),
               ((n_stack, cfg.n_rx), np.dtype(float)),
               ((n_stack, cfg.block_len), np.dtype(np.int64)),
               ((n_stack, cfg.n_rx), np.dtype(complex))]
    nbytes = [math.prod(shape) * dtype.itemsize for shape, dtype in layout]
    starts = np.cumsum([0] + [-(-n // 64) * 64 for n in nbytes])
    memory = np.empty(starts[-1], dtype=np.uint8)
    buffers = [memory[lo : lo + n].view(dtype).reshape(shape)
               for (shape, dtype), n, lo in zip(layout, nbytes, starts)]
    draws, stack = buffers[:4], buffers[4:]
    # the phases, shaped like the channels: draw_trials has consumed the
    # normals by the time the phases are computed
    phases = draws[1].ravel().view(complex)[: draws[2].size].reshape(draws[2].shape)
    return n_stack, (draws, (phases, *stack), TrialStreams(cfg.seed))


def run_trial(cfg: SystemConfig, scheme: str, detector: str, trial_index: int,
              snr_db: float = math.inf) -> TrialOutcome:
    """Simulate one transmission block at ``snr_db`` dB (noiseless by
    default) and count its bit and block errors: ``_block_counts`` on a
    block of one trial, whose index must be an integer in [0, 2**64)."""
    sigma = snr_to_sigma(snr_db)
    trial_index = check_trial_index(trial_index)
    cfg = scheme_config(cfg, scheme, detector)
    ((_, *counts),) = _block_counts((cfg, detector, trial_index, 1, (sigma,)))
    return TrialOutcome(*counts)


def _block_counts(args) -> list:
    """(trials, bit errors, block errors, MACs) of one scheduling block at
    each noise level of ``sigmas`` (top level for pickling), summed over
    its stacks, each run by ``_stack_counts`` in the block's one
    ``_workspace``."""
    cfg, detector, start, count, sigmas = args
    stop = start + count
    n_stack, workspace = _workspace(cfg, count, len(sigmas))
    parts = [_stack_counts(cfg, detector, range(lo, min(lo + n_stack, stop)), sigmas, workspace)
             for lo in range(start, stop, n_stack)]
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

    sigmas = [snr_to_sigma(snr_db) for snr_db in cfg.snr_grid_db]
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
