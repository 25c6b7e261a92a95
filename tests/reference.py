"""Scalar reference path: one trial at a time, the oracle for the engine.

``irsmas`` runs every trial through its batched engine.  This module keeps
an independent implementation of the same chain, written with per-slot,
per-block and per-candidate loops: each trial's draws from its own
``trial_rng`` stream, the channel, propagation, MAS encoding, the ssd
receiver, the direct ml search and the single-antenna baselines.  The
engine-equivalence tests compare the engine with it, count for count and
value for value.  ``irsmas`` never imports it.

It imports from ``irsmas`` only these names; none of them encodes,
propagates or detects:
  * ``trial_rng``, the stream address of a trial, so that the oracle
    draws what the engine draws;
  * ``SystemConfig``, ``Constellation``, ``make_constellation``,
    ``RacTable``, ``build_rac_table`` and ``rac_row``: the config, the
    symbol alphabets and the antenna-combination table, read as data;
  * ``mac_base``, ``mac_ml`` and ``mac_ssd``, the paper's MAC formulas
    that a trial is billed by, and ``TrialOutcome``, the record of a
    trial's counts, so that ``run_trial`` returns what the engine's does;
  * ``aligning_phases``, the elementwise kernel conj(h)/|h| that gives
    each reflector its phase, so that phases agree bit for bit and the
    oracle's gains differ from the engine's only by the order of summing.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from irsmas.channel import trial_rng
from irsmas.core import Constellation, SystemConfig, make_constellation
from irsmas.detection import mac_base, mac_ml, mac_ssd
from irsmas.harness import TrialOutcome
from irsmas.rac import RacTable, build_rac_table, rac_row
from irsmas.transmitter import aligning_phases


def bits_to_int(bits) -> int:
    """Big-endian bit vector -> integer (first bit most significant)."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Integer -> big-endian bit vector of the given width. Inverse of bits_to_int."""
    if not 0 <= value < (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.int64)


def rac_find(table: RacTable, antennas) -> int | None:
    """Row index of an antenna set, or None if the set is not legitimate."""
    ants = sorted(int(a) for a in antennas)
    n_sel = table.rows.shape[1]
    if len(ants) != n_sel or len(set(ants)) != n_sel:
        raise ValueError(f"expected {n_sel} distinct antennas, got {antennas}")
    if ants[0] < 1 or ants[-1] > table.n_rx:
        raise ValueError(f"antenna indices out of range [1, {table.n_rx}]: {antennas}")
    hits = np.flatnonzero((table.rows == ants).all(axis=1))
    return int(hits[0]) if hits.size else None


def monte_carlo_se(rate: float, trials: int) -> float:
    """Standard error of a Monte Carlo rate estimate (binomial approximation)."""
    return float(np.sqrt(max(rate * (1.0 - rate), 0.0) / trials))


def sample_channel(n_rx: int, n_refl: int, rng: np.random.Generator) -> np.ndarray:
    """An i.i.d. zero-mean unit-variance complex Gaussian channel h (n_rx,
    n_refl): every real part, then every imaginary part."""
    h = rng.standard_normal((n_rx, n_refl)) + 1j * rng.standard_normal((n_rx, n_refl))
    return h / np.sqrt(2.0)


def unit_noise(n_rx: int, rng: np.random.Generator) -> np.ndarray:
    """Complex noise whose real parts, then imaginary parts, are standard
    normal draws of ``rng``."""
    return rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)


def propagate(h, theta, x, noise_sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Received vector y = H theta x + n, with complex Gaussian noise n of
    variance sigma^2 an antenna drawn from ``rng``."""
    return h @ theta * x + unit_noise(len(h), rng) * (noise_sigma / np.sqrt(2.0))


def draw_trial(seed: int, trial_index: int, n_bits: int, n_rx: int, n_refl: int):
    """One trial's bits, channel and unit-variance noise, drawn in order
    from its own stream."""
    rng = trial_rng(seed, trial_index)
    bits = rng.integers(0, 2, size=n_bits, dtype=np.int64)
    return bits, sample_channel(n_rx, n_refl, rng), unit_noise(n_rx, rng)


def sort_weights_desc(weights) -> np.ndarray:
    """Slot indices (1-based) ordered by descending weight, ties to the smaller slot."""
    w = np.asarray(weights, dtype=float)
    return np.argsort(-w, kind="stable") + 1


def sort_weights_asc(weights) -> np.ndarray:
    """Ascending slot order, defined as the exact reverse of the descending one.

    Reversing (rather than sorting again) keeps transmitter and receiver
    consistent even when two slots have equal weight.
    """
    return sort_weights_desc(weights)[::-1]


def superpose(symbols, order_desc, alpha) -> complex:
    """Combine per-slot symbols into one scalar: x = sum_i sqrt(alpha_i) s_{k_i}.

    ``symbols`` is indexed by slot; ``order_desc[i]`` names the slot whose
    symbol is scaled by ``alpha[i]``.
    """
    symbols = np.asarray(symbols)
    x = 0j
    for i, slot in enumerate(order_desc):
        x += np.sqrt(alpha[i]) * symbols[slot - 1]
    return complex(x)


@lru_cache(maxsize=None)
def superposition_table(mod_order: int, alpha: tuple):
    """Every symbol-label tuple, lexicographically, and its ``superpose``d
    value with tuple position i at power ratio alpha[i]: (values, labels)."""
    points = make_constellation(mod_order).points
    labels = np.array(list(itertools.product(range(mod_order), repeat=len(alpha))))
    order = range(1, len(alpha) + 1)
    values = np.array([superpose(points[t], order, alpha) for t in labels])
    return values, labels


def reflector_phases(sel_channel: np.ndarray, delta: int) -> np.ndarray:
    """Phase vector aligning reflector block i to row i of the selected
    channel, one block at a time; leftover reflectors follow row 0."""
    sel_channel = np.atleast_2d(sel_channel)
    n_sel, n_refl = sel_channel.shape
    theta = np.empty(n_refl, dtype=complex)
    for i in range(n_sel):
        block = slice(i * delta, (i + 1) * delta)
        theta[block] = aligning_phases(sel_channel[i, block])
    tail = slice(n_sel * delta, n_refl)
    theta[tail] = aligning_phases(sel_channel[0, tail])
    return theta


def encode(bits, h, cfg: SystemConfig, table: RacTable, const: Constellation):
    """Map one block of bits on channel h to the transmit scalar and the
    reflector phases: (x, theta)."""
    mu = cfg.bits_per_sym
    sel = rac_row(table, bits_to_int(bits[: cfg.l1]))
    sel_channel = h[sel - 1, :]
    weights = np.linalg.norm(sel_channel, axis=1)
    order = sort_weights_desc(weights)
    symbols = [const.points[bits_to_int(bits[start : start + mu])]
               for start in range(cfg.l1, cfg.block_len, mu)]
    x = superpose(symbols, order, cfg.alpha)
    return x, reflector_phases(sel_channel, cfg.delta)


def make_trial(cfg: SystemConfig, trial: int, seed=None, sigma=0.0):
    """One mas trial's bits, channel and received vector at noise level
    ``sigma``, drawn and encoded one step at a time.  ``seed`` defaults to
    the config's."""
    table = build_rac_table(cfg.n_rx, cfg.n_sel)
    const = make_constellation(cfg.mod_order)
    rng = trial_rng(cfg.seed if seed is None else seed, trial)
    bits = rng.integers(0, 2, size=cfg.block_len, dtype=np.int64)
    h = sample_channel(cfg.n_rx, cfg.n_refl, rng)
    x, theta = encode(bits, h, cfg, table, const)
    return bits, h, propagate(h, theta, x, sigma, rng)


def make_trials(cfg: SystemConfig, trials, seed=None, sigma=0.0):
    """``make_trial`` for several trials, stacked: bits (T, block_len),
    channels (T, n_rx, n_refl) and received vectors (T, n_rx)."""
    parts = zip(*(make_trial(cfg, t, seed, sigma) for t in trials))
    return tuple(np.stack(part) for part in parts)


@dataclass
class CandidateSet:
    """Ranked antenna-combination candidates for the ssd receiver."""

    rows: np.ndarray     # lambda x n_sel candidate antenna rows (1-based)
    scores: np.ndarray   # received-power score per candidate row
    order: np.ndarray    # positions into rows, best score first


def quantize(value: complex, ratio: float, const: Constellation) -> complex:
    """Nearest constellation point once scaled by sqrt(ratio) (first point on ties)."""
    scaled = np.sqrt(ratio) * const.points
    return complex(const.points[np.argmin(np.abs(value - scaled))])


def rac_candidates(y: np.ndarray, table: RacTable, n_c: int, n_iters: int) -> CandidateSet:
    """Rank legitimate antenna rows by received power around the top-n_c antennas.

    A row qualifies outright when all of its antennas are among the n_c
    largest |y|^2.  If fewer than n_iters rows qualify, membership is
    relaxed one antenna at a time until enough rows exist or the table is
    exhausted.  Scores are the summed received powers of each row's
    antennas; the returned order sorts them descending.
    """
    power = np.abs(y) ** 2
    ranked = np.argsort(-power, kind="stable")
    top_mask = np.zeros(len(y), dtype=bool)
    top_mask[ranked[:n_c]] = True

    in_top = top_mask[table.rows - 1].sum(axis=1)
    n_sel = table.rows.shape[1]
    keep = []
    total = 0
    for misses in range(n_sel + 1):
        tier = np.flatnonzero(in_top == n_sel - misses)
        if tier.size:
            keep.append(tier)
            total += tier.size
        if total >= n_iters:
            break
    chosen = np.concatenate(keep) if keep else np.empty(0, dtype=np.int64)
    rows = table.rows[chosen]
    scores = power[rows - 1].sum(axis=1)
    order = np.argsort(-scores, kind="stable")
    return CandidateSet(rows=rows, scores=scores, order=order)


def ssd_candidate_decode(y, h, p_hat: int, cfg: SystemConfig, table: RacTable,
                         const: Constellation, gains=None):
    """Successively decode the superposed symbols assuming antenna row p_hat.

    Slots are visited weakest channel first; each later slot is quantized
    after subtracting every previously decoded component.  Returns
    (per-slot symbols, reconstructed transmit scalar, squared distance over
    all antennas); a zero effective gain on a visited slot gives an
    infinite distance.  ``gains`` (n_rx, C), if given, are every row's
    effective gains, used in place of the oracle's own H theta_p.
    """
    sel = rac_row(table, p_hat)
    sel_channel = h[sel - 1, :]
    order = sort_weights_asc(np.linalg.norm(sel_channel, axis=1))
    if gains is None:
        theta = reflector_phases(sel_channel, cfg.delta)
        row_gains = h @ theta
        slot_gains = sel_channel @ theta  # per-slot effective gain, slot j at [j-1]
    else:
        row_gains = gains[:, p_hat]
        slot_gains = row_gains[sel - 1]

    n_sel = cfg.n_sel
    symbols = np.zeros(n_sel, dtype=complex)
    for i in range(1, n_sel + 1):
        slot = order[i - 1]
        gain = slot_gains[slot - 1]
        if gain == 0:
            return symbols, 0j, np.inf
        v = y[sel[slot - 1] - 1] / gain
        for j in range(1, i):
            v -= np.sqrt(cfg.alpha[n_sel - j]) * symbols[order[j - 1] - 1]
        symbols[slot - 1] = quantize(v, cfg.alpha[n_sel - i], const)

    x_hat = superpose(symbols, order[::-1], cfg.alpha)  # as the encoder sums
    distance = float(np.sum(np.abs(y - row_gains * x_hat) ** 2))
    return symbols, complex(x_hat), distance


def detection_to_bits(p_hat: int, symbols, cfg: SystemConfig, table: RacTable,
                      const: Constellation) -> np.ndarray:
    """Recover the bit block from a detected row index and per-slot symbols."""
    parts = [int_to_bits(p_hat, cfg.l1)]
    for slot in range(1, cfg.n_sel + 1):
        parts.append(int_to_bits(const.index_of(symbols[slot - 1]), cfg.bits_per_sym))
    return np.concatenate(parts)


def ssd_detect(y, h, cfg: SystemConfig, table: RacTable, const: Constellation, gains=None):
    """Full ssd receiver: rank candidates, decode the best n_iters, keep the
    closest.  ``gains`` (n_rx, C), if given, are every row's effective
    gains, decoded with in place of the oracle's own H theta_p.  Returns
    (row index, per-slot symbols, distance, candidate count)."""
    cands = rac_candidates(y, table, cfg.n_cand_antennas, cfg.n_iters)
    n_cand = len(cands.rows)
    best_d, best_p, best_symbols = np.inf, None, None
    for v in range(min(cfg.n_iters, n_cand)):
        p_hat = rac_find(table, cands.rows[cands.order[v]])
        symbols, _, d = ssd_candidate_decode(y, h, p_hat, cfg, table, const, gains)
        if d < best_d:
            best_d, best_p, best_symbols = d, p_hat, symbols
    if best_p is None:  # every candidate had a degenerate zero gain
        best_p = rac_find(table, cands.rows[cands.order[0]])
        best_symbols = np.full(cfg.n_sel, const.points[0])
    return best_p, best_symbols, best_d, n_cand


def direct_gains(h, table: RacTable, delta: int) -> np.ndarray:
    """Effective gains H theta_p of every row p of the table, (n_rx, C):
    each row's phase vector built block by block, then one product."""
    theta = np.stack([reflector_phases(h[row - 1], delta) for row in table.rows])
    return h @ theta.T


def direct_ml_detect(y, h, cfg: SystemConfig, table: RacTable, const: Constellation,
                     gains=None):
    """Reference ML search: every (row, tuple) distance computed elementwise,
    2**14 hypotheses at a time; the first minimum wins.  ``gains`` (n_rx,
    C), if given, are searched in place of the oracle's own H theta_p of
    every row.  Returns (row index, per-slot symbols, distance)."""
    values, labels = superposition_table(cfg.mod_order, tuple(cfg.alpha))
    if gains is None:
        gains = direct_gains(h, table, cfg.delta)

    best = (np.inf, -1, -1)
    chunk = max(1, 2**14 // len(values))
    for lo in range(0, table.row_count, chunk):
        g = gains[:, lo : lo + chunk]
        d = np.sum(
            np.abs(y[:, None, None] - g[:, :, None] * values[None, None, :]) ** 2,
            axis=0,
        )
        flat = int(np.argmin(d))
        p_off, t = divmod(flat, len(values))
        if d[p_off, t] < best[0]:
            best = (float(d[p_off, t]), lo + p_off, t)

    distance, p_hat, t_hat = best
    sel = rac_row(table, p_hat)
    order = sort_weights_desc(np.linalg.norm(h[sel - 1, :], axis=1))
    symbols = np.zeros(cfg.n_sel, dtype=complex)
    for i, slot in enumerate(order):
        symbols[slot - 1] = const.points[labels[t_hat, i]]
    return p_hat, symbols, distance


def sas_bits(cfg: SystemConfig, scheme: str) -> tuple:
    """(antenna bits, symbol bits) of a baseline transmission: log2(n_rx)
    bits pick the target, and sas-sm appends one symbol's bits."""
    antenna_bits = cfg.n_rx.bit_length() - 1
    return antenna_bits, cfg.bits_per_sym if scheme == "sas-sm" else 0


def sas_encode(bits, h, cfg: SystemConfig, scheme: str):
    """Map a bit block to (transmit scalar, reflector phases, target antenna).

    The leading bits pick the target antenna (1-based); every reflector is
    phase-aligned to that antenna's channel row.  Under sas-sm the remaining
    bits choose a constellation point; sas-ssk sends 1.
    """
    antenna_bits, _ = sas_bits(cfg, scheme)
    target = bits_to_int(bits[:antenna_bits]) + 1
    theta = reflector_phases(h[target - 1 : target, :], h.shape[1])
    if scheme == "sas-sm":
        const = make_constellation(cfg.mod_order)
        x = const.points[bits_to_int(bits[antenna_bits:])]
    else:
        x = 1 + 0j
    return x, theta, target


def direct_sas_detect(y, h, cfg: SystemConfig, scheme: str, gains=None):
    """Reference baseline search: one target at a time, its phases from the
    scalar ``reflector_phases``, every symbol's distance elementwise; the
    first minimum wins.  Returns (bits, distance).  ``gains``, if given,
    is every target's H theta (n_rx, targets) to search with instead, such
    as the engine's (whose last bits may differ)."""
    antenna_bits, symbol_bits = sas_bits(cfg, scheme)
    if scheme == "sas-sm":
        values = make_constellation(cfg.mod_order).points
    else:
        values = np.array([1 + 0j])
    n_refl = h.shape[1]
    best = (np.inf, -1, -1)
    for target in range(1, cfg.n_rx + 1):
        theta = reflector_phases(h[target - 1 : target, :], n_refl)
        g = h @ theta if gains is None else gains[:, target - 1]
        terms = np.abs(y[:, None] - np.outer(g, values)) ** 2
        d = terms[0].copy()
        for term in terms[1:]:  # antennas summed in order, as the engine's re-check does
            d += term
        t = int(np.argmin(d))
        if d[t] < best[0]:
            best = (float(d[t]), target, t)

    distance, target, t = best
    bits = [int_to_bits(target - 1, antenna_bits), int_to_bits(t, symbol_bits)]
    return np.concatenate(bits), distance


def make_sas_trial(cfg: SystemConfig, scheme: str, trial: int, sigma=0.0):
    """One baseline trial of ``cfg`` (its seed, n_rx and n_refl) at noise
    level ``sigma``: (bits, channel h, x, theta, target, y)."""
    rng = trial_rng(cfg.seed, trial)
    bits = rng.integers(0, 2, size=sum(sas_bits(cfg, scheme)), dtype=np.int64)
    h = sample_channel(cfg.n_rx, cfg.n_refl, rng)
    x, theta, target = sas_encode(bits, h, cfg, scheme)
    return bits, h, x, theta, target, propagate(h, theta, x, sigma, rng)


def run_trial(cfg: SystemConfig, scheme: str, detector: str, trial_index: int,
              sigma=0.0) -> TrialOutcome:
    """Simulate one transmission block at noise level ``sigma``, step by
    step, and count its errors."""
    if scheme == "mas":
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        const = make_constellation(cfg.mod_order)
        bits, h, y = make_trial(cfg, trial_index, sigma=sigma)
        if detector == "ml":
            p_hat, symbols, _ = direct_ml_detect(y, h, cfg, table, const)
            mac = mac_ml(cfg)
        else:
            p_hat, symbols, _, n_cand = ssd_detect(y, h, cfg, table, const)
            mac = mac_ssd(cfg, n_cand)
        bits_hat = detection_to_bits(p_hat, symbols, cfg, table, const)
    else:
        bits, h, *_, y = make_sas_trial(cfg, scheme, trial_index, sigma)
        bits_hat, _ = direct_sas_detect(y, h, cfg, scheme)
        mac = 2 ** len(bits) * mac_base(cfg.n_rx, cfg.n_refl)
    bit_errors = int(np.sum(bits != bits_hat))
    return TrialOutcome(bit_errors=bit_errors, block_error=int(bit_errors > 0), mac=mac)
