"""Receivers: the optimal exhaustive ML search and the low-complexity
successive signal detection (SSD) receiver, run on a stack of trials, plus
the paper's MAC-complexity models.

The ML search screens every hypothesis with an expanded distance in real
arithmetic, split into one term per axis of the superposed value, and
recomputes only those near the minimum with the direct elementwise
distance, which fixes the decision.

The SSD receiver first ranks antenna combinations by received power (the
candidate sorter), then for each of the top candidates re-derives the
reflector configuration, peels the superposed symbols off weakest-slot
first, superposes the decoded symbols again, and keeps the candidate whose
reconstruction is closest to the observed vector.

``ml_detect`` and ``ssd_detect`` run one trial, as a stack of one.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    Constellation,
    SuperpositionAxes,
    SystemConfig,
    make_constellation,
    superposition_axes,
    unpack_bits,
)
from .rac import RacTable
from .transmitter import aligning_phases, gain_index, gather_phases, reflector_blocks, slot_order

# Most scores (or distance terms) any one array of the ML search holds,
# unless a single pair's |A| + |B| scores are more.
SCREEN_BUDGET = 2**16
# Most hypotheses (combination, symbol tuple) an exhaustive ML search covers.
ML_GUARD = 2**20


@dataclass
class DetectionResult:
    """Decoder output: antenna-combination index, per-slot symbols, bits."""

    rac_index: int
    symbols: np.ndarray   # constellation point per slot
    bits: np.ndarray
    distance: float
    mac_count: int


def detected_bits(p_hat: np.ndarray, labels: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Bit blocks (T, block_len) from detected row indices (T,) and per-slot
    symbol labels (T, n_sel): the row index, then each slot's label."""
    return np.concatenate(
        [unpack_bits(p_hat[:, None], cfg.l1), unpack_bits(labels, cfg.bits_per_sym)], axis=1)


def rac_candidates_batch(y: np.ndarray, table: RacTable, n_c: int, n_iters: int):
    """Rank legitimate antenna rows by received power around the top-n_c
    antennas, for a stack of received vectors y (T, n_rx).

    A row qualifies outright when all of its antennas are among the n_c
    largest |y|^2.  If fewer than n_iters rows qualify, membership is
    relaxed one antenna at a time (rows with n_sel-1 antennas in the top
    set, then n_sel-2, ...) until enough rows exist or the table is
    exhausted.  Candidates rank by the summed received power of their
    antennas, descending.  Returns the table indices of each trial's best
    min(n_iters, C) rows in ranked order (T, V), and each trial's count of
    qualifying rows (T,).  Only the first min(n_iters, count) columns of a
    trial are candidates.
    """
    power = np.abs(y) ** 2
    n_trials, n_rx = power.shape
    n_sel = table.rows.shape[1]
    ranked = np.argsort(-power, axis=1, kind="stable")
    top = np.zeros((n_trials, n_rx), dtype=bool)
    np.put_along_axis(top, ranked[:, :n_c], True, axis=1)
    in_top = top[:, table.rows - 1].sum(axis=-1)  # (T, C)

    # Whole tiers join, fewest misses first, until n_iters rows are in: the
    # admitted rows are those with at least m* antennas in the top set, m*
    # the largest m whose rows number n_iters or more (0 when none does).
    at_least = (in_top[:, :, None] >= np.arange(n_sel + 1)).sum(axis=1)  # (T, n_sel+1)
    enough = at_least[:, ::-1] >= n_iters
    m_star = np.where(enough.any(axis=1), n_sel - np.argmax(enough, axis=1), 0)
    admitted = in_top >= m_star[:, None]

    # Score descending; ties keep tiered-list order (tier, then table index).
    scores = power[:, table.rows - 1].sum(axis=-1)
    key = np.where(admitted, -scores, np.inf)
    ranking = np.lexsort((n_sel - in_top, key), axis=1)
    return ranking[:, : min(n_iters, table.row_count)], admitted.sum(axis=1)


def ssd_detect_batch(
    y: np.ndarray,
    h: np.ndarray,
    norms: np.ndarray,
    phases: np.ndarray,
    cfg: SystemConfig,
    table: RacTable,
):
    """SSD receiver for a stack of trials: y (T, n_rx), h (T, n_rx, n_refl),
    its row norms (T, n_rx; None at n_sel 1) and its ``aligning_phases``.

    Decodes the best n_iters ranked candidates of every trial at once.  A
    candidate's slots are visited weakest channel row first; the first is
    quantized against the largest power ratio, each later one after
    subtracting every component decoded before it (the first point wins a
    tie).  The candidate whose superposed decoded symbols lie closest to y
    over all antennas wins, the first on ties.  A zero effective gain on
    any slot disqualifies a candidate, and a trial whose candidates are all
    disqualified falls back to its first ranked row with ``points[0]``
    symbols.  Returns the detected row indices (T,), per-slot symbol labels
    (T, n_sel), distances (T, inf when every candidate is disqualified)
    and candidate counts (T,).
    """
    cand, n_cand = rac_candidates_batch(y, table, cfg.n_cand_antennas, cfg.n_iters)
    n_trials, n_v = cand.shape
    n_sel, points = cfg.n_sel, make_constellation(cfg.mod_order).points
    trial = np.arange(n_trials)
    rows, _, order = slot_order(cand, norms, table)  # (T, V, n_sel), by slot
    order = order[..., ::-1]  # weakest first
    ant_o = np.take_along_axis(rows - 1, order, axis=-1)  # antennas in decoding order

    theta = gather_phases(phases, cand, n_sel)  # (T, V, n_refl)
    g_all = (h[:, None] @ theta[..., None])[..., 0]  # (T, V, n_rx), one H theta per candidate
    gains = np.take_along_axis(g_all, ant_o, axis=-1)
    dead = (gains == 0).any(axis=-1)
    gains[gains == 0] = 1  # a dead candidate's decode is discarded below
    y_o = y[trial[:, None, None], ant_o]

    # decoding step k scales by the k-th largest power ratio
    coef = [np.sqrt(cfg.alpha[n_sel - 1 - k]) for k in range(n_sel)]
    labels_o = np.zeros((n_trials, n_v, n_sel), dtype=np.int64)
    for k in range(n_sel):
        v = y_o[..., k] / gains[..., k]
        for m in range(k):
            v -= coef[m] * points[labels_o[..., m]]
        labels_o[..., k] = np.argmin(np.abs(v[..., None] - coef[k] * points), axis=-1)
    axes = superposition_axes(cfg.mod_order, tuple(cfg.alpha))
    x_hat = axes.superpose(labels_o[..., ::-1])  # decoded in reverse tuple order
    distance = np.sum(np.abs(y[:, None, :] - g_all * x_hat[..., None]) ** 2, axis=-1)

    live = ~dead & (np.arange(n_v) < n_cand[:, None]) & (distance < np.inf)
    best = np.argmin(np.where(live, distance, np.inf), axis=1)
    found = live[trial, best]
    best[~found] = 0
    labels = np.zeros((n_trials, n_sel), dtype=np.int64)
    np.put_along_axis(labels, order[trial, best], labels_o[trial, best], axis=1)
    labels[~found] = 0
    return cand[trial, best], labels, np.where(found, distance[trial, best], np.inf), n_cand


def check_ml_guard(cfg: SystemConfig) -> None:
    """Refuse an exhaustive search over more than ML_GUARD hypotheses, the
    2^block_len that ``mac_ml`` bills; a baseline's config is its pin."""
    n_hyp = 2**cfg.block_len
    if n_hyp > ML_GUARD:
        # ssd decodes superposed slots; a baseline (one slot) is ml-only
        hint = "; the ssd detector has no such limit" if cfg.n_sel > 1 else ""
        raise ValueError(f"ml_guard: the exhaustive ml search covers {n_hyp} hypotheses, "
                         f"more than ML_GUARD = {ML_GUARD}{hint}")


def ml_gains(h: np.ndarray, phases: np.ndarray, cfg: SystemConfig, table: RacTable,
             buffers=None):
    """What the exhaustive ML search needs of a stack of channels h (T, n_rx,
    n_refl) and their ``aligning_phases``, for any y: the conjugate gains
    conj(g_p) = conj(H theta_p) of every legitimate row p (T, n_rx, C) and
    ||g_p||^2 (T C,).  ``buffers``, if given, is a cross-gain buffer (at
    least T, n_rx, n_rx) and a gains stack (at least T, n_rx, C), complex,
    which this overwrites instead of allocating them.

    Row p's theta aligns each of the K non-empty ``reflector_blocks`` k to
    one antenna a_k(p), so g_p is a sum of K block gains, and a block has
    only n_rx alignments.  One product per block forms them all, the cross
    gains B_k[r, a] = sum over n in block k of h[r, n] u[a, n] (n_rx^2
    n_refl MACs a trial in all, against C n_rx n_refl for every H theta_p),
    and every row adds its term, B_k[r, a_k(p)] from ``gain_index``, in
    block order.  The cross gains are conjugated first, which is exact
    (negation commutes with rounding), so the stack is conj(g) and the
    search's g^H y is one product.
    """
    n_trials, n_rx, n_refl = h.shape
    index = gain_index(n_rx, cfg.n_sel, n_refl)
    blocks = reflector_blocks(n_refl, cfg.n_sel, n_refl // cfg.n_sel)[: len(index)]
    if buffers is None:
        buffers = (np.empty((n_trials, n_rx, n_rx), dtype=complex),
                   np.empty((n_trials, n_rx, table.row_count), dtype=complex))
    cross, gains = (buf[:n_trials] for buf in buffers)
    flat = gains.reshape(n_trials * n_rx, -1, copy=False)
    for (block, _), antenna in zip(blocks, index):
        np.matmul(h[..., block], phases[..., block].transpose(0, 2, 1), out=cross)
        np.conjugate(cross, out=cross)
        terms = cross.reshape(n_trials * n_rx, n_rx, copy=False)
        if block.start == 0:
            # index is in range, so "clip" changes no index; the default
            # "raise" would have numpy copy the result through a temporary
            np.take(terms, antenna, axis=1, out=flat, mode="clip")
        else:
            flat += np.take(terms, antenna, axis=1)
    energy = gains.real**2
    energy += gains.imag**2
    return gains, energy.sum(axis=1).ravel()


def ml_detect_batch(y: np.ndarray, gains: np.ndarray, energy: np.ndarray, norms: np.ndarray,
                    cfg: SystemConfig, table: RacTable):
    """Exhaustive ML search for a stack of trials: y (T, n_rx), the
    conjugate gains stack (T, n_rx, C) and ||g||^2 of its channels from
    ``ml_gains``, and their row norms (T, n_rx; None at n_sel 1).

    Minimizes ||y - H theta_p x||^2 over every legitimate row p and every
    value x in the superposition set.  Ties resolve to the smaller p, then
    the lexicographically earlier symbol tuple.  Returns the detected row
    indices (T,), per-slot symbol labels (T, n_sel) and distances (T,).

    Hypotheses are first screened in real arithmetic with the expansion
    ||y||^2 - 2 Re(conj(x) g^H y) + |x|^2 ||g||^2.  Every superposed value
    is x = a + jb with a from a per-axis set A and b from B, so the score
    splits into one term per axis, and a (trial, row) pair's best score is
    the sum of its two per-axis minima.  The screen costs C n_rx + C (|A| +
    |B|) instead of C n_rx V (V = |A| |B| = M^n_sel), plus V for each pair
    near its trial's minimum.  Every hypothesis whose score lies within a
    rounding bound of that minimum is then recomputed elementwise, exactly
    as the direct search computes it (antennas summed in order), so the
    decision and distance are those of the direct search over these
    gains, bit for bit.
    """
    axes = superposition_axes(cfg.mod_order, tuple(cfg.alpha))
    values = axes.values
    n_trials, n_rx, n_rows = gains.shape

    # score(p, a + jb) = distance - ||y||^2 = f_A(p, a) + f_B(p, b), with
    # f_A = a (||g||^2 a - 2 Re(g^H y)) and f_B = b (||g||^2 b - 2 Im(g^H y)),
    # one row per value of A then of B, and (trial, row) pairs along the
    # trailing axis.
    corr2 = 2 * (y[:, None, :] @ gains)[:, 0].ravel()  # 2 g^H y
    ab = np.concatenate([axes.a, axes.b])
    n_a = len(axes.a)
    # Rounding, to first order in eps, with S = ||y|| + max|x| max||g||:
    #  - a screened score is off from the exact one at a + jb, which is
    #    values[v] bit for bit, by under (3 n_rx + 5) eps/2 S^2 (||g||^2,
    #    g^H y, three roundings per axis and the sum of the two);
    #  - the direct elementwise distance is off by under (n_rx + 11) eps/2 S^2.
    # The direct search can pick a hypothesis over the screened minimum only
    # if their scores differ by less than twice the sum, (4 n_rx + 16) eps
    # S^2.  The shortlist bound is more than twice that.
    scale = np.linalg.norm(y, axis=1) + np.abs(values).max() * np.sqrt(
        energy.reshape(n_trials, n_rows).max(axis=1))
    tol = 8 * (n_rx + 2 * cfg.n_sel + 8) * np.finfo(float).eps * scale**2

    # Screen SCREEN_BUDGET // (|A| + |B|) pairs at a time.  A pair's minimum
    # is min f_A + min f_B, which rounded addition keeps equal to the least
    # of its V sums.  A slice keeps what lies near the running minimum of
    # its trial: a superset of what lies near the final one, and so of
    # every hypothesis the direct search could pick.  Those are re-checked
    # as they come, in (trial, p, v) order, and the first least distance of
    # each trial is kept.
    n_pairs = n_trials * n_rows
    pair_step = max(1, SCREEN_BUDGET // len(ab))
    low = np.full(n_trials, np.inf)
    found = (np.full(n_trials, np.inf), np.full(n_trials, -1), np.zeros(n_trials, dtype=np.int64))
    for lo in range(0, n_pairs, pair_step):
        pairs = slice(lo, min(lo + pair_step, n_pairs))
        f = np.multiply.outer(ab, energy[pairs])
        f[:n_a] -= corr2.real[pairs]
        f[n_a:] -= corr2.imag[pairs]
        f *= ab[:, None]
        f_a, f_b = f[:n_a], f[n_a:]
        pair_min = f_a.min(axis=0) + f_b.min(axis=0)
        trial = np.arange(pairs.start, pairs.stop) // n_rows
        np.minimum.at(low, trial, pair_min)
        limit = (low + tol)[trial]
        near = np.flatnonzero(pair_min <= limit)
        for pair, v in _near_hypotheses(f_a, f_b, axes, near, limit):
            t, p = np.divmod(lo + pair, n_rows)
            _keep_first_minimum(found, t, p, v, _exact_distance(y, gains, values, t, p, v))
    distance, p_hat, v_hat = found

    _, _, order = slot_order(p_hat, norms, table)  # slot of each tuple position
    labels = np.empty((n_trials, cfg.n_sel), dtype=np.int64)
    np.put_along_axis(labels, order, axes.tuples[v_hat], axis=1)
    return p_hat, labels, distance


def _near_hypotheses(f_a, f_b, axes: SuperpositionAxes, near, limit):
    """Expand the screened pairs ``near`` (columns of the per-axis scores
    f_a and f_b) into their hypotheses (pair, v) whose score f_a[ia[v]] +
    f_b[ib[v]] is at most the pair's limit, in (pair, v) order, forming at
    most SCREEN_BUDGET scores at a time."""
    n_values = len(axes.ia)
    v_step = min(n_values, SCREEN_BUDGET)
    k_step = SCREEN_BUDGET // v_step
    for k in range(0, len(near), k_step):
        cols = near[k : k + k_step]
        f_a_k, f_b_k = f_a[:, cols].T, f_b[:, cols].T
        for v0 in range(0, n_values, v_step):
            score = f_a_k[:, axes.ia[v0 : v0 + v_step]]
            score += f_b_k[:, axes.ib[v0 : v0 + v_step]]
            pair, v = np.nonzero(score <= limit[cols, None])
            yield cols[pair], v0 + v


def _exact_distance(y, gains, values, t, p, v):
    """The direct search's distance of hypotheses (trial t, row p, value v)
    from the conjugate gains: elementwise terms summed over antennas in
    sequence (np.sum may pair them up differently), at most SCREEN_BUDGET
    terms at a time."""
    n_rx = y.shape[1]
    distance = np.empty(len(t))
    step = max(1, SCREEN_BUDGET // n_rx)
    for lo in range(0, len(t), step):
        s = slice(lo, lo + step)
        g = gains.transpose(1, 0, 2)[:, t[s], p[s]].conj()
        terms = np.abs(y.T[:, t[s]] - g * values[v[s]]) ** 2
        part = distance[s]
        part[:] = terms[0]
        for r in range(1, n_rx):
            part += terms[r]
    return distance


def _keep_first_minimum(found, t, p, v, distance):
    """Fold re-checked hypotheses into each trial's best so far, ``found`` =
    (distance, p, v) arrays with p = -1 before a trial's first hypothesis.
    The hypotheses come in (t, p, v) order, after every one folded before
    them, so the first least distance of a trial wins."""
    ranked = np.lexsort((distance, t))
    first = ranked[np.flatnonzero(np.diff(t[ranked], prepend=-1))]
    best, rows, vals = found
    tf = t[first]
    take = first[(rows[tf] < 0) | (distance[first] < best[tf])]
    best[t[take]], rows[t[take]], vals[t[take]] = distance[take], p[take], v[take]


def ml_detect(y: np.ndarray, channel, cfg: SystemConfig, table: RacTable,
              const: Constellation) -> DetectionResult:
    """Jointly optimal exhaustive search for one trial: ``ml_detect_batch``
    on a stack of one."""
    check_ml_guard(cfg)
    h = channel.h[None]
    gains, energy = ml_gains(h, aligning_phases(h), cfg, table)
    p_hat, labels, distance = ml_detect_batch(y[None], gains, energy,
                                              np.linalg.norm(h, axis=-1), cfg, table)
    return _first_result(p_hat, labels, distance, cfg, const, mac_ml(cfg))


def ssd_detect(y: np.ndarray, channel, cfg: SystemConfig, table: RacTable,
               const: Constellation) -> DetectionResult:
    """SSD receiver for one trial: ``ssd_detect_batch`` on a stack of one."""
    h = channel.h[None]
    p_hat, labels, distance, n_cand = ssd_detect_batch(y[None], h, np.linalg.norm(h, axis=-1),
                                                       aligning_phases(h), cfg, table)
    return _first_result(p_hat, labels, distance, cfg, const, mac_ssd(cfg, int(n_cand[0])))


def _first_result(p_hat, labels, distance, cfg: SystemConfig, const: Constellation,
                  mac_count: int) -> DetectionResult:
    """The first trial of a batched detector's output, with its bits."""
    return DetectionResult(rac_index=int(p_hat[0]), symbols=const.points[labels[0]],
                           bits=detected_bits(p_hat, labels, cfg)[0],
                           distance=float(distance[0]), mac_count=mac_count)


def mac_base(n_rx: int, n_refl: int) -> int:
    """Multiply-accumulate count of one joint-hypothesis evaluation: 8 N_r N + 10 N_r - 1."""
    return 8 * n_rx * n_refl + 10 * n_rx - 1


def mac_ssd(cfg: SystemConfig, n_cand):
    """Multiply-accumulate count charged to one SSD detection with n_cand
    candidates; elementwise for an array of candidate counts."""
    return cfg.n_iters * mac_base(cfg.n_rx, cfg.n_refl) + n_cand * (cfg.n_sel - 1) + 3 * cfg.n_rx


def mac_ml(cfg: SystemConfig) -> int:
    """Multiply-accumulate count charged to one exhaustive search over its
    2^block_len hypotheses, of mas or of a baseline's pinned config."""
    return 2**cfg.block_len * mac_base(cfg.n_rx, cfg.n_refl)
