"""Receivers: the optimal exhaustive ML search and the low-complexity
successive signal detection (SSD) receiver, run on stacks of received
vectors, plus the paper's MAC-complexity models.

The ML search screens every hypothesis with an expanded distance in real
arithmetic, split into one term per axis of the superposed value, and
recomputes only those near the minimum with the direct elementwise
distance, which fixes the decision.

The SSD receiver first ranks antenna combinations by received power (the
candidate sorter), then for each of the top candidates takes its effective
gains from ``candidate_gains``, as the ML search takes every row's, peels
the superposed symbols off weakest-slot first, superposes the decoded
symbols again, and keeps the candidate whose reconstruction is closest to
the observed vector.
"""

import numpy as np

from .core import (
    SuperpositionAxes,
    SystemConfig,
    make_constellation,
    superposition_axes,
    unpack_bits,
)
from .rac import RacTable
from .transmitter import gain_index, reflector_blocks, slot_order

# Most scores (or distance terms) any one array of the ML search holds,
# unless a single pair's |A| + |B| scores are more.
SCREEN_BUDGET = 2**16
# Most hypotheses (combination, symbol tuple) an exhaustive ML search covers.
ML_GUARD = 2**20
# Channels one ML gains stack holds: a 128-trial headline 16-QAM search took 27 us
# a trial and 730 minor page faults, four 32-trial searches 18 us and 5.
ML_TRIALS = 32


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
    qualifying rows (T,), which is at least V: every column is a candidate.
    """
    power = np.abs(y) ** 2
    n_trials = len(power)
    n_sel, n_rows = table.rows.shape[1], table.row_count
    slots = table.rows.T - 1  # (n_sel, C), one antenna column per slot
    ranked = np.argsort(-power, axis=1, kind="stable")
    top = np.zeros(power.shape, dtype=bool)
    top[np.arange(n_trials)[:, None], ranked[:, :n_c]] = True
    in_top = np.zeros((n_trials, n_rows), dtype=np.int8)  # n_sel is at most 20
    for antenna in slots:
        in_top += top[:, antenna]

    # Whole tiers join, fewest misses first, until n_iters rows are in: the
    # admitted rows are those with at least m* antennas in the top set, m*
    # the n_iters-th largest count (0 when fewer rows exist).
    kth = n_rows - n_iters
    m_star = np.partition(in_top, kth, axis=1)[:, kth, None] if kth >= 0 else 0
    admitted = in_top >= m_star

    # Score descending; ties keep tiered-list order (tier, then table index).
    if n_sel < 8:  # numpy sums fewer than 8 terms in sequence, so these are its sums
        scores = power[:, slots[0]]
        for antenna in slots[1:]:
            scores += power[:, antenna]
    else:
        scores = power[:, table.rows - 1].sum(axis=-1)
    key = np.negative(scores, out=scores)
    key[~admitted] = np.inf
    ranking = np.lexsort((n_sel - in_top, key), axis=1)
    return ranking[:, : min(n_iters, n_rows)], np.count_nonzero(admitted, axis=1)


def ssd_detect_batch(y: np.ndarray, cross: np.ndarray, index: np.ndarray, norms: np.ndarray,
                     cfg: SystemConfig, table: RacTable):
    """SSD receiver for a stack of received vectors y (R, n_rx).  Its
    candidates' effective gains H theta_p come from ``cross`` and ``index``,
    the ``cross_gains`` of T channels, through ``candidate_gains``: y i
    belongs to channel i mod T.  ``norms`` are the row norms of the T
    channels (T, n_rx).

    Decodes the best n_iters ranked candidates of every y at once.  A
    candidate's slots are visited weakest channel row first; the first is
    quantized against the largest power ratio, each later one after
    subtracting every component decoded before it (the first point wins a
    tie).  The candidate whose superposed decoded symbols lie closest to y
    over all antennas wins, the first on ties.  A zero effective gain on
    any slot disqualifies a candidate, and a y whose candidates are all
    disqualified falls back to its first ranked row with ``points[0]``
    symbols.  Returns the detected row indices (R,), per-slot symbol labels
    (R, n_sel), distances (R, inf when every candidate is disqualified)
    and candidate counts (R,).
    """
    cand, n_cand = rac_candidates_batch(y, table, cfg.n_cand_antennas, cfg.n_iters)
    n_rows, n_v = cand.shape
    n_sel, points = cfg.n_sel, make_constellation(cfg.mod_order).points
    row = np.arange(n_rows)
    r, c = row[:, None, None], np.arange(n_v)[:, None]  # index (R, V, k) arrays by (r, c, k)
    rows, _, order = slot_order(cand, norms, table)  # (R, V, n_sel), by slot
    order = order[..., ::-1]  # weakest first
    ant_o = rows[r, c, order] - 1  # antennas in decoding order

    g = candidate_gains(cross, index, cand)  # (R, V, n_rx)
    gains = g[r, c, ant_o]
    dead = (gains == 0).any(axis=-1)
    gains[gains == 0] = 1  # a dead candidate's decode is discarded below
    y_o = y[r, ant_o]

    # decoding step k scales by the k-th largest power ratio
    coef = [np.sqrt(cfg.alpha[n_sel - 1 - k]) for k in range(n_sel)]
    labels_o = np.zeros((n_rows, n_v, n_sel), dtype=np.int64)
    for k in range(n_sel):
        v = y_o[..., k] / gains[..., k]
        for m in range(k):
            v -= coef[m] * points[labels_o[..., m]]
        labels_o[..., k] = np.argmin(np.abs(v[..., None] - coef[k] * points), axis=-1)
    axes = superposition_axes(cfg.mod_order, tuple(cfg.alpha))
    x_hat = axes.superpose(labels_o[..., ::-1])  # decoded in reverse tuple order
    residual = np.multiply(g, x_hat[..., None], out=g)  # the gains are not read again
    np.subtract(y[:, None, :], residual, out=residual)
    distance = np.square(np.abs(residual)).sum(axis=-1)

    # every one of the n_v columns is a candidate: each y has at least
    # min(n_iters, C) qualifying rows
    live = ~dead & (distance < np.inf)
    best = np.argmin(np.where(live, distance, np.inf), axis=1)
    found = live[row, best]
    best[~found] = 0
    labels = np.zeros((n_rows, n_sel), dtype=np.int64)
    labels[row[:, None], order[row, best]] = labels_o[row, best]
    labels[~found] = 0
    return cand[row, best], labels, np.where(found, distance[row, best], np.inf), n_cand


def check_ml_guard(cfg: SystemConfig) -> None:
    """Refuse an exhaustive search over more than ML_GUARD hypotheses, the
    2^block_len that ``mac_ml`` bills; a baseline's config is its pin."""
    n_hyp = 2**cfg.block_len
    if n_hyp > ML_GUARD:
        # ssd decodes superposed slots; a baseline (one slot) is ml-only
        hint = "; the ssd detector has no such limit" if cfg.n_sel > 1 else ""
        raise ValueError(f"ml_guard: the exhaustive ml search covers {n_hyp} hypotheses, "
                         f"more than ML_GUARD = {ML_GUARD}{hint}")


def cross_gains(h: np.ndarray, phases: np.ndarray, n_sel: int, out=None):
    """The per-block cross gains of a stack of channels h (T, n_rx, n_refl)
    and their ``aligning_phases`` u, with the antennas they serve.

    Returns B (K, T, n_rx, n_rx), one slab per block k of
    ``reflector_blocks``, in order, with B_k[t, r, a] = sum over n in block
    k of h[t, r, n] u[t, a, n], and ``gain_index`` a (K, C): row p's theta
    aligns block k to antenna a_k(p), so its effective gain H theta_p is
    the sum over k of B_k[:, :, a_k(p)].  n_rx^2 n_refl MACs a trial form
    every row's gains, and this is the one place where they are formed.
    ``out`` (at least K, T, n_rx, n_rx, complex), if given, is overwritten;
    no reader writes B.
    """
    n_trials, n_rx, n_refl = h.shape
    blocks = [block for block, _ in reflector_blocks(n_refl, n_sel)]
    cross = (np.empty((len(blocks), n_trials, n_rx, n_rx), dtype=complex) if out is None
             else out[:, :n_trials])
    for block, cross_k in zip(blocks, cross):
        np.matmul(h[..., block], phases[..., block].transpose(0, 2, 1), out=cross_k)
    return cross, gain_index(n_rx, n_sel, n_refl)


def candidate_gains(cross: np.ndarray, index: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Effective gains H theta_p (R, V, n_rx) of candidate rows ``cand`` (R,
    V) from the T trials' ``cross_gains`` (K, T, n_rx, n_rx) and the
    antennas (K, C) they serve; row i of ``cand`` belongs to trial i mod
    T, so the candidates of several noise levels stack along R.  Each gain
    adds its blocks' terms in block order, so a row's gain is the same bits
    whichever candidates it is formed among: the ML search's gains of every
    row and the SSD receiver's of its candidates agree.  ``cross`` is only
    read."""
    trial = (np.arange(len(cand)) % cross.shape[1])[:, None]
    gains = cross[0][trial, :, index[0][cand]]
    for cross_k, antenna in zip(cross[1:], index[1:]):
        gains += cross_k[trial, :, antenna[cand]]
    return gains


def ml_detect_batch(y: np.ndarray, cross: np.ndarray, index: np.ndarray, norms: np.ndarray,
                    cfg: SystemConfig, table: RacTable):
    """Exhaustive ML search for a stack of received vectors y (R, n_rx),
    from ``ssd_detect_batch``'s inputs: the ``cross_gains`` and antennas of
    T channels and their row norms (T, n_rx), y i belonging to channel i
    mod T.  It forms the ``candidate_gains`` of every row ML_TRIALS
    channels at a time and searches every y of those channels with them.

    Minimizes ||y - H theta_p x||^2 over every legitimate row p and every
    value x in the superposition set.  Ties resolve to the smaller p, then
    the lexicographically earlier symbol tuple.  Returns the detected row
    indices (R,), per-slot symbol labels (R, n_sel) and distances (R,);
    each y's are those of a search over it alone.
    """
    axes = superposition_axes(cfg.mod_order, tuple(cfg.alpha))
    n_trials, n_rx = cross.shape[1], y.shape[1]
    every_row = np.arange(index.shape[1])
    points = y.reshape(-1, n_trials, n_rx)  # the noise levels along a leading axis
    found = []
    for lo in range(0, n_trials, ML_TRIALS):
        s = slice(lo, min(lo + ML_TRIALS, n_trials))
        cand = np.broadcast_to(every_row, (s.stop - lo, len(every_row)))
        found.append(_ml_search(points[:, s].reshape(-1, n_rx),
                                candidate_gains(cross[:, s], index, cand), axes))
    distance, p_hat, v_hat = (np.hstack([f.reshape(len(points), -1) for f in parts]).ravel()
                              for parts in zip(*found))
    _, _, order = slot_order(p_hat, norms, table)  # slot of each tuple position
    labels = np.empty((len(y), cfg.n_sel), dtype=np.int64)
    np.put_along_axis(labels, order, axes.tuples[v_hat], axis=1)
    return p_hat, labels, distance


def _ml_search(y: np.ndarray, gains: np.ndarray, axes: SuperpositionAxes):
    """``ml_detect_batch``'s search of y against the gains of every row (T,
    C, n_rx): the distances, rows and ``axes.values`` indices.

    Hypotheses are first screened in real arithmetic with the expansion
    ||y||^2 - 2 Re(conj(x) g^H y) + |x|^2 ||g||^2.  Every superposed value
    is x = a + jb with a from a per-axis set A and b from B, so the score
    splits into one term per axis, and a (trial, row) pair's best score is
    the sum of its two per-axis minima.  The screen costs C n_rx + C (|A| +
    |B|) instead of C n_rx V (V = |A| |B| = M^n_sel), plus V for each pair
    near its y's minimum.  Every hypothesis whose score lies within a
    rounding bound of that minimum is then recomputed elementwise, exactly
    as the direct search computes it (antennas summed in order), so the
    decision and distance are those of the direct search over these
    gains, bit for bit, however the pairs are sliced.
    """
    values = axes.values
    n_trials, n_rows, n_rx = gains.shape
    n_y = len(y)

    # score(p, a + jb) = distance - ||y||^2 = f_A(p, a) + f_B(p, b), with
    # f_A = a (||g||^2 a - 2 Re(g^H y)) and f_B = b (||g||^2 b - 2 Im(g^H y)),
    # one row per value of A then of B, and (y, row) pairs along the
    # trailing axis.  2 g^H y is 2 conj(g conj(y)), exactly: each y against
    # its channel's gains, the noise levels along a leading axis.
    corr2 = 2 * np.conjugate(gains @ np.conjugate(y).reshape(-1, n_trials, n_rx, 1)).ravel()
    # ||g||^2 as a sum of squares over the real and imaginary parts
    parts = gains.view(float)
    energy = np.einsum("tpk,tpk->tp", parts, parts)
    ab = np.concatenate([axes.a, axes.b])
    n_a = len(axes.a)
    # Rounding, to first order in eps, with S = ||y|| + max|x| max||g||:
    #  - a screened score is off from the exact one at a + jb, which is
    #    values[v] bit for bit, by under (4 n_rx + 4) eps/2 S^2 (||g||^2 as
    #    a sum of 2 n_rx squares, g^H y, three roundings per axis and the
    #    sum of the two);
    #  - the direct elementwise distance is off by under (n_rx + 11) eps/2 S^2.
    # The direct search can pick a hypothesis over the screened minimum only
    # if their scores differ by less than twice the sum, (5 n_rx + 15) eps
    # S^2.  The shortlist bound is more than 1.6 times that.
    g_max = np.sqrt(energy.max(axis=1))
    scale = np.linalg.norm(y, axis=1) + np.abs(values).max() * g_max[np.arange(n_y) % n_trials]
    tol = 8 * (n_rx + 2 * axes.n_sel + 8) * np.finfo(float).eps * scale**2
    energy = np.resize(energy, n_y * n_rows)  # each pair's, repeated level by level

    # Screen SCREEN_BUDGET // (|A| + |B|) pairs at a time.  A pair's minimum
    # is min f_A + min f_B, which rounded addition keeps equal to the least
    # of its V sums.  A slice keeps what lies near the running minimum of
    # its y: a superset of what lies near the final one, and so of every
    # hypothesis the direct search could pick.  Those are re-checked as
    # they come, in (y, p, v) order, and the first least distance of each y
    # is kept.
    n_pairs = n_y * n_rows
    pair_step = max(1, SCREEN_BUDGET // len(ab))
    low = np.full(n_y, np.inf)
    found = (np.full(n_y, np.inf), np.full(n_y, -1), np.zeros(n_y, dtype=np.int64))
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
    return found


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
    """The direct search's distance of hypotheses (y t, row p, value v) from
    the gains (T, C, n_rx) as they are, y t belonging to channel t mod T:
    elementwise terms summed over antennas in sequence (np.sum may pair
    them up differently), at most SCREEN_BUDGET terms at a time."""
    n_trials, _, n_rx = gains.shape
    distance = np.empty(len(t))
    step = max(1, SCREEN_BUDGET // n_rx)
    for lo in range(0, len(t), step):
        s = slice(lo, lo + step)
        g = gains[t[s] % n_trials, p[s]].T
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
