"""Sweep-engine tests: trial determinism, metrics, scheduling, parallel equality."""

import dataclasses
import math
import signal
import tracemalloc
import types
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import irsmas.detection
import irsmas.harness
from irsmas.channel import TrialStreams, draw_layout, draw_trials
from irsmas.cli import emit_results
from irsmas.core import (
    SNR_FLOOR_DB,
    SystemConfig,
    make_constellation,
    pack_bits,
    superposition_axes,
    validate_config,
)
from irsmas.detection import (
    ML_TRIALS,
    SCREEN_BUDGET,
    candidate_gains,
    cross_gains,
    detected_bits,
    mac_ml,
    ml_detect_batch,
)
from irsmas.harness import (
    BLOCK_TRIALS,
    CHUNK_TRIALS,
    CSV_COLUMNS,
    STACK_ROWS,
    SweepRow,
    TrialOutcome,
    _block_counts,
    _resolve_workers,
    _stack_counts,
    _workspace,
    compute_metrics,
    run_sweep,
    run_trial,
    scheme_config,
)
from irsmas.rac import build_rac_table
from irsmas.transmitter import aligning_phases, row_norms
from reference import (
    detection_to_bits,
    direct_gains,
    direct_ml_detect,
    direct_sas_detect,
    make_sas_trial,
    make_trials,
    monte_carlo_se,
)
from reference import run_trial as reference_run_trial

CFG = SystemConfig()


def detector_inputs(h, n_sel):
    """What both batch receivers take of channels h (T, n_rx, n_refl) but
    the received vectors: their ``cross_gains``, the antennas those serve
    (``gain_index``) and their row norms, as the engine forms them."""
    return (*cross_gains(h, aligning_phases(h), n_sel), row_norms(h))


def every_row_gains(cross, index):
    """``candidate_gains`` of every row, the ml search's gains, from the T
    trials' ``cross_gains`` and antennas, laid out (T, n_rx, C) as the
    reference reads them."""
    n_trials, n_rows = cross.shape[1], index.shape[1]
    cand = np.broadcast_to(np.arange(n_rows), (n_trials, n_rows))
    return candidate_gains(cross, index, cand).transpose(0, 2, 1)


def channel_gains(h, n_sel):
    """``every_row_gains`` of channels h (T, n_rx, n_refl) from their own
    ``cross_gains``."""
    return every_row_gains(*detector_inputs(h, n_sel)[:2])


@contextmanager
def time_limit(seconds: int):
    """Fail with TimeoutError, instead of hanging, if the block overruns."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def failing_stack_counts(*args):
    """Stands in for ``_stack_counts`` in a worker (module level, so the
    forked worker finds it by name)."""
    raise RuntimeError("stack failed in a worker")


def point_block(cfg, scheme, detector, start, count, sigma=0.0):
    """``_block_counts`` of one point of ``cfg`` as ``scheme`` reads it, at
    noise level ``sigma``."""
    cfg = scheme_config(cfg, scheme, detector)
    (counts,) = _block_counts((cfg, detector, start, count, (sigma,)))
    return counts


def snr_of(sigma):
    """The SNR in dB whose noise level is ``sigma``."""
    return -20 * math.log10(sigma)


class TestRunTrial:
    def test_deterministic(self):
        a = run_trial(CFG, "mas", "ssd", 12, snr_db=snr_of(3.0))
        b = run_trial(CFG, "mas", "ssd", 12, snr_db=snr_of(3.0))
        assert (a.bit_errors, a.block_error, a.mac) == (b.bit_errors, b.block_error, b.mac)

    def test_noiseless_is_error_free(self):
        for trial in range(20):
            out = run_trial(CFG, "mas", "ssd", trial)
            assert out.bit_errors == 0 and out.block_error == 0

    def test_block_error_consistent(self):
        for trial in range(30):
            out = run_trial(CFG, "mas", "ssd", trial, snr_db=snr_of(20.0))
            assert out.block_error == int(out.bit_errors > 0)
            assert 0 <= out.bit_errors <= CFG.block_len

    def test_sas_trial(self):
        cfg = dataclasses.replace(CFG, n_rx=16, n_sel=1, alpha=(1.0,))
        out = run_trial(cfg, "sas-ssk", "ml", 0)
        assert out.bit_errors == 0
        assert out.mac == 133_616

    @pytest.mark.parametrize("scheme,detector,fragment", [
        ("bogus", "ml", "scheme:"),
        ("mas", "bogus", "detector:"),
        ("sas-sm", "ssd", "detector:"),
        ("sas-ssk", "ssd", "detector:"),
    ])
    def test_unknown_scheme_or_detector_rejected(self, monkeypatch, scheme, detector, fragment):
        def no_chunk(*args):
            raise AssertionError("a trial ran before the scheme and detector were checked")

        monkeypatch.setattr(irsmas.harness, "_stack_counts", no_chunk)
        cfg = dataclasses.replace(CFG, n_rx=16, n_sel=1, alpha=(1.0,))
        with pytest.raises(ValueError, match=fragment):
            run_trial(cfg, scheme, detector, 0)

    def test_trial_index_outside_the_counter_rejected(self):
        for trial in (-1, 2**64):
            with pytest.raises(ValueError, match=r"^trial_index:"):
                run_trial(CFG, "mas", "ssd", trial)
        assert run_trial(CFG, "mas", "ssd", 2**64 - 1).block_error == 0

    def test_non_integer_trial_index_rejected(self):
        for trial in (3.0, 3.5):
            with pytest.raises(ValueError, match=r"^trial_index:"):
                run_trial(CFG, "mas", "ssd", trial)
        snr = snr_of(20.0)
        assert run_trial(CFG, "mas", "ssd", np.int64(3), snr) == run_trial(CFG, "mas", "ssd", 3, snr)

    @pytest.mark.parametrize("snr_db", [math.inf, -14.0, SNR_FLOOR_DB])
    @pytest.mark.parametrize("detector", ["ml", "ssd"])
    def test_snr_db_is_the_sweeps_noise_level(self, monkeypatch, detector, snr_db):
        # run_sweep's own noise level for the point, as it hands it to the scheduler
        levels = []

        def sweep_counts(cfg, sigmas, *args):
            levels.extend(sigmas)
            return [(1, 0, 0, 0)] * len(sigmas)

        monkeypatch.setattr(irsmas.harness, "_sweep_counts", sweep_counts)
        run_sweep(dataclasses.replace(CFG, snr_grid_db=(snr_db,)), "mas", detector, workers=1)
        cfg = scheme_config(CFG, "mas", detector)
        for trial in (0, 7, 40):
            (counts,) = _block_counts((cfg, detector, trial, 1, tuple(levels)))
            assert run_trial(CFG, "mas", detector, trial, snr_db) == TrialOutcome(*counts[1:])
        assert levels == [0.0 if snr_db == math.inf else 10.0 ** (-snr_db / 20.0)]

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf, SNR_FLOOR_DB - 0.5])
    def test_unusable_snr_db_rejected(self, monkeypatch, snr_db):
        def no_stack(*args):
            raise AssertionError("a trial ran with an unusable SNR")

        monkeypatch.setattr(irsmas.harness, "_stack_counts", no_stack)
        with pytest.raises(ValueError, match=r"^snr_db:"):
            run_trial(CFG, "mas", "ssd", 0, snr_db)

    @pytest.mark.parametrize("scheme,cfg,fragment", [
        ("sas-ssk", SystemConfig(n_rx=12), "n_rx:"),
        ("sas-sm", SystemConfig(n_rx=16, n_refl=0), "n_refl:"),
        ("mas", SystemConfig(alpha=(0.5, 0.5)), "alpha:"),
    ])
    def test_config_validated(self, scheme, cfg, fragment):
        with pytest.raises(ValueError, match=fragment):
            run_trial(cfg, scheme, "ml", 0)

    @pytest.mark.parametrize("scheme", ["sas-sm", "sas-ssk"])
    def test_baseline_pins_selection_fields(self, scheme):
        # n_sel 2 would give sas-ssk floor(log2(C(16, 2))) = 6 index bits
        pinned = SystemConfig(n_rx=16, n_sel=1, alpha=(1.0,), seed=3)
        loose = dataclasses.replace(pinned, n_sel=2, alpha=(0.2, 0.8))
        snr = snr_of(25.0)
        for trial in range(5):
            assert run_trial(loose, scheme, "ml", trial, snr) == \
                run_trial(pinned, scheme, "ml", trial, snr)


# power ratios with distinct superposed values, by (n_sel, modulation order)
ALPHAS = {
    (1, 2): (1.0,), (1, 4): (1.0,), (1, 16): (1.0,),
    (2, 2): (0.2, 0.8), (2, 4): (0.2, 0.8), (2, 16): (0.05, 0.95),
    (3, 2): (0.05, 0.2, 0.75), (3, 4): (0.05, 0.2, 0.75), (3, 16): (0.01, 0.1, 0.89),
}


@st.composite
def mas_blocks(draw):
    """A small mas config, a noise level and a block (start, count) of its trials."""
    n_sel = draw(st.sampled_from((1, 2, 3)))
    n_rx = draw(st.integers(n_sel + 1, 8))
    mod_order = draw(st.sampled_from((2, 4, 16)))
    n_refl = n_sel * draw(st.integers(1, 12)) + draw(st.integers(0, n_sel - 1))
    n_rac = 1 << (math.comb(n_rx, n_sel).bit_length() - 1)
    n_cand_antennas = draw(st.integers(n_sel, n_rx))
    n_iters = draw(st.integers(1, n_rac + 2))
    sigma = draw(st.sampled_from((0.0, 0.05, 0.5, 2.0, 20.0)))
    cfg = SystemConfig(
        n_rx=n_rx, n_sel=n_sel, n_refl=n_refl, mod_order=mod_order,
        alpha=ALPHAS[n_sel, mod_order], n_cand_antennas=n_cand_antennas, n_iters=n_iters,
        seed=draw(st.integers(0, 2**32)),
    )
    return cfg, sigma, draw(st.integers(0, 5000)), draw(st.integers(1, 3 * CHUNK_TRIALS + 5))


class TestBatchedSsdEngine:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mas_blocks())
    @example((SystemConfig(n_rx=8, n_sel=3, n_refl=31, mod_order=16, alpha=(0.01, 0.1, 0.89),
                           n_cand_antennas=3, n_iters=1, seed=4), 0.5, 997, 37))
    @example((SystemConfig(n_rx=5, n_sel=2, n_refl=9, mod_order=4, n_cand_antennas=5,
                           n_iters=10, seed=2), 0.0, 16, 20))
    def test_block_counts_equal_sum_of_scalar_trials(self, case):
        cfg, sigma, start, count = case
        validate_config(cfg)
        want = [0, 0, 0]
        for trial in range(start, start + count):
            out = reference_run_trial(cfg, "mas", "ssd", trial, sigma)
            want[0] += out.bit_errors
            want[1] += out.block_error
            want[2] += out.mac
        assert point_block(cfg, "mas", "ssd", start, count, sigma) == (count, *want)


class TestBatchedMlEngine:
    """The batched ML search against the direct search.  Row and labels
    must agree with the direct search over its own gains H theta_p.  Row,
    labels and distance must equal, bit for bit, those of the direct search
    over the engine's gains, which ``TestMlGains`` bounds against H theta_p:
    the two sum the same products in different orders, so a distance may
    differ from the direct one in its last bits."""

    def assert_matches_direct(self, y, h, cfg):
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        const = make_constellation(cfg.mod_order)
        gains = channel_gains(h, cfg.n_sel)
        p_hat, labels, distance = ml_detect_batch(y, *detector_inputs(h, cfg.n_sel), cfg, table)
        for t in range(len(y)):
            ref_p, ref_symbols, _ = direct_ml_detect(y[t], h[t], cfg, table, const)
            assert p_hat[t] == ref_p
            np.testing.assert_array_equal(const.points[labels[t]], ref_symbols)
            own_p, own_symbols, own_d = direct_ml_detect(y[t], h[t], cfg, table, const,
                                                         gains[t])
            assert p_hat[t] == own_p
            np.testing.assert_array_equal(const.points[labels[t]], own_symbols)
            assert distance[t] == own_d
        return p_hat, labels, distance

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mas_blocks())
    # a 512-row table, larger than any drawn: C(16, 3) = 560 combinations
    @example((SystemConfig(n_rx=16, n_sel=3, n_refl=64, alpha=ALPHAS[3, 2], seed=5),
              0.5, 40, 4))
    def test_block_matches_direct_search(self, case):
        cfg, sigma, start, count = case
        validate_config(cfg)
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        const = make_constellation(cfg.mod_order)
        bits, h, y = make_trials(cfg, range(start, start + count), sigma=sigma)
        p_hat, labels, _ = self.assert_matches_direct(y, h, cfg)

        errors = [np.count_nonzero(b != detection_to_bits(int(p), const.points[lab], cfg,
                                                           table, const))
                  for b, p, lab in zip(bits, p_hat, labels)]
        want = (count, sum(errors), np.count_nonzero(errors), count * mac_ml(cfg))
        assert point_block(cfg, "mas", "ml", start, count, sigma) == want

    def test_all_zero_channel_ties_to_first_hypothesis(self):
        cfg = SystemConfig(n_rx=6, n_sel=3, n_refl=14, mod_order=4, alpha=(0.05, 0.2, 0.75),
                           seed=3)
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        const = make_constellation(cfg.mod_order)
        _, h, y = make_trials(cfg, range(4), sigma=0.5)
        h[1] = 0.0  # every hypothesis explains y[1] equally badly
        h[3] = 0.0
        y[3] = 0.0  # ...and here equally well
        p_hat, labels, distance = self.assert_matches_direct(y, h, cfg)
        for t in (1, 3):
            assert p_hat[t] == 0
            np.testing.assert_array_equal(labels[t], 0)
        assert distance[3] == 0.0

    def test_search_wider_than_budget_is_sliced(self):
        # C * V = 32 * 16**3 = 2**17 hypotheses a trial, twice the screening budget
        cfg = SystemConfig(n_rx=8, n_sel=3, n_refl=31, mod_order=16, alpha=(0.01, 0.1, 0.89),
                           seed=4)
        _, h, y = make_trials(cfg, range(3), sigma=0.5)
        self.assert_matches_direct(y, h, cfg)
        self.assert_matches_direct(y[:1], h[:1], cfg)  # a search of one trial alone

    def test_slice_boundary_inside_a_trial(self, monkeypatch):
        # BPSK at n_sel 3: |A| + |B| = 8 + 1 scores a pair, so a slice holds
        # 2**16 // 9 = 7281 pairs, which ends inside trial 227 (C = 32) of
        # one search over all 240 trials
        monkeypatch.setattr(irsmas.detection, "ML_TRIALS", 240)
        cfg = SystemConfig(n_rx=8, n_sel=3, n_refl=31, alpha=(0.05, 0.2, 0.75), seed=6)
        pair_step = SCREEN_BUDGET // 9
        assert pair_step % 32 and 240 * 32 > pair_step
        _, h, y = make_trials(cfg, range(240), sigma=0.5)
        self.assert_matches_direct(y, h, cfg)

    @pytest.mark.parametrize("budget", [40, 100, 300])
    def test_small_budget_slices_pairs_and_values(self, monkeypatch, budget):
        # 16-QAM at n_sel 2: |A| + |B| = 32 and V = 256 exceed or nearly fill
        # these budgets, so slices end inside trials and each kept pair is
        # expanded over several runs of values; trial 2 ties everywhere
        monkeypatch.setattr(irsmas.detection, "SCREEN_BUDGET", budget)
        cfg = SystemConfig(n_rx=5, n_sel=2, n_refl=9, mod_order=16, alpha=(0.05, 0.95), seed=8)
        _, h, y = make_trials(cfg, range(5), sigma=0.3)
        h[2] = 0.0
        p_hat, labels, _ = self.assert_matches_direct(y, h, cfg)
        assert p_hat[2] == 0
        np.testing.assert_array_equal(labels[2], 0)

    def test_identical_channel_rows_tie_to_smaller_row(self):
        # antennas 3 and 4 see the same channel, so rows (1, 3) and (1, 4)
        # align the same reflector phases and explain y equally well
        cfg = SystemConfig(n_rx=6, n_sel=2, n_refl=10, mod_order=4, seed=5)
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        values = superposition_axes(cfg.mod_order, cfg.alpha).values
        _, h, y = make_trials(cfg, range(3), sigma=0.05)
        h[:, 3] = h[:, 2]
        np.testing.assert_array_equal(table.rows[1:3], [[1, 3], [1, 4]])
        for t in range(3):
            gains = direct_gains(h[t], table, cfg.delta)
            np.testing.assert_array_equal(gains[:, 1], gains[:, 2])
            y[t] += gains[:, 2] * values[5 * t]  # sent on row 2, as loud as the noise
        p_hat, _, _ = self.assert_matches_direct(y, h, cfg)
        np.testing.assert_array_equal(p_hat, 1)

    @pytest.mark.parametrize("budget", [None, 40, 160])
    @pytest.mark.parametrize("count", [CHUNK_TRIALS, 7])  # a full chunk, then a ragged one
    def test_stacked_points_equal_per_point_searches(self, monkeypatch, count, budget):
        # 16-QAM at n_sel 2: |A| + |B| = 32, so a budget of 40 screens one
        # pair a slice and one of 160 five, and slices end inside trials
        # (C = 8) and, stacked, across points
        if budget is not None:
            monkeypatch.setattr(irsmas.detection, "SCREEN_BUDGET", budget)
        cfg = SystemConfig(n_rx=5, n_sel=2, n_refl=9, mod_order=16, alpha=(0.05, 0.95), seed=8)
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        points = [make_trials(cfg, range(40, 40 + count), sigma=sigma)
                  for sigma in (0.0, 0.3, 0.05)]
        h = points[0][1]
        cross = cross_gains(h, aligning_phases(h), cfg.n_sel)
        norms = np.linalg.norm(h, axis=-1)
        stacked = ml_detect_batch(np.concatenate([y for _, _, y in points]), *cross, norms, cfg,
                                  table)
        alone = [ml_detect_batch(y, *cross, norms, cfg, table) for _, _, y in points]
        for got, want in zip(stacked, zip(*alone)):
            np.testing.assert_array_equal(got, np.concatenate(want))

    @pytest.mark.parametrize("n_points", [1, 2, 3])
    @pytest.mark.parametrize("n_sel", [1, 2, 3])
    def test_search_slices_ml_trials_channels_at_a_time(self, monkeypatch, n_sel, n_points):
        # 7 channels, ML_TRIALS 3: the gains stack is formed for channels
        # 0-2, 3-5 and 6, and each slice is searched for every stacked point
        # as a search over that slice alone would search it
        cfg = SystemConfig(n_rx=6, n_sel=n_sel, n_refl=11, mod_order=4,
                           alpha={1: (1.0,), 2: (0.2, 0.8), 3: (0.05, 0.2, 0.75)}[n_sel], seed=9)
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        points = [make_trials(cfg, range(20, 27), sigma=sigma)
                  for sigma in (0.5, 0.0, 0.1)[:n_points]]
        h = points[0][1]
        y = np.concatenate([y for _, _, y in points])
        cross, index = cross_gains(h, aligning_phases(h), cfg.n_sel)
        norms = np.linalg.norm(h, axis=-1)
        slices = [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert ML_TRIALS >= 3  # each slice below is one search
        alone = [ml_detect_batch(y.reshape(n_points, 7, -1)[:, s].reshape(-1, cfg.n_rx),
                                 cross[:, s], index, norms[s], cfg, table) for s in slices]
        searched, real_gains = [], irsmas.detection.candidate_gains

        def candidate_gains(cross, index, cand):
            searched.append(cross.shape[1])
            return real_gains(cross, index, cand)

        monkeypatch.setattr(irsmas.detection, "ML_TRIALS", 3)
        monkeypatch.setattr(irsmas.detection, "candidate_gains", candidate_gains)
        got = ml_detect_batch(y, cross, index, norms, cfg, table)
        assert searched == [3, 3, 1]
        for got_part, parts in zip(got, zip(*alone)):
            want = np.concatenate([part.reshape(n_points, -1, *part.shape[1:]) for part in parts],
                                  axis=1)
            np.testing.assert_array_equal(got_part, want.reshape(got_part.shape))

    def test_all_zero_channel_memory_is_bounded(self):
        # Every hypothesis of every trial ties: 32 * 64 * 256 = 2**19 of
        # them.  Listing them all before the re-check took over 300 MB; the
        # screen and re-check hold at most 2**16 scores (512 KB) an array.
        cfg = SystemConfig(mod_order=16, alpha=(0.05, 0.95))
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        rng = np.random.default_rng(1)
        y = rng.standard_normal((CHUNK_TRIALS, cfg.n_rx)) + 0j
        h = np.zeros((CHUNK_TRIALS, cfg.n_rx, cfg.n_refl), dtype=complex)
        norms, phases = np.linalg.norm(h, axis=-1), aligning_phases(h)
        ml_detect_batch(y[:1], *cross_gains(h[:1], phases[:1], cfg.n_sel), norms[:1], cfg,
                        table)  # build the caches
        tracemalloc.start()
        try:
            p_hat, labels, distance = ml_detect_batch(y, *cross_gains(h, phases, cfg.n_sel),
                                                      norms, cfg, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        np.testing.assert_array_equal(p_hat, 0)
        np.testing.assert_array_equal(labels, 0)
        terms = np.abs(y) ** 2  # ||y - 0||^2, summed over antennas in order
        np.testing.assert_array_equal(distance, sum(terms[:, r] for r in range(cfg.n_rx)))


def assert_within_gain_bound(gains, h, table, delta):
    """Each trial's gains from ``every_row_gains`` (T, n_rx, C)
    lies within 2 (N + 2) eps sum_n |h[r, n]| of the direct H theta_p,
    entry by entry (``TestMlGains.test_gains_within_rounding_bound``)."""
    eps = np.finfo(float).eps
    for g, h_t in zip(gains, h):
        bound = 2 * (h_t.shape[1] + 2) * eps * np.abs(h_t).sum(axis=1)
        error = np.abs(g - direct_gains(h_t, table, delta))
        assert np.all(error <= bound[:, None])


@st.composite
def gain_stacks(draw):
    """A config with n_sel 1 to 4 and any n_refl >= n_sel, plus a stack of
    channels at some scale, with none, some or all of their entries zeroed,
    over enough trials to leave the last chunk ragged."""
    n_sel = draw(st.integers(1, 4))
    n_rx = draw(st.integers(n_sel + 1, 8))
    n_refl = n_sel * draw(st.integers(1, 9)) + draw(st.integers(0, n_sel - 1))
    n_trials = draw(st.integers(1, 2 * CHUNK_TRIALS + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    shape = (n_trials, n_rx, n_refl)
    h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h *= draw(st.sampled_from((1e-3, 1.0, 1e3)))
    h[rng.random(shape) < draw(st.sampled_from((0.0, 0.2, 1.0)))] = 0
    return SystemConfig(n_rx=n_rx, n_sel=n_sel, n_refl=n_refl), h


class TestMlGains:
    """The ml search's gains, every row's ``candidate_gains``, sum per-block
    cross gains; the direct search forms H theta_p in one product.  The
    two may differ by rounding alone."""

    # the last two have a leftover block of 1 and 2 reflectors
    @pytest.mark.parametrize("n_rx,n_sel,n_refl", [(12, 2, 64), (12, 3, 64), (8, 4, 66)])
    def test_gains_within_rounding_bound(self, n_rx, n_sel, n_refl):
        """|stack - H theta_p| <= 2 (N + 2) eps sum_n |h[r, n]| for
        each antenna r and row p, N = n_refl and eps the machine epsilon.

        Both sides sum the products h[r, n] u_n of the same rounded phases
        u, |u_n| <= 1 + eps, in different orders: the engine per block and
        then over blocks, the direct search in one product.  With
        gamma_k = k (eps/2) / (1 - k eps/2), a complex product formed in
        real arithmetic is off by at most sqrt(2) gamma_2 |h[r, n]| |u_n|,
        with or without fused multiply-adds, and N - 1 complex additions in
        any order add at most sqrt(2) gamma_(N-1) sum_n |h[r, n] u_n|.  So
        either side lies within sqrt(2) gamma_(N+1) (1 + eps) sum_n
        |h[r, n]| of the exact sum, about (N + 1) eps / sqrt(2) times it,
        and the two within sqrt(2) (N + 1) eps sum_n |h[r, n]|; the bound's
        2 (N + 2) leaves room for the second-order terms.  An all-zero row
        has a zero bound, and both sides give exactly 0 there.
        """
        cfg = SystemConfig(n_rx=n_rx, n_sel=n_sel, n_refl=n_refl)
        table = build_rac_table(n_rx, n_sel)
        _, h, _ = draw_trials(TrialStreams(7), range(CHUNK_TRIALS), 1, n_rx, n_refl)
        h[3, 1] = 0  # a dead antenna
        gains = channel_gains(h, n_sel)
        assert_within_gain_bound(gains, h, table, cfg.delta)
        np.testing.assert_array_equal(gains[3, 1], 0)

    @pytest.mark.parametrize("n_rx,n_sel,n_refl", [(12, 2, 64), (8, 3, 64), (5, 1, 7)])
    def test_cross_gains_are_only_read(self, n_rx, n_sel, n_refl):
        _, h, _ = draw_trials(TrialStreams(9), range(CHUNK_TRIALS), 1, n_rx, n_refl)
        cross, index = cross_gains(h, aligning_phases(h), n_sel)
        before = cross.copy()
        every_row_gains(cross, index)
        np.testing.assert_array_equal(cross.view(np.uint64), before.view(np.uint64))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(gain_stacks())
    @example((SystemConfig(n_rx=5, n_sel=4, n_refl=4),
              np.ones((CHUNK_TRIALS + 1, 5, 4), dtype=complex)))
    def test_chunked_gains_within_bound(self, case):
        # chunks through a NaN-filled block workspace, as _block_counts runs
        # them; a trial's gains do not depend on the chunk it runs in
        cfg, h = case
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        _, (_, (_, cross_buf, *_), _) = _workspace(cfg, CHUNK_TRIALS, 1)
        cross_buf.fill(np.nan)
        for lo in range(0, len(h), CHUNK_TRIALS):
            chunk = h[lo : lo + CHUNK_TRIALS]
            cross = cross_gains(chunk, aligning_phases(chunk), cfg.n_sel, cross_buf)
            gains = every_row_gains(*cross)
            assert gains.shape == (len(chunk), cfg.n_rx, table.row_count)
            assert_within_gain_bound(gains, chunk, table, cfg.delta)
            alone = channel_gains(chunk[-1:], cfg.n_sel)
            np.testing.assert_array_equal(alone[0], gains[-1])


class TestCandidateGains:
    """``candidate_gains`` gives a row the same bits whichever candidates it
    is formed among, every row as the ml search forms them included, for
    the candidates of noise levels stacked trial by trial; ``cross_gains``
    fills a used buffer as a fresh one."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(gain_stacks(), st.integers(1, 3), st.integers(0, 2**32))
    @example((SystemConfig(n_rx=8, n_sel=4, n_refl=66),  # a leftover block of 2
              np.ones((CHUNK_TRIALS + 1, 8, 66), dtype=complex)), 2, 0)
    def test_equal_ml_stack(self, case, n_points, seed):
        cfg, h = case
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        rng = np.random.default_rng(seed)
        n_v = int(rng.integers(1, table.row_count + 3))
        cand = rng.integers(0, table.row_count, (n_points * len(h), n_v))
        n_blocks = cfg.n_sel + (cfg.n_refl % cfg.n_sel > 0)
        out = np.full((n_blocks, len(h) + 3, cfg.n_rx, cfg.n_rx), np.nan, dtype=complex)
        cross, index = cross_gains(h, aligning_phases(h), cfg.n_sel, out)
        assert cross.shape == (n_blocks, len(h), cfg.n_rx, cfg.n_rx)
        assert np.shares_memory(cross, out)
        gains = candidate_gains(cross, index, cand)
        stack = every_row_gains(cross, index)
        want = stack.transpose(0, 2, 1)[np.arange(len(cand)) % len(h)]
        np.testing.assert_array_equal(gains, np.take_along_axis(want, cand[..., None], axis=1))

    @pytest.mark.parametrize("n_rx,n_sel,n_refl", [(12, 2, 64), (12, 3, 64), (8, 4, 66)])
    def test_gains_within_rounding_bound(self, n_rx, n_sel, n_refl):
        # the bound of TestMlGains.test_gains_within_rounding_bound
        cfg = SystemConfig(n_rx=n_rx, n_sel=n_sel, n_refl=n_refl)
        table = build_rac_table(n_rx, n_sel)
        _, h, _ = draw_trials(TrialStreams(8), range(CHUNK_TRIALS), 1, n_rx, n_refl)
        h[3, 1] = 0  # a dead antenna
        every_row = np.broadcast_to(np.arange(table.row_count), (CHUNK_TRIALS, table.row_count))
        gains = candidate_gains(*cross_gains(h, aligning_phases(h), n_sel), every_row)
        assert_within_gain_bound(gains.transpose(0, 2, 1), h, table, cfg.delta)
        np.testing.assert_array_equal(gains[3, :, 1], 0)


@st.composite
def sas_blocks(draw):
    """A small baseline config, a noise level and a scheme plus a block
    (start, count) of its trials."""
    n_rx = draw(st.sampled_from((2, 4, 16)))
    n_refl = draw(st.integers(1, 70))
    mod_order = draw(st.sampled_from((2, 4, 16)))
    sigma = draw(st.sampled_from((0.0, 0.05, 0.5, 2.0, 20.0)))
    cfg = SystemConfig(n_rx=n_rx, n_sel=1, alpha=(1.0,), n_refl=n_refl, mod_order=mod_order,
                       seed=draw(st.integers(0, 2**32)))
    scheme = draw(st.sampled_from(("sas-sm", "sas-ssk")))
    return (cfg, sigma, scheme, draw(st.integers(0, 5000)),
            draw(st.integers(1, 3 * CHUNK_TRIALS + 5)))


class TestBatchedSasEngine:
    """The baselines through the engine against the scalar reference: block
    counts against its ``run_trial``, and the engine's search at the
    baseline's pin against the per-target search: its bits against the
    reference's own, and its distance against the reference's search over
    the engine's gains, bit for bit (the gains themselves may differ in the
    last bits)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sas_blocks())
    @example((SystemConfig(n_rx=16, n_sel=1, alpha=(1.0,), n_refl=64, mod_order=16, seed=1),
              25.0, "sas-sm", 999, 37))
    @example((SystemConfig(n_rx=16, n_sel=1, alpha=(1.0,), n_refl=70, seed=2),
              25.0, "sas-ssk", 0, 16))
    def test_block_counts_equal_sum_of_scalar_trials(self, case):
        cfg, sigma, scheme, start, count = case
        pinned = scheme_config(cfg, scheme, "ml")
        table = build_rac_table(cfg.n_rx, 1)
        want = [0, 0, 0]
        for trial in range(start, start + count):
            out = reference_run_trial(cfg, scheme, "ml", trial, sigma)
            want[0] += out.bit_errors
            want[1] += out.block_error
            want[2] += out.mac

            _, h, *_, y = make_sas_trial(cfg, scheme, trial, sigma)
            gains = channel_gains(h[None], pinned.n_sel)
            p_hat, labels, got_d = ml_detect_batch(
                y[None], *detector_inputs(h[None], pinned.n_sel), pinned, table)
            ref_bits, _ = direct_sas_detect(y, h, cfg, scheme)
            np.testing.assert_array_equal(detected_bits(p_hat, labels, pinned)[0], ref_bits)
            _, ref_d = direct_sas_detect(y, h, cfg, scheme, gains=gains[0])
            assert got_d[0] == ref_d
        assert point_block(cfg, scheme, "ml", start, count, sigma) == (count, *want)

    @pytest.mark.parametrize("mode", ["sm", "ssk"])
    def test_all_zero_channel_ties_to_first_hypothesis(self, mode):
        cfg, scheme = SystemConfig(n_rx=4, n_sel=1, alpha=(1.0,), mod_order=4), "sas-" + mode
        pinned = scheme_config(cfg, scheme, "ml")
        table = build_rac_table(cfg.n_rx, 1)
        h = np.zeros((4, 9), dtype=complex)
        inputs = detector_inputs(h[None], pinned.n_sel)
        for y in (np.zeros(4, dtype=complex), np.full(4, 0.3 - 0.1j)):
            p_hat, labels, distance = ml_detect_batch(y[None], *inputs, pinned, table)
            bits = detected_bits(p_hat, labels, pinned)
            ref_bits, ref_d = direct_sas_detect(y, h, cfg, scheme)
            np.testing.assert_array_equal(bits, 0)
            np.testing.assert_array_equal(ref_bits, 0)
            assert distance[0] == ref_d == np.sum(np.abs(y) ** 2)


# name: (scheme, detector, config, noise level); the block below has errors in each
CHUNK_CASES = {
    "mas-ssd": ("mas", "ssd", SystemConfig(seed=11), 10.0),
    "mas-ml": ("mas", "ml", SystemConfig(seed=12), 10.0),
    "sas-sm": ("sas-sm", "ml", SystemConfig(n_rx=16, n_sel=1, alpha=(1.0,), seed=13), 25.0),
    "sas-ssk": ("sas-ssk", "ml", SystemConfig(n_rx=8, n_sel=1, alpha=(1.0,), seed=14), 30.0),
}
CHUNK_BLOCK = (45, 67)  # start, count: 67 trials is no multiple of 7, 16 or 32


@lru_cache(maxsize=None)
def reference_block(name):
    """(bit errors, block errors, MACs) of CHUNK_BLOCK by the scalar reference."""
    scheme, detector, cfg, sigma = CHUNK_CASES[name]
    start, count = CHUNK_BLOCK
    outs = [reference_run_trial(cfg, scheme, detector, t, sigma)
            for t in range(start, start + count)]
    return (sum(o.bit_errors for o in outs), sum(o.block_error for o in outs),
            sum(o.mac for o in outs))


@pytest.mark.parametrize("chunk", [1, 7, 16, 32])
@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_chunk_length_does_not_change_counts(monkeypatch, name, chunk):
    scheme, detector, cfg, sigma = CHUNK_CASES[name]
    want = reference_block(name)
    assert want[1] > 0
    monkeypatch.setattr(irsmas.harness, "CHUNK_TRIALS", chunk)
    assert point_block(cfg, scheme, detector, *CHUNK_BLOCK, sigma) == (CHUNK_BLOCK[1], *want)


@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_joint_block_equals_per_point_blocks(name):
    # noiseless, the case's own noise twice and a third of it; 67 trials
    # span two full chunks and a ragged one
    scheme, detector, cfg, sigma = CHUNK_CASES[name]
    sigmas = (0.0, sigma, sigma / 3, sigma)
    alone = [point_block(cfg, scheme, detector, *CHUNK_BLOCK, s) for s in sigmas]
    assert alone[1] == alone[3] == (CHUNK_BLOCK[1], *reference_block(name))
    assert alone[0][2] == 0
    cfg = scheme_config(cfg, scheme, detector)
    for points in ((0, 1, 2, 3), (3, 2), (2,), (1, 0)):
        joint = _block_counts((cfg, detector, *CHUNK_BLOCK,
                               tuple(sigmas[i] for i in points)))
        assert joint == [alone[i] for i in points]


NOISELESS_CASES = {
    "bpsk": SystemConfig(),
    "qam16": SystemConfig(mod_order=16, alpha=(0.05, 0.95)),
    # 64 reflectors in 3 blocks of 21 and a leftover one
    "n_sel-3": SystemConfig(n_sel=3, alpha=(0.05, 0.2, 0.75), mod_order=4),
}


@pytest.mark.parametrize("detector", ["ml", "ssd"])
@pytest.mark.parametrize("name", sorted(NOISELESS_CASES))
def test_noiseless_distances_are_exactly_zero(monkeypatch, name, detector):
    """The noiseless received vector is the transmitted row's gain from the
    chunk's cross gains times x, and both detectors read the same gains: so
    every ml distance is exactly 0.0, and so is every ssd distance where it
    returns the transmitted row and labels."""
    cfg = dataclasses.replace(NOISELESS_CASES[name], n_trials=2 * CHUNK_TRIALS + 5,
                              snr_grid_db=(float("inf"),))
    sent, found = [], []
    real_draw = irsmas.harness.draw_trials

    def draw_trials(*args, **kwargs):
        bits, h, noise = real_draw(*args, **kwargs)
        sent.append(bits)
        return bits, h, noise

    def recording(detect):
        def wrapper(*args):
            result = detect(*args)
            found.append(result[:3])
            return result
        return wrapper

    monkeypatch.setattr(irsmas.harness, "draw_trials", draw_trials)
    for detect in ("ml_detect_batch", "ssd_detect_batch"):
        monkeypatch.setattr(irsmas.harness, detect,
                            recording(getattr(irsmas.harness, detect)))
    (row,) = run_sweep(cfg, "mas", detector, workers=1)
    p_hat, labels, distance = (np.concatenate(part) for part in zip(*found))
    right = (detected_bits(p_hat, labels, cfg) == np.concatenate(sent)).all(axis=1)
    assert len(distance) == cfg.n_trials and row.block_errors == np.count_nonzero(~right)
    if detector == "ml":
        np.testing.assert_array_equal(distance, 0.0)
        assert right.all()
    else:
        assert np.count_nonzero(right) >= 0.9 * cfg.n_trials
        np.testing.assert_array_equal(distance[right], 0.0)


# name: (scheme, detector, config); every case's labels carry a different
# number of bits: none (ssk), 6 bits a slot, 2 bits in each of 3 slots
ERROR_COUNT_CASES = {
    "sas-ssk": ("sas-ssk", "ml", SystemConfig(n_rx=8, n_sel=1, alpha=(1.0,))),
    "mas-ssd-qam64": ("mas", "ssd", SystemConfig(mod_order=64, alpha=(0.01, 0.99))),
    "mas-ml-qam64": ("mas", "ml", SystemConfig(n_rx=6, mod_order=64, alpha=(0.01, 0.99))),
    # 64 reflectors in 3 blocks of 21 and a leftover one
    "mas-ssd-n_sel-3": ("mas", "ssd", SystemConfig(n_rx=8, n_sel=3, alpha=(0.05, 0.2, 0.75),
                                                   mod_order=4, n_cand_antennas=5)),
}


@pytest.mark.parametrize("trials", [range(5, 5 + CHUNK_TRIALS), range(3)])
@pytest.mark.parametrize("name", sorted(ERROR_COUNT_CASES))
def test_error_counts_equal_the_bit_compare(monkeypatch, name, trials):
    """A chunk counts a trial's bit errors on the packed row and labels;
    for decisions that keep the sent row and labels or miss in any of
    their bits, at several stacked points, its bit and block errors equal
    those of the detected bits compared with the sent bits."""
    scheme, detector, cfg = ERROR_COUNT_CASES[name]
    cfg = scheme_config(cfg, scheme, detector)
    table = build_rac_table(cfg.n_rx, cfg.n_sel)
    sigmas = (0.0, 0.5, 0.05)
    rng = np.random.default_rng(len(trials))
    sent, decided = [], []
    real_draw = irsmas.harness.draw_trials

    def draw_trials(*args, **kwargs):
        bits, h, noise = real_draw(*args, **kwargs)
        sent.append(bits.copy())
        return bits, h, noise

    def detect(y, *args):
        bits = sent[-1][np.arange(len(y)) % len(sent[-1])]
        keep = rng.random(len(y)) < 0.3
        p_hat = np.where(keep, pack_bits(bits[:, : cfg.l1], cfg.l1)[:, 0],
                         rng.integers(0, table.row_count, len(y)))
        labels = np.where(keep[:, None], pack_bits(bits[:, cfg.l1 :], cfg.bits_per_sym),
                          rng.integers(0, cfg.mod_order, (len(y), cfg.n_sel)))
        decided.append((p_hat, labels))
        n_cand = np.full(len(y), cfg.n_iters)
        return (p_hat, labels, np.zeros(len(y))) + ((n_cand,) if detector == "ssd" else ())

    monkeypatch.setattr(irsmas.harness, "draw_trials", draw_trials)
    monkeypatch.setattr(irsmas.harness, f"{detector}_detect_batch", detect)
    counts = _stack_counts(cfg, detector, trials, sigmas,
                           _workspace(cfg, len(trials), len(sigmas))[1])
    p_hat, labels = (np.concatenate(part) for part in zip(*decided))
    wrong = detected_bits(p_hat, labels, cfg).reshape(len(sigmas), len(trials), -1) != sent[0]
    errors = np.count_nonzero(wrong, axis=2)
    assert 0 < np.count_nonzero(errors) < errors.size
    assert [c[:2] for c in counts] == [(e.sum(), np.count_nonzero(e)) for e in errors]


def test_one_generator_per_block(monkeypatch):
    """A block builds one Philox generator, however many chunks it runs,
    and re-points it at every trial: the counts are those of one chunk per
    trial, each with a generator of its own."""
    real = np.random.Philox
    built = []

    def philox(*args, **kwargs):
        built.append(kwargs)
        return real(*args, **kwargs)

    cfg = scheme_config(CHUNK_CASES["mas-ssd"][2], "mas", "ssd")
    count = 3 * CHUNK_TRIALS + 5
    alone = [_block_counts((cfg, "ssd", t, 1, (10.0,)))[0][1:]
             for t in range(100, 100 + count)]
    monkeypatch.setattr(np.random, "Philox", philox)
    got = _block_counts((cfg, "ssd", 100, count, (10.0,)))
    assert built == [{"key": cfg.seed}]
    assert got == [(count, *(sum(column) for column in zip(*alone)))]
    assert got[0][2] > 0  # block errors
    built.clear()
    run_sweep(dataclasses.replace(cfg, n_trials=BLOCK_TRIALS + 37, snr_grid_db=(-14.0,),
                                  error_budget=None), "mas", "ssd", workers=1)
    assert len(built) == 2  # two blocks


def test_ssd_stacked_block_memory_is_bounded():
    """One 32-trial ssd block at 4 points, 64 rx (C 1024) and 64-QAM, detected
    in one stacked pass, holds the draws, both reflector blocks' cross gains
    (2 MiB each) and per-candidate arrays of the 4 x 32 received vectors:
    about 12 MiB of tracemalloc peak here, against 6.2 MiB for one pass per
    point before the stacking.  Every row's gains for each of them would
    take 128 MiB."""
    cfg = scheme_config(SystemConfig(n_rx=64, mod_order=64, alpha=(0.05, 0.95)), "mas", "ssd")
    job = (cfg, "ssd", 0, CHUNK_TRIALS, (0.5, 0.2, 0.1, 0.05))
    want = _block_counts(job)  # build the cached tables first
    tracemalloc.start()
    try:
        assert _block_counts(job) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


# name: (detector, config, noise level, the most chunks a stack's cross gains
# allow: one chunk's draw buffers over its cross gains, 781 KiB / 144 KiB at
# 12 rx and 2 blocks, 781 KiB / 288 KiB at 3 blocks of 21 reflectors and a
# leftover one)
STACK_CASES = {
    "ssd-bpsk": ("ssd", SystemConfig(seed=21), 10.0, 5),
    "ml-qam16": ("ml", SystemConfig(mod_order=16, alpha=(0.05, 0.95), seed=22), 4.0, 5),
    "ssd-n_sel-3": ("ssd", SystemConfig(n_sel=3, alpha=(0.05, 0.2, 0.75), mod_order=4,
                                        seed=23), 10.0, 2),
    "ml-n_sel-3": ("ml", SystemConfig(n_sel=3, alpha=(0.05, 0.2, 0.75), mod_order=4,
                                      seed=24), 10.0, 2),
}


def record_calls(monkeypatch, *names):
    """Replace each named stage of the harness with a wrapper that records
    the length of its first argument, and return the records."""
    seen = []

    def recording(name, real):
        def wrapper(*args, **kwargs):
            seen.append((name, len(args[1] if name == "draw_trials" else args[0])))
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(irsmas.harness, name, recording(name, getattr(irsmas.harness, name)))
    return seen


def sizes(seen, name):
    return [n for k, n in seen if k == name]


def splits(count, step):
    """The lengths of ``count`` trials cut ``step`` at a time."""
    return [min(step, count - lo) for lo in range(0, count, step)]


class TestStacks:
    """A block runs in stacks of k chunks: each chunk is drawn and its cross
    gains formed on its own, and each stack is encoded and detected (ml a
    chunk at a time) at once.  The counts are the one-chunk engine's."""

    @pytest.mark.parametrize("n_points", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(STACK_CASES))
    def test_counts_equal_one_chunk_stacks(self, monkeypatch, name, n_points):
        detector, cfg, sigma, most = STACK_CASES[name]
        cfg = scheme_config(cfg, "mas", detector)
        sigmas = (sigma, 0.0, sigma / 2, 2 * sigma)[:n_points]
        job = (cfg, detector, *CHUNK_BLOCK, sigmas)
        monkeypatch.setattr(irsmas.harness, "STACK_ROWS", CHUNK_TRIALS)  # one chunk a stack
        want = _block_counts(job)
        assert want[0][2] > 0  # block errors
        seen = record_calls(monkeypatch, "draw_trials", "encode_batch", "ml_detect_batch",
                            "ssd_detect_batch")
        # 67 trials in chunks of 32 (a ragged last stack at k = 2), and in
        # chunks of 7 (stacks that end inside the block, ragged chunks)
        for chunk in (32, 7):
            monkeypatch.setattr(irsmas.harness, "CHUNK_TRIALS", chunk)
            for k in (1, 2, 3, 4):
                monkeypatch.setattr(irsmas.harness, "STACK_ROWS", k * chunk * n_points)
                seen.clear()
                assert _block_counts(job) == want, (chunk, k)
                stack = min(k, most) * chunk
                assert sizes(seen, "draw_trials") == splits(CHUNK_BLOCK[1], chunk)
                assert sizes(seen, "encode_batch") == splits(CHUNK_BLOCK[1], stack)
                # either detector takes a stack at once
                assert sizes(seen, f"{detector}_detect_batch") == \
                    [n_points * n for n in splits(CHUNK_BLOCK[1], stack)]

    @pytest.mark.parametrize("n_points", [1, 3])
    @pytest.mark.parametrize("name", sorted(STACK_CASES))
    def test_one_detector_call_a_stack(self, monkeypatch, name, n_points):
        # a stack of several chunks (67 trials at one point, 32 in chunks
        # of 7 at three) is detected in one call, for every point at once
        detector, cfg, sigma, _ = STACK_CASES[name]
        cfg = scheme_config(cfg, "mas", detector)
        monkeypatch.setattr(irsmas.harness, "CHUNK_TRIALS", 7 if n_points > 1 else 32)
        sigmas = (sigma, 0.0, sigma / 2)[:n_points]
        n_stack, workspace = _workspace(cfg, CHUNK_BLOCK[1], n_points)
        seen = record_calls(monkeypatch, "draw_trials", "ml_detect_batch", "ssd_detect_batch")
        _stack_counts(cfg, detector, range(45, 45 + n_stack), sigmas, workspace)
        chunk = irsmas.harness.CHUNK_TRIALS
        assert sizes(seen, "draw_trials") == splits(n_stack, chunk) and n_stack > chunk
        assert [k for k, _ in seen if k.endswith("_detect_batch")] == [f"{detector}_detect_batch"]
        assert sizes(seen, f"{detector}_detect_batch") == [n_points * n_stack]

    def test_stack_length(self):
        def stack_trials(cfg, count, n_points):
            return _workspace(cfg, count, n_points)[0]

        headline = scheme_config(SystemConfig(), "mas", "ssd")
        # STACK_ROWS // (CHUNK_TRIALS x points) chunks, at least one
        assert [stack_trials(headline, BLOCK_TRIALS, n) for n in range(1, 7)] == \
            [4 * CHUNK_TRIALS, 2 * CHUNK_TRIALS] + [CHUNK_TRIALS] * 4
        assert STACK_ROWS == 4 * CHUNK_TRIALS
        # never more than the block, nor than a stack of one-trial chunks
        assert stack_trials(headline, 67, 1) == 67
        assert stack_trials(headline, 1, 1) == 1
        # lowered by the cross gains' bytes: two chunks at 3 blocks, one at 64 rx
        n_sel_3 = scheme_config(STACK_CASES["ssd-n_sel-3"][1], "mas", "ssd")
        assert stack_trials(n_sel_3, BLOCK_TRIALS, 1) == 2 * CHUNK_TRIALS
        wide = scheme_config(SystemConfig(n_rx=64, mod_order=64, alpha=(0.05, 0.95)), "mas",
                             "ssd")
        assert stack_trials(wide, BLOCK_TRIALS, 1) == CHUNK_TRIALS

    @pytest.mark.parametrize("detector", ["ssd", "ml"])
    def test_headline_block_runs_128_trial_stacks(self, monkeypatch, detector):
        cfg = scheme_config(SystemConfig(seed=5), "mas", detector)
        seen = record_calls(monkeypatch, "draw_trials", "cross_gains", "encode_batch",
                            "ml_detect_batch", "ssd_detect_batch")
        ((trials, _, block_errors, _),) = _block_counts((cfg, detector, 0, BLOCK_TRIALS,
                                                         (10 ** (14 / 20),)))  # -14 dB
        assert trials == BLOCK_TRIALS and block_errors > 0
        chunks, stacks = splits(BLOCK_TRIALS, 32), splits(BLOCK_TRIALS, 128)
        assert CHUNK_TRIALS == 32 and stacks == [128] * 7 + [104]
        assert sizes(seen, "draw_trials") == sizes(seen, "cross_gains") == chunks
        assert sizes(seen, "encode_batch") == stacks
        # one detector call a stack; ml slices its own search
        # (test_search_slices_ml_trials_channels_at_a_time)
        assert sizes(seen, f"{detector}_detect_batch") == stacks

    def test_staggered_sweep_rows_equal_for_any_worker_count(self, monkeypatch, tmp_path):
        """Three points stop in block 0, in block 1 and never, so block 0
        runs stacks of one chunk, block 1 of two and block 2 of four; the
        CSV is the same bytes at 1, 2 and 3 workers."""
        cfg = TestRunSweep().staggered_cfg()
        seen = record_calls(monkeypatch, "encode_batch")  # in this process alone
        text = []
        for workers in (1, 2, 3):
            rows = run_sweep(cfg, "mas", "ssd", workers=workers)
            emit_results(rows, "csv", str(tmp_path / f"{workers}.csv"))
            text.append((tmp_path / f"{workers}.csv").read_bytes())
            if workers == 1:
                assert [r.trials for r in rows] == [BLOCK_TRIALS, 2 * BLOCK_TRIALS,
                                                    3 * BLOCK_TRIALS]
                assert sizes(seen, "encode_batch") == (splits(BLOCK_TRIALS, 32)
                                                       + splits(BLOCK_TRIALS, 64)
                                                       + splits(BLOCK_TRIALS, 128))
        assert text[0] == text[1] == text[2]


def test_ssd_one_point_stack_memory_is_bounded():
    """A one-point 128-trial ssd block at 64 rx (C 1024) and 64-QAM keeps
    one-chunk stacks: four chunks' cross gains (8 MiB) would outgrow a
    chunk's draw buffers (4 MiB) and lift the tracemalloc peak from about
    9 MiB to about 24 MiB."""
    cfg = scheme_config(SystemConfig(n_rx=64, mod_order=64, alpha=(0.05, 0.95)), "mas", "ssd")
    job = (cfg, "ssd", 0, 4 * CHUNK_TRIALS, (0.2,))
    assert _workspace(cfg, 4 * CHUNK_TRIALS, 1)[0] == CHUNK_TRIALS
    want = _block_counts(job)  # build the cached tables first
    tracemalloc.start()
    try:
        assert _block_counts(job) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


class TestWorkspace:
    """A block allocates its chunks' large arrays once, and every chunk
    overwrites them."""

    @pytest.mark.parametrize("name", sorted(CHUNK_CASES))
    def test_every_chunk_reuses_the_block_buffers(self, monkeypatch, name):
        scheme, detector, cfg, sigma = CHUNK_CASES[name]
        # stacks of two chunks: 67 trials run as stacks of 64 and 3 trials
        monkeypatch.setattr(irsmas.harness, "CHUNK_TRIALS", 32)
        monkeypatch.setattr(irsmas.harness, "STACK_ROWS", 64)
        seen = []
        real_draw, real_phases = irsmas.harness.draw_trials, irsmas.harness.aligning_phases
        real_cross, real_gains = irsmas.harness.cross_gains, irsmas.detection.candidate_gains

        def draw_trials(*args, out=None):
            bits, h, noise = real_draw(*args, out=out)
            assert np.shares_memory(h, out[2]) and np.shares_memory(noise, out[3])
            seen.append(("draws", len(bits), tuple(buf.ctypes.data for buf in out)))
            return bits, h, noise

        def aligning_phases(h, out=None):
            seen.append(("phases", len(h), out.ctypes.data))
            return real_phases(h, out=out)

        def cross_gains(h, phases, n_sel, out=None):
            cross, index = real_cross(h, phases, n_sel, out)
            # every non-empty reflector block of the scheme's pin, into the
            # chunk's rows of the stack's cross gains
            assert out.shape == (len(index), len(h), cfg.n_rx, cfg.n_rx)
            assert np.shares_memory(cross, out)
            seen.append(("cross", len(h), (phases.ctypes.data, cross.ctypes.data)))
            return cross, index

        def candidate_gains(cross, index, cand):
            seen.append(("gains", cross.shape[1], cross.ctypes.data))
            return real_gains(cross, index, cand)

        monkeypatch.setattr(irsmas.harness, "draw_trials", draw_trials)
        monkeypatch.setattr(irsmas.harness, "aligning_phases", aligning_phases)
        monkeypatch.setattr(irsmas.harness, "cross_gains", cross_gains)
        monkeypatch.setattr(irsmas.detection, "candidate_gains", candidate_gains)
        assert point_block(cfg, scheme, detector, *CHUNK_BLOCK, sigma) == \
            (CHUNK_BLOCK[1], *reference_block(name))
        # of any scheme: a baseline is an ml search at n_sel 1
        for kind in ("draws", "phases"):
            calls = [(n, data) for k, n, data in seen if k == kind]
            assert [n for n, _ in calls] == [32, 32, 3]  # 67 trials: the last chunk is ragged
            assert len({data for _, data in calls}) == 1
        # the cross gains are formed from the chunk's phases, into its rows
        # of the stack's one buffer, which the second stack overwrites
        (phases,) = {data for k, _, data in seen if k == "phases"}
        cross = [(n, data) for k, n, data in seen if k == "cross"]
        assert {from_phases for _, (from_phases, _) in cross} == {phases}
        cross = [(n, data) for n, (_, data) in cross]
        base, row_bytes = cross[0][1], cfg.n_rx**2 * np.dtype(complex).itemsize
        assert cross == [(32, base), (32, base + 32 * row_bytes), (3, base)]
        if detector == "ml":
            # the ml search reads each chunk's cross gains where they were
            # formed, ML_TRIALS = CHUNK_TRIALS channels at a time
            assert [(n, data) for k, n, data in seen if k == "gains"] == cross

    @pytest.mark.parametrize("count", [CHUNK_TRIALS, 7])  # a full chunk, then a ragged one
    def test_ml_into_used_buffers_equals_fresh_search(self, count):
        _, _, cfg, sigma = CHUNK_CASES["mas-ml"]
        cfg = dataclasses.replace(cfg, mod_order=16, alpha=(0.05, 0.95))
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        _, h, y = make_trials(cfg, range(100, 100 + count), sigma=sigma)
        norms = np.linalg.norm(h, axis=-1)
        size = CHUNK_TRIALS + 5
        phases = np.full((size, cfg.n_rx, cfg.n_refl), np.nan, dtype=complex)
        cross_buf = np.full((2, size, cfg.n_rx, cfg.n_rx), np.nan, dtype=complex)  # 2 blocks
        want = ml_detect_batch(y, *cross_gains(h, aligning_phases(h), cfg.n_sel), norms, cfg,
                               table)
        for _ in range(2):  # NaN-filled buffers, then the same buffers used
            cross = cross_gains(h, aligning_phases(h, out=phases[:count]), cfg.n_sel, cross_buf)
            got = ml_detect_batch(y, *cross, norms, cfg, table)
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part, want_part)

    @pytest.mark.parametrize("name", sorted(CHUNK_CASES))
    def test_workspace_adds_only_the_cross_gains_to_the_draws(self, name):
        # and what else the stack keeps of each chunk: its row norms, bits
        # and unit noise, for a stack of one chunk and of four
        scheme, detector, cfg, _ = CHUNK_CASES[name]
        cfg = scheme_config(cfg, scheme, detector)
        layout = draw_layout(CHUNK_TRIALS, cfg.block_len, cfg.n_rx, cfg.n_refl)
        n_blocks = cfg.n_sel + (cfg.n_refl % cfg.n_sel > 0)
        for n_points, n_stack in ((4, CHUNK_TRIALS), (1, 4 * CHUNK_TRIALS)):
            length, (draws, rest, _) = _workspace(cfg, BLOCK_TRIALS, n_points)
            assert length == n_stack
            memory = draws[0]
            while memory.base is not None:
                memory = memory.base
            # the draw buffers stay chunk-sized
            assert [(buf.shape, buf.dtype) for buf in draws] == layout
            # every chunk's phases take the normals' bytes
            assert rest[0].shape == draws[2].shape and np.shares_memory(rest[0], draws[1])
            # every reflector block's cross gains, for either detector, for
            # mas and for the baselines alike, then the norms, bits and noise
            stack = [((n_blocks, n_stack, cfg.n_rx, cfg.n_rx), np.dtype(complex)),
                     ((n_stack, cfg.n_rx), np.dtype(float)),
                     ((n_stack, cfg.block_len), np.dtype(np.int64)),
                     ((n_stack, cfg.n_rx), np.dtype(complex))]
            assert [(buf.shape, buf.dtype) for buf in rest[1:]] == stack
            # every buffer is a multiple of 64 bytes here, so none is padded
            assert memory.nbytes == sum(math.prod(shape) * dtype.itemsize
                                        for shape, dtype in layout + stack)

    @pytest.mark.parametrize("name", ["bpsk", "n_sel-3"])
    def test_one_layout_for_both_detectors(self, name):
        # a chunk of either detector runs in the same workspace
        layouts = []
        for detector in ("ml", "ssd"):
            cfg = scheme_config(NOISELESS_CASES[name], "mas", detector)
            _, (draws, rest, _) = _workspace(cfg, CHUNK_TRIALS, 1)
            layouts.append([(buf.shape, buf.dtype) for buf in (*draws, *rest)])
        assert layouts[0] == layouts[1]

    def test_draws_into_used_buffers_equal_fresh_draws(self):
        n_bits, n_rx, n_refl = 7, 3, 5
        out = [np.empty(shape, dtype) for shape, dtype in draw_layout(10, n_bits, n_rx, n_refl)]
        out[0].fill(np.iinfo(np.uint64).max)
        for buf in out[1:]:
            buf.fill(np.nan)
        # NaN-filled buffers, then a larger chunk, then a smaller one after it
        for trials in (range(40, 44), range(20, 30), range(2**32 - 1, 2**32 + 2)):
            got = draw_trials(TrialStreams(9), trials, n_bits, n_rx, n_refl, out=out)
            want = draw_trials(TrialStreams(9), trials, n_bits, n_rx, n_refl)
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part, want_part)


class TestResolveWorkers:
    def test_default_is_every_core(self, monkeypatch):
        monkeypatch.delenv("IRSMAS_WORKERS", raising=False)
        assert _resolve_workers(None) == irsmas.harness._available_parallelism()
        monkeypatch.setenv("IRSMAS_WORKERS", "")
        assert _resolve_workers(None) == irsmas.harness._available_parallelism()

    def test_environment_and_argument(self, monkeypatch):
        monkeypatch.setenv("IRSMAS_WORKERS", "3")
        assert _resolve_workers(None) == 3
        monkeypatch.setenv("IRSMAS_WORKERS", "abc")
        assert _resolve_workers(2) == 2  # an argument wins over the environment

    @pytest.mark.parametrize("text", ["-3", "0", "abc", "2.5", " "])
    def test_bad_environment_value_named(self, monkeypatch, text):
        monkeypatch.setenv("IRSMAS_WORKERS", text)
        with pytest.raises(ValueError, match="IRSMAS_WORKERS"):
            _resolve_workers(None)

    @pytest.mark.parametrize("workers", [0, -1, 2.5])
    def test_bad_argument_named(self, workers):
        with pytest.raises(ValueError, match="workers must be"):
            _resolve_workers(workers)


class TestBitsPerTx:
    def test_values(self):
        assert scheme_config(CFG, "mas", "ml").block_len == 8
        sas_cfg = dataclasses.replace(CFG, n_rx=16, n_sel=1, alpha=(1.0,))
        assert scheme_config(sas_cfg, "sas-sm", "ml").block_len == 5
        assert scheme_config(sas_cfg, "sas-ssk", "ml").block_len == 4

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme: expected one of"):
            scheme_config(CFG, "bogus", "ml")


class TestMetrics:
    def test_arithmetic(self):
        m = compute_metrics(trials=4, bit_errors=3, block_errors=2,
                            mac_total=400, block_len=8)
        assert m["total_bits"] == 32
        assert m["ber"] == pytest.approx(3 / 32)
        assert m["bler"] == pytest.approx(0.5)
        assert m["asbt_perbit"] == pytest.approx(8 * (1 - 3 / 32))
        assert m["asbt_block"] == pytest.approx(4.0)
        assert m["mean_mac"] == pytest.approx(100.0)

    def test_error_free_saturates(self):
        m = compute_metrics(10, 0, 0, 1000, 8)
        assert m["ber"] == 0.0 and m["asbt_perbit"] == 8.0 and m["asbt_block"] == 8.0

    def test_standard_error(self):
        assert monte_carlo_se(0.25, 100) == pytest.approx(np.sqrt(0.25 * 0.75 / 100))
        assert monte_carlo_se(0.0, 100) == 0.0


class TestRunSweep:
    def small_cfg(self, **kw):
        fields = dict(n_trials=200, snr_grid_db=(float("inf"), -14.0),
                      error_budget=None)
        fields.update(kw)
        return dataclasses.replace(CFG, **fields)

    def test_row_fields_match_csv_columns(self):
        rows = run_sweep(self.small_cfg(n_trials=50), "mas", "ssd", workers=1)
        assert list(rows[0].as_dict()) == list(CSV_COLUMNS)
        assert isinstance(rows[0], SweepRow)

    def test_noiseless_point(self):
        rows = run_sweep(self.small_cfg(), "mas", "ssd", workers=1)
        assert rows[0].snr_db == float("inf")
        assert rows[0].ber == 0.0 and rows[0].asbt_perbit == 8.0
        assert rows[0].trials == 200 and rows[0].total_bits == 1600

    def test_modulation_labels(self):
        rows = run_sweep(self.small_cfg(n_trials=20), "mas", "ssd", workers=1)
        assert rows[0].modulation == "bpsk"
        sas_cfg = self.small_cfg(n_trials=20, n_rx=16, n_sel=1, alpha=(1.0,))
        assert run_sweep(sas_cfg, "sas-ssk", "ml", workers=1)[0].modulation == "none"
        assert run_sweep(sas_cfg, "sas-sm", "ml", workers=1)[0].modulation == "bpsk"

    def test_early_stop_at_block_boundary(self):
        # heavy noise: nearly every block is in error, so the budget fills
        # inside the first scheduling block
        cfg = self.small_cfg(n_trials=3 * BLOCK_TRIALS, snr_grid_db=(-30.0,),
                             error_budget=50)
        row = run_sweep(cfg, "mas", "ssd", workers=1)[0]
        assert row.trials == BLOCK_TRIALS
        assert row.block_errors >= 50

    def test_no_early_stop_without_budget(self):
        cfg = self.small_cfg(n_trials=1200, snr_grid_db=(-30.0,), error_budget=None)
        row = run_sweep(cfg, "mas", "ssd", workers=1)[0]
        assert row.trials == 1200

    def test_worker_count_does_not_change_rows(self):
        cfg = self.small_cfg(n_trials=2 * BLOCK_TRIALS, snr_grid_db=(-14.0, -12.0))
        rows1 = run_sweep(cfg, "mas", "ssd", workers=1)
        rows2 = run_sweep(cfg, "mas", "ssd", workers=2)
        assert rows1 == rows2

    def test_early_stop_deterministic_across_workers(self):
        cfg = self.small_cfg(n_trials=4 * BLOCK_TRIALS, snr_grid_db=(-20.0,),
                             error_budget=120)
        rows1 = run_sweep(cfg, "mas", "ssd", workers=1)
        rows2 = run_sweep(cfg, "mas", "ssd", workers=3)
        assert rows1 == rows2
        assert rows1[0].trials < 4 * BLOCK_TRIALS

    def staggered_cfg(self, stop_in_block_1=-14.0, **fields):
        """Three points that stop in block 0, in block 1 and never."""
        return self.small_cfg(n_trials=3 * BLOCK_TRIALS, error_budget=100,
                              snr_grid_db=(-30.0, stop_in_block_1, float("inf")), **fields)

    def test_staggered_stops_equal_for_any_worker_count(self):
        cases = [("mas", "ssd", {}),
                 ("mas", "ml", {"stop_in_block_1": -16.0}),
                 ("sas-sm", "ml", {"stop_in_block_1": -27.0, "n_rx": 16, "n_sel": 1,
                                   "alpha": (1.0,)})]
        for scheme, detector, fields in cases:
            cfg = self.staggered_cfg(**fields)
            rows = {w: run_sweep(cfg, scheme, detector, workers=w) for w in (1, 2, 3)}
            assert [r.trials for r in rows[1]] == [BLOCK_TRIALS, 2 * BLOCK_TRIALS,
                                                   3 * BLOCK_TRIALS]
            assert rows[1] == rows[2] == rows[3]

    def test_one_pool_per_sweep(self, monkeypatch):
        opened = []
        real_pool = irsmas.harness.Pool

        def counting_pool(processes):
            opened.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(irsmas.harness, "Pool", counting_pool)
        cfg = self.small_cfg(snr_grid_db=(-14.0, -12.0, float("inf")))
        rows = run_sweep(cfg, "mas", "ssd", workers=2)
        assert opened == [2]
        assert run_sweep(cfg, "mas", "ssd", workers=1) == rows
        assert opened == [2]

    def test_pool_capped_at_total_blocks(self, monkeypatch):
        opened = []

        class InlinePool:
            """Runs each job when it is submitted; starts no process."""

            def __init__(self, processes):
                opened.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def apply_async(self, fn, args):
                result = fn(*args)
                return types.SimpleNamespace(get=lambda: result)

        monkeypatch.setattr(irsmas.harness, "Pool", InlinePool)
        cfg = self.small_cfg(n_trials=BLOCK_TRIALS + 1, snr_grid_db=(-14.0, -12.0))
        run_sweep(cfg, "mas", "ssd", workers=10_000)
        assert opened == [4]  # two points of two blocks each
        run_sweep(self.small_cfg(snr_grid_db=(-14.0,)), "mas", "ssd", workers=10_000)
        assert opened == [4]  # a single block runs in process

    def test_block_drawn_and_encoded_once_per_sweep(self, monkeypatch):
        # ssd detects every live point of a stack in one stacked pass: each
        # point's row equals its one-point sweep's, for any worker count and
        # whichever points the error budget has stopped.  Either detector
        # draws a trial and forms its cross gains once, a chunk at a time,
        # and encodes it once, a stack of whole chunks at a time, whatever
        # the number of points.
        calls = []
        real_draw, real_encode = irsmas.harness.draw_trials, irsmas.harness.encode_batch
        real_cross = irsmas.harness.cross_gains

        def draw_trials(streams, trials, *args, **kwargs):
            calls.append(("draws", len(trials)))
            return real_draw(streams, trials, *args, **kwargs)

        def encode_batch(bits, *args):
            calls.append(("encode", len(bits)))
            return real_encode(bits, *args)

        def cross_gains(h, *args, **kwargs):
            calls.append(("cross", len(h)))
            return real_cross(h, *args, **kwargs)

        def chunks(trials):
            return sum(-(-min(BLOCK_TRIALS, trials - lo) // CHUNK_TRIALS)
                       for lo in range(0, trials, BLOCK_TRIALS))

        def assert_once_per_trial(trials):
            sizes = {kind: [n for k, n in calls if k == kind]
                     for kind in ("draws", "cross", "encode")}
            assert len(sizes["draws"]) == len(sizes["cross"]) == chunks(trials)
            assert len(sizes["encode"]) <= chunks(trials)
            assert sum(sizes["draws"]) == sum(sizes["cross"]) == sum(sizes["encode"]) == trials

        monkeypatch.setattr(irsmas.harness, "draw_trials", draw_trials)
        monkeypatch.setattr(irsmas.harness, "encode_batch", encode_batch)
        monkeypatch.setattr(irsmas.harness, "cross_gains", cross_gains)
        inf = float("inf")
        cases = [
            self.small_cfg(n_trials=BLOCK_TRIALS + 37, snr_grid_db=(-14.0, -12.0, inf)),
            self.small_cfg(n_trials=BLOCK_TRIALS + 37, snr_grid_db=(-8.0, -4.0, inf),
                           mod_order=16, alpha=(0.05, 0.95)),
            # 64 reflectors in 3 blocks of 21 and a leftover one
            self.small_cfg(n_trials=BLOCK_TRIALS + 37, snr_grid_db=(-14.0, -10.0, inf),
                           n_sel=3, alpha=(0.05, 0.2, 0.75), mod_order=4),
            self.staggered_cfg(),  # stops in block 0, in block 1 and never
        ]
        for cfg in cases:
            calls.clear()
            rows = run_sweep(cfg, "mas", "ssd", workers=1)
            assert_once_per_trial(max(row.trials for row in rows))
            for workers in (2, 3):
                assert run_sweep(cfg, "mas", "ssd", workers=workers) == rows
            for snr_db, row in zip(cfg.snr_grid_db, rows):
                calls.clear()
                alone = run_sweep(dataclasses.replace(cfg, snr_grid_db=(snr_db,)), "mas",
                                  "ssd", workers=1)
                assert [repr(r.as_dict()) for r in alone] == [repr(row.as_dict())]
                assert_once_per_trial(row.trials)
        assert [row.trials for row in rows] == [BLOCK_TRIALS, 2 * BLOCK_TRIALS,
                                                3 * BLOCK_TRIALS]
        # ml detects every point of a stack in one call too, from one set of
        # cross gains a chunk
        for cfg in cases[0], cases[2]:
            calls.clear()
            rows = run_sweep(cfg, "mas", "ml", workers=1)
            assert_once_per_trial(cfg.n_trials)
            calls.clear()
            assert run_sweep(dataclasses.replace(cfg, snr_grid_db=cfg.snr_grid_db[:1]), "mas",
                             "ml", workers=1) == rows[:1]
            assert_once_per_trial(cfg.n_trials)

    def test_empty_grid_rejected_before_any_trial(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a pool or block started before the grid was checked")

        monkeypatch.setattr(irsmas.harness, "Pool", no_run)
        monkeypatch.setattr(irsmas.harness, "_block_counts", no_run)
        for workers in (1, 2):
            with pytest.raises(ValueError, match="snr_grid_db"):
                run_sweep(SystemConfig(snr_grid_db=()), "mas", "ssd", workers=workers)

    def test_worker_exception_comes_out(self, monkeypatch):
        monkeypatch.setattr(irsmas.harness, "_stack_counts", failing_stack_counts)
        with time_limit(60), pytest.raises(RuntimeError, match="stack failed"):
            run_sweep(self.staggered_cfg(), "mas", "ssd", workers=2)

    def test_invalid_scheme_and_detector(self):
        with pytest.raises(ValueError, match="scheme"):
            run_sweep(self.small_cfg(), "mimo", "ssd")
        with pytest.raises(ValueError, match="detector"):
            run_sweep(self.small_cfg(), "mas", "zf")
        with pytest.raises(ValueError, match="ml"):
            run_sweep(self.small_cfg(n_rx=16, n_sel=1, alpha=(1.0,)), "sas-sm", "ssd")

    def test_ml_guard_checked_before_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a Pool was created before the ml guard was checked")

        monkeypatch.setattr(irsmas.harness, "Pool", no_pool)
        # one short of each search's 2^bits hypotheses: C M^n_sel = 64 * 2^2
        # for mas, 16 targets * 4 symbols for sas-sm, 8 targets for sas-ssk
        cases = {"mas": (self.small_cfg(), 2**8 - 1),
                 "sas-sm": (self.small_cfg(n_rx=16, mod_order=4), 2**6 - 1),
                 "sas-ssk": (self.small_cfg(n_rx=8), 2**3 - 1)}
        for scheme, (cfg, guard) in cases.items():
            monkeypatch.setattr(irsmas.detection, "ML_GUARD", guard)
            with pytest.raises(ValueError, match="ml_guard") as err:
                run_sweep(cfg, scheme, "ml", workers=2)
            assert ("ssd" in str(err.value)) == (scheme == "mas")  # no ssd for a baseline

    def test_ml_worker_count_does_not_change_rows(self):
        cfg = self.small_cfg(n_trials=BLOCK_TRIALS + 37)
        rows1 = run_sweep(cfg, "mas", "ml", workers=1)
        rows2 = run_sweep(cfg, "mas", "ml", workers=2)
        assert rows1 == rows2
        noiseless = sum(run_trial(cfg, "mas", "ml", t).block_error for t in range(cfg.n_trials))
        assert rows1[0].block_errors == noiseless == 0

    @pytest.mark.parametrize("scheme,mod_order", [("sas-sm", 4), ("sas-ssk", 2)])
    def test_baseline_worker_count_does_not_change_rows(self, scheme, mod_order):
        cfg = self.small_cfg(n_trials=BLOCK_TRIALS + 37, n_rx=16, n_sel=1, alpha=(1.0,),
                             mod_order=mod_order, snr_grid_db=(-30.0, -24.0))
        rows1 = run_sweep(cfg, scheme, "ml", workers=1)
        rows2 = run_sweep(cfg, scheme, "ml", workers=2)
        assert rows1 == rows2
        assert rows1[0].block_errors > 0

    def test_config_validated(self):
        bad = dataclasses.replace(self.small_cfg(), alpha=(0.5, 0.5))
        with pytest.raises(ValueError, match="alpha"):
            run_sweep(bad, "mas", "ssd")

    @pytest.mark.parametrize("fields,fragment", [
        ({"snr_grid_db": (float("nan"),)}, "snr"),
        ({"n_trials": 0}, "n_trials"),
        ({"n_refl": 0}, "n_refl"),
        ({"error_budget": 0}, "error_budget"),
        ({"seed": -1}, "seed"),
        ({"n_rx": 12}, "n_rx"),
    ])
    @pytest.mark.parametrize("scheme", ["sas-sm", "sas-ssk"])
    def test_baseline_config_validated_before_any_trial(self, monkeypatch, scheme, fields,
                                                        fragment):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before the config was validated")

        monkeypatch.setattr(irsmas.harness, "run_trial", no_trial)
        monkeypatch.setattr(irsmas.harness, "draw_trials", no_trial)
        cfg = self.small_cfg(**{"n_rx": 16, "n_sel": 1, "alpha": (1.0,), **fields})
        with pytest.raises(ValueError, match=fragment):
            run_sweep(cfg, scheme, "ml", workers=1)

    def test_baseline_ignores_selection_fields(self):
        # n_sel, alpha, n_cand_antennas and n_iters mean nothing to a baseline
        cfg = self.small_cfg(n_trials=20, n_rx=16, n_sel=5, alpha=(0.5, 0.5),
                             n_cand_antennas=99, n_iters=0)
        assert run_sweep(cfg, "sas-sm", "ml", workers=1)[0].ber == 0.0
