"""Sweep-engine tests: trial determinism, metrics, scheduling, parallel equality."""

import dataclasses
import math
import signal
import tracemalloc
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import irsmas.detection
import irsmas.harness
from irsmas.channel import ChannelMatrix, draw_layout, draw_trials
from irsmas.core import SystemConfig, make_constellation, superposition_axes, validate_config
from irsmas.detection import (
    SCREEN_BUDGET,
    detected_bits,
    mac_ml,
    ml_detect,
    ml_detect_batch,
    ml_gains,
)
from irsmas.harness import (
    BLOCK_TRIALS,
    CHUNK_TRIALS,
    CSV_COLUMNS,
    SweepRow,
    _block_counts,
    _chunk_counts,
    _resolve_workers,
    bits_per_tx,
    compute_metrics,
    run_sweep,
    run_trial,
    scheme_config,
)
from irsmas.rac import build_rac_table
from irsmas.transmitter import aligning_phases, gather_phases
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


def failing_chunk_counts(*args):
    """Stands in for ``_chunk_counts`` in a worker (module level, so the
    forked worker finds it by name)."""
    raise RuntimeError("chunk failed in a worker")


def point_block(cfg, scheme, detector, start, count):
    """``_block_counts`` of one point of ``cfg`` as ``scheme`` reads it, at
    the config's own noise level."""
    cfg = scheme_config(cfg, scheme, detector)
    (counts,) = _block_counts((cfg, detector, start, count, (cfg.noise_sigma,)))
    return counts


class TestRunTrial:
    def test_deterministic(self):
        cfg = dataclasses.replace(CFG, noise_sigma=3.0)
        a = run_trial(cfg, "mas", "ssd", 12)
        b = run_trial(cfg, "mas", "ssd", 12)
        assert (a.bit_errors, a.block_error, a.mac) == (b.bit_errors, b.block_error, b.mac)

    def test_noiseless_is_error_free(self):
        for trial in range(20):
            out = run_trial(CFG, "mas", "ssd", trial)
            assert out.bit_errors == 0 and out.block_error == 0

    def test_block_error_consistent(self):
        cfg = dataclasses.replace(CFG, noise_sigma=20.0)
        for trial in range(30):
            out = run_trial(cfg, "mas", "ssd", trial)
            assert out.block_error == int(out.bit_errors > 0)
            assert 0 <= out.bit_errors <= cfg.block_len

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

        monkeypatch.setattr(irsmas.harness, "_chunk_counts", no_chunk)
        cfg = dataclasses.replace(CFG, n_rx=16, n_sel=1, alpha=(1.0,))
        with pytest.raises(ValueError, match=fragment):
            run_trial(cfg, scheme, detector, 0)

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
        pinned = SystemConfig(n_rx=16, n_sel=1, alpha=(1.0,), noise_sigma=25.0, seed=3)
        loose = dataclasses.replace(pinned, n_sel=2, alpha=(0.2, 0.8))
        for trial in range(5):
            assert run_trial(loose, scheme, "ml", trial) == run_trial(pinned, scheme, "ml", trial)


# power ratios with distinct superposed values, by (n_sel, modulation order)
ALPHAS = {
    (1, 2): (1.0,), (1, 4): (1.0,), (1, 16): (1.0,),
    (2, 2): (0.2, 0.8), (2, 4): (0.2, 0.8), (2, 16): (0.05, 0.95),
    (3, 2): (0.05, 0.2, 0.75), (3, 4): (0.05, 0.2, 0.75), (3, 16): (0.01, 0.1, 0.89),
}


@st.composite
def mas_blocks(draw):
    """A small mas config plus a block (start, count) of its trials."""
    n_sel = draw(st.sampled_from((1, 2, 3)))
    n_rx = draw(st.integers(n_sel + 1, 8))
    mod_order = draw(st.sampled_from((2, 4, 16)))
    n_refl = n_sel * draw(st.integers(1, 12)) + draw(st.integers(0, n_sel - 1))
    n_rac = 1 << (math.comb(n_rx, n_sel).bit_length() - 1)
    cfg = SystemConfig(
        n_rx=n_rx, n_sel=n_sel, n_refl=n_refl, mod_order=mod_order,
        alpha=ALPHAS[n_sel, mod_order],
        n_cand_antennas=draw(st.integers(n_sel, n_rx)),
        n_iters=draw(st.integers(1, n_rac + 2)),
        noise_sigma=draw(st.sampled_from((0.0, 0.05, 0.5, 2.0, 20.0))),
        seed=draw(st.integers(0, 2**32)),
    )
    return cfg, draw(st.integers(0, 5000)), draw(st.integers(1, 3 * CHUNK_TRIALS + 5))


class TestBatchedSsdEngine:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mas_blocks())
    @example((SystemConfig(n_rx=8, n_sel=3, n_refl=31, mod_order=16, alpha=(0.01, 0.1, 0.89),
                           n_cand_antennas=3, n_iters=1, noise_sigma=0.5, seed=4), 997, 37))
    @example((SystemConfig(n_rx=5, n_sel=2, n_refl=9, mod_order=4, n_cand_antennas=5,
                           n_iters=10, seed=2), 16, 20))
    def test_block_counts_equal_sum_of_scalar_trials(self, case):
        cfg, start, count = case
        validate_config(cfg)
        want = [0, 0, 0]
        for trial in range(start, start + count):
            out = reference_run_trial(cfg, "mas", "ssd", trial)
            want[0] += out.bit_errors
            want[1] += out.block_error
            want[2] += out.mac
        assert point_block(cfg, "mas", "ssd", start, count) == (count, *want)


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
        gains, energy = ml_gains(h, aligning_phases(h), cfg, table)
        p_hat, labels, distance = ml_detect_batch(y, gains, energy, np.linalg.norm(h, axis=-1),
                                                  cfg, table)
        for t in range(len(y)):
            channel = ChannelMatrix(h[t])
            ref_p, ref_symbols, _ = direct_ml_detect(y[t], channel, cfg, table, const)
            assert p_hat[t] == ref_p
            np.testing.assert_array_equal(const.points[labels[t]], ref_symbols)
            # the stack holds conj(g)
            own_p, own_symbols, own_d = direct_ml_detect(y[t], channel, cfg, table, const,
                                                         gains[t].conj())
            assert p_hat[t] == own_p
            np.testing.assert_array_equal(const.points[labels[t]], own_symbols)
            assert distance[t] == own_d
        return p_hat, labels, distance

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mas_blocks())
    def test_block_matches_direct_search(self, case):
        cfg, start, count = case
        validate_config(cfg)
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        const = make_constellation(cfg.mod_order)
        bits, h, y = make_trials(cfg, range(start, start + count))
        p_hat, labels, _ = self.assert_matches_direct(y, h, cfg)

        errors = [np.count_nonzero(b != detection_to_bits(int(p), const.points[lab], cfg,
                                                           table, const))
                  for b, p, lab in zip(bits, p_hat, labels)]
        want = (count, sum(errors), np.count_nonzero(errors), count * mac_ml(cfg))
        assert point_block(cfg, "mas", "ml", start, count) == want

    def test_all_zero_channel_ties_to_first_hypothesis(self):
        cfg = SystemConfig(n_rx=6, n_sel=3, n_refl=14, mod_order=4, alpha=(0.05, 0.2, 0.75),
                           noise_sigma=0.5, seed=3)
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        const = make_constellation(cfg.mod_order)
        _, h, y = make_trials(cfg, range(4))
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
                           noise_sigma=0.5, seed=4)
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        const = make_constellation(cfg.mod_order)
        _, h, y = make_trials(cfg, range(3))
        self.assert_matches_direct(y, h, cfg)
        ch = ChannelMatrix(h[0])
        p_hat, symbols, _ = direct_ml_detect(y[0], ch, cfg, table, const)
        result = ml_detect(y[0], ch, cfg, table, const)
        assert result.rac_index == p_hat
        np.testing.assert_array_equal(result.symbols, symbols)
        (gains,), _ = ml_gains(h[:1], aligning_phases(h[:1]), cfg, table)
        assert result.distance == direct_ml_detect(y[0], ch, cfg, table, const,
                                                   gains.conj())[2]

    def test_slice_boundary_inside_a_trial(self):
        # BPSK at n_sel 3: |A| + |B| = 8 + 1 scores a pair, so a slice holds
        # 2**16 // 9 = 7281 pairs, which ends inside trial 227 (C = 32)
        cfg = SystemConfig(n_rx=8, n_sel=3, n_refl=31, alpha=(0.05, 0.2, 0.75),
                           noise_sigma=0.5, seed=6)
        pair_step = SCREEN_BUDGET // 9
        assert pair_step % 32 and 240 * 32 > pair_step
        _, h, y = make_trials(cfg, range(240))
        self.assert_matches_direct(y, h, cfg)

    @pytest.mark.parametrize("budget", [40, 100, 300])
    def test_small_budget_slices_pairs_and_values(self, monkeypatch, budget):
        # 16-QAM at n_sel 2: |A| + |B| = 32 and V = 256 exceed or nearly fill
        # these budgets, so slices end inside trials and each kept pair is
        # expanded over several runs of values; trial 2 ties everywhere
        monkeypatch.setattr(irsmas.detection, "SCREEN_BUDGET", budget)
        cfg = SystemConfig(n_rx=5, n_sel=2, n_refl=9, mod_order=16, alpha=(0.05, 0.95),
                           noise_sigma=0.3, seed=8)
        _, h, y = make_trials(cfg, range(5))
        h[2] = 0.0
        p_hat, labels, _ = self.assert_matches_direct(y, h, cfg)
        assert p_hat[2] == 0
        np.testing.assert_array_equal(labels[2], 0)

    def test_identical_channel_rows_tie_to_smaller_row(self):
        # antennas 3 and 4 see the same channel, so rows (1, 3) and (1, 4)
        # align the same reflector phases and explain y equally well
        cfg = SystemConfig(n_rx=6, n_sel=2, n_refl=10, mod_order=4, noise_sigma=0.05, seed=5)
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        values = superposition_axes(cfg.mod_order, cfg.alpha).values
        _, h, y = make_trials(cfg, range(3))
        h[:, 3] = h[:, 2]
        np.testing.assert_array_equal(table.rows[1:3], [[1, 3], [1, 4]])
        every_row = np.broadcast_to(np.arange(table.row_count), (3, table.row_count))
        theta = gather_phases(aligning_phases(h), every_row, cfg.n_sel)
        for t in range(3):
            gains = h[t] @ theta[t].T
            np.testing.assert_array_equal(gains[:, 1], gains[:, 2])
            y[t] += gains[:, 2] * values[5 * t]  # sent on row 2, as loud as the noise
        p_hat, _, _ = self.assert_matches_direct(y, h, cfg)
        np.testing.assert_array_equal(p_hat, 1)

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
        ml_detect_batch(y[:1], *ml_gains(h[:1], phases[:1], cfg, table), norms[:1], cfg,
                        table)  # build the caches
        tracemalloc.start()
        try:
            gains, energy = ml_gains(h, phases, cfg, table)
            p_hat, labels, distance = ml_detect_batch(y, gains, energy, norms, cfg, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        np.testing.assert_array_equal(p_hat, 0)
        np.testing.assert_array_equal(labels, 0)
        terms = np.abs(y) ** 2  # ||y - 0||^2, summed over antennas in order
        np.testing.assert_array_equal(distance, sum(terms[:, r] for r in range(cfg.n_rx)))


def assert_within_gain_bound(gains, h, table, delta):
    """Each trial's conjugate gains stack from ``ml_gains`` (T, n_rx, C)
    lies within 2 (N + 2) eps sum_n |h[r, n]| of the direct H theta_p,
    entry by entry (``TestMlGains.test_gains_within_rounding_bound``)."""
    eps = np.finfo(float).eps
    for g, h_t in zip(gains, h):
        bound = 2 * (h_t.shape[1] + 2) * eps * np.abs(h_t).sum(axis=1)
        error = np.abs(g.conj() - direct_gains(h_t, table, delta))
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
    """``ml_gains`` sums per-block cross gains; the direct search forms
    H theta_p in one product.  The two may differ by rounding alone."""

    # the last two have a leftover block of 1 and 2 reflectors
    @pytest.mark.parametrize("n_rx,n_sel,n_refl", [(12, 2, 64), (12, 3, 64), (8, 4, 66)])
    def test_gains_within_rounding_bound(self, n_rx, n_sel, n_refl):
        """|conj(stack) - H theta_p| <= 2 (N + 2) eps sum_n |h[r, n]| for
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
        2 (N + 2) leaves room for the second-order terms.  Conjugating the
        stack is exact.  An all-zero row has a
        zero bound, and both sides give exactly 0 there.
        """
        cfg = SystemConfig(n_rx=n_rx, n_sel=n_sel, n_refl=n_refl)
        table = build_rac_table(n_rx, n_sel)
        _, h, _ = draw_trials(7, range(CHUNK_TRIALS), 1, n_rx, n_refl)
        h[3, 1] = 0  # a dead antenna
        gains, _ = ml_gains(h, aligning_phases(h), cfg, table)
        assert_within_gain_bound(gains, h, table, cfg.delta)
        np.testing.assert_array_equal(gains[3, 1], 0)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(gain_stacks())
    @example((SystemConfig(n_rx=5, n_sel=4, n_refl=4),
              np.ones((CHUNK_TRIALS + 1, 5, 4), dtype=complex)))
    def test_chunked_gains_within_bound(self, case):
        # chunks through a NaN-filled block workspace, as _block_counts runs
        # them; a trial's gains do not depend on the chunk it runs in
        cfg, h = case
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        _, (_, *buffers) = irsmas.harness._workspace(cfg, "ml", CHUNK_TRIALS)
        for buf in buffers:
            buf.fill(np.nan)
        for lo in range(0, len(h), CHUNK_TRIALS):
            chunk = h[lo : lo + CHUNK_TRIALS]
            gains, _ = ml_gains(chunk, aligning_phases(chunk), cfg, table, buffers)
            assert gains.shape == (len(chunk), cfg.n_rx, table.row_count)
            assert_within_gain_bound(gains, chunk, table, cfg.delta)
            alone, _ = ml_gains(chunk[-1:], aligning_phases(chunk[-1:]), cfg, table)
            np.testing.assert_array_equal(alone[0], gains[-1])


@st.composite
def sas_blocks(draw):
    """A small baseline config and scheme plus a block (start, count) of its trials."""
    cfg = SystemConfig(
        n_rx=draw(st.sampled_from((2, 4, 16))), n_sel=1, alpha=(1.0,),
        n_refl=draw(st.integers(1, 70)),
        mod_order=draw(st.sampled_from((2, 4, 16))),
        noise_sigma=draw(st.sampled_from((0.0, 0.05, 0.5, 2.0, 20.0))),
        seed=draw(st.integers(0, 2**32)),
    )
    scheme = draw(st.sampled_from(("sas-sm", "sas-ssk")))
    return cfg, scheme, draw(st.integers(0, 5000)), draw(st.integers(1, 3 * CHUNK_TRIALS + 5))


class TestBatchedSasEngine:
    """The baselines through the engine against the scalar reference: block
    counts against its ``run_trial``, and the engine's search at the
    baseline's pin against the per-target search: its bits against the
    reference's own, and its distance against the reference's search over
    the engine's gains, bit for bit (the gains themselves may differ in the
    last bits)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sas_blocks())
    @example((SystemConfig(n_rx=16, n_sel=1, alpha=(1.0,), n_refl=64, mod_order=16,
                           noise_sigma=25.0, seed=1), "sas-sm", 999, 37))
    @example((SystemConfig(n_rx=16, n_sel=1, alpha=(1.0,), n_refl=70, noise_sigma=25.0,
                           seed=2), "sas-ssk", 0, 16))
    def test_block_counts_equal_sum_of_scalar_trials(self, case):
        cfg, scheme, start, count = case
        pinned = scheme_config(cfg, scheme, "ml")
        table = build_rac_table(cfg.n_rx, 1)
        want = [0, 0, 0]
        for trial in range(start, start + count):
            out = reference_run_trial(cfg, scheme, "ml", trial)
            want[0] += out.bit_errors
            want[1] += out.block_error
            want[2] += out.mac

            _, ch, *_, y = make_sas_trial(cfg, scheme, trial)
            h = ch.h[None]
            gains, energy = ml_gains(h, aligning_phases(h), pinned, table)
            p_hat, labels, got_d = ml_detect_batch(y[None], gains, energy, None, pinned, table)
            ref_bits, _ = direct_sas_detect(y, ch, cfg, scheme)
            np.testing.assert_array_equal(detected_bits(p_hat, labels, pinned)[0], ref_bits)
            _, ref_d = direct_sas_detect(y, ch, cfg, scheme, gains=gains[0].conj())
            assert got_d[0] == ref_d
        assert point_block(cfg, scheme, "ml", start, count) == (count, *want)

    @pytest.mark.parametrize("mode", ["sm", "ssk"])
    def test_all_zero_channel_ties_to_first_hypothesis(self, mode):
        cfg, scheme = SystemConfig(n_rx=4, n_sel=1, alpha=(1.0,), mod_order=4), "sas-" + mode
        pinned = scheme_config(cfg, scheme, "ml")
        table = build_rac_table(cfg.n_rx, 1)
        ch = ChannelMatrix(np.zeros((4, 9)))
        h = ch.h[None]
        gains, energy = ml_gains(h, aligning_phases(h), pinned, table)
        for y in (np.zeros(4, dtype=complex), np.full(4, 0.3 - 0.1j)):
            p_hat, labels, distance = ml_detect_batch(y[None], gains, energy, None, pinned, table)
            bits = detected_bits(p_hat, labels, pinned)
            ref_bits, ref_d = direct_sas_detect(y, ch, cfg, scheme)
            np.testing.assert_array_equal(bits, 0)
            np.testing.assert_array_equal(ref_bits, 0)
            assert distance[0] == ref_d == np.sum(np.abs(y) ** 2)


# name: (scheme, detector, noisy config); the block below has errors in each
CHUNK_CASES = {
    "mas-ssd": ("mas", "ssd", SystemConfig(noise_sigma=10.0, seed=11)),
    "mas-ml": ("mas", "ml", SystemConfig(noise_sigma=10.0, seed=12)),
    "sas-sm": ("sas-sm", "ml", SystemConfig(n_rx=16, n_sel=1, alpha=(1.0,), noise_sigma=25.0,
                                            seed=13)),
    "sas-ssk": ("sas-ssk", "ml", SystemConfig(n_rx=8, n_sel=1, alpha=(1.0,), noise_sigma=30.0,
                                              seed=14)),
}
CHUNK_BLOCK = (45, 67)  # start, count: 67 trials is no multiple of 7, 16 or 32


@lru_cache(maxsize=None)
def reference_block(name):
    """(bit errors, block errors, MACs) of CHUNK_BLOCK by the scalar reference."""
    scheme, detector, cfg = CHUNK_CASES[name]
    start, count = CHUNK_BLOCK
    outs = [reference_run_trial(cfg, scheme, detector, t) for t in range(start, start + count)]
    return (sum(o.bit_errors for o in outs), sum(o.block_error for o in outs),
            sum(o.mac for o in outs))


@pytest.mark.parametrize("chunk", [1, 7, 16, 32])
@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_chunk_length_does_not_change_counts(monkeypatch, name, chunk):
    scheme, detector, cfg = CHUNK_CASES[name]
    want = reference_block(name)
    assert want[1] > 0
    monkeypatch.setattr(irsmas.harness, "CHUNK_TRIALS", chunk)
    assert point_block(cfg, scheme, detector, *CHUNK_BLOCK) == (CHUNK_BLOCK[1], *want)


@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_joint_block_equals_per_point_blocks(name):
    # noiseless, the case's own noise twice and a third of it; 67 trials
    # span two full chunks and a ragged one
    scheme, detector, cfg = CHUNK_CASES[name]
    sigmas = (0.0, cfg.noise_sigma, cfg.noise_sigma / 3, cfg.noise_sigma)
    alone = [point_block(dataclasses.replace(cfg, noise_sigma=sigma), scheme, detector,
                         *CHUNK_BLOCK) for sigma in sigmas]
    assert alone[1] == alone[3] == (CHUNK_BLOCK[1], *reference_block(name))
    assert alone[0][2] == 0
    cfg = scheme_config(cfg, scheme, detector)
    for points in ((0, 1, 2, 3), (3, 2), (2,), (1, 0)):
        joint = _block_counts((cfg, detector, *CHUNK_BLOCK,
                               tuple(sigmas[i] for i in points)))
        assert joint == [alone[i] for i in points]


class TestWorkspace:
    """A block allocates its chunks' large arrays once, and every chunk
    overwrites them."""

    @pytest.mark.parametrize("name", sorted(CHUNK_CASES))
    def test_every_chunk_reuses_the_block_buffers(self, monkeypatch, name):
        scheme, detector, cfg = CHUNK_CASES[name]
        monkeypatch.setattr(irsmas.harness, "CHUNK_TRIALS", 32)
        seen = []
        real_draw, real_phases = irsmas.harness.draw_trials, irsmas.harness.aligning_phases
        real_ml = irsmas.harness.ml_gains

        def draw_trials(*args, out=None):
            bits, h, noise = real_draw(*args, out=out)
            assert np.shares_memory(h, out[2]) and np.shares_memory(noise, out[3])
            seen.append(("draws", len(bits), tuple(buf.ctypes.data for buf in out)))
            return bits, h, noise

        def aligning_phases(h, out=None):
            seen.append(("phases", len(h), out.ctypes.data))
            return real_phases(h, out=out)

        def ml_gains(h, phases, cfg, table, buffers=None):
            cross, gains = buffers
            assert cross.shape == (32, cfg.n_rx, cfg.n_rx)
            assert gains.shape == (32, cfg.n_rx, table.row_count)
            seen.append(("ml", len(h), (phases.ctypes.data, cross.ctypes.data,
                                        gains.ctypes.data)))
            return real_ml(h, phases, cfg, table, buffers)

        monkeypatch.setattr(irsmas.harness, "draw_trials", draw_trials)
        monkeypatch.setattr(irsmas.harness, "aligning_phases", aligning_phases)
        monkeypatch.setattr(irsmas.harness, "ml_gains", ml_gains)
        assert point_block(cfg, scheme, detector, *CHUNK_BLOCK) == (CHUNK_BLOCK[1],
                                                                    *reference_block(name))
        kinds = ["draws", "phases"]
        if detector == "ml":  # of any scheme: a baseline is an ml search at n_sel 1
            kinds.append("ml")
        for kind in kinds:
            calls = [(n, data) for k, n, data in seen if k == kind]
            assert [n for n, _ in calls] == [32, 32, 3]  # 67 trials: the last chunk is ragged
            assert len({data for _, data in calls}) == 1
        if "ml" in kinds:  # the search gathers from the chunk's phases
            assert ({data for k, _, data in seen if k == "phases"}
                    == {data[0] for k, _, data in seen if k == "ml"})

    @pytest.mark.parametrize("count", [CHUNK_TRIALS, 7])  # a full chunk, then a ragged one
    def test_ml_into_used_buffers_equals_fresh_search(self, count):
        cfg = dataclasses.replace(CHUNK_CASES["mas-ml"][2], mod_order=16, alpha=(0.05, 0.95))
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        _, h, y = make_trials(cfg, range(100, 100 + count))
        norms = np.linalg.norm(h, axis=-1)
        size = CHUNK_TRIALS + 5
        phases = np.full((size, cfg.n_rx, cfg.n_refl), np.nan, dtype=complex)
        buffers = (np.full((size, cfg.n_rx, cfg.n_rx), np.nan, dtype=complex),
                   np.full((size, cfg.n_rx, table.row_count), np.nan, dtype=complex))
        want = ml_detect_batch(y, *ml_gains(h, aligning_phases(h), cfg, table), norms, cfg, table)
        for _ in range(2):  # NaN-filled buffers, then the same buffers used
            gains, energy = ml_gains(h, aligning_phases(h, out=phases[:count]), cfg, table,
                                     buffers)
            got = ml_detect_batch(y, gains, energy, norms, cfg, table)
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part, want_part)

    def test_ml_workspace_lowers_the_chunk_peak(self):
        _, detector, cfg = CHUNK_CASES["mas-ml"]
        trials = range(45, 45 + CHUNK_TRIALS)
        workspace = irsmas.harness._workspace(cfg, detector, CHUNK_TRIALS)
        (_, _, h, _), (phases, _, gains) = workspace
        sigmas = (cfg.noise_sigma,)
        want = _chunk_counts(cfg, detector, trials, sigmas)  # build the cached sets first
        peaks = []
        tracemalloc.start()
        try:
            for space in (None, workspace):
                tracemalloc.reset_peak()
                assert _chunk_counts(cfg, detector, trials, sigmas, space) == want
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # without a workspace, the search holds the channels, their phases
        # and the gains stack at once
        assert peaks[0] - peaks[1] >= h.nbytes + phases.nbytes + gains.nbytes

    @pytest.mark.parametrize("name", sorted(CHUNK_CASES))
    def test_workspace_adds_only_the_ml_buffers_to_the_draws(self, name):
        scheme, detector, cfg = CHUNK_CASES[name]
        cfg = scheme_config(cfg, scheme, detector)
        draws, rest = irsmas.harness._workspace(cfg, detector, CHUNK_TRIALS)
        memory = draws[0]
        while memory.base is not None:
            memory = memory.base
        layout = draw_layout(CHUNK_TRIALS, bits_per_tx(cfg, scheme), cfg.n_rx, cfg.n_refl)
        assert [(buf.shape, buf.dtype) for buf in draws] == layout
        # every chunk's phases take the normals' bytes
        assert rest[0].shape == draws[2].shape and np.shares_memory(rest[0], draws[1])
        # every buffer is a multiple of 64 bytes here, so none is padded
        ml_bytes = sum(buf.nbytes for buf in rest[1:])
        assert memory.nbytes == ml_bytes + sum(math.prod(shape) * dtype.itemsize
                                               for shape, dtype in layout)
        # the ml search's two buffers, for mas and for the baselines alike
        assert len(rest) == (3 if detector == "ml" else 1)

    def test_draws_into_used_buffers_equal_fresh_draws(self):
        n_bits, n_rx, n_refl = 7, 3, 5
        out = [np.empty(shape, dtype) for shape, dtype in draw_layout(10, n_bits, n_rx, n_refl)]
        out[0].fill(np.iinfo(np.uint64).max)
        for buf in out[1:]:
            buf.fill(np.nan)
        # NaN-filled buffers, then a larger chunk, then a smaller one after it
        for trials in (range(40, 44), range(20, 30), range(2**32 - 1, 2**32 + 2)):
            got = draw_trials(9, trials, n_bits, n_rx, n_refl, out=out)
            want = draw_trials(9, trials, n_bits, n_rx, n_refl)
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
        assert bits_per_tx(CFG, "mas") == 8
        sas_cfg = dataclasses.replace(CFG, n_rx=16, n_sel=1, alpha=(1.0,))
        assert bits_per_tx(sas_cfg, "sas-sm") == 5
        assert bits_per_tx(sas_cfg, "sas-ssk") == 4

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme: expected one of"):
            bits_per_tx(CFG, "bogus")


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

            def apply_async(self, fn, args, callback, error_callback):
                callback(fn(*args))

        monkeypatch.setattr(irsmas.harness, "Pool", InlinePool)
        cfg = self.small_cfg(n_trials=BLOCK_TRIALS + 1, snr_grid_db=(-14.0, -12.0))
        run_sweep(cfg, "mas", "ssd", workers=10_000)
        assert opened == [4]  # two points of two blocks each
        run_sweep(self.small_cfg(snr_grid_db=(-14.0,)), "mas", "ssd", workers=10_000)
        assert opened == [4]  # a single block runs in process

    def test_block_drawn_and_encoded_once_per_sweep(self, monkeypatch):
        calls = []
        real_draw, real_encode = irsmas.harness.draw_trials, irsmas.harness.encode_batch

        def draw_trials(*args, **kwargs):
            calls.append("draws")
            return real_draw(*args, **kwargs)

        def encode_batch(*args):
            calls.append("encode")
            return real_encode(*args)

        monkeypatch.setattr(irsmas.harness, "draw_trials", draw_trials)
        monkeypatch.setattr(irsmas.harness, "encode_batch", encode_batch)
        grid = (-14.0, -12.0, float("inf"))
        cfg = self.small_cfg(n_trials=BLOCK_TRIALS + 37, snr_grid_db=grid)
        rows = run_sweep(cfg, "mas", "ssd", workers=1)
        chunks = -(-BLOCK_TRIALS // CHUNK_TRIALS) + -(-37 // CHUNK_TRIALS)  # both blocks
        assert calls.count("draws") == calls.count("encode") == chunks
        for snr_db, row in zip(grid, rows):
            calls.clear()
            assert run_sweep(dataclasses.replace(cfg, snr_grid_db=(snr_db,)), "mas", "ssd",
                             workers=1) == [row]
            assert calls.count("draws") == calls.count("encode") == chunks

    def test_empty_grid_rejected_before_any_trial(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a pool or block started before the grid was checked")

        monkeypatch.setattr(irsmas.harness, "Pool", no_run)
        monkeypatch.setattr(irsmas.harness, "_block_counts", no_run)
        for workers in (1, 2):
            with pytest.raises(ValueError, match="snr_grid_db"):
                run_sweep(SystemConfig(snr_grid_db=()), "mas", "ssd", workers=workers)

    def test_worker_exception_comes_out(self, monkeypatch):
        monkeypatch.setattr(irsmas.harness, "_chunk_counts", failing_chunk_counts)
        with time_limit(60), pytest.raises(RuntimeError, match="chunk failed"):
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
