"""Receiver tests: quantizer, candidate sorter, SSD and ML detectors, MAC models."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from irsmas.channel import TrialStreams, add_noise, draw_trials, trial_rng
import irsmas.detection
from irsmas.baselines import baseline_config
from irsmas.core import SystemConfig, make_constellation, snr_to_sigma, superposition_axes
from irsmas.detection import (
    candidate_gains,
    check_ml_guard,
    detected_bits,
    mac_base,
    mac_ml,
    mac_ssd,
    ml_detect_batch,
    rac_candidates_batch,
    ssd_detect_batch,
)
from irsmas.harness import run_trial
from irsmas.rac import build_rac_table
from irsmas.transmitter import encode_batch, slot_order
from reference import (
    make_trials,
    quantize,
    rac_candidates,
    rac_find,
    sample_channel,
    ssd_candidate_decode,
    superpose,
)
from reference import ssd_detect as reference_ssd_detect
from test_harness import detector_inputs, every_row_gains

CFG = SystemConfig()
TABLE = build_rac_table(CFG.n_rx, CFG.n_sel)
BPSK = make_constellation(2)


class TestQuantize:
    """The reference quantizer that the ssd oracle uses."""

    def test_frozen_bpsk(self):
        # scaled points are +-sqrt(0.8) ~ +-0.894; -0.4 is nearer the negative one
        assert quantize(-0.4, 0.8, BPSK) == pytest.approx(-1.0)
        assert quantize(0.5, 0.8, BPSK) == pytest.approx(1.0)

    def test_tie_takes_first_point(self):
        assert quantize(0.0, 0.8, BPSK) == pytest.approx(1.0)

    def test_scaling_changes_decision(self):
        qpsk = make_constellation(4)
        v = 0.3 + 0.3j
        assert quantize(v, 1.0, qpsk) == pytest.approx(qpsk.points[0])
        # same value, tiny power ratio: still snaps to the nearest scaled point
        assert quantize(v, 1e-4, qpsk) == pytest.approx(qpsk.points[0])


def values_and_tuples(mod_order, alpha):
    """(values, tuples) of the cached superposition of (M, alpha)."""
    axes = superposition_axes(mod_order, alpha)
    return axes.values, axes.tuples


class TestSuperpositionSet:
    def test_bpsk_frozen_values(self):
        values, labels = values_and_tuples(2, CFG.alpha)
        assert len(values) == 4
        np.testing.assert_array_equal(labels, [[0, 0], [0, 1], [1, 0], [1, 1]])
        np.testing.assert_allclose(
            values,
            [1.3416407864998738, -0.4472135954999579,
             0.4472135954999579, -1.3416407864998738],
            atol=1e-12,
        )

    def test_sizes(self):
        values, labels = values_and_tuples(4, CFG.alpha)
        assert values.shape == (16,) and labels.shape == (16, 2)
        assert len(np.unique(np.round(values, 9))) == 16

    def test_built_once_read_only(self):
        alpha = (0.01, 0.1, 0.89)
        values, labels = values_and_tuples(16, alpha)
        again = values_and_tuples(16, alpha)
        assert again[0] is values and again[1] is labels
        assert not values.flags.writeable and not labels.flags.writeable
        # equal, bit for bit, to a + jb of the per-axis sets
        axes = superposition_axes(16, alpha)
        assert superposition_axes(16, alpha) is axes  # one object per (M, alpha)
        np.testing.assert_array_equal(labels, np.indices((16,) * 3).reshape(3, -1).T)
        np.testing.assert_array_equal(values.real, axes.a[axes.ia])
        np.testing.assert_array_equal(values.imag, axes.b[axes.ib])

    @pytest.mark.parametrize("mod_order", [2, 4, 16, 64])
    def test_values_equal_scalar_superposition(self, mod_order):
        # each value, bit for bit, is the reference's slot-by-slot sum with
        # tuple position i at power ratio alpha[i]; a large set is sampled
        points = make_constellation(mod_order).points
        for alpha in [(1.0,), (0.2, 0.8), (0.05, 0.95), (0.05, 0.2, 0.75), (0.01, 0.1, 0.89)]:
            values, labels = values_and_tuples(mod_order, alpha)
            tuples = np.arange(len(values))
            if len(tuples) > 4096:
                tuples = np.random.default_rng(0).choice(tuples, 4096, replace=False)
            order = np.arange(1, len(alpha) + 1)
            for v in tuples:
                assert values[v] == superpose(points[labels[v]], order, alpha)


@st.composite
def axis_cases(draw):
    """A modulation order, n_sel and positive power ratios (any, even colliding)."""
    mod_order = draw(st.sampled_from((2, 4, 16, 64)))
    n_sel = draw(st.integers(1, 3))
    alpha = tuple(draw(st.lists(st.floats(1e-3, 1.0), min_size=n_sel, max_size=n_sel)))
    return mod_order, alpha


class TestSuperpositionAxes:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(axis_cases())
    @example((64, (0.01, 0.1, 0.89)))
    def test_axes_rebuild_superposition_set(self, case):
        mod_order, alpha = case
        values, labels = values_and_tuples(mod_order, alpha)
        axes = superposition_axes(mod_order, alpha)
        # (ia, ib) is a bijection from the tuples onto A x B
        assert len(values) == len(axes.a) * len(axes.b) == len(axes.ia) == len(axes.ib)
        np.testing.assert_array_equal(np.sort(axes.ia * len(axes.b) + axes.ib),
                                      np.arange(len(values)))
        # ... each value is a + jb exactly, and superpose looks up any tuples
        np.testing.assert_array_equal(axes.a[axes.ia], values.real)
        np.testing.assert_array_equal(axes.b[axes.ib], values.imag)
        np.testing.assert_array_equal(axes.superpose(labels[::-7]), values[::-7])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([(2, (0.05, 0.2, 0.75)), (4, (0.2, 0.8)), (16, (0.05, 0.95))]),
           st.data())
    def test_pair_minimum_is_least_sum(self, case, data):
        # rounded addition is monotone, so min f_A + min f_B is exactly the
        # least of the |A| |B| rounded sums, whatever the scores
        mod_order, alpha = case
        axes = superposition_axes(mod_order, alpha)
        scores = st.floats(-1e6, 1e6, allow_subnormal=False)
        f_a = np.array(data.draw(st.lists(scores, min_size=len(axes.a), max_size=len(axes.a))))
        f_b = np.array(data.draw(st.lists(scores, min_size=len(axes.b), max_size=len(axes.b))))
        assert f_a.min() + f_b.min() == (f_a[axes.ia] + f_b[axes.ib]).min()


class TestRacCandidates:
    """The reference candidate sorter, which TestSsdBatch compares the engine's with."""

    def test_containment_rule(self):
        # antennas 1..6 carry all the power; every row inside {1..6} qualifies
        y = np.array([5, 4, 3, 2, 1, 0.5] + [0.01] * 6, dtype=complex)
        cands = rac_candidates(y, TABLE, n_c=6, n_iters=8)
        assert len(cands.rows) == 15  # all pairs of the six strong antennas
        picked = {tuple(r) for r in cands.rows.tolist()}
        assert picked == {(i, j) for i in range(1, 7) for j in range(i + 1, 7)}
        # strongest pair (1,2) ranks first
        np.testing.assert_array_equal(cands.rows[cands.order[0]], [1, 2])
        # scores are summed antenna powers, descending along order
        np.testing.assert_allclose(cands.scores[cands.order[0]], 25 + 16)
        ordered = cands.scores[cands.order]
        assert (np.diff(ordered) <= 1e-12).all()

    def test_tiered_fallback_widens_until_enough(self):
        # only antennas 1,2 in the top set -> 1 full row; the sorter must
        # relax membership to reach at least n_iters candidates
        y = np.array([5, 4] + [0.01] * 10, dtype=complex)
        cands = rac_candidates(y, TABLE, n_c=2, n_iters=8)
        picked = {tuple(r) for r in cands.rows.tolist()}
        assert (1, 2) in picked
        # tier 1 adds every legitimate row containing antenna 1 or 2
        assert len(cands.rows) == 21
        np.testing.assert_array_equal(cands.rows[cands.order[0]], [1, 2])

    def test_all_antennas_in_top_set(self):
        y = np.ones(12, dtype=complex)
        cands = rac_candidates(y, TABLE, n_c=12, n_iters=8)
        assert len(cands.rows) == TABLE.row_count

    def test_no_fallback_when_enough(self):
        y = np.array([5, 4, 3, 2, 1, 0.5] + [0.01] * 6, dtype=complex)
        cands = rac_candidates(y, TABLE, n_c=6, n_iters=8)
        # no row with an antenna outside the top six sneaks in
        assert all(max(r) <= 6 for r in cands.rows.tolist())


def ssd(y, h, cfg):
    """``ssd_detect_batch`` of received vectors y on their channels h."""
    return ssd_detect_batch(y, *detector_inputs(h, cfg.n_sel), cfg,
                            build_rac_table(cfg.n_rx, cfg.n_sel))


def ml(y, h, cfg):
    """``ml_detect_batch`` of received vectors y on their channels h."""
    return ml_detect_batch(y, *detector_inputs(h, cfg.n_sel), cfg,
                           build_rac_table(cfg.n_rx, cfg.n_sel))


class TestSsd:
    def test_noiseless_exact_recovery(self):
        bits, h, y = make_trials(CFG, range(200))
        p_hat, labels, distance, _ = ssd(y, h, CFG)
        np.testing.assert_array_equal(detected_bits(p_hat, labels, CFG), bits)
        assert (distance <= 1e-18).all()

    def test_noiseless_exact_recovery_qpsk(self):
        cfg = dataclasses.replace(CFG, mod_order=4)
        bits, h, y = make_trials(cfg, range(100), seed=1)
        p_hat, labels, _, _ = ssd(y, h, cfg)
        np.testing.assert_array_equal(detected_bits(p_hat, labels, cfg), bits)

    def test_zero_gain_candidate_disqualified(self):
        h = sample_channel(CFG.n_rx, CFG.n_refl, trial_rng(2, 0))
        h[0, :] = 0.0  # antenna 1 dead: rows containing it cannot explain y
        y = np.ones(CFG.n_rx, dtype=complex)
        _, _, d = ssd_candidate_decode(y, h, 0, CFG, TABLE, BPSK)  # row (1,2)
        assert d == np.inf

    def test_distance_over_all_antennas(self):
        _, h, y = make_trials(CFG, [3], sigma=0.5)
        (p_hat,), _, (distance,), _ = ssd(y, h, CFG)
        _, _, d = ssd_candidate_decode(y[0], h[0], int(p_hat), CFG, TABLE, BPSK)
        assert distance == pytest.approx(d)

    def test_mac_count_reflects_candidate_total(self):
        _, h, y = make_trials(CFG, [4])
        *_, (n_cand,) = ssd(y, h, CFG)
        want = len(rac_candidates(y[0], TABLE, CFG.n_cand_antennas, CFG.n_iters).rows)
        assert mac_ssd(CFG, n_cand) == mac_ssd(CFG, want)


class TestSsdBatch:
    """The batched receiver against the scalar reference, trial by trial.
    Rows, labels and MACs match the reference's own; the engine sums its
    gains per reflector block (``candidate_gains``), so they may differ from
    the reference's H theta_p in the last bits, and the distances match the
    reference run on the engine's gains bit for bit."""

    def assert_matches_scalar(self, y, h, cfg, const):
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        cross, index, norms = detector_inputs(h, cfg.n_sel)
        p_hat, labels, distance, n_cand = ssd_detect_batch(y, cross, index, norms, cfg, table)
        engine_gains = every_row_gains(cross, index)  # as the ssd engine sums them
        for t in range(len(y)):
            ref_p, ref_symbols, _, ref_n_cand = reference_ssd_detect(y[t], h[t], cfg, table,
                                                                     const)
            assert p_hat[t] == ref_p
            np.testing.assert_array_equal(const.points[labels[t]], ref_symbols)
            assert n_cand[t] == ref_n_cand
            same_p, same_symbols, same_d, _ = reference_ssd_detect(y[t], h[t], cfg, table, const,
                                                                   gains=engine_gains[t])
            assert (same_p, distance[t]) == (p_hat[t], same_d)
            np.testing.assert_array_equal(const.points[labels[t]], same_symbols)
        return p_hat, labels, distance

    def test_zeroed_channel_row_and_fallback(self):
        _, h, y = make_trials(CFG, range(6), seed=6, sigma=0.7)
        h[1, 0, :] = 0.0   # antenna 1 dead: rows holding it are disqualified
        y[1, 0] = 10.0     # ...and ranked first, so some decoded rows are dead
        h[2] = 0.0         # every gain zero: every candidate is disqualified
        h[3, np.arange(CFG.n_rx) != 4, :] = 0.0
        y[3, 4] = 10.0     # one live antenna: one zero gain per row still disqualifies
        p_hat, labels, distance = self.assert_matches_scalar(y, h, CFG, BPSK)
        for t in (2, 3):
            cands = rac_candidates(y[t], TABLE, CFG.n_cand_antennas, CFG.n_iters)
            assert distance[t] == np.inf
            assert p_hat[t] == rac_find(TABLE, cands.rows[cands.order[0]])
            np.testing.assert_array_equal(labels[t], 0)

    def test_three_slots_qpsk(self):
        cfg = dataclasses.replace(CFG, n_sel=3, n_refl=67, mod_order=4,
                                  alpha=(0.05, 0.2, 0.75))
        qpsk = make_constellation(4)
        _, h, y = make_trials(cfg, range(6), seed=6, sigma=0.3)
        h[0, 4, :] = 0.0
        self.assert_matches_scalar(y, h, cfg, qpsk)

    def test_ranking_matches_tiered_list(self):
        _, h, y = make_trials(CFG, range(8), seed=6, sigma=3.0)
        y[3] = 1.0  # all powers tie: ranking falls back to tier, then table index
        for n_c, n_iters in [(2, 1), (2, 8), (6, 8), (12, 100)]:
            cand, n_cand = rac_candidates_batch(y, TABLE, n_c, n_iters)
            for t in range(len(y)):
                ref = rac_candidates(y[t], TABLE, n_c, n_iters)
                assert n_cand[t] == len(ref.rows)
                k = min(n_iters, len(ref.rows))
                want = [rac_find(TABLE, row) for row in ref.rows[ref.order[:k]]]
                assert cand[t, :k].tolist() == want


@st.composite
def ranking_cases(draw):
    """A RAC table with n_sel 1 to 4, the sorter's n_c and an n_iters below,
    at or above the row count, and a few received vectors: Gaussian, or
    integer levels of either sign, so that antennas tie in power."""
    n_sel = draw(st.integers(1, 4))
    n_rx = draw(st.integers(n_sel + 1, 9))
    n_rows = build_rac_table(n_rx, n_sel).row_count
    n_c = draw(st.integers(n_sel, n_rx))
    n_iters = draw(st.integers(1, n_rows + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    shape = (draw(st.integers(1, 6)), n_rx)
    levels = draw(st.sampled_from((0, 1, 2, 3)))
    if levels:
        y = rng.integers(0, levels + 1, shape) * rng.choice((-1.0, 1.0), shape) + 0j
    else:
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return n_sel, n_c, n_iters, y


class TestRacCandidatesBatch:
    """The engine's candidate sorter against the reference's tiered list."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ranking_cases())
    # 8 slots: numpy sums the scores of 8 or more antennas pairwise, which
    # ranks these rows of powers 2.25 and 2^-50 to 2^-54 unlike a sum in sequence
    @example((8, 9, 8, 2.0 ** -np.array([[25, 26, 26, 0, 25, 25, 27, 0, 27]])
              * np.array([1, 1, 1, 1.5, 1, 1, 1, 1.5, 1]) + 0j))
    @example((8, 10, 40, np.linspace(1.0, 2.0, 10)[None] ** np.arange(1, 4)[:, None] + 0j))
    def test_ranking_matches_tiered_list(self, case):
        n_sel, n_c, n_iters, y = case
        table = build_rac_table(y.shape[1], n_sel)
        cand, n_cand = rac_candidates_batch(y, table, n_c, n_iters)
        n_v = min(n_iters, table.row_count)
        assert cand.shape == (len(y), n_v)
        # every column is a candidate, and the ssd receiver decodes them all:
        # whole tiers join until n_iters rows qualify, or every row does
        assert (n_cand >= n_v).all()
        for t in range(len(y)):
            ref = rac_candidates(y[t], table, n_c, n_iters)
            assert n_cand[t] == len(ref.rows)
            want = [rac_find(table, row) for row in ref.rows[ref.order[:n_v]]]
            assert cand[t].tolist() == want


class TestMl:
    def test_noiseless_exact_recovery(self):
        bits, h, y = make_trials(CFG, range(150))
        p_hat, labels, distance = ml(y, h, CFG)
        np.testing.assert_array_equal(detected_bits(p_hat, labels, CFG), bits)
        assert (distance <= 1e-12).all()

    def test_noiseless_exact_recovery_qam16(self):
        cfg = dataclasses.replace(CFG, mod_order=16, alpha=(0.05, 0.95))
        bits, h, y = make_trials(cfg, range(30), seed=2)
        p_hat, labels, _ = ml(y, h, cfg)
        np.testing.assert_array_equal(detected_bits(p_hat, labels, cfg), bits)

    def test_guard_rejects_oversized_search(self, monkeypatch):
        # the guard is enforced at the gate, scheme_config, before any trial runs
        monkeypatch.setattr(irsmas.detection, "ML_GUARD", 100)
        with pytest.raises(ValueError, match="guard"):
            run_trial(CFG, "mas", "ml", 0)

    def test_guard_counts_the_hypotheses_mac_ml_bills(self, monkeypatch):
        # C M^n_sel = 2^l1 * 2^l2: 256 hypotheses at the headline config
        n_hyp = TABLE.row_count * CFG.mod_order**CFG.n_sel
        assert n_hyp * mac_base(CFG.n_rx, CFG.n_refl) == mac_ml(CFG)
        monkeypatch.setattr(irsmas.detection, "ML_GUARD", n_hyp)
        check_ml_guard(CFG)
        monkeypatch.setattr(irsmas.detection, "ML_GUARD", n_hyp - 1)
        with pytest.raises(ValueError, match="ml_guard") as err:
            check_ml_guard(CFG)
        assert "ssd" in str(err.value)
        # a baseline's pinned config: 16 targets by 2 symbols, 5 bits
        sas = baseline_config(dataclasses.replace(CFG, n_rx=16), "sas-sm")
        assert sas.block_len == 5 and mac_ml(sas) == 2**5 * mac_base(16, CFG.n_refl)
        monkeypatch.setattr(irsmas.detection, "ML_GUARD", 2**5)
        check_ml_guard(sas)
        monkeypatch.setattr(irsmas.detection, "ML_GUARD", 2**5 - 1)
        with pytest.raises(ValueError, match="ml_guard") as err:
            check_ml_guard(sas)
        assert "ssd" not in str(err.value)

    def test_matches_ssd_on_clean_input(self):
        _, h, y = make_trials(CFG, range(50), seed=3)
        p_ml, labels_ml, _ = ml(y, h, CFG)
        p_ssd, labels_ssd, _, _ = ssd(y, h, CFG)
        np.testing.assert_array_equal(detected_bits(p_ml, labels_ml, CFG),
                                      detected_bits(p_ssd, labels_ssd, CFG))


def q_function(t: float) -> float:
    """Gaussian tail probability P(Z > t)."""
    return math.erfc(t / math.sqrt(2)) / 2


def wilson_interval(successes: int, n: int, z: float) -> tuple:
    """Wilson score interval of a binomial rate at normal quantile z."""
    rate, z2 = successes / n, z * z
    centre = (rate + z2 / (2 * n)) / (1 + z2 / n)
    half = z * math.sqrt(rate * (1 - rate) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    return centre - half, centre + half


# name: (config, the sent block's bits, SNR in dB); on its channel each
# block is lost at a rate of 1-20% at that SNR, and its slot labels differ
BRACKET_CASES = {
    "headline-bpsk": (CFG, [0, 1, 0, 1, 1, 1, 0, 1], -14.0),
    "n_sel-3": (SystemConfig(n_rx=8, n_sel=3, alpha=(0.05, 0.2, 0.75), n_cand_antennas=3),
                [1, 0, 1, 1, 0, 0, 1, 1], -4.0),
}


class TestMlBracket:
    """The ml block error rate of one channel and one sent block against
    its analytic bracket.  With d_j the noiseless distance from the sent
    hypothesis to hypothesis j and complex noise of variance sigma^2 an
    antenna, y lies nearer j than the sent point with probability
    Q(d_j / (sqrt(2) sigma)).  ML then errs, so the largest of these bounds
    the rate from below and their sum (the union bound) from above."""

    N_RECEIVED = 20_000
    Z_999 = 3.2905  # two-sided 99.9%

    @pytest.mark.parametrize("name", sorted(BRACKET_CASES))
    def test_block_error_rate_within_the_bracket(self, name):
        cfg, block, snr_db = BRACKET_CASES[name]
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        axes = superposition_axes(cfg.mod_order, cfg.alpha)
        h = sample_channel(cfg.n_rx, cfg.n_refl, trial_rng(1, 0))[None]
        cross, index, norms = detector_inputs(h, cfg.n_sel)
        p, labels, x = encode_batch(np.array([block]), norms, cfg, table)
        assert len(set(labels[0])) > 1

        # every hypothesis (row q, value v) as the receiver sees it, noiseless
        gains = every_row_gains(cross, index)
        points = (gains[0][:, :, None] * axes.values).reshape(cfg.n_rx, -1)
        _, _, order = slot_order(p, norms, table)
        v_sent = np.ravel_multi_index(labels[0, order[0]], (cfg.mod_order,) * cfg.n_sel)
        sent = p[0] * len(axes.values) + v_sent
        distances = np.delete(np.linalg.norm(points - points[:, sent, None], axis=0), sent)
        sigma = snr_to_sigma(snr_db)
        pairwise = [q_function(d / (math.sqrt(2) * sigma)) for d in distances]
        low, high = max(pairwise), sum(pairwise)

        # unit noise as the engine draws it, one trial's stream per received vector
        _, _, noise = draw_trials(TrialStreams(2), range(self.N_RECEIVED), 0, cfg.n_rx, 0)
        received = candidate_gains(cross, index, p[:, None])[:, 0] * x[:, None]
        y = add_noise(received, noise, sigma)
        p_hat, labels_hat, _ = ml_detect_batch(y, cross, index, norms, cfg, table)
        errors = np.count_nonzero((p_hat != p) | (labels_hat != labels).any(axis=1))
        ci_low, ci_high = wilson_interval(errors, self.N_RECEIVED, self.Z_999)
        assert ci_low <= high and low <= ci_high, (errors, low, high)
        assert 0.01 <= errors / self.N_RECEIVED <= 0.2


class TestBitsRecovery:
    def test_round_trip(self):
        bits = detected_bits(np.array([37]), np.array([[1, 0]]), CFG)[0]
        np.testing.assert_array_equal(bits[:6], [1, 0, 0, 1, 0, 1])  # 37
        np.testing.assert_array_equal(bits[6:], [1, 0])

    def test_matches_encode_layout(self):
        bits, h, y = make_trials(CFG, [9])
        p_hat, labels, _ = ml(y, h, CFG)
        np.testing.assert_array_equal(detected_bits(p_hat, labels, CFG), bits)


class TestMacModels:
    def test_frozen_paper_values(self):
        assert mac_ml(CFG) == 1_603_328
        assert mac_ssd(CFG, 15) == 50_155

    def test_ratio(self):
        assert mac_ssd(CFG, 15) / mac_ml(CFG) == pytest.approx(0.03128, abs=1e-5)

    def test_base_term(self):
        # one joint-hypothesis evaluation costs 8 N_r N + 10 N_r - 1
        assert mac_base(12, 64) == 6263
        assert mac_ml(CFG) == 2**8 * 6263

    def test_ssd_scales_with_candidates(self):
        assert mac_ssd(CFG, 20) - mac_ssd(CFG, 15) == 5 * (CFG.n_sel - 1)
