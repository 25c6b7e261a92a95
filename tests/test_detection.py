"""Receiver tests: quantizer, candidate sorter, SSD and ML detectors, MAC models."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from irsmas.channel import ChannelMatrix, sample_channel, trial_rng
import irsmas.detection
from irsmas.baselines import baseline_config
from irsmas.core import SystemConfig, make_constellation, superposition_axes
from irsmas.detection import (
    check_ml_guard,
    cross_gains,
    detected_bits,
    mac_base,
    mac_ml,
    mac_ssd,
    ml_detect,
    ml_detect_batch,
    ml_gains,
    rac_candidates_batch,
    ssd_detect,
    ssd_detect_batch,
)
from irsmas.rac import build_rac_table
from irsmas.transmitter import aligning_phases
from reference import (
    make_trial,
    make_trials,
    quantize,
    rac_candidates,
    rac_find,
    ssd_candidate_decode,
    superpose,
)
from reference import ssd_detect as reference_ssd_detect

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


class TestSsd:
    def test_noiseless_exact_recovery(self):
        for trial in range(200):
            bits, ch, y = make_trial(CFG, trial)
            result = ssd_detect(y, ch, CFG, TABLE, BPSK)
            np.testing.assert_array_equal(result.bits, bits)
            assert result.distance <= 1e-18

    def test_noiseless_exact_recovery_qpsk(self):
        cfg = dataclasses.replace(CFG, mod_order=4)
        qpsk = make_constellation(4)
        for trial in range(100):
            bits, ch, y = make_trial(cfg, trial, seed=1)
            result = ssd_detect(y, ch, cfg, TABLE, qpsk)
            np.testing.assert_array_equal(result.bits, bits)

    def test_zero_gain_candidate_disqualified(self):
        h = sample_channel(CFG.n_rx, CFG.n_refl, trial_rng(2, 0)).h.copy()
        h[0, :] = 0.0  # antenna 1 dead: rows containing it cannot explain y
        ch = ChannelMatrix(h)
        y = np.ones(CFG.n_rx, dtype=complex)
        _, _, d = ssd_candidate_decode(y, ch, 0, CFG, TABLE, BPSK)  # row (1,2)
        assert d == np.inf

    def test_distance_over_all_antennas(self):
        bits, ch, y = make_trial(CFG, 3, sigma=0.5)
        result = ssd_detect(y, ch, CFG, TABLE, BPSK)
        _, _, d = ssd_candidate_decode(y, ch, result.rac_index, CFG, TABLE, BPSK)
        assert result.distance == pytest.approx(d)

    def test_mac_count_reflects_candidate_total(self):
        bits, ch, y = make_trial(CFG, 4)
        result = ssd_detect(y, ch, CFG, TABLE, BPSK)
        n_cand = len(rac_candidates(y, TABLE, CFG.n_cand_antennas, CFG.n_iters).rows)
        assert result.mac_count == mac_ssd(CFG, n_cand)


class TestSsdBatch:
    """The batched receiver against the scalar reference, trial by trial.
    Rows, labels and MACs match the reference's own; the engine sums its
    gains per reflector block (``candidate_gains``), so they may differ from
    the reference's H theta_p in the last bits, and the distances match the
    reference run on the engine's gains bit for bit."""

    def assert_matches_scalar(self, y, h, cfg, const):
        table = build_rac_table(cfg.n_rx, cfg.n_sel)
        cross, index = cross_gains(h, aligning_phases(h), cfg.n_sel)
        p_hat, labels, distance, n_cand = ssd_detect_batch(y, cross, index,
                                                           np.linalg.norm(h, axis=-1), cfg, table)
        engine_gains = ml_gains(cross, index)[0]  # as the ssd engine sums them
        for t in range(len(y)):
            ref = reference_ssd_detect(y[t], ChannelMatrix(h[t]), cfg, table, const)
            assert p_hat[t] == ref.rac_index
            np.testing.assert_array_equal(const.points[labels[t]], ref.symbols)
            assert mac_ssd(cfg, int(n_cand[t])) == ref.mac_count
            same = reference_ssd_detect(y[t], ChannelMatrix(h[t]), cfg, table, const,
                                        gains=engine_gains[t])
            assert (same.rac_index, distance[t]) == (p_hat[t], same.distance)
            np.testing.assert_array_equal(const.points[labels[t]], same.symbols)
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
        for trial in range(150):
            bits, ch, y = make_trial(CFG, trial)
            result = ml_detect(y, ch, CFG, TABLE, BPSK)
            np.testing.assert_array_equal(result.bits, bits)
            assert result.distance <= 1e-12

    def test_noiseless_exact_recovery_qam16(self):
        cfg = dataclasses.replace(CFG, mod_order=16, alpha=(0.05, 0.95))
        qam = make_constellation(16)
        for trial in range(30):
            bits, ch, y = make_trial(cfg, trial, seed=2)
            result = ml_detect(y, ch, cfg, TABLE, qam)
            np.testing.assert_array_equal(result.bits, bits)

    def test_guard_rejects_oversized_search(self, monkeypatch):
        monkeypatch.setattr(irsmas.detection, "ML_GUARD", 100)
        bits, ch, y = make_trial(CFG, 0)
        with pytest.raises(ValueError, match="guard"):
            ml_detect(y, ch, CFG, TABLE, BPSK)

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
        for trial in range(50):
            bits, ch, y = make_trial(CFG, trial, seed=3)
            a = ml_detect(y, ch, CFG, TABLE, BPSK)
            b = ssd_detect(y, ch, CFG, TABLE, BPSK)
            np.testing.assert_array_equal(a.bits, b.bits)


class TestBitsRecovery:
    def test_round_trip(self):
        bits = detected_bits(np.array([37]), np.array([[1, 0]]), CFG)[0]
        np.testing.assert_array_equal(bits[:6], [1, 0, 0, 1, 0, 1])  # 37
        np.testing.assert_array_equal(bits[6:], [1, 0])

    def test_matches_encode_layout(self):
        bits, ch, y = make_trial(CFG, 9)
        h = ch.h[None]
        p_hat, labels, _ = ml_detect_batch(y[None], *cross_gains(h, aligning_phases(h), CFG.n_sel),
                                           np.linalg.norm(h, axis=-1), CFG, TABLE)
        np.testing.assert_array_equal(detected_bits(p_hat, labels, CFG)[0], bits)


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
