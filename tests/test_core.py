"""Configuration, constellation, and bit-packing tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from irsmas.core import (
    MAX_TRIALS,
    MOD_ORDERS,
    SNR_FLOOR_DB,
    SUPERPOSITION_GAP,
    SystemConfig,
    make_constellation,
    pack_bits,
    snr_to_sigma,
    superposition_axes,
    unpack_bits,
    validate_config,
)
from reference import bits_to_int, int_to_bits

PAPER_CFG = SystemConfig()  # 12 rx, 2 selected, 64 reflectors, BPSK, [0.2, 0.8]


class TestConstellation:
    def test_orders(self):
        for name, order in MOD_ORDERS.items():
            const = make_constellation(order)
            assert len(const) == order
            assert const.bits_per_sym == int(np.log2(order))

    def test_unit_average_energy(self):
        for order in MOD_ORDERS.values():
            points = make_constellation(order).points
            assert abs(np.mean(np.abs(points) ** 2) - 1.0) <= 1e-12

    def test_bpsk_points(self):
        points = make_constellation(2).points
        assert points[0] == pytest.approx(1.0)
        assert points[1] == pytest.approx(-1.0)

    def test_qpsk_points(self):
        # first bit -> I sign, second bit -> Q sign, 0 = positive
        c = 0.7071067811865476
        points = make_constellation(4).points
        np.testing.assert_allclose(
            points, [c + 1j * c, c - 1j * c, -c + 1j * c, -c - 1j * c], atol=1e-15
        )

    def test_qam16_corner_and_scale(self):
        points = make_constellation(16).points
        scale = 1.0 / np.sqrt(10.0)  # mean energy of {+-1,+-3}^2 grid is 10
        assert points[0] == pytest.approx((3 + 3j) * scale)
        # per-axis Gray order 00,01,11,10 maps to +3,+1,-1,-3
        assert points[0b0100] == pytest.approx((1 + 3j) * scale)
        assert points[0b1100] == pytest.approx((-1 + 3j) * scale)
        assert points[0b1000] == pytest.approx((-3 + 3j) * scale)

    def test_gray_adjacency(self):
        # walking each axis in amplitude order flips exactly one bit per step
        for order in (4, 16, 64):
            const = make_constellation(order)
            mu = const.bits_per_sym
            q_bits = mu - mu // 2
            reals = sorted(set(np.round(const.points.real, 12)))
            labels = []
            for r in reals:
                idx = np.flatnonzero(np.isclose(const.points.real, r))
                labels.append(idx[0] >> q_bits)
            for a, b in zip(labels, labels[1:]):
                assert bin(a ^ b).count("1") == 1

    def test_index_of_round_trip(self):
        const = make_constellation(16)
        for label in range(16):
            assert const.index_of(const.points[label]) == label

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="mod_order"):
            make_constellation(8)


class TestBits:
    def test_examples(self):
        assert bits_to_int([1, 0, 1]) == 5
        assert bits_to_int([0, 0, 0]) == 0
        assert bits_to_int([1, 1, 1, 1, 1, 1]) == 63
        np.testing.assert_array_equal(int_to_bits(5, 3), [1, 0, 1])
        np.testing.assert_array_equal(int_to_bits(0, 3), [0, 0, 0])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="does not fit"):
            int_to_bits(8, 3)
        with pytest.raises(ValueError, match="does not fit"):
            int_to_bits(-1, 3)

    @given(st.integers(min_value=1, max_value=24), st.data())
    def test_round_trip(self, width, data):
        value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
        assert bits_to_int(int_to_bits(value, width)) == value

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=24))
    def test_round_trip_from_bits(self, bits):
        np.testing.assert_array_equal(int_to_bits(bits_to_int(bits), len(bits)), bits)


    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_row_wise_packing_matches_scalar(self, width, data):
        bits = np.array(data.draw(st.lists(
            st.integers(min_value=0, max_value=1), min_size=3 * width, max_size=3 * width)))
        values = pack_bits(bits.reshape(1, -1), width)[0]
        assert values.tolist() == [bits_to_int(bits[i * width:(i + 1) * width]) for i in range(3)]
        np.testing.assert_array_equal(unpack_bits(values, width), bits)


class TestSystemConfig:
    def test_paper_bpsk_derived(self):
        cfg = validate_config(PAPER_CFG)
        assert (cfg.l1, cfg.l2, cfg.block_len) == (6, 2, 8)
        assert cfg.delta == 32
        assert cfg.n_rac == 64
        assert cfg.bits_per_sym == 1

    def test_paper_qpsk_derived(self):
        cfg = validate_config(dataclasses.replace(PAPER_CFG, mod_order=4))
        assert (cfg.l1, cfg.l2, cfg.block_len) == (6, 4, 10)

    def test_leftover_reflectors(self):
        cfg = dataclasses.replace(PAPER_CFG, n_refl=65)
        assert cfg.delta == 32  # one reflector left over

    @pytest.mark.parametrize(
        "fields,fragment",
        [
            ({"alpha": (0.5, 0.5)}, "alpha"),
            ({"alpha": (0.3, 0.8)}, "alpha"),
            ({"alpha": (0.2, 0.3, 0.5)}, "alpha"),
            ({"alpha": (-0.2, 1.2)}, "alpha"),
            ({"n_sel": 12}, "n_sel"),
            ({"n_sel": 0}, "n_sel"),
            ({"mod_order": 3}, "mod_order"),
            ({"n_cand_antennas": 1}, "n_cand_antennas"),
            ({"n_cand_antennas": 13}, "n_cand_antennas"),
            ({"n_iters": 0}, "n_iters"),
            ({"n_trials": 0}, "n_trials"),
            ({"n_trials": MAX_TRIALS + 1}, "n_trials"),
            ({"n_refl": 0}, "n_refl"),
            ({"n_refl": 1, "n_sel": 2}, "n_refl"),
            ({"snr_grid_db": (-14.0, float("nan"))}, "snr"),
            ({"snr_grid_db": (float("-inf"),)}, "snr"),
            ({"snr_grid_db": (-14.0, -1000.5)}, "snr"),
            ({"error_budget": 0}, "error_budget"),
            ({"error_budget": -4}, "error_budget"),
            ({"n_rx": 0}, "n_rx"),
            ({"alpha": (1.0,)}, "alpha: expected 2 ratios"),
            ({"alpha": (0.2, float("inf"))}, "alpha: ratios must be finite"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
            ({"alpha": (float("nan"), float("nan"))}, "alpha: ratios must be finite"),
            ({"alpha": (0.05, float("nan"))}, "alpha: ratios must be finite"),
            ({"snr_grid_db": ()}, "snr_grid_db: must hold at least one"),
            # ill-typed, each raised a bare TypeError from the range checks
            ({"alpha": 0.5}, "alpha: must be a sequence of real numbers"),
            ({"alpha": ("0.2", "0.8")}, "alpha: must be a sequence of real numbers"),
            ({"alpha": (0.2 + 0j, 0.8)}, "alpha: must be a sequence of real numbers"),
            ({"snr_grid_db": -14.0}, "snr_grid_db: must be a sequence of real numbers"),
            ({"snr_grid_db": ("x",)}, "snr_grid_db: must be a sequence of real numbers"),
            ({"snr_grid_db": (None,)}, "snr_grid_db: must be a sequence of real numbers"),
        ],
    )
    def test_validation_names_field(self, fields, fragment):
        cfg = dataclasses.replace(PAPER_CFG, **fields)
        with pytest.raises(ValueError, match=fragment):
            validate_config(cfg)

    @pytest.mark.parametrize("name,value", [
        ("n_trials", 1500.5), ("n_rx", 12.0), ("n_sel", 2.0), ("n_refl", 64.0), ("n_iters", 8.5),
        ("n_cand_antennas", 6.0), ("seed", 1.5), ("error_budget", 2.5), ("mod_order", 2.0),
    ])
    def test_non_integer_field_named(self, name, value):
        # each would pass the range checks, then fail deep in a sweep
        cfg = dataclasses.replace(PAPER_CFG, **{name: value})
        with pytest.raises(ValueError, match=f"{name}: must be an integer"):
            validate_config(cfg)

    def test_baseline_reads_no_alpha(self):
        for alpha in (0.5, ("0.2", "0.8"), (0.2 + 0j, 0.8)):
            validate_config(dataclasses.replace(PAPER_CFG, n_rx=16, alpha=alpha), "sas-sm")

    def test_noise_at_snr_floor_accepted(self):
        # the noise of the lowest SNR that validate_config accepts is finite
        validate_config(dataclasses.replace(PAPER_CFG, snr_grid_db=(SNR_FLOOR_DB,)))
        assert snr_to_sigma(SNR_FLOOR_DB) == 10.0 ** (-SNR_FLOOR_DB / 20.0) == 1e50
        assert snr_to_sigma(float("inf")) == 0.0
        assert snr_to_sigma(-14.0) == 10.0 ** (14.0 / 20.0)

    def test_equal_power_split_collides(self):
        # alpha = [0.5, 0.5] makes s1+s2 and s2+s1 style collisions; the
        # strict-increase rule exists precisely to exclude it
        with pytest.raises(ValueError, match="alpha"):
            validate_config(dataclasses.replace(PAPER_CFG, alpha=(0.5, 0.5)))

    def test_collision_detected_even_if_increasing(self):
        # sqrt(0.9/0.1) = 3 makes 16-QAM levels overlap after superposition
        # (3*1 + 1*3 = 3*3 - 1*3 per axis), so the value set collides even
        # though alpha is strictly increasing
        cfg = dataclasses.replace(PAPER_CFG, mod_order=16, alpha=(0.1, 0.9))
        with pytest.raises(ValueError, match="collide"):
            validate_config(cfg)
        # the same ratios are fine for BPSK, whose axis has only two levels
        validate_config(dataclasses.replace(PAPER_CFG, alpha=(0.1, 0.9)))

    def test_exact_collision_detected(self):
        # sqrt(1/14) + sqrt(4/14) - sqrt(9/14) is exactly 0.0, so two tuples
        # superpose to the same value, not merely to close ones
        cfg = SystemConfig(n_sel=3, mod_order=2, alpha=(1 / 14, 4 / 14, 9 / 14))
        values = superposition_axes(2, cfg.alpha).values
        assert np.count_nonzero(values == 0) == 2
        with pytest.raises(ValueError, match="alpha"):
            validate_config(cfg)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 4, 16, 64]), st.integers(1, 3), st.data())
    def test_per_axis_gap_is_pairwise_gap(self, mod_order, n_sel, data):
        assume(mod_order**n_sel <= 4096)  # small enough for the pairwise check
        crafted = {1: [(1.0,)], 2: [(0.1, 0.9), (0.2, 0.8), (0.5, 0.5), (0.01, 0.99)],
                   3: [(1 / 14, 4 / 14, 9 / 14), (0.05, 0.2, 0.75), (0.01, 0.1, 0.89)]}[n_sel]
        drawn = np.sort(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n_sel,
                                           max_size=n_sel)))
        alpha = data.draw(st.sampled_from(crafted + [tuple(drawn / drawn.sum())]))
        cfg = SystemConfig(n_rx=8, n_sel=n_sel, mod_order=mod_order, alpha=alpha)
        values = superposition_axes(mod_order, alpha).values
        pairwise = np.inf
        for lo in range(0, len(values), 256):  # 256 rows of distances at a time
            d = np.abs(values[lo : lo + 256, None] - values)
            np.fill_diagonal(d[:, lo:], np.inf)  # each tuple's distance to itself
            pairwise = min(pairwise, d.min())
        gap = superposition_axes(mod_order, alpha).min_gap()
        assert abs(gap - pairwise) <= 2.3e-16
        try:
            validate_config(cfg)
        except ValueError as err:
            assert pairwise <= SUPERPOSITION_GAP or "alpha: ratios" in str(err)
        else:
            assert pairwise > SUPERPOSITION_GAP

    def test_gap_checked_beyond_4096_values(self):
        # 64**3 superposed values: checked per axis, where a pairwise check
        # was skipped; sqrt ratios 1 : 2 : 3 collide exactly
        cfg = SystemConfig(n_sel=3, mod_order=64, alpha=(1 / 14, 4 / 14, 9 / 14))
        with pytest.raises(ValueError, match="alpha: superposed transmit values collide"):
            validate_config(cfg)
        validate_config(dataclasses.replace(cfg, alpha=(0.001, 0.02, 0.979)))

    @pytest.mark.parametrize("mod_order, n_sel", [(2, 21), (64, 7)])
    def test_too_many_levels_to_check_names_n_sel(self, mod_order, n_sel):
        alpha = tuple(np.arange(1, n_sel + 1) / (n_sel * (n_sel + 1) / 2))
        cfg = SystemConfig(n_rx=n_sel + 1, n_sel=n_sel, n_cand_antennas=n_sel,
                           mod_order=mod_order, alpha=alpha)
        with pytest.raises(ValueError, match="n_sel: too many superposed levels"):
            validate_config(cfg)

    def test_noiseless_snr_accepted(self):
        validate_config(dataclasses.replace(PAPER_CFG, snr_grid_db=(-14.0, float("inf"))))

    def test_snr_floor_accepted(self):
        validate_config(dataclasses.replace(PAPER_CFG, snr_grid_db=(-1000.0,)))

    @pytest.mark.parametrize("budget", [None, 1])
    def test_error_budget_accepted(self, budget):
        validate_config(dataclasses.replace(PAPER_CFG, error_budget=budget))

    def test_validate_returns_config(self):
        assert validate_config(PAPER_CFG) is PAPER_CFG
