"""Antenna-combination table tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from irsmas.rac import build_rac_table, rac_row
from reference import rac_find


class TestBuild:
    def test_paper_table_shape(self):
        table = build_rac_table(12, 2)
        assert table.row_count == 64  # 2^floor(log2(66))
        assert table.l1 == 6
        assert table.rows.shape == (64, 2)

    def test_first_and_last_rows(self):
        table = build_rac_table(12, 2)
        np.testing.assert_array_equal(rac_row(table, 0), [1, 2])
        np.testing.assert_array_equal(rac_row(table, 1), [1, 3])
        # frozen: the 64th combination of 12 choose 2 in lexicographic order
        np.testing.assert_array_equal(rac_row(table, 63), [10, 11])

    def test_power_of_two_exact(self):
        table = build_rac_table(4, 2)  # binom = 6 -> C = 4
        assert table.row_count == 4
        np.testing.assert_array_equal(table.rows, [[1, 2], [1, 3], [1, 4], [2, 3]])

    def test_lexicographic_order(self):
        table = build_rac_table(9, 3)
        as_tuples = [tuple(r) for r in table.rows.tolist()]
        assert as_tuples == sorted(as_tuples)

    def test_rows_sorted_within(self):
        table = build_rac_table(10, 4)
        assert (np.diff(table.rows, axis=1) > 0).all()

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            build_rac_table(4, 4)
        with pytest.raises(ValueError):
            build_rac_table(4, 0)

    def test_rows_immutable(self):
        table = build_rac_table(12, 2)
        with pytest.raises(ValueError):
            table.rows[0, 0] = 9


class TestLookup:
    def test_round_trip_all_rows(self):
        table = build_rac_table(12, 2)
        for p in range(table.row_count):
            assert rac_find(table, rac_row(table, p)) == p

    def test_find_ignores_input_order(self):
        table = build_rac_table(12, 2)
        assert rac_find(table, [3, 1]) == rac_find(table, [1, 3])

    def test_illegitimate_returns_none(self):
        table = build_rac_table(12, 2)  # 66 combinations, last 2 dropped
        assert rac_find(table, [10, 12]) is None
        assert rac_find(table, [11, 12]) is None

    def test_out_of_range_raises(self):
        table = build_rac_table(12, 2)
        with pytest.raises(ValueError, match="out of range"):
            rac_find(table, [0, 5])
        with pytest.raises(ValueError, match="out of range"):
            rac_find(table, [5, 13])

    def test_malformed_raises(self):
        table = build_rac_table(12, 2)
        with pytest.raises(ValueError):
            rac_find(table, [5, 5])
        with pytest.raises(ValueError):
            rac_find(table, [1, 2, 3])

    def test_row_index_out_of_range(self):
        table = build_rac_table(12, 2)
        with pytest.raises(IndexError):
            rac_row(table, 64)
        with pytest.raises(IndexError):
            rac_row(table, -1)

    def test_legitimate_range_but_dropped_antenna(self):
        # n_rx=5, n_sel=1: binom=5 -> C=4, so antenna 5 is a legal index
        # that simply is not a codeword
        table = build_rac_table(5, 1)
        assert table.row_count == 4
        assert rac_find(table, [5]) is None


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=2, max_value=12).flatmap(
        lambda n_rx: st.tuples(
            st.just(n_rx), st.integers(min_value=1, max_value=n_rx - 1)
        )
    )
)
def test_table_properties(sizes):
    n_rx, n_sel = sizes
    table = build_rac_table(n_rx, n_sel)
    total = math.comb(n_rx, n_sel)
    assert table.row_count == 1 << int(math.floor(math.log2(total)))
    assert table.row_count <= total
    # row count is a power of two
    assert table.row_count & (table.row_count - 1) == 0
    # all rows distinct, all antennas in range
    as_tuples = {tuple(r) for r in table.rows.tolist()}
    assert len(as_tuples) == table.row_count
    assert table.rows.min() >= 1 and table.rows.max() <= n_rx
    # round trip on a sample of rows
    for p in range(0, table.row_count, max(1, table.row_count // 8)):
        assert rac_find(table, rac_row(table, p)) == p
