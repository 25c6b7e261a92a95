"""Receive-antenna combination (RAC) table: the legitimate antenna subsets.

Out of binom(n_rx, n_sel) possible subsets, only the first
C = 2^floor(log2(binom)) in lexicographic order are legitimate codewords;
the table maps both ways between row indices and antenna sets.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice

import numpy as np

# Guard against absurd table sizes before materializing anything.
MAX_ROWS = 1 << 24


@dataclass(frozen=True)
class RacTable:
    """C x n_sel matrix of 1-based antenna indices."""

    rows: np.ndarray
    row_count: int
    l1: int
    n_rx: int


@lru_cache(maxsize=None)
def build_rac_table(n_rx: int, n_sel: int) -> RacTable:
    """Enumerate the legitimate antenna combinations for (n_rx, n_sel).

    Rows are the first C combinations in lexicographic order of increasing
    antenna tuples; row index p equals the integer value of the first l1
    bits of a transmission.
    """
    if not 1 <= n_sel < n_rx:
        raise ValueError(f"need 1 <= n_sel < n_rx, got n_sel={n_sel}, n_rx={n_rx}")
    total = math.comb(n_rx, n_sel)
    l1 = math.floor(math.log2(total))
    count = 1 << l1
    if count > MAX_ROWS:
        raise ValueError(f"RAC table with {count} rows is too large to build")
    rows = np.array(
        list(islice(combinations(range(1, n_rx + 1), n_sel), count)), dtype=np.int64
    )
    table = RacTable(rows=rows, row_count=count, l1=l1, n_rx=n_rx)
    table.rows.flags.writeable = False
    return table


def rac_row(table: RacTable, p: int) -> np.ndarray:
    """Antenna indices (1-based) of row p."""
    if not 0 <= p < table.row_count:
        raise IndexError(f"RAC row {p} out of range [0, {table.row_count})")
    return table.rows[p]
