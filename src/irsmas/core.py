"""Scenario configuration, Gray-coded constellations, and bit/integer helpers."""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# Modulation orders supported by make_constellation, keyed by CLI/config name.
MOD_ORDERS = {"bpsk": 2, "qpsk": 4, "qam16": 16, "qam64": 64}
MOD_NAMES = {order: name for name, order in MOD_ORDERS.items()}

ALPHA_SUM_TOL = 1e-12
# Minimum gap between any two superposed values (symbols have unit energy).
SUPERPOSITION_GAP = 1e-9
# Most values per axis that the gap check sorts (an 8 MB array): BPSK and
# QPSK up to n_sel 20, 16-QAM up to 10, 64-QAM up to 6.
MAX_AXIS_VALUES = 2**20
# Lowest accepted SNR in dB.  At -1000 dB the noise variance is 1e100, so
# received vectors and every squared distance the receivers form stay
# finite; far lower SNRs overflow to inf and NaN.
SNR_FLOOR_DB = -1000.0
# Most trials per SNR point.  Trial indices address Philox counter space
# and must stay below 2**64; a sweep also lists its 1000-trial blocks up
# front.  10**9 trials is days of work per point, far below either limit.
MAX_TRIALS = 10**9


class Constellation:
    """Gray-coded constellation with unit average energy.

    ``points[label]`` is the complex point for the big-endian integer value
    of the label's bit pattern, so the bit map is the array index itself.
    """

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=complex)
        self.bits_per_sym = int(round(math.log2(len(self.points))))

    def index_of(self, point: complex) -> int:
        """Label of the nearest constellation point (first on exact ties)."""
        return int(np.argmin(np.abs(self.points - point)))

    def __len__(self) -> int:
        return len(self.points)


def _gray_levels(bits: int) -> np.ndarray:
    """Amplitude levels for one axis, indexed by the Gray-coded bit value.

    Level order runs from most positive to most negative so that a leading
    0 bit always selects the positive half-axis (BPSK: 0 -> +1, 1 -> -1).
    """
    n = 1 << bits
    levels = np.empty(n)
    for rank in range(n):
        gray = rank ^ (rank >> 1)
        levels[gray] = (n - 1) - 2 * rank
    return levels


@lru_cache(maxsize=None)
def make_constellation(mod_order: int) -> Constellation:
    """The Gray-coded, unit-average-energy M-ary constellation, built once, read-only.

    BPSK (M=2) lives on the real axis; 4/16/64-QAM are square grids with
    per-axis Gray labelling, first half of the bits on I, second half on Q.
    M=1 is the one-value alphabet {1} of the sas-ssk baseline, which sends
    no symbol bits; no config accepts it as a modulation.
    """
    if mod_order != 1 and mod_order not in MOD_ORDERS.values():
        raise ValueError(
            f"mod_order: unsupported order {mod_order} (expected one of "
            f"{sorted(MOD_ORDERS.values())})"
        )
    mu = int(round(math.log2(mod_order)))
    if mod_order == 1:
        points = np.ones(1, dtype=complex)
    elif mod_order == 2:
        points = _gray_levels(1).astype(complex)
    else:
        i_bits = mu // 2
        q_bits = mu - i_bits
        i_levels = _gray_levels(i_bits)
        q_levels = _gray_levels(q_bits)
        points = np.empty(mod_order, dtype=complex)
        for label in range(mod_order):
            i_val = label >> q_bits
            q_val = label & ((1 << q_bits) - 1)
            points[label] = i_levels[i_val] + 1j * q_levels[q_val]
    points /= np.sqrt(np.mean(np.abs(points) ** 2))
    points.setflags(write=False)
    return Constellation(points)


def pack_bits(bits, width: int) -> np.ndarray:
    """Big-endian groups of ``width`` bits along the last axis become
    integers, first bit most significant, (..., k*width) -> (..., k).
    Width 0 reads the empty last axis as one group, 0."""
    bits = np.asarray(bits, dtype=np.int64)
    groups = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // width if width else 1, width))
    return groups @ (1 << np.arange(width - 1, -1, -1, dtype=np.int64))


def unpack_bits(values, width: int) -> np.ndarray:
    """The inverse of pack_bits: each integer along the last axis becomes
    ``width`` big-endian bits, (..., k) -> (..., k*width)."""
    values = np.asarray(values, dtype=np.int64)
    bits = (values[..., None] >> np.arange(width - 1, -1, -1, dtype=np.int64)) & 1
    return bits.reshape(values.shape[:-1] + (-1,))


@dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters. Immutable; derived quantities are properties.

    Defaults reproduce the headline scenario: 12 receive antennas, 2 selected,
    64 reflectors, BPSK, power split [0.2, 0.8], 6 candidate antennas and 8
    decoder iterations.
    """

    n_rx: int = 12
    n_sel: int = 2
    n_refl: int = 64
    mod_order: int = 2
    alpha: tuple = (0.2, 0.8)
    n_cand_antennas: int = 6
    n_iters: int = 8
    snr_grid_db: tuple = (-20.0, -18.0, -16.0, -14.0, -12.0, -10.0, -8.0)
    n_trials: int = 100_000
    seed: int = 0
    # Stop a sweep point once this many block errors accumulate (None = never).
    error_budget: int = 500

    # The bit counts are computed on first use and kept: the fields are
    # frozen, and the engine reads them every chunk.
    @cached_property
    def bits_per_sym(self) -> int:
        return int(round(math.log2(self.mod_order)))

    @cached_property
    def l1(self) -> int:
        """Bits carried by the antenna-combination index."""
        return math.floor(math.log2(math.comb(self.n_rx, self.n_sel)))

    @cached_property
    def l2(self) -> int:
        """Bits carried by the symbol-modulation part."""
        return self.n_sel * self.bits_per_sym

    @cached_property
    def block_len(self) -> int:
        """Total bits per transmission."""
        return self.l1 + self.l2

    @property
    def delta(self) -> int:
        """Reflectors dedicated to each selected antenna."""
        return self.n_refl // self.n_sel

    @property
    def n_rac(self) -> int:
        """Number of legitimate receive-antenna combinations."""
        return 1 << self.l1


@dataclass(frozen=True, eq=False)
class SuperpositionAxes:
    """The superposition set of one (M, alpha): every superposed transmit
    value of unit-energy symbols, as the product of two real per-axis sets.

    Constellation points are per-axis Gray and alpha is real, so the value
    of tuple v is a[ia[v]] + j b[ib[v]]: ``a`` holds every sum of slot
    I-levels, ``b`` every sum of slot Q-levels (just 0 for BPSK), each
    enumerated lexicographically like the tuples, summed in tuple order.
    ``ia``, ``ib``, ``tuples`` and ``values`` have M^n_sel entries and are
    built on first use, read-only; ``superpose`` looks up the values of any
    label tuples.
    """

    a: np.ndarray
    b: np.ndarray
    level_a: np.ndarray  # I-level index of each constellation label
    level_b: np.ndarray  # Q-level index of each constellation label
    n_sel: int

    @cached_property
    def ia(self) -> np.ndarray:
        return self._tuple_index(self.level_a)

    @cached_property
    def ib(self) -> np.ndarray:
        return self._tuple_index(self.level_b)

    @cached_property
    def tuples(self) -> np.ndarray:
        """Every symbol-label tuple (M^n_sel, n_sel), lexicographically;
        tuple position i carries power ratio alpha[i]."""
        labels = np.indices((len(self.level_a),) * self.n_sel).reshape(self.n_sel, -1).T
        labels.setflags(write=False)
        return labels

    @cached_property
    def values(self) -> np.ndarray:
        """The superposed value of every tuple, ``superpose(tuples)``."""
        values = self.superpose(self.tuples)
        values.setflags(write=False)
        return values

    @cached_property
    def digits(self) -> tuple:
        """Per axis, the place value of each tuple position's level index."""
        return tuple((level.max() + 1) ** np.arange(self.n_sel - 1, -1, -1)
                     for level in (self.level_a, self.level_b))

    def superpose(self, labels: np.ndarray) -> np.ndarray:
        """Superposed values of label tuples (..., n_sel), position i at
        alpha[i]: a + jb looked up by each axis's level digits, bit for bit
        the in-order sum of sqrt(alpha[i]) times position i's symbol."""
        digits_a, digits_b = self.digits
        x = np.empty(labels.shape[:-1], dtype=complex)
        x.real = self.a[self.level_a[labels] @ digits_a]
        x.imag = self.b[self.level_b[labels] @ digits_b]
        return x

    def _tuple_index(self, level: np.ndarray) -> np.ndarray:
        index = level
        for _ in range(1, self.n_sel):
            index = (index[:, None] * (level.max() + 1) + level).ravel()
        index.setflags(write=False)
        return index

    def min_gap(self) -> float:
        """Smallest distance between the values of two different tuples:
        the smaller of the two axes' smallest adjacent differences."""
        return float(min((np.diff(np.sort(axis)).min() for axis in (self.a, self.b)
                          if len(axis) > 1), default=np.inf))


@lru_cache(maxsize=8)
def superposition_axes(mod_order: int, alpha: tuple) -> SuperpositionAxes:
    """The superposition set of one (M, alpha), built once and shared read-only."""
    points = make_constellation(mod_order).points
    scale = np.sqrt(np.asarray(alpha))
    parts = []
    for part in (points.real, points.imag):
        levels, level_of = np.unique(part, return_inverse=True)
        values = levels * scale[0]
        for s in scale[1:]:
            values = (values[:, None] + levels * s).ravel()
        values.setflags(write=False)
        level_of.setflags(write=False)
        parts.append((values, level_of))
    (a, level_a), (b, level_b) = parts
    return SuperpositionAxes(a, b, level_a, level_b, len(alpha))


def snr_value_ok(snr_db: float) -> bool:
    """An SNR in dB is usable when it is +inf (a noiseless point) or finite
    and at least SNR_FLOOR_DB."""
    return snr_db == math.inf or (math.isfinite(snr_db) and snr_db >= SNR_FLOOR_DB)


def snr_to_sigma(snr_db: float) -> float:
    """Noise standard deviation at an SNR of ``snr_db`` dB, for unit-energy
    symbols: 10^(-snr_db/20), and 0 at +inf (a noiseless point).  An SNR
    that ``snr_value_ok`` rejects raises ValueError naming ``snr_db``."""
    if not snr_value_ok(snr_db):
        raise ValueError(f"snr_db: must be inf or finite and at least {SNR_FLOOR_DB:g} dB "
                         f"(got {snr_db!r})")
    return 0.0 if snr_db == math.inf else 10.0 ** (-snr_db / 20.0)


def _selection_problems(cfg: SystemConfig) -> list:
    """Violations among the fields that only the mas scheme reads."""
    problems = []
    if cfg.n_rx < 1:
        problems.append("n_rx: must be a positive integer")
    if cfg.n_sel < 1:
        problems.append("n_sel: must be a positive integer")
    elif cfg.n_sel >= cfg.n_rx:
        problems.append(f"n_sel: must be smaller than n_rx ({cfg.n_sel} >= {cfg.n_rx})")
    if 1 <= cfg.n_refl < cfg.n_sel:
        problems.append(
            f"n_refl: need at least one reflector per selected antenna "
            f"({cfg.n_refl} < {cfg.n_sel})"
        )
    if len(cfg.alpha) != cfg.n_sel:
        problems.append(f"alpha: expected {cfg.n_sel} ratios, got {len(cfg.alpha)}")
    elif not all(map(math.isfinite, cfg.alpha)):
        problems.append(f"alpha: ratios must be finite (got {cfg.alpha!r})")
    else:
        if any(a <= 0 for a in cfg.alpha):
            problems.append("alpha: ratios must be positive")
        if abs(sum(cfg.alpha) - 1.0) > ALPHA_SUM_TOL:
            problems.append(f"alpha: ratios must sum to 1 (got {sum(cfg.alpha)!r})")
        if any(a >= b for a, b in zip(cfg.alpha, cfg.alpha[1:])):
            problems.append("alpha: ratios must be strictly increasing")
    if not cfg.n_sel <= cfg.n_cand_antennas <= cfg.n_rx:
        problems.append(
            f"n_cand_antennas: must satisfy n_sel <= n_c <= n_rx "
            f"(got {cfg.n_cand_antennas})"
        )
    if cfg.n_iters < 1:
        problems.append("n_iters: must be a positive integer")
    return problems


def _superposition_problems(cfg: SystemConfig) -> list:
    """The gap check on a well-formed mas config: every pair of superposed
    values at least SUPERPOSITION_GAP apart, checked exactly per axis."""
    levels = max(2, math.isqrt(cfg.mod_order))  # per axis: BPSK 2, square QAM sqrt(M)
    if levels**cfg.n_sel > MAX_AXIS_VALUES:
        return [f"n_sel: too many superposed levels to check ({levels}^{cfg.n_sel} per axis, "
                f"at most {MAX_AXIS_VALUES})"]
    gap = superposition_axes(cfg.mod_order, tuple(cfg.alpha)).min_gap()
    if gap <= SUPERPOSITION_GAP:
        return [f"alpha: superposed transmit values collide (min gap {gap:.3e})"]
    return []


def validate_config(cfg: SystemConfig, scheme: str = "mas") -> SystemConfig:
    """Check every invariant of a SystemConfig that ``scheme`` reads; raise
    ValueError naming each violation.

    The single-antenna baselines (any scheme other than ``mas``) need n_rx
    to be a power of two and ignore the selection fields (n_sel, alpha,
    n_cand_antennas, n_iters); every scheme reads the remaining fields.
    mod_order is checked for sas-ssk too, though its pin replaces it.
    """
    mas = scheme == "mas"
    if mas:
        problems = _selection_problems(cfg)
    elif cfg.n_rx < 2 or cfg.n_rx & (cfg.n_rx - 1):
        problems = [f"n_rx: must be a power of two >= 2 for {scheme} (got {cfg.n_rx})"]
    else:
        problems = []
    if cfg.n_refl < 1:
        problems.append("n_refl: must be a positive integer")
    if cfg.mod_order not in MOD_ORDERS.values():
        problems.append(f"mod_order: unsupported order {cfg.mod_order}")
    if not cfg.snr_grid_db:
        problems.append("snr_grid_db: must hold at least one SNR point")
    bad_snr = [s for s in cfg.snr_grid_db if not snr_value_ok(s)]
    if bad_snr:
        problems.append(
            f"snr_grid_db: values must be inf or finite and at least {SNR_FLOOR_DB:g} dB "
            f"(got {bad_snr})"
        )
    if not 1 <= cfg.n_trials <= MAX_TRIALS:
        problems.append(f"n_trials: must be a positive integer at most {MAX_TRIALS}")
    if not 0 <= cfg.seed < 2**64:
        problems.append("seed: must fit in an unsigned 64-bit integer")
    if cfg.error_budget is not None and cfg.error_budget < 1:
        problems.append("error_budget: must be None (never stop) or at least 1")

    # Superposed transmit values must be pairwise distinct or detection is
    # ill-posed; only checkable once alpha itself is well formed.
    if mas and not problems:
        problems = _superposition_problems(cfg)

    if problems:
        raise ValueError("invalid configuration: " + "; ".join(problems))
    return cfg
