"""Single-antenna baseline schemes: all reflectors steer to one target antenna.

The index-only variant (ssk) carries log2(n_rx) bits in the antenna choice
alone and transmits the bare symbol energy; the modulated variant (sm)
appends one constellation symbol.  Both are detected with an exhaustive
search, which is affordable because the hypothesis count is small.

A reflector aligned to target antenna r gets phase exp(-j arg h[r, n]), so
one n_rx x n_refl array of aligning phases per trial holds the phase vector
of every target: the batched encoder gathers its row, and the detector
uses every row.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import Constellation, make_constellation, pack_bits, unpack_bits
from .detection import mac_base


@dataclass
class SasScheme:
    """Configuration for a single-target-antenna baseline."""

    mode: str = "ssk"        # "ssk" (index only) or "sm" (index + one symbol)
    n_rx: int = 16
    mod_order: int = 2       # ignored in ssk mode
    sym_energy: float = 1.0
    const: Constellation = field(init=False, repr=False)

    def __post_init__(self):
        if self.mode not in ("ssk", "sm"):
            raise ValueError(f"mode must be 'ssk' or 'sm', got {self.mode!r}")
        if self.n_rx < 2 or self.n_rx & (self.n_rx - 1):
            raise ValueError(f"n_rx must be a power of two >= 2, got {self.n_rx}")
        self.const = make_constellation(self.mod_order)

    @property
    def bits_per_sym(self) -> int:
        return self.const.order.bit_length() - 1

    @property
    def antenna_bits(self) -> int:
        return self.n_rx.bit_length() - 1

    @property
    def bits_per_tx(self) -> int:
        return self.antenna_bits + (self.bits_per_sym if self.mode == "sm" else 0)

    @property
    def values(self) -> np.ndarray:
        """Transmit scalars indexed by symbol label: the scaled constellation
        (sm), or the bare symbol energy alone (ssk)."""
        if self.mode == "sm":
            return self.sym_energy * self.const.points
        return np.array([self.sym_energy], dtype=complex)


def sas_encode_batch(bits: np.ndarray, phases: np.ndarray, scheme: SasScheme):
    """Map a stack of bit blocks to transmit scalars and reflector phases.

    The leading bits pick the target antenna; every reflector is
    phase-aligned to that antenna's channel row.  In sm mode the remaining
    bits choose a constellation point.  ``bits`` is (T, bits_per_tx) and
    ``phases`` the trials' aligning phases (T, n_rx, n_refl) from
    ``aligning_phases``; row r of a trial's phases steers every reflector
    to antenna r + 1.  Returns the transmit scalars (T,) and reflector
    phase vectors (T, n_refl).
    """
    values = scheme.values
    # The bit block read as one integer is target index * V + symbol label.
    target, label = np.divmod(pack_bits(bits, scheme.bits_per_tx)[:, 0], len(values))
    return values[label], phases[np.arange(len(bits)), target]


def sas_detect_batch(y: np.ndarray, h: np.ndarray, phases: np.ndarray, scheme: SasScheme):
    """Exhaustive search over target antennas and symbols for a stack of
    trials: y (T, n_rx), h and its aligning phases (T, n_rx, n_refl).

    Each hypothesis gets the gain g = H theta as one matrix-vector product
    per (trial, target), and the distance sum |y - g x|^2 over antennas,
    reduced by np.sum over an (n_rx, V) layout.  The first minimum in
    (target, symbol) order wins: ties resolve to the lowest antenna, then
    the lowest symbol label.  Returns the detected bits (T, bits_per_tx)
    and distances (T,).
    """
    values = scheme.values
    gains = (h[:, None] @ phases[..., None])[..., 0]  # (T, target, n_rx)
    terms = np.abs(y[:, None, :, None] - gains[..., None] * values) ** 2
    distance = np.sum(terms, axis=-2).reshape(len(y), -1)  # (T, target * V + label)
    best = np.argmin(distance, axis=1)
    bits = unpack_bits(best[:, None], scheme.bits_per_tx)
    return bits, distance[np.arange(len(y)), best]


def sas_mac(scheme: SasScheme, n_refl: int) -> int:
    """Multiply-accumulate count for one exhaustive baseline detection."""
    return 2**scheme.bits_per_tx * mac_base(scheme.n_rx, n_refl)
