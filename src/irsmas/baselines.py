"""Single-antenna baseline schemes: all reflectors steer to one target antenna.

A baseline is a SystemConfig with one selected antenna carrying the full
symbol power.  The index-only variant (sas-ssk) carries the l1 =
log2(n_rx) antenna bits alone and transmits the unit-energy value 1; the
modulated variant (sas-sm) appends one constellation symbol, block_len
bits in all.  Both are detected with an exhaustive search, which is
affordable because the hypothesis count is small.

A reflector aligned to target antenna r gets phase exp(-j arg h[r, n]), so
one n_rx x n_refl array of aligning phases per trial holds the phase vector
of every target: the batched encoder gathers its row (``gather_phases``
at n_sel 1), and the detector uses every row.
"""

from dataclasses import replace

import numpy as np

from .core import SystemConfig, pack_bits, superposition_axes, unpack_bits
from .transmitter import gather_phases


def baseline_config(cfg: SystemConfig) -> SystemConfig:
    """``cfg`` as a baseline reads it: n_sel 1 and alpha (1.0,), and ``cfg``
    itself if already so, as every chunk asks.  n_cand_antennas and n_iters are ignored."""
    return cfg if (cfg.n_sel, cfg.alpha) == (1, (1.0,)) else replace(cfg, n_sel=1, alpha=(1.0,))


def baseline_bits(cfg: SystemConfig, scheme: str) -> int:
    """Bits one transmission of ``scheme`` carries under a ``baseline_config``."""
    return cfg.l1 if scheme == "sas-ssk" else cfg.block_len


def baseline_values(scheme: str, mod_order: int) -> np.ndarray:
    """Transmit scalars indexed by symbol label: the superposition set at
    n_sel 1, alpha (1.0,) (sas-sm), or 1 alone (sas-ssk)."""
    if scheme == "sas-sm":
        return superposition_axes(mod_order, (1.0,)).values
    return np.array([1.0], dtype=complex)


def sas_encode_batch(bits: np.ndarray, phases: np.ndarray, values: np.ndarray, n_bits: int):
    """Map a stack of bit blocks to transmit scalars and reflector phases.

    The leading bits pick the target antenna; every reflector is
    phase-aligned to that antenna's channel row.  The remaining bits, if
    any, choose one of ``values`` (``baseline_values``).  ``bits`` is
    (T, n_bits) and ``phases`` the trials' aligning phases (T, n_rx, n_refl)
    from ``aligning_phases``; row r of a trial's phases steers every
    reflector to antenna r + 1.  Returns the transmit scalars (T,) and
    reflector phase vectors (T, n_refl).
    """
    # The bit block read as one integer is target index * V + symbol label.
    target, label = np.divmod(pack_bits(bits, n_bits)[:, 0], len(values))
    return values[label], gather_phases(phases, target, 1)


def sas_gains(h: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """The gain g = H theta of every target antenna, for any y, from a stack
    of channels h and their aligning phases (T, n_rx, n_refl): one
    matrix-vector product per (trial, target), (T, target, n_rx)."""
    return (h[:, None] @ phases[..., None])[..., 0]


def sas_detect_batch(y: np.ndarray, gains: np.ndarray, values: np.ndarray, n_bits: int):
    """Exhaustive search over target antennas and symbols for a stack of
    trials: y (T, n_rx) and the ``sas_gains`` of their channels.

    Each hypothesis gets the distance sum |y - g x|^2 over antennas,
    reduced by np.sum over an (n_rx, V) layout.  The first minimum in
    (target, symbol) order wins: ties resolve to the lowest antenna, then
    the lowest symbol label.  Returns the detected bits (T, n_bits) and
    distances (T,).
    """
    terms = np.abs(y[:, None, :, None] - gains[..., None] * values) ** 2
    distance = np.sum(terms, axis=-2).reshape(len(y), -1)  # (T, target * V + label)
    best = np.argmin(distance, axis=1)
    bits = unpack_bits(best[:, None], n_bits)
    return bits, distance[np.arange(len(y)), best]
