"""Transmit-side processing: weight sorting, superposition coding, reflector phases.

A transmission targets the antenna set selected by the first l1 bits.  The
remaining bits modulate one symbol per selected antenna ("slot"); all slot
symbols are combined into a single complex scalar by superposition coding,
with the smallest power ratio assigned to the slot whose channel row is
strongest.  Each selected antenna also gets a dedicated block of reflectors
whose phases cancel that antenna's channel phases.
"""

from dataclasses import dataclass

import numpy as np

from .core import Constellation, SystemConfig, bits_to_int, pack_bits
from .rac import RacTable, rac_row


@dataclass
class TxOutput:
    """Everything the transmitter produces for one block of bits."""

    x: complex                # superposed transmit scalar
    theta: np.ndarray         # unit-modulus reflector phase vector, length n_refl
    sel: np.ndarray           # selected antennas (1-based)
    order_desc: np.ndarray    # slot permutation, strongest channel first (1-based)
    weights: np.ndarray       # per-slot channel row norms
    delta: int                # reflectors dedicated to each selected antenna


def sort_weights_desc(weights) -> np.ndarray:
    """Slot indices (1-based) ordered by descending weight, ties to the smaller slot."""
    w = np.asarray(weights, dtype=float)
    return np.argsort(-w, kind="stable") + 1


def sort_weights_asc(weights) -> np.ndarray:
    """Ascending slot order, defined as the exact reverse of the descending one.

    Reversing (rather than sorting again) keeps transmitter and receiver
    consistent even when two slots have equal weight.
    """
    return sort_weights_desc(weights)[::-1]


def superpose(symbols, order_desc, alpha, sym_energy: float = 1.0) -> complex:
    """Combine per-slot symbols into one scalar: x = sum_i sqrt(alpha_i) E_s s_{k_i}.

    ``symbols`` is indexed by slot; ``order_desc[i]`` names the slot whose
    symbol is scaled by ``alpha[i]``.  With alpha increasing, the strongest
    slot therefore receives the smallest share of the power.
    """
    symbols = np.asarray(symbols)
    x = 0j
    for i, slot in enumerate(order_desc):
        x += np.sqrt(alpha[i]) * sym_energy * symbols[slot - 1]
    return complex(x)


def reflector_phases(sel_channel: np.ndarray, delta: int) -> np.ndarray:
    """Unit-modulus phase vector aligning reflector block i to selected antenna i.

    Block i covers reflectors (i-1)*delta .. i*delta-1 and gets the
    ``aligning_phases`` of row i of the selected channel.  Reflectors beyond
    n_sel*delta (present only when n_sel does not divide n_refl) are
    aligned to row 0.
    """
    sel_channel = np.atleast_2d(sel_channel)
    n_sel, n_refl = sel_channel.shape
    theta = np.empty(n_refl, dtype=complex)
    for block, slot in reflector_blocks(n_refl, n_sel, delta):
        aligning_phases(sel_channel[slot, block], out=theta[block])
    return theta


def aligning_phases(h: np.ndarray, out=None) -> np.ndarray:
    """Unit-modulus phases exp(-j arg h) that cancel the phase of each entry.

    Computed as conj(h) / |h|, one real division per component, which is
    the same value up to rounding (within 1e-15) without an arctan and a
    complex exponential per entry.  A zero entry gets exactly 1, as
    exp(-j arg 0) does, and raises no warning.  ``out``, if given, is
    overwritten.
    """
    mag = np.abs(h)
    nonzero = mag != 0
    if out is None:
        out = np.ones(mag.shape, dtype=complex)
    else:
        out[...] = 1
    np.divide(h.real, mag, out=out.real, where=nonzero)
    np.divide(h.imag, -mag, out=out.imag, where=nonzero)
    return out


def reflector_blocks(n_refl: int, n_sel: int, delta: int) -> list:
    """(reflectors, slot) pairs: block i, reflectors i*delta .. (i+1)*delta-1,
    is aligned to the antenna of slot i; leftover reflectors to slot 0."""
    blocks = [(slice(i * delta, (i + 1) * delta), i) for i in range(n_sel)]
    blocks.append((slice(n_sel * delta, n_refl), 0))
    return blocks


def row_phases(h: np.ndarray, rows: np.ndarray, delta: int) -> np.ndarray:
    """Phase vectors for many antenna rows at once, one per row of ``rows``.

    ``h`` is (..., n_rx, n_refl) and ``rows`` (..., R, n_sel) holds 1-based
    antenna indices; the result is (..., R, n_refl) and its row r equals
    ``reflector_phases(h[rows[r] - 1, :], delta)`` element for element.
    """
    n_refl = h.shape[-1]
    theta = np.empty(rows.shape[:-1] + (n_refl,), dtype=complex)
    for block, slot in reflector_blocks(n_refl, rows.shape[-1], delta):
        ant = rows[..., slot, None] - 1
        aligning_phases(np.take_along_axis(h[..., block], ant, axis=-2), out=theta[..., block])
    return theta


def encode(bits, channel, cfg: SystemConfig, table: RacTable, const: Constellation) -> TxOutput:
    """Map one block of bits to the transmit scalar and reflector configuration.

    The first l1 bits pick the antenna combination; bit block j (of
    bits_per_sym bits) modulates slot j's symbol.  Power ratio alpha[i] goes
    to the slot in descending-weight position i.
    """
    bits = np.asarray(bits)
    if len(bits) != cfg.block_len:
        raise ValueError(f"expected {cfg.block_len} bits, got {len(bits)}")
    mu = cfg.bits_per_sym
    p = bits_to_int(bits[: cfg.l1])
    sel = rac_row(table, p)
    sel_channel = channel.h[sel - 1, :]
    weights = np.linalg.norm(sel_channel, axis=1)
    order = sort_weights_desc(weights)

    x = 0j
    for i, slot in enumerate(order):
        start = cfg.l1 + (slot - 1) * mu
        label = bits_to_int(bits[start : start + mu])
        x += np.sqrt(cfg.alpha[i]) * cfg.sym_energy * const.points[label]

    theta = reflector_phases(sel_channel, cfg.delta)
    return TxOutput(
        x=complex(x),
        theta=theta,
        sel=sel,
        order_desc=order,
        weights=weights,
        delta=cfg.delta,
    )


def encode_batch(bits: np.ndarray, h: np.ndarray, cfg: SystemConfig, table: RacTable,
                 const: Constellation):
    """``encode`` for a stack of trials, with the same arithmetic per trial.

    ``bits`` is (T, block_len) and ``h`` (T, n_rx, n_refl).  Returns the
    transmit scalars (T,) and reflector phase vectors (T, n_refl).
    """
    mu = cfg.bits_per_sym
    sel = table.rows[pack_bits(bits[:, : cfg.l1], cfg.l1)[:, 0]]  # (T, n_sel)
    weights = np.take_along_axis(np.linalg.norm(h, axis=-1), sel - 1, axis=1)
    order = np.argsort(-weights, axis=1, kind="stable")
    symbols = const.points[pack_bits(bits[:, cfg.l1 :], mu)]  # per slot
    x = np.zeros(len(bits), dtype=complex)
    for i in range(cfg.n_sel):
        slot_symbols = np.take_along_axis(symbols, order[:, i, None], axis=1)[:, 0]
        x += np.sqrt(cfg.alpha[i]) * cfg.sym_energy * slot_symbols
    theta = row_phases(h, sel[:, None, :], cfg.delta)[:, 0]
    return x, theta
