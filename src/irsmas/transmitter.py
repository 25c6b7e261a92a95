"""Transmit-side processing: antenna selection, superposition coding, reflector phases.

A transmission targets the antenna set selected by the first l1 bits.  The
remaining bits modulate one symbol per selected antenna ("slot"); all slot
symbols are combined into a single complex scalar by superposition coding,
with the smallest power ratio assigned to the slot whose channel row is
strongest.  Each selected antenna also gets a dedicated block of reflectors
whose phases cancel that antenna's channel phases.
"""

from dataclasses import dataclass

import numpy as np

from .core import Constellation, SystemConfig, pack_bits
from .rac import RacTable


@dataclass
class TxOutput:
    """Everything the transmitter produces for one block of bits."""

    x: complex                # superposed transmit scalar
    theta: np.ndarray         # unit-modulus reflector phase vector, length n_refl
    sel: np.ndarray           # selected antennas (1-based)
    order_desc: np.ndarray    # slot permutation, strongest channel first (1-based)
    weights: np.ndarray       # per-slot channel row norms


def reflector_phases(sel_channel: np.ndarray, delta: int) -> np.ndarray:
    """Unit-modulus phase vector aligning reflector block i to selected antenna i.

    Block i covers reflectors (i-1)*delta .. i*delta-1 and gets the
    ``aligning_phases`` of row i of the selected channel.  Reflectors beyond
    n_sel*delta (present only when n_sel does not divide n_refl) are
    aligned to row 0.  This is ``row_phases`` for one row.
    """
    sel_channel = np.atleast_2d(sel_channel)
    rows = np.arange(1, len(sel_channel) + 1)
    return row_phases(sel_channel, rows[None], delta)[0]


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
    antenna indices; the result is (..., R, n_refl).  Row r aligns block i
    (reflectors i*delta .. (i+1)*delta-1) to antenna rows[r, i] and the
    leftover reflectors to antenna rows[r, 0].
    """
    n_refl = h.shape[-1]
    theta = np.empty(rows.shape[:-1] + (n_refl,), dtype=complex)
    for block, slot in reflector_blocks(n_refl, rows.shape[-1], delta):
        ant = rows[..., slot, None] - 1
        aligning_phases(np.take_along_axis(h[..., block], ant, axis=-2), out=theta[..., block])
    return theta


def slot_order(p: np.ndarray, norms: np.ndarray, table: RacTable):
    """The antennas of RAC rows ``p`` and their slots in power order.

    ``p`` holds row indices (T, ...) and ``norms`` the trials' channel row
    norms (T, n_rx), ``np.linalg.norm(h, axis=-1)`` of their channels.
    Returns the rows' antennas (T, ..., n_sel, 1-based), their channel row
    norms, and the slots by descending norm (0-based, ties to the smaller
    slot).
    """
    sel = table.rows[p]
    norms = norms.reshape(len(norms), *(1,) * (p.ndim - 1), -1)
    weights = np.take_along_axis(norms, sel - 1, axis=-1)
    return sel, weights, np.argsort(-weights, axis=-1, kind="stable")


def encode_batch(bits: np.ndarray, h: np.ndarray, norms: np.ndarray, cfg: SystemConfig,
                 table: RacTable, const: Constellation):
    """Map a stack of bit blocks to transmit scalars and reflector phases.

    The first l1 bits pick the antenna combination; bit block j (of
    bits_per_sym bits) modulates slot j's symbol.  Power ratio alpha[i] goes
    to the slot in descending-weight position i.  ``bits`` is
    (T, block_len), ``h`` (T, n_rx, n_refl) and ``norms`` its row norms
    (T, n_rx).  Returns the transmit scalars (T,) and reflector phase
    vectors (T, n_refl).
    """
    sel, _, order = slot_order(pack_bits(bits[:, : cfg.l1], cfg.l1)[:, 0], norms, table)
    symbols = const.points[pack_bits(bits[:, cfg.l1 :], cfg.bits_per_sym)]  # per slot
    x = np.zeros(len(bits), dtype=complex)
    for i in range(cfg.n_sel):
        slot_symbols = np.take_along_axis(symbols, order[:, i, None], axis=1)[:, 0]
        x += np.sqrt(cfg.alpha[i]) * cfg.sym_energy * slot_symbols
    theta = row_phases(h, sel[:, None, :], cfg.delta)[:, 0]
    return x, theta


def encode(bits, channel, cfg: SystemConfig, table: RacTable, const: Constellation) -> TxOutput:
    """One block of bits through ``encode_batch``, as a stack of one, with
    the selection it made."""
    bits = np.asarray(bits)
    if len(bits) != cfg.block_len:
        raise ValueError(f"expected {cfg.block_len} bits, got {len(bits)}")
    h = channel.h[None]
    norms = np.linalg.norm(h, axis=-1)
    x, theta = encode_batch(bits[None], h, norms, cfg, table, const)
    sel, weights, order = slot_order(pack_bits(bits[None, : cfg.l1], cfg.l1)[:, 0], norms,
                                     table)
    return TxOutput(x=complex(x[0]), theta=theta[0], sel=sel[0], order_desc=order[0] + 1,
                    weights=weights[0])
