"""Transmit-side processing: antenna selection, superposition coding, reflector phases.

A transmission targets the antenna set selected by the first l1 bits.  The
remaining bits modulate one symbol per selected antenna ("slot"); all slot
symbols are combined into a single complex scalar by superposition coding,
with the smallest power ratio assigned to the slot whose channel row is
strongest.  Each selected antenna also gets a dedicated block of reflectors
whose phases cancel that antenna's channel phases.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import SystemConfig, pack_bits, superposition_axes
from .rac import RacTable, build_rac_table


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
    aligned to row 0.
    """
    sel_channel = np.atleast_2d(sel_channel)
    theta = np.empty(sel_channel.shape[-1], dtype=complex)
    for block, slot in reflector_blocks(len(theta), len(sel_channel), delta):
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


@lru_cache(maxsize=None)
def phase_index(n_rx: int, n_sel: int, n_refl: int) -> np.ndarray:
    """Where every RAC row's reflector phases lie in a trial's flattened
    ``aligning_phases``, built once and shared read-only: theta of row p is
    ``phases.ravel()[index[p]]``, (C, n_refl), block i of ``reflector_blocks``
    following the row's antenna of slot i."""
    rows = build_rac_table(n_rx, n_sel).rows
    index = np.empty((len(rows), n_refl), dtype=np.int64)
    for block, slot in reflector_blocks(n_refl, n_sel, n_refl // n_sel):
        index[:, block] = (rows[:, slot, None] - 1) * n_refl + np.arange(n_refl)[block]
    index.setflags(write=False)
    return index


@lru_cache(maxsize=None)
def gain_index(n_rx: int, n_sel: int, n_refl: int) -> np.ndarray:
    """The antenna (0-based) to which every RAC row aligns each non-empty
    block of ``reflector_blocks``, built once and shared read-only: (K, C),
    K blocks by C rows."""
    rows = build_rac_table(n_rx, n_sel).rows
    slots = [slot for block, slot in reflector_blocks(n_refl, n_sel, n_refl // n_sel)
             if block.start < block.stop]
    index = np.ascontiguousarray(rows[:, slots].T - 1)
    index.setflags(write=False)
    return index


def gather_phases(phases: np.ndarray, p: np.ndarray, n_sel: int) -> np.ndarray:
    """Reflector phase vectors of RAC rows ``p`` (T, ...) gathered through
    ``phase_index`` from the trials' ``aligning_phases`` (T, n_rx, n_refl):
    (T, ..., n_refl)."""
    n_trials, n_rx, n_refl = phases.shape
    trial = np.arange(n_trials).reshape(-1, *(1,) * p.ndim)
    return np.take(phases, phase_index(n_rx, n_sel, n_refl)[p] + trial * (n_rx * n_refl))


def slot_order(p: np.ndarray, norms: np.ndarray, table: RacTable):
    """The antennas of RAC rows ``p`` and their slots in power order.

    ``p`` holds row indices (T, ...) and ``norms`` the trials' channel row
    norms (T, n_rx), ``np.linalg.norm(h, axis=-1)`` of their channels.
    Returns the rows' antennas (T, ..., n_sel, 1-based), their channel row
    norms, and the slots by descending norm (0-based, ties to the smaller
    slot).  At n_sel 1 the one slot needs no order: ``norms`` may be None,
    and the norms returned are then None.
    """
    sel = table.rows[p]
    if norms is None:
        return sel, None, np.zeros_like(sel)
    norms = norms.reshape(len(norms), *(1,) * (p.ndim - 1), -1)
    weights = np.take_along_axis(norms, sel - 1, axis=-1)
    return sel, weights, np.argsort(-weights, axis=-1, kind="stable")


def encode_batch(bits: np.ndarray, norms: np.ndarray, phases: np.ndarray, cfg: SystemConfig,
                 table: RacTable):
    """Map a stack of bit blocks to transmit scalars and reflector phases.

    The first l1 bits pick RAC row p; bit block j (of bits_per_sym bits)
    labels slot j's symbol.  Power ratio alpha[i] goes to the slot in
    descending-weight position i, so x superposes the labels taken in that
    order.  ``bits`` is (T, block_len), ``norms`` the channels' row norms
    (T, n_rx; None at n_sel 1) and ``phases`` their ``aligning_phases``
    (T, n_rx, n_refl).  Returns the transmit scalars (T,) and reflector
    phase vectors (T, n_refl).
    """
    p = pack_bits(bits[:, : cfg.l1], cfg.l1)[:, 0]
    _, _, order = slot_order(p, norms, table)
    labels = pack_bits(bits[:, cfg.l1 :], cfg.bits_per_sym)  # per slot
    axes = superposition_axes(cfg.mod_order, tuple(cfg.alpha))
    x = axes.superpose(labels[np.arange(len(labels))[:, None], order])
    return x, gather_phases(phases, p, cfg.n_sel)


def encode(bits, channel, cfg: SystemConfig, table: RacTable) -> TxOutput:
    """One block of bits through ``encode_batch``, as a stack of one, with
    the selection it made."""
    bits = np.asarray(bits)
    if len(bits) != cfg.block_len:
        raise ValueError(f"expected {cfg.block_len} bits, got {len(bits)}")
    h = channel.h[None]
    norms = np.linalg.norm(h, axis=-1)
    x, theta = encode_batch(bits[None], norms, aligning_phases(h), cfg, table)
    sel, weights, order = slot_order(pack_bits(bits[None, : cfg.l1], cfg.l1)[:, 0], norms,
                                     table)
    return TxOutput(x=complex(x[0]), theta=theta[0], sel=sel[0], order_desc=order[0] + 1,
                    weights=weights[0])
