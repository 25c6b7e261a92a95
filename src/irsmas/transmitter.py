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


def reflector_phases(sel_channel: np.ndarray) -> np.ndarray:
    """Unit-modulus phase vector aligning reflector block i to selected antenna i.

    Block i covers reflectors i*delta .. (i+1)*delta-1, delta = n_refl //
    n_sel, and gets the ``aligning_phases`` of row i of the selected
    channel.  Reflectors beyond n_sel*delta (present only when n_sel does
    not divide n_refl) are aligned to row 0.
    """
    sel_channel = np.atleast_2d(sel_channel)
    theta = np.empty(sel_channel.shape[-1], dtype=complex)
    for block, slot in reflector_blocks(len(theta), len(sel_channel)):
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
    if out is None:
        out = np.empty(mag.shape, dtype=complex)
    # with no zero entry (an empty h has none) the divides need no mask,
    # which would cost more than they do
    nonzero = True
    if not mag.min(initial=np.inf) > 0:
        nonzero = mag != 0
        out[...] = 1
    np.divide(h.real, mag, out=out.real, where=nonzero)
    np.divide(h.imag, np.negative(mag, out=mag), out=out.imag, where=nonzero)
    return out


def reflector_blocks(n_refl: int, n_sel: int) -> list:
    """(reflectors, slot) pairs: block i, reflectors i*delta .. (i+1)*delta-1
    with delta = n_refl // n_sel, is aligned to the antenna of slot i; the
    leftover reflectors, if any, form a last block aligned to slot 0."""
    delta = n_refl // n_sel
    blocks = [(slice(i * delta, (i + 1) * delta), i) for i in range(n_sel)]
    if n_refl % n_sel:
        blocks.append((slice(n_sel * delta, n_refl), 0))
    return blocks


@lru_cache(maxsize=None)
def gain_index(n_rx: int, n_sel: int, n_refl: int) -> np.ndarray:
    """The antenna (0-based) to which every RAC row aligns each block of
    ``reflector_blocks``, built once and shared read-only: (K, C), K blocks
    by C rows."""
    rows = build_rac_table(n_rx, n_sel).rows
    slots = [slot for _, slot in reflector_blocks(n_refl, n_sel)]
    index = np.ascontiguousarray(rows[:, slots].T - 1)
    index.setflags(write=False)
    return index


def row_norms(h: np.ndarray, out=None) -> np.ndarray:
    """The norms of the rows of h along its last axis,
    ``np.linalg.norm(h, axis=-1)`` bit for bit: computed as numpy computes
    them, the square root of the summed real part of conj(h) h, but with
    conj(h) h formed in place, in ``out`` (shaped like h, complex,
    overwritten) if given, instead of in two temporaries."""
    square = np.conjugate(h, out=out)
    np.multiply(square, h, out=square)
    return np.sqrt(np.add.reduce(square.real, axis=-1))


def slot_order(p: np.ndarray, norms: np.ndarray, table: RacTable):
    """The antennas of RAC rows ``p`` and their slots in power order.

    ``p`` holds row indices (R, ...) and ``norms`` the channel row norms
    (T, n_rx) of T trials, the ``row_norms`` of their channels: row i of
    ``p`` belongs to trial i mod T, so the rows of several noise levels
    stack along R.  Returns the rows' antennas (R, ..., n_sel, 1-based),
    their channel row norms, and the slots by descending norm (0-based,
    ties to the smaller slot).
    """
    sel = table.rows[p]
    trial = (np.arange(len(p)) % len(norms)).reshape(-1, *(1,) * p.ndim)
    weights = norms[trial, sel - 1]
    return sel, weights, np.argsort(-weights, axis=-1, kind="stable")


def encode_batch(bits: np.ndarray, norms: np.ndarray, cfg: SystemConfig, table: RacTable):
    """Map a stack of bit blocks to RAC rows, slot labels and transmit scalars.

    The first l1 bits pick RAC row p; bit block j (of bits_per_sym bits)
    labels slot j's symbol.  Power ratio alpha[i] goes to the slot in
    descending-weight position i, so x superposes the labels taken in that
    order.  ``bits`` is (T, block_len) and ``norms`` the channels' row norms
    (T, n_rx).  Returns the rows (T,), the per-slot labels (T, n_sel) and
    the transmit scalars (T,).  The rows and labels are the bits packed, as
    a detector reports its decisions, so a trial's bit errors are the set
    bits of their XOR with the decisions.  Row p's reflector phases, and
    with them its effective gain, are the receivers' to form
    (``detection.cross_gains``).
    """
    p = pack_bits(bits[:, : cfg.l1], cfg.l1)[:, 0]
    _, _, order = slot_order(p, norms, table)
    labels = pack_bits(bits[:, cfg.l1 :], cfg.bits_per_sym)  # per slot
    axes = superposition_axes(cfg.mod_order, tuple(cfg.alpha))
    return p, labels, axes.superpose(labels[np.arange(len(labels))[:, None], order])


def encode(bits, channel, cfg: SystemConfig, table: RacTable) -> TxOutput:
    """One block of bits through ``encode_batch``, as a stack of one, with
    the selection it made and its ``reflector_phases``."""
    bits = np.asarray(bits)
    if len(bits) != cfg.block_len:
        raise ValueError(f"expected {cfg.block_len} bits, got {len(bits)}")
    norms = row_norms(channel.h[None])
    p, _, x = encode_batch(bits[None], norms, cfg, table)
    (sel,), (weights,), (order,) = slot_order(p, norms, table)
    return TxOutput(x=complex(x[0]), theta=reflector_phases(channel.h[sel - 1]), sel=sel,
                    order_desc=order + 1, weights=weights)
