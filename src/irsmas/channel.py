"""Rayleigh fading channel, propagation through the reflecting surface, and
per-antenna signal decompositions / SNR diagnostics."""

import numpy as np

from .core import SystemConfig
from .transmitter import reflector_blocks, reflector_phases


class ChannelMatrix:
    """n_rx x n_refl complex fading matrix with an amplitude view."""

    def __init__(self, h: np.ndarray):
        self.h = np.asarray(h, dtype=complex)
        self.beta = np.abs(self.h)  # entry amplitudes

    @property
    def shape(self):
        return self.h.shape


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible random stream for one trial.

    Counter-based split of the master seed: each trial owns a disjoint
    stretch of the Philox counter space, so streams are identical no matter
    which worker runs the trial or in what order.  The counter is built as
    uint64: numpy would cast a list of Python ints through float64, which
    loses the trial index near 2**64.
    """
    _check_trial_index(trial_index)
    counter = np.array([0, 0, 0, trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _check_trial_index(trial_index: int) -> None:
    if not 0 <= trial_index < 2**64:  # the range of a Philox counter word
        raise ValueError(f"trial_index: expected an integer in [0, 2**64), got {trial_index!r}")


def sample_channel(n_rx: int, n_refl: int, rng: np.random.Generator) -> ChannelMatrix:
    """Draw an i.i.d. zero-mean unit-variance complex Gaussian channel."""
    h = (rng.standard_normal((n_rx, n_refl)) + 1j * rng.standard_normal((n_rx, n_refl)))
    return ChannelMatrix(h / np.sqrt(2.0))


def propagate(
    channel: ChannelMatrix,
    theta: np.ndarray,
    x: complex,
    noise_sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received vector y = H theta x + n with complex Gaussian noise of variance sigma^2."""
    n_rx, n_refl = channel.shape
    if len(theta) != n_refl:
        raise ValueError(f"theta length {len(theta)} does not match {n_refl} reflectors")
    noise = (rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)) * (
        noise_sigma / np.sqrt(2.0)
    )
    return channel.h @ theta * x + noise


# Generator.integers(0, 2) turns each 32-bit output u into u >> 31 (a
# range of two never rejects), and Philox serves 32-bit outputs as the low,
# then the high half of each 64-bit word: bit j is bit _BIT_SHIFTS[j % 2]
# of word j // 2.
_BIT_SHIFTS = np.array([31, 63], dtype=np.uint64)
# numpy divides a complex value by the real sqrt(2) by multiplying both
# parts by this reciprocal, so (re + 1j * im) / sqrt(2), as sample_channel
# forms it, equals re * _INV_SQRT2 + 1j * (im * _INV_SQRT2) bit for bit.
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def draw_layout(n_trials: int, n_bits: int, n_rx: int, n_refl: int) -> list:
    """(shape, dtype) of each buffer ``draw_trials`` fills for up to
    ``n_trials`` trials: raw 64-bit words, standard normals, channels and
    unit noise."""
    return [((n_trials, (n_bits + 1) // 2), np.dtype(np.uint64)),
            ((n_trials, 2 * n_rx * (n_refl + 1)), np.dtype(float)),
            ((n_trials, n_rx, n_refl), np.dtype(complex)),
            ((n_trials, n_rx), np.dtype(complex))]


class TrialStreams:
    """Every trial's ``trial_rng`` stream of one seed, from one Philox
    generator built once: ``start(i)`` sets it to exactly the state
    ``trial_rng(seed, i)`` starts from (counter (0, 0, 0, i), empty output
    buffer, no cached 32-bit half), which costs far less than building a
    generator, and its ``SeedSequence``, for each trial."""

    def __init__(self, seed: int):
        self.bit_gen = np.random.Philox(key=seed)
        self.rng = np.random.Generator(self.bit_gen)
        self._state = self.bit_gen.state  # a fresh generator's state, at counter 0

    def start(self, trial_index: int) -> None:
        _check_trial_index(trial_index)
        self._state["state"]["counter"][3] = trial_index
        self.bit_gen.state = self._state


def draw_trials(streams: TrialStreams, trials, n_bits: int, n_rx: int, n_refl: int, out=None):
    """Every random draw of several trials.

    Each trial draws from its own ``trial_rng`` stream, in this order:
    bits (as ``integers(0, 2)``), channel (as ``sample_channel``), noise
    (real, imaginary).  ``streams`` holds the master seed's one generator,
    which a caller drawing many chunks builds once and passes to each, and
    which serves all the trials.  The bits come
    from the raw 64-bit words that ``integers(0, 2)`` would consume, and
    the complex parts are assembled with real arithmetic; both give the
    stream's values bit for bit.
    Returns bits (T, n_bits), channels (T, n_rx, n_refl) and unit-variance
    complex noise (T, n_rx) before its sigma / sqrt(2) scaling.  ``out``,
    if given, holds C-contiguous arrays laid out as ``draw_layout`` for at
    least T trials: the draws overwrite their leading rows, and the
    channels and noise returned are views of them.
    """
    n_trials, n_h = len(trials), n_rx * n_refl
    if out is None:
        out = [np.empty(shape, dtype) for shape, dtype in draw_layout(n_trials, n_bits, n_rx,
                                                                      n_refl)]
    words, normals, h, noise = (buf[:n_trials] for buf in out)
    for k, trial_index in enumerate(trials):
        streams.start(trial_index)
        words[k] = streams.bit_gen.random_raw(words.shape[1])
        streams.rng.standard_normal(out=normals[k])
    bits = (words[..., None] >> _BIT_SHIFTS & 1).reshape(n_trials, -1)[:, :n_bits]
    np.multiply(normals[:, :n_h].reshape(h.shape), _INV_SQRT2, out=h.real)
    np.multiply(normals[:, n_h : 2 * n_h].reshape(h.shape), _INV_SQRT2, out=h.imag)
    noise.real = normals[:, 2 * n_h : 2 * n_h + n_rx]
    noise.imag = normals[:, 2 * n_h + n_rx :]
    return bits.astype(np.int64), h, noise


def add_noise(received: np.ndarray, noise: np.ndarray, noise_sigma: float) -> np.ndarray:
    """``propagate``'s y for a stack of trials: their noiseless H theta x
    plus sigma/sqrt(2) times ``noise``, the unit draw from ``draw_trials``."""
    return received + noise * (noise_sigma / np.sqrt(2.0))


def decompose_received(channel: ChannelMatrix, theta, x, sel, slot: int):
    """Split the noiseless sample at selected antenna ``slot`` into three parts.

    Returns (constructive, nonconstructive, leftover):
      * constructive  -- the dedicated reflector block, phase-aligned, worth
        sum(beta) * x;
      * nonconstructive -- the blocks dedicated to the other selected antennas;
      * leftover      -- reflectors beyond n_sel*delta (zero when n_sel
        divides n_refl).

    The three parts sum to the antenna's noiseless received sample when
    ``theta`` came from reflector_phases for the same antenna set.
    """
    sel = np.asarray(sel)
    n_sel = len(sel)
    if not 1 <= slot <= n_sel:
        raise IndexError(f"slot {slot} out of range [1, {n_sel}]")
    n_refl = channel.shape[1]
    blocks = reflector_blocks(n_refl, n_sel)[:n_sel]
    tail = slice(blocks[-1][0].stop, n_refl)  # the leftover reflectors, if any
    ant = sel[slot - 1] - 1
    constructive = np.sum(channel.beta[ant, blocks[slot - 1][0]]) * x
    nonconstructive = 0j
    for block, q in blocks:
        if q != slot - 1:
            nonconstructive += np.dot(channel.h[ant, block], theta[block]) * x
    leftover = np.dot(channel.h[ant, tail], theta[tail]) * x
    return complex(constructive), complex(nonconstructive), complex(leftover)


def snr_aligned(channel: ChannelMatrix, sel, cfg: SystemConfig) -> float:
    """Instantaneous SNR when the reflector blocks are phase-aligned to ``sel``.

    Per selected antenna this is the squared coherent block gain plus the
    squared magnitude of the other blocks' (uncancelled) contribution, the
    constructive and nonconstructive parts of ``decompose_received`` at
    unit symbol energy, over sigma^2 and summed over antennas.
    """
    if cfg.noise_sigma == 0:
        raise ValueError("noise_sigma is zero; SNR undefined (use the numerator directly)")
    sel = np.asarray(sel)
    theta = reflector_phases(channel.h[sel - 1])
    total = 0.0
    for slot in range(1, len(sel) + 1):
        aligned, cross, _ = decompose_received(channel, theta, 1.0, sel, slot)
        total += abs(aligned) ** 2 + abs(cross) ** 2
    return total / cfg.noise_sigma**2


def snr_unaligned(channel: ChannelMatrix, sel, cfg: SystemConfig) -> float:
    """Reference SNR with no phase alignment: the raw conjugate block sums."""
    if cfg.noise_sigma == 0:
        raise ValueError("noise_sigma is zero; SNR undefined")
    sel = np.asarray(sel)
    n_sel = len(sel)
    blocks = reflector_blocks(channel.shape[1], n_sel)[:n_sel]
    acc = 0j
    for block, q in blocks:
        ant = sel[q] - 1
        acc += np.sum(np.conj(channel.h[ant, block]))
    return n_sel * abs(acc) ** 2 / cfg.noise_sigma**2
