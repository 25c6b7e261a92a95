"""Rayleigh fading channel, per-trial streams, propagation through the
reflecting surface, per-antenna signal decompositions and alignment gain."""

import operator

import numpy as np

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
    """Independent, reproducible random stream for one trial, a
    ``TrialStreams(seed)`` generator started at ``trial_index``: each trial
    owns a disjoint stretch of the Philox counter space, so streams are
    identical no matter which worker runs the trial or in what order."""
    return TrialStreams(seed).start(trial_index)


def check_trial_index(trial_index) -> int:
    """``trial_index`` as an int in [0, 2**64), the range of a Philox
    counter word; anything else, a float such as 3.0 too, is rejected."""
    try:
        index = operator.index(trial_index)
    except TypeError:
        index = -1
    if not 0 <= index < 2**64:
        raise ValueError(f"trial_index: expected an integer in [0, 2**64), got {trial_index!r}")
    return index


def sample_channel(n_rx: int, n_refl: int, rng: np.random.Generator) -> ChannelMatrix:
    """Draw an i.i.d. zero-mean unit-variance complex Gaussian channel."""
    h = (rng.standard_normal((n_rx, n_refl)) + 1j * rng.standard_normal((n_rx, n_refl)))
    return ChannelMatrix(h / np.sqrt(2.0))


def propagate(channel: ChannelMatrix, theta: np.ndarray, x: complex, noise_sigma: float,
              rng: np.random.Generator) -> np.ndarray:
    """Received vector y = H theta x + n with complex Gaussian noise of variance sigma^2."""
    n_rx, n_refl = channel.shape
    if len(theta) != n_refl:
        raise ValueError(f"theta length {len(theta)} does not match {n_refl} reflectors")
    noise = rng.standard_normal(n_rx) + 1j * rng.standard_normal(n_rx)
    return add_noise(channel.h @ theta * x, noise, noise_sigma)


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
    """Every trial's stream of one seed, from one Philox generator built
    once: ``start(i)`` sets it to trial i's start (counter (0, 0, 0, i),
    empty output buffer, no cached 32-bit half) and returns it, which costs
    far less than building a generator, and its ``SeedSequence``, a trial."""

    def __init__(self, seed: int):
        self.bit_gen = np.random.Philox(key=seed)
        self.rng = np.random.Generator(self.bit_gen)
        self._state = self.bit_gen.state  # a fresh generator's state, at counter 0

    def start(self, trial_index: int) -> np.random.Generator:
        self._state["state"]["counter"][3] = check_trial_index(trial_index)
        self.bit_gen.state = self._state
        return self.rng


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
    """Received vectors y: the noiseless H theta x plus sigma/sqrt(2) times
    ``noise``, whose real and imaginary parts are standard normal."""
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


def alignment_gain(channel: ChannelMatrix, sel) -> float:
    """Signal energy with the reflector blocks phase-aligned to ``sel`` over
    that of the raw conjugate block sums, n_sel |sum|^2.  The aligned
    energy sums, over selected antennas, the squared constructive and
    nonconstructive parts of ``decompose_received`` at unit symbol energy."""
    sel = np.asarray(sel)
    n_sel = len(sel)
    theta = reflector_phases(channel.h[sel - 1])
    aligned = 0.0
    for slot in range(1, n_sel + 1):
        constructive, cross, _ = decompose_received(channel, theta, 1.0, sel, slot)
        aligned += abs(constructive) ** 2 + abs(cross) ** 2
    acc = 0j
    for block, q in reflector_blocks(channel.shape[1], n_sel)[:n_sel]:
        acc += np.sum(np.conj(channel.h[sel[q] - 1, block]))
    return aligned / (n_sel * abs(acc) ** 2)
