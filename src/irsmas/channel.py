"""Rayleigh fading channel, propagation through the reflecting surface, and
per-antenna signal decompositions / SNR diagnostics."""

import numpy as np

from .core import SystemConfig
from .transmitter import reflector_phases


class ChannelMatrix:
    """n_rx x n_refl complex fading matrix with amplitude and phase views."""

    def __init__(self, h: np.ndarray):
        self.h = np.asarray(h, dtype=complex)
        self._beta = None
        self._psi = None

    @property
    def beta(self) -> np.ndarray:
        """Entry amplitudes |h|."""
        if self._beta is None:
            self._beta = np.abs(self.h)
        return self._beta

    @property
    def psi(self) -> np.ndarray:
        """Entry phases arg(h) in radians."""
        if self._psi is None:
            self._psi = np.angle(self.h)
        return self._psi

    @property
    def shape(self):
        return self.h.shape


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible random stream for one trial.

    Counter-based split of the master seed: each trial owns a disjoint
    stretch of the Philox counter space, so streams are identical no matter
    which worker runs the trial or in what order.
    """
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, trial_index]))


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


def draw_trials(seed: int, trials, n_bits: int, n_rx: int, n_refl: int):
    """Every random draw of several trials, as ``run_trial`` makes them.

    Each trial draws from its own ``trial_rng`` stream, in the scalar
    order: bits, channel (real, imaginary), noise (real, imaginary).
    Returns bits (T, n_bits), channels (T, n_rx, n_refl) and unit-variance
    complex noise (T, n_rx) before its sigma / sqrt(2) scaling.
    """
    n_h = n_rx * n_refl
    bits = np.empty((len(trials), n_bits), dtype=np.int64)
    normals = np.empty((len(trials), 2 * (n_h + n_rx)))
    for k, trial_index in enumerate(trials):
        rng = trial_rng(seed, trial_index)
        bits[k] = rng.integers(0, 2, size=n_bits, dtype=np.int64)
        rng.standard_normal(out=normals[k])
    # In place, to keep one complex copy of the channels alive at a time;
    # element for element this is (re + 1j * im) / sqrt(2) as in sample_channel.
    h = 1j * normals[:, n_h : 2 * n_h].reshape(len(trials), n_rx, n_refl)
    h.real += normals[:, :n_h].reshape(h.shape)
    h /= np.sqrt(2.0)
    noise = 1j * normals[:, 2 * n_h + n_rx :]
    noise.real += normals[:, 2 * n_h : 2 * n_h + n_rx]
    return bits, h, noise


def propagate_batch(h: np.ndarray, theta: np.ndarray, x: np.ndarray, noise: np.ndarray,
                    noise_sigma: float) -> np.ndarray:
    """``propagate`` for a stack of trials: y = H theta x + sigma/sqrt(2) * noise.

    ``noise`` is the unit draw from ``draw_trials``.  H theta is one
    matrix-vector product per trial, as in the scalar path.
    """
    return (h @ theta[..., None])[..., 0] * x[:, None] + noise * (noise_sigma / np.sqrt(2.0))


def _blocks(n_refl: int, n_sel: int):
    delta = n_refl // n_sel
    return delta, [slice(i * delta, (i + 1) * delta) for i in range(n_sel)], slice(n_sel * delta, n_refl)


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
    _, blocks, tail = _blocks(channel.shape[1], n_sel)
    ant = sel[slot - 1] - 1
    constructive = np.sum(channel.beta[ant, blocks[slot - 1]]) * x
    nonconstructive = 0j
    for q, block in enumerate(blocks):
        if q != slot - 1:
            nonconstructive += np.dot(channel.h[ant, block], theta[block]) * x
    leftover = np.dot(channel.h[ant, tail], theta[tail]) * x
    return complex(constructive), complex(nonconstructive), complex(leftover)


def snr_aligned(channel: ChannelMatrix, sel, cfg: SystemConfig) -> float:
    """Instantaneous SNR when the reflector blocks are phase-aligned to ``sel``.

    Per selected antenna this is the squared coherent block gain plus the
    squared magnitude of the other blocks' (uncancelled) contribution,
    scaled by E_s / sigma^2 and summed over antennas.
    """
    if cfg.noise_sigma == 0:
        raise ValueError("noise_sigma is zero; SNR undefined (use the numerator directly)")
    sel = np.asarray(sel)
    n_sel = len(sel)
    _, blocks, _ = _blocks(channel.shape[1], n_sel)
    theta = reflector_phases(channel.h[sel - 1, :], channel.shape[1] // n_sel)
    total = 0.0
    for i in range(n_sel):
        ant = sel[i] - 1
        aligned = np.sum(channel.beta[ant, blocks[i]])
        cross = sum(
            np.dot(channel.h[ant, block], theta[block])
            for q, block in enumerate(blocks)
            if q != i
        )
        total += aligned**2 + abs(cross) ** 2
    return cfg.sym_energy * total / cfg.noise_sigma**2


def snr_unaligned(channel: ChannelMatrix, sel, cfg: SystemConfig) -> float:
    """Reference SNR with no phase alignment: the raw conjugate block sums."""
    if cfg.noise_sigma == 0:
        raise ValueError("noise_sigma is zero; SNR undefined")
    sel = np.asarray(sel)
    n_sel = len(sel)
    _, blocks, _ = _blocks(channel.shape[1], n_sel)
    acc = 0j
    for q, block in enumerate(blocks):
        ant = sel[q] - 1
        acc += np.sum(np.conj(channel.h[ant, block]))
    return cfg.sym_energy * n_sel * abs(acc) ** 2 / cfg.noise_sigma**2
