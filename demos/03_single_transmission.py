"""
Anatomy of one transmission
===========================

Follow a single 8-bit block through the chain: index bits pick a pair of
receive antennas, modulation bits pick one symbol per antenna, the symbols
are power-weighted and summed into a single transmit scalar, the surface
steers one reflector block at each chosen antenna, and the two detectors
recover the block from the noisy observation.  Each step is the call the
sweep engine makes, on a stack of one trial.
"""

import numpy as np

from irsmas import SystemConfig, build_rac_table, mac_ml, mac_ssd, snr_to_sigma
from irsmas.channel import TrialStreams, add_noise, draw_trials
from irsmas.detection import (
    candidate_gains,
    cross_gains,
    detected_bits,
    ml_detect_batch,
    ssd_detect_batch,
)
from irsmas.transmitter import aligning_phases, encode_batch, row_norms, slot_order

cfg = SystemConfig()
table = build_rac_table(cfg.n_rx, cfg.n_sel)

# trial 0 of seed 2024 draws its bits, channel and unit noise from its own stream
bits, h, noise = draw_trials(TrialStreams(2024), range(1), cfg.block_len, cfg.n_rx, cfg.n_refl)
norms = row_norms(h)  # the channel row norms order the slots
p, _, x = encode_batch(bits, norms, cfg, table)
sel, weights, order = slot_order(p, norms, table)
print(f"block bits      : {''.join(map(str, bits[0]))}")
print(f"  index part    : {''.join(map(str, bits[0, :cfg.l1]))} "
      f"-> row {p[0]} = antennas {tuple(int(a) for a in sel[0])}")
print(f"  symbol part   : {''.join(map(str, bits[0, cfg.l1:]))}")
print(f"antenna weights : {np.round(weights[0], 3)}")
print(f"power order     : slot {order[0, 0] + 1} strongest "
      f"(ratio {cfg.alpha[0]}), slot {order[0, 1] + 1} gets {cfg.alpha[1]}")
print(f"transmit scalar : {x[0]:+.4f}")

# every antenna's reflector phases give each block's gain at every antenna;
# the sent row's blocks sum to its effective gain H theta_p
cross, index = cross_gains(h, aligning_phases(h), cfg.n_sel)
sigma = snr_to_sigma(-12.0)  # mid waterfall on the sweep axis
y = add_noise(candidate_gains(cross, index, p[:, None])[:, 0] * x[:, None], noise, sigma)


def report(name, p_hat, labels, distance, macs):
    errors = int(np.sum(detected_bits(p_hat, labels, cfg) != bits))
    print(f"{name} detector    : row {p_hat[0]}, "
          f"distance {distance[0]:8.3f}, bit errors {errors}, macs {macs}")


report("ml ", *ml_detect_batch(y, cross, index, norms, cfg, table), mac_ml(cfg))
p_hat, labels, distance, n_cand = ssd_detect_batch(y, cross, index, norms, cfg, table)
report("ssd", p_hat, labels, distance, mac_ssd(cfg, n_cand[0]))
