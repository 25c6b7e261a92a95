"""
Anatomy of one transmission
===========================

Follow a single 8-bit block through the chain: index bits pick a pair of
receive antennas, modulation bits pick one symbol per antenna, the symbols
are power-weighted and summed into a single transmit scalar, the surface
steers one reflector block at each chosen antenna, and the two detectors
recover the block from the noisy observation.
"""

import numpy as np

from irsmas import (
    SystemConfig,
    build_rac_table,
    encode,
    make_constellation,
    ml_detect,
    pack_bits,
    propagate,
    rac_row,
    sample_channel,
    snr_to_sigma,
    ssd_detect,
    trial_rng,
)

cfg = SystemConfig()
table = build_rac_table(cfg.n_rx, cfg.n_sel)
const = make_constellation(cfg.mod_order)
rng = trial_rng(seed=2024, trial_index=0)

bits = rng.integers(0, 2, size=cfg.block_len)
row = int(pack_bits(bits[: cfg.l1], cfg.l1)[0])
antennas = tuple(int(a) for a in rac_row(table, row))
print(f"block bits      : {''.join(map(str, bits))}")
print(f"  index part    : {''.join(map(str, bits[:cfg.l1]))} "
      f"-> row {row} = antennas {antennas}")
print(f"  symbol part   : {''.join(map(str, bits[cfg.l1:]))}")

channel = sample_channel(cfg.n_rx, cfg.n_refl, rng)
tx = encode(bits, channel, cfg, table)
print(f"antenna weights : {np.round(tx.weights, 3)}")
print(f"power order     : slot {tx.order_desc[0]} strongest "
      f"(ratio {cfg.alpha[0]}), slot {tx.order_desc[1]} gets {cfg.alpha[1]}")
print(f"transmit scalar : {tx.x:+.4f}")

sigma = snr_to_sigma(-12.0)  # mid waterfall on the sweep axis
y = propagate(channel, tx.theta, tx.x, sigma, rng)

for name, detect in [("ml ", ml_detect), ("ssd", ssd_detect)]:
    res = detect(y, channel, cfg, table, const)
    errors = int(np.sum(res.bits != bits))
    print(f"{name} detector    : row {res.rac_index}, "
          f"distance {res.distance:8.3f}, bit errors {errors}, "
          f"macs {res.mac_count}")
