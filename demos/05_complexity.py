"""
Receiver complexity accounting
==============================

Multiply-accumulate counts for the exhaustive detector versus the
candidate-list detector, and how the gap widens with modulation order.
The candidate detector's cost depends only on how many rows it decodes,
not on the constellation size, so its advantage grows exponentially.
"""

import dataclasses

from irsmas import SystemConfig, mac_ml, mac_ssd
from irsmas.harness import scheme_config

cfg = SystemConfig()

print(f"{'modulation':<12}{'ml macs':>12}{'ssd macs':>12}{'ratio':>10}")
for name, order in [("bpsk", 2), ("qpsk", 4), ("16qam", 16)]:
    c = dataclasses.replace(cfg, mod_order=order)
    ml = mac_ml(c)
    # worst case: the fallback padded the list to 15 rows
    ssd = mac_ssd(c, 15)
    print(f"{name:<12}{ml:>12,}{ssd:>12,}{ssd / ml:>10.5f}")

print("\nssd cost vs decoded-candidate count (bpsk):")
for n_cand in (8, 10, 12, 15):
    print(f"  {n_cand:2d} candidates -> {mac_ssd(cfg, n_cand):,} macs")

print("\nsingle-antenna baselines (16 rx, exhaustive detection):")
for label, scheme, order in [("ssk", "sas-ssk", 2), ("sm-bpsk", "sas-sm", 2),
                             ("sm-qpsk", "sas-sm", 4)]:
    # a baseline's config is its pin: one selected antenna, and no symbol for ssk
    c = scheme_config(dataclasses.replace(cfg, n_rx=16, mod_order=order), scheme, "ml")
    print(f"  {label:<8} {c.block_len} bits/tx, {mac_ml(c):,} macs")
