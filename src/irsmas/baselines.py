"""Single-antenna baseline schemes: all reflectors steer to one target antenna.

A baseline is the mas scheme with one selected antenna carrying the full
symbol power (n_sel 1, alpha (1.0,)), detected by the exhaustive ml
search: with n_rx a power of two, the RAC rows are the n_rx antennas, so
the leading l1 = log2(n_rx) bits pick the target and every reflector is
phase-aligned to it.  The modulated variant (sas-sm) appends one
constellation symbol; the index-only variant (sas-ssk) transmits the
unit-energy value 1 alone, the one-value alphabet of order 1, which
carries no symbol bits.  ``baseline_config`` pins these fields, and the
engine then runs, bills and guards a baseline as it does mas with ml.
"""

from dataclasses import replace

from .core import SystemConfig

# The fields each baseline pins.
PINS = {"sas-sm": {"n_sel": 1, "alpha": (1.0,)},
        "sas-ssk": {"n_sel": 1, "alpha": (1.0,), "mod_order": 1}}


def baseline_config(cfg: SystemConfig, scheme: str = "sas-sm") -> SystemConfig:
    """``cfg`` as ``scheme`` reads it: its ``PINS`` applied, and ``cfg``
    itself if already so, or if ``scheme`` pins nothing (mas).
    n_cand_antennas and n_iters are ignored."""
    pins = PINS.get(scheme, {})
    if all(getattr(cfg, name) == value for name, value in pins.items()):
        return cfg
    return replace(cfg, **pins)
