"""The scheme table: mas and the single-antenna baselines, whose reflectors
all steer to one target antenna.

A baseline is the mas scheme with one selected antenna carrying the full
symbol power (n_sel 1, alpha (1.0,)), detected by the exhaustive ml
search: with n_rx a power of two, the RAC rows are the n_rx antennas, so
the leading l1 = log2(n_rx) bits pick the target and every reflector is
phase-aligned to it.  The modulated variant (sas-sm) appends one
constellation symbol; the index-only variant (sas-ssk) transmits the
unit-energy value 1 alone, the one-value alphabet of order 1, which
carries no symbol bits.  A baseline is its row of ``PINS``, the fields it
pins; ``harness.scheme_config`` applies them, and the engine then runs,
bills and guards a baseline as it does mas with ml.
"""

# The fields each baseline pins.
PINS = {"sas-sm": {"n_sel": 1, "alpha": (1.0,)},
        "sas-ssk": {"n_sel": 1, "alpha": (1.0,), "mod_order": 1}}
SCHEMES = ("mas", *PINS)
