"""Link-level Monte Carlo simulator for reflector-aided multi-antenna
selection modulation with superposition coding.

The modules: configuration and constellations (core), the antenna
combination table (rac), transmitter mapping (transmitter), channel and
noise models (channel), the ML and SSD receivers (detection), the
single-antenna baselines as pinned configs of the same engine
(baselines), the sweep engine (harness), and a CSV/JSON command line
(cli).  The package exports the names the demos and the benchmark use.
"""

from .channel import (
    decompose_received,
    propagate,
    sample_channel,
    snr_aligned,
    snr_unaligned,
    trial_rng,
)
from .core import SystemConfig, bits_to_int, make_constellation, validate_config
from .detection import mac_ml, mac_ssd, ml_detect, ssd_detect
from .harness import CSV_COLUMNS, run_sweep, run_trial
from .rac import build_rac_table, rac_row
from .transmitter import encode, reflector_phases

__version__ = "0.1.0"

__all__ = [
    "CSV_COLUMNS",
    "SystemConfig",
    "bits_to_int",
    "build_rac_table",
    "decompose_received",
    "encode",
    "mac_ml",
    "mac_ssd",
    "make_constellation",
    "ml_detect",
    "propagate",
    "rac_row",
    "reflector_phases",
    "run_sweep",
    "run_trial",
    "sample_channel",
    "snr_aligned",
    "snr_unaligned",
    "ssd_detect",
    "trial_rng",
    "validate_config",
]
