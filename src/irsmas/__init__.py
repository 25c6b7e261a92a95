"""Link-level Monte Carlo simulator for reflector-aided multi-antenna
selection modulation with superposition coding.

The modules: configuration and constellations (core), the antenna
combination table (rac), transmitter mapping (transmitter), channel and
noise models (channel), the ML and SSD receivers (detection), the scheme
table, whose single-antenna baselines are the fields they pin on the
same engine (baselines), the sweep engine (harness), and a CSV/JSON
command line (cli).  The package exports the names the demos and the
benchmark use.
"""

from .channel import alignment_gain, decompose_received
from .core import SystemConfig, make_constellation, snr_to_sigma, validate_config
from .detection import mac_ml, mac_ssd
from .harness import CSV_COLUMNS, run_sweep, run_trial
from .rac import build_rac_table
from .transmitter import reflector_phases

__version__ = "0.1.0"

__all__ = [
    "CSV_COLUMNS",
    "SystemConfig",
    "alignment_gain",
    "build_rac_table",
    "decompose_received",
    "mac_ml",
    "mac_ssd",
    "make_constellation",
    "reflector_phases",
    "run_sweep",
    "run_trial",
    "snr_to_sigma",
    "validate_config",
]
