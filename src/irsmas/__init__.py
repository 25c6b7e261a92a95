"""Link-level Monte Carlo simulator for reflector-aided multi-antenna
selection modulation with superposition coding.

The public surface: configuration and constellations (core), the antenna
combination table (rac), transmitter mapping (transmitter), channel and
noise models (channel), the ML and SSD receivers (detection),
single-antenna baselines (baselines), the sweep engine (harness), and a
CSV/JSON command line (cli).
"""

from .baselines import SasScheme, sas_detect, sas_encode
from .channel import (
    ChannelMatrix,
    decompose_received,
    propagate,
    sample_channel,
    snr_aligned,
    snr_unaligned,
    trial_rng,
)
from .core import (
    MOD_NAMES,
    MOD_ORDERS,
    Constellation,
    SystemConfig,
    bits_to_int,
    int_to_bits,
    make_constellation,
    superposition_set,
    validate_config,
)
from .detection import (
    DetectionResult,
    mac_ml,
    mac_ssd,
    ml_detect,
    quantize,
    rac_candidates,
    ssd_detect,
)
from .harness import (
    CSV_COLUMNS,
    SweepRow,
    bits_per_tx,
    compute_metrics,
    monte_carlo_se,
    run_sweep,
    run_trial,
)
from .rac import RacTable, build_rac_table, rac_find, rac_row
from .transmitter import (
    TxOutput,
    encode,
    reflector_phases,
    sort_weights_asc,
    sort_weights_desc,
    superpose,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelMatrix",
    "Constellation",
    "CSV_COLUMNS",
    "DetectionResult",
    "MOD_NAMES",
    "MOD_ORDERS",
    "RacTable",
    "SasScheme",
    "SweepRow",
    "SystemConfig",
    "TxOutput",
    "bits_per_tx",
    "bits_to_int",
    "build_rac_table",
    "compute_metrics",
    "decompose_received",
    "encode",
    "int_to_bits",
    "mac_ml",
    "mac_ssd",
    "make_constellation",
    "ml_detect",
    "monte_carlo_se",
    "propagate",
    "quantize",
    "rac_candidates",
    "rac_find",
    "rac_row",
    "reflector_phases",
    "run_sweep",
    "run_trial",
    "sample_channel",
    "sas_detect",
    "sas_encode",
    "snr_aligned",
    "snr_unaligned",
    "sort_weights_asc",
    "sort_weights_desc",
    "superpose",
    "superposition_set",
    "ssd_detect",
    "trial_rng",
    "validate_config",
]
