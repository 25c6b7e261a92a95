"""Count-equality gate: fixed sweeps must reproduce a recorded table of counts.

Every number a sweep emits follows from its counts (trials, bit errors,
block errors, total MACs).  The table below was recorded with the engine
of commit 83642da, and its 64-QAM and 16-QAM n_sel 3 rows with that of
45922b1, before the per-axis ML screen.  A change that reorders
floating-point work in the hot path (reflector phases, gains, distances)
may move a value in its last bits, and this gate shows whether any count
moved with it.  A change that is meant to move numbers regenerates the
table and says so:

    PYTHONPATH=src python tests/test_count_gate.py
"""

import math

import pytest

from irsmas.core import SystemConfig
from irsmas.harness import run_sweep

TRIALS = 517  # not a multiple of the engine's chunk size

# name: (scheme, detector, seed, config fields); every case runs one noisy
# point, where block errors are frequent enough that a moved decision would
# likely show, and one noiseless point.
CASES = {
    "mas-ssd-bpsk": ("mas", "ssd", 3, dict(snr_grid_db=(-16.0, math.inf))),
    "mas-ml-bpsk": ("mas", "ml", 4, dict(snr_grid_db=(-16.0, math.inf))),
    "mas-ssd-qam16": ("mas", "ssd", 5, dict(mod_order=16, alpha=(0.05, 0.95),
                                            snr_grid_db=(-8.0, math.inf))),
    "mas-ml-qam16": ("mas", "ml", 6, dict(mod_order=16, alpha=(0.05, 0.95),
                                          snr_grid_db=(-12.0, math.inf))),
    # n_refl 64 is not divisible by n_sel 3: one leftover reflector
    "mas-ssd-3sel": ("mas", "ssd", 7, dict(n_rx=8, n_sel=3, alpha=(0.05, 0.2, 0.75),
                                           snr_grid_db=(-12.0, math.inf))),
    "mas-ml-3sel": ("mas", "ml", 2**64 - 1, dict(n_rx=8, n_sel=3, alpha=(0.05, 0.2, 0.75),
                                                 snr_grid_db=(-12.0, math.inf))),
    "mas-ml-qam64": ("mas", "ml", 11, dict(mod_order=64, alpha=(0.01, 0.99),
                                          snr_grid_db=(-12.0, math.inf))),
    "mas-ml-qam16-3sel": ("mas", "ml", 12, dict(n_rx=8, n_sel=3, mod_order=16,
                                               alpha=(0.01, 0.1, 0.89),
                                               snr_grid_db=(-8.0, math.inf))),
    "sas-sm-qpsk": ("sas-sm", "ml", 9, dict(n_rx=16, n_sel=1, mod_order=4, alpha=(1.0,),
                                            snr_grid_db=(-28.0, math.inf))),
    "sas-ssk": ("sas-ssk", "ml", 10, dict(n_rx=8, n_sel=1, alpha=(1.0,),
                                          snr_grid_db=(-30.0, math.inf))),
}

# name: one (trials, bit_errors, block_errors, total MACs) per SNR point
EXPECTED = {
    'mas-ssd-bpsk': [(517, 217, 59, 25929915), (517, 0, 0, 25929928)],
    'mas-ml-bpsk': [(517, 132, 33, 828920576), (517, 0, 0, 828920576)],
    'mas-ssd-qam16': [(517, 308, 197, 25929910), (517, 0, 0, 25929930)],
    'mas-ml-qam16': [(517, 300, 200, 53050916864), (517, 0, 0, 53050916864)],
    'mas-ssd-3sel': [(517, 410, 142, 17294648), (517, 22, 5, 17294692)],
    'mas-ml-3sel': [(517, 301, 84, 552569600), (517, 0, 0, 552569600)],
    'mas-ml-qam64': [(517, 1279, 476, 848814669824), (517, 0, 0, 848814669824)],
    'mas-ml-qam16-3sel': [(517, 1370, 438, 282915635200), (517, 0, 0, 282915635200)],
    'sas-sm-qpsk': [(517, 227, 71, 276317888), (517, 0, 0, 276317888)],
    'sas-ssk': [(517, 108, 65, 17267800), (517, 0, 0, 17267800)],
}


def sweep_counts(name):
    scheme, detector, seed, fields = CASES[name]
    cfg = SystemConfig(**fields, n_trials=TRIALS, seed=seed, error_budget=None)
    rows = run_sweep(cfg, scheme, detector, workers=1)
    return [(r.trials, r.bit_errors, r.block_errors, round(r.mean_mac * r.trials))
            for r in rows]


@pytest.mark.parametrize("name", sorted(CASES))
def test_counts_match_recorded_table(name):
    assert sweep_counts(name) == EXPECTED[name]


if __name__ == "__main__":
    print("EXPECTED = {")
    for name in CASES:
        print(f"    {name!r}: {sweep_counts(name)},")
    print("}")
