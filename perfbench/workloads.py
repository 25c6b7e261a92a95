"""The benchmark's workloads: which sweep each one runs, and why it was chosen.

A workload is a short sweep of the irsmas simulator, run under ``sweeps``
seeds derived from the run's seed (``sweep_seed``) and then repeated in the
same order.  The seed keys every trial's random stream, so the run's seed
fixes every bit, channel and noise draw, and therefore every row.  Short
sweeps give many timing samples; pooling the rows of the distinct seeds gives
enough trials for a steady bit error rate.
"""

import os
from dataclasses import dataclass, field
from math import comb

# The headline operating point of the paper (12 rx, select 2, 64 reflectors,
# BPSK, alpha 0.2/0.8, nc 6, 8 iterations).
HEADLINE = {
    "n_rx": 12, "n_sel": 2, "n_refl": 64, "mod_order": 2, "alpha": (0.2, 0.8),
    "n_cand_antennas": 6, "n_iters": 8,
}
# Every other point of the package's default grid (-20:2:-8 dB).
GRID = (-20.0, -16.0, -12.0, -8.0)
MOD_NAMES = {2: "bpsk", 4: "qpsk", 16: "qam16", 64: "qam64"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scheme: str
    detector: str
    fields: dict          # SystemConfig fields other than trials and seed
    trials: int           # trials per point (a cap when error_budget is set)
    sweeps: int = 1       # distinct seeds whose rows are pooled for ber
    error_budget: int | None = None
    parallel: bool = False  # one worker per available core instead of one
    # Configuration of the untimed noiseless check, which uses the ml search.
    noiseless: dict = field(default_factory=lambda: dict(HEADLINE))
    noiseless_trials: int = 100

    @property
    def workers(self) -> int:
        return len(os.sched_getaffinity(0)) if self.parallel else 1


def sweep_seed(seed: int, k: int) -> int:
    """Seed of the workload's k-th distinct sweep in a run with ``seed``."""
    return (seed << 16) | k


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mas-ssd-bpsk",
        why="headline config with ssd at -14 dB: the ssd candidate loop is ~60% "
            "of a trial and the ml search is not run",
        scheme="mas", detector="ssd",
        fields={**HEADLINE, "snr_grid_db": (-14.0,)},
        trials=400,
        sweeps=40,
    ),
    Workload(
        name="mas-ml-qam16",
        why="headline geometry at 16-QAM with ml at -12 dB: the 16,384-hypothesis "
            "distance search dominates and no ssd code runs",
        scheme="mas", detector="ml",
        fields={**HEADLINE, "mod_order": 16, "alpha": (0.05, 0.95),
                "snr_grid_db": (-12.0,)},
        trials=60,
        sweeps=50,
        noiseless={**HEADLINE, "mod_order": 16, "alpha": (0.05, 0.95)},
        noiseless_trials=40,
    ),
    Workload(
        name="sas-sm-16rx",
        why="sas-sm baseline, 16 rx, 64 reflectors at -28 dB: exercises baselines "
            "(17 reflector_phases calls a trial) and bypasses detection and rac",
        scheme="sas-sm", detector="ml",
        fields={"n_rx": 16, "n_sel": 1, "n_refl": 64, "mod_order": 2,
                "alpha": (1.0,), "snr_grid_db": (-28.0,)},
        trials=400,
        sweeps=40,
        noiseless={"n_rx": 16, "n_sel": 1, "n_refl": 64, "mod_order": 2,
                   "alpha": (1.0,)},
        noiseless_trials=200,
    ),
    Workload(
        name="grid-ssd-parallel",
        why="headline ssd over -20:4:-8 dB, error budget 200, all cores: the "
            "only workload running a Pool per point, early stop and discarded blocks",
        scheme="mas", detector="ssd",
        fields={**HEADLINE, "snr_grid_db": GRID},
        trials=2000,
        sweeps=3,
        error_budget=200,
        parallel=True,
    ),
)}


def index_bits(fields: dict) -> int:
    """Bits carried by the antenna-combination index: floor(log2(C(n_rx, n_sel)))."""
    return comb(fields["n_rx"], fields["n_sel"]).bit_length() - 1


def block_len(w: Workload) -> int:
    """Bits per transmission, from the paper's definitions (not from irsmas)."""
    f = w.fields
    bits_per_sym = f["mod_order"].bit_length() - 1
    if w.scheme == "mas":
        return index_bits(f) + f["n_sel"] * bits_per_sym
    return (f["n_rx"].bit_length() - 1) + bits_per_sym


def mac_base(fields: dict) -> int:
    """Per-hypothesis MAC cost of the paper's complexity model."""
    return 8 * fields["n_rx"] * fields["n_refl"] + 10 * fields["n_rx"] - 1


def cli_args(w: Workload, seed: int, trials: int) -> list:
    """The irsmas command-line flags that describe the workload's sweep."""
    f = w.fields
    args = ["--scheme", w.scheme, "--detector", w.detector,
            "--nr", str(f["n_rx"]), "--n-reflectors", str(f["n_refl"]),
            "--mod", MOD_NAMES[f["mod_order"]],
            "--snr=" + ",".join(repr(s) for s in f["snr_grid_db"]),
            "--trials", str(trials), "--seed", str(seed)]
    if w.scheme == "mas":
        args += ["--np", str(f["n_sel"]),
                 "--alpha=" + ",".join(repr(a) for a in f["alpha"]),
                 "--nc", str(f["n_cand_antennas"]), "--iters", str(f["n_iters"])]
    return args
