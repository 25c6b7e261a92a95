"""Output checks applied to every sweep the benchmark runs.

Each check works from the paper's definitions (block length, the MAC model)
and from the workload's request, not from irsmas helpers, so a refactor of
the package cannot make a wrong row pass by changing both sides.
"""

import math

from workloads import MOD_NAMES, Workload, block_len, index_bits, mac_base


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def row_problems(row, w: Workload, snr_db: float, trials: int) -> list:
    """Every invariant the row breaks, as messages (empty when the row is good)."""
    f = w.fields
    n_bits = block_len(w)
    want = {
        "scheme": w.scheme,
        "detector": w.detector,
        "modulation": MOD_NAMES[f["mod_order"]],
        "n_reflectors": f["n_refl"],
        "snr_db": snr_db,
    }
    problems = [f"{k} is {getattr(row, k)!r}, expected {v!r}"
                for k, v in want.items() if getattr(row, k) != v]

    n = row.trials
    if w.error_budget is None:
        if n != trials:
            problems.append(f"trials is {n}, expected the fixed count {trials}")
    elif not 1 <= n <= trials:
        problems.append(f"trials {n} outside [1, {trials}]")
    elif n < trials and row.block_errors < w.error_budget:
        problems.append(f"stopped at {n} trials with {row.block_errors} block errors, "
                        f"below the budget {w.error_budget}")
    if row.total_bits != n * n_bits:
        problems.append(f"total_bits {row.total_bits} != trials * {n_bits}")
    if not 0 <= row.block_errors <= n:
        problems.append(f"block_errors {row.block_errors} outside [0, {n}]")
    if not row.block_errors <= row.bit_errors <= row.block_errors * n_bits:
        problems.append(f"bit_errors {row.bit_errors} inconsistent with "
                        f"{row.block_errors} block errors of {n_bits} bits")
    if n > 0:
        ber = row.bit_errors / (n * n_bits)
        bler = row.block_errors / n
        for name, got, exp in (("ber", row.ber, ber), ("bler", row.bler, bler),
                               ("asbt_perbit", row.asbt_perbit, n_bits * (1 - ber)),
                               ("asbt_block", row.asbt_block, n_bits * (1 - bler))):
            if not _close(got, exp):
                problems.append(f"{name} {got!r} != {exp!r} from the counts")
        problems += _mac_problems(row.mean_mac, w, n, n_bits)
    return problems


def _mac_problems(mean_mac: float, w: Workload, n: int, n_bits: int) -> list:
    """The MAC model: ml and the baselines bill 2^L hypotheses of one base
    cost each; ssd bills n_iters decodes plus (n_sel - 1) per ranked candidate."""
    f = w.fields
    base = mac_base(f)
    if w.detector == "ml":
        exp = 2**n_bits * base
        return [] if mean_mac == exp else [f"mean_mac {mean_mac!r} != model {exp}"]
    fixed = f["n_iters"] * base + 3 * f["n_rx"]
    extra = (mean_mac - fixed) * n  # (n_sel - 1) * candidates ranked, summed
    if f["n_sel"] == 1:
        return [] if extra == 0 else [f"mean_mac {mean_mac!r} != model {fixed}"]
    ranked = extra / (f["n_sel"] - 1)
    n_rac = 1 << index_bits(f)
    if abs(ranked - round(ranked)) > 1e-3 or not (
            n * min(f["n_iters"], n_rac) <= round(ranked) <= n * n_rac):
        return [f"mean_mac {mean_mac!r} implies {ranked!r} ranked candidates"]
    return []


def sweep_problems(rows, w: Workload, trials: int, reference=None) -> list:
    """One list of problems per grid point.  With a reference sweep, a point
    whose row differs from the reference's is a problem too."""
    grid = w.fields["snr_grid_db"]
    if len(rows) != len(grid):
        return [[f"sweep returned {len(rows)} rows for {len(grid)} points"]] * len(grid)
    out = []
    for i, (row, snr) in enumerate(zip(rows, grid)):
        problems = row_problems(row, w, snr, trials)
        # repr compares floats exactly and treats NaN as equal to itself
        if reference is not None and repr(row.as_dict()) != repr(reference[i].as_dict()):
            problems.append("row differs from the reference run of the same seed")
        out.append(problems)
    return out
