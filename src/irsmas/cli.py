"""Command-line front end: flag/config-file parsing, sweep orchestration,
CSV/JSON emission.

Config files are line-oriented ``key=value`` with the same keys as the
flags (``#`` starts a comment); flags take precedence over file values.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import stat
import sys
import tempfile

import numpy as np

from .core import MOD_ORDERS, SNR_FLOOR_DB, SystemConfig, snr_value_ok
from .baselines import PINS, SCHEMES
from .harness import CSV_COLUMNS, DETECTORS, check_run, run_sweep, scheme_config

# most points a "start:step:stop" SNR range may expand to
SNR_MAX_POINTS = 1000
# keys that only the mas scheme reads; the single-antenna baselines pin or
# ignore them, so setting one there is an error
_MAS_ONLY_KEYS = ("np", "alpha", "nc", "iters")


@dataclasses.dataclass
class RunSpec:
    """Fully resolved run request; cfg already passed ``scheme_config``."""

    cfg: SystemConfig
    scheme: str = "mas"
    detector: str = "ssd"
    out_path: str | None = None
    out_format: str = "csv"


def parse_alpha(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(","))


def parse_snr(text: str) -> tuple:
    """SNR grid in dB: either "start:step:stop" (stop inclusive) or a comma list.

    Every value must be ``inf`` (noiseless) or finite and at least
    SNR_FLOOR_DB; range bounds and step must be finite, and a range may
    hold at most SNR_MAX_POINTS points (counted before any is built).
    """
    if ":" in text:
        start, step, stop = (float(tok) for tok in text.split(":"))
        if not all(math.isfinite(v) for v in (start, step, stop)):
            raise ValueError(f"snr: range bounds and step must be finite, got {text!r}")
        if step == 0:
            raise ValueError("snr: step must be nonzero")
        n = np.floor((stop - start) / step + 1e-9) + 1  # inf for a tiny step
        if n < 1:
            raise ValueError(f"snr: empty range {text!r}")
        if n > SNR_MAX_POINTS:
            raise ValueError(f"snr: range {text!r} has {n:g} points, "
                             f"more than {SNR_MAX_POINTS}")
        values = tuple(start + i * step for i in range(int(n)))
    else:
        values = tuple(float(tok) for tok in text.split(","))
    bad = [f"{v:g}" for v in values if not snr_value_ok(v)]
    if bad:
        raise ValueError(f"snr: values must be inf or finite and at least {SNR_FLOOR_DB:g} dB, "
                         f"got {','.join(bad)}")
    return values


def parse_mod(text: str) -> int:
    if text not in MOD_ORDERS:
        raise ValueError(f"unknown modulation {text!r}")
    return MOD_ORDERS[text]


# the SystemConfig field that each key (flag spelling) sets, and the parser
# of its flag or config-file text
_FIELDS = {
    "nr": ("n_rx", int),
    "np": ("n_sel", int),
    "n-reflectors": ("n_refl", int),
    "mod": ("mod_order", parse_mod),
    "alpha": ("alpha", parse_alpha),
    "nc": ("n_cand_antennas", int),
    "iters": ("n_iters", int),
    "snr": ("snr_grid_db", parse_snr),
    "trials": ("n_trials", int),
    "seed": ("seed", int),
}
# config-file keys, normalized to the flag spellings; a file names no other file
_KEYS = ("scheme", "detector", *_FIELDS, "out", "format")


def read_config_file(path: str) -> dict:
    """Parse a key=value config file; '#' comments and blank lines are skipped."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("_", "-")
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsmas",
        description="Monte Carlo BER/throughput/complexity sweeps for "
                    "reflector-aided antenna-selection modulation",
    )
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--scheme", choices=SCHEMES)
    parser.add_argument("--detector", choices=DETECTORS)
    parser.add_argument("--nr", help="receive antennas")
    parser.add_argument("--np", help="selected antennas per transmission")
    parser.add_argument("--n-reflectors")
    parser.add_argument("--mod", choices=sorted(MOD_ORDERS, key=MOD_ORDERS.get))
    parser.add_argument("--alpha", metavar="a1,a2,...", help="power ratios, ascending")
    parser.add_argument("--nc", help="antennas kept by the candidate sorter")
    parser.add_argument("--iters", help="candidate rows the SSD decodes")
    parser.add_argument("--snr", metavar="start:step:stop", help="SNR grid in dB")
    parser.add_argument("--trials", help="transmissions per SNR point")
    parser.add_argument("--seed")
    parser.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"])
    return parser


def _merge_negative_values(argv):
    """Join flags with values that can start with '-' (e.g. --snr -20:2:-8)
    into single --flag=value tokens so argparse does not read them as options."""
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--snr", "--alpha") and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def parse_run_spec(argv=None) -> RunSpec:
    """Resolve flags over config-file values into a validated RunSpec."""
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    file_values = {}
    if args.config:
        try:
            file_values = read_config_file(args.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))

    def resolve(key, flag_value):
        return flag_value if flag_value is not None else file_values.get(key)

    try:
        scheme = resolve("scheme", args.scheme) or "mas"
        detector = resolve("detector", args.detector) or ("ssd" if scheme == "mas" else "ml")
        check_run(scheme, detector)
        if scheme in PINS:
            given = [key for key in _MAS_ONLY_KEYS
                     if resolve(key, getattr(args, key)) is not None]
            if given:
                raise ValueError(
                    f"{given[0]}: only applies to --scheme mas, not {scheme} "
                    f"(got {', '.join('--' + key for key in given)})")
        fields = {}
        for key, (name, parse) in _FIELDS.items():
            raw = resolve(key, getattr(args, key.replace("-", "_")))
            try:
                if raw is not None:
                    fields[name] = parse(raw)
            except ValueError as exc:  # named once: parse_snr's own errors name snr
                prefix = "" if str(exc).startswith(f"{key}:") else f"{key}: "
                raise ValueError(f"{prefix}{exc}") from None
        cfg = scheme_config(SystemConfig(**fields), scheme, detector)
    except ValueError as exc:
        parser.error(str(exc))

    out_path = resolve("out", args.out)
    if out_path is not None and (not out_path or os.path.isdir(out_path) or
                                 not os.path.isdir(os.path.dirname(os.path.abspath(out_path)))):
        parser.error(f"out: expected a file in an existing directory, got {out_path!r}")
    out_format = resolve("format", args.format) or "csv"
    if out_format not in ("csv", "json"):
        parser.error(f"format: expected csv or json, got {out_format!r}")
    return RunSpec(cfg=cfg, scheme=scheme, detector=detector,
                   out_path=out_path, out_format=out_format)


def _rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v
                         for v in row.as_dict().values()])
    return buf.getvalue()


def _rows_to_json(rows, config=None) -> str:
    def snr(value):  # strict JSON has no infinity: a noiseless point is "inf", as --snr takes it
        return "inf" if value == math.inf else value

    doc = {"rows": [{**row.as_dict(), "snr_db": snr(row.snr_db)} for row in rows]}
    if config is not None:
        doc["config"] = dataclasses.asdict(config)
        doc["config"]["snr_grid_db"] = [snr(v) for v in config.snr_grid_db]
        doc["seed"] = config.seed
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _file_mode(path) -> int:
    """The mode ``open(path, "w")`` leaves: an existing file's own, else
    0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        return 0o666 & ~umask


def emit_results(rows, out_format: str, path, config=None) -> None:
    """Write sweep rows as CSV or JSON, atomically when a path is given."""
    rows = list(rows)
    if not rows:
        raise ValueError("rows: nothing to emit")
    if out_format == "csv":
        text = _rows_to_csv(rows)
    elif out_format == "json":
        text = _rows_to_json(rows, config)
    else:
        raise ValueError(f"format: expected csv or json, got {out_format!r}")
    if path is None:
        sys.stdout.write(text)
        return
    tmp = None
    try:
        mode = _file_mode(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, mode)  # mkstemp's file is 0600
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # named for the path, not the temporary file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def run_main(spec: RunSpec) -> int:
    """Run the sweep described by spec, print per-point summaries (to stderr
    when JSON goes to stdout), emit results."""
    summaries = sys.stderr if (spec.out_format, spec.out_path) == ("json", None) else sys.stdout
    try:
        rows = run_sweep(spec.cfg, spec.scheme, spec.detector)
        for row in rows:
            print(f"{row.scheme} {row.detector} L={spec.cfg.block_len} "
                  f"snr_db={row.snr_db:g} trials={row.trials} "
                  f"ber={row.ber:.6g} bler={row.bler:.6g} "
                  f"asbt={row.asbt_perbit:.6g} mean_mac={row.mean_mac:.6g}", file=summaries)
        emit_results(rows, spec.out_format, spec.out_path, config=spec.cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    return run_main(parse_run_spec(argv))


if __name__ == "__main__":
    sys.exit(main())
