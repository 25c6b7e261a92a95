"""Command-line front-end tests: parsing, precedence, emission, exit codes."""

import csv
import dataclasses
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest

import irsmas.detection

from irsmas.cli import (
    SNR_MAX_POINTS,
    RunSpec,
    emit_results,
    main,
    parse_run_spec,
    parse_snr,
    read_config_file,
)
from irsmas.core import MOD_NAMES, SystemConfig
from irsmas.harness import CSV_COLUMNS, SweepRow, run_sweep, run_trial, scheme_config


def make_rows():
    common = dict(scheme="mas", detector="ssd", modulation="bpsk",
                  n_reflectors=64, trials=100, total_bits=800)
    return [
        SweepRow(snr_db=-14.0, bit_errors=12, ber=0.015, block_errors=4,
                 bler=0.04, asbt_perbit=7.88, asbt_block=7.68,
                 mean_mac=50154.6, **common),
        SweepRow(snr_db=float("inf"), bit_errors=0, ber=0.0, block_errors=0,
                 bler=0.0, asbt_perbit=8.0, asbt_block=8.0,
                 mean_mac=50154.2, **common),
    ]


class TestParseSnr:
    def test_range_form(self):
        assert parse_snr("-20:2:-8") == tuple(float(v) for v in range(-20, -6, 2))

    def test_range_endpoint_inclusive(self):
        assert parse_snr("0:2.5:5") == (0.0, 2.5, 5.0)

    def test_list_form(self):
        assert parse_snr("-14,-12,inf") == (-14.0, -12.0, float("inf"))

    def test_single_value(self):
        assert parse_snr("inf") == (float("inf"),)
        assert parse_snr("-10") == (-10.0,)

    @pytest.mark.parametrize("text", ["nan", "-inf", "-14,nan", "-inf:2:-8", "0:inf:5", "0:1:nan"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValueError, match="snr"):
            parse_snr(text)

    def test_bad_forms(self):
        with pytest.raises(ValueError):
            parse_snr("0:0:5")
        with pytest.raises(ValueError):
            parse_snr("5:1:0")
        with pytest.raises(ValueError):
            parse_snr("abc")

    def test_range_at_point_cap(self):
        assert len(parse_snr("0:1:999")) == SNR_MAX_POINTS

    @pytest.mark.parametrize("text", ["0:1:1000", "0:1e-4:1", "0:1e-6:1", "0:5e-324:1"])
    def test_oversized_range_rejected_before_building(self, text):
        # a tiny step is refused from the point count; the 10**6 points of
        # "0:1e-6:1" would take tens of MB if the grid were built first
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"snr: .* more than {SNR_MAX_POINTS}"):
                parse_snr(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestConfigFile:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# sweep setup\n"
            "nr=12\n"
            "trials = 5000   # inline comment\n"
            "\n"
            "snr=-14:2:-12\n"
            "n_reflectors=64\n"  # underscores accepted as key spelling
        )
        values = read_config_file(str(path))
        assert values == {"nr": "12", "trials": "5000",
                          "snr": "-14:2:-12", "n-reflectors": "64"}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("antennas=12\n")
        with pytest.raises(ValueError, match="unknown key"):
            read_config_file(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ValueError, match="key=value"):
            read_config_file(str(path))

    def test_nested_config_rejected(self, tmp_path, capsys):
        # a file names no other file: a config= line is an error, not ignored
        path = tmp_path / "outer.cfg"
        path.write_text("config=/nonexistent.cfg\ntrials=10\nsnr=inf\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(path)])
        assert exc.value.code == 2
        assert f"{path}:1: unknown key 'config'" in capsys.readouterr().err


class TestParseRunSpec:
    def test_headline_configuration(self):
        spec = parse_run_spec(
            "--nr 12 --np 2 --n-reflectors 64 --mod bpsk "
            "--alpha 0.2,0.8 --nc 6 --iters 8".split()
        )
        cfg = spec.cfg
        assert (cfg.n_rx, cfg.n_sel, cfg.n_refl, cfg.mod_order) == (12, 2, 64, 2)
        assert cfg.alpha == (0.2, 0.8)
        assert (cfg.n_cand_antennas, cfg.n_iters) == (6, 8)
        assert (spec.scheme, spec.detector) == ("mas", "ssd")

    def test_equal_power_split_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_run_spec("--alpha 0.5,0.5".split())
        assert exc.value.code != 0

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trials=100000\nseed=9\n")
        spec = parse_run_spec(["--config", str(path), "--trials", "1000"])
        assert spec.cfg.n_trials == 1000
        assert spec.cfg.seed == 9  # file value survives where no flag given

    def test_file_only(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("scheme=sas-ssk\nnr=16\nsnr=inf\ntrials=10\nformat=json\n")
        spec = parse_run_spec(["--config", str(path)])
        assert spec.scheme == "sas-ssk"
        assert spec.detector == "ml"
        assert spec.cfg.n_rx == 16 and spec.cfg.n_sel == 1
        assert spec.out_format == "json"

    def test_negative_snr_values_accepted(self):
        spec = parse_run_spec(["--snr", "-20:2:-8", "--trials", "10"])
        assert spec.cfg.snr_grid_db == tuple(float(v) for v in range(-20, -6, 2))
        spec = parse_run_spec(["--snr", "-14,-12"])
        assert spec.cfg.snr_grid_db == (-14.0, -12.0)

    def test_unknown_flag_exits(self):
        with pytest.raises(SystemExit):
            parse_run_spec(["--antennas", "4"])

    def test_bad_mod_in_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("mod=pam8\n")
        with pytest.raises(SystemExit):
            parse_run_spec(["--config", str(path)])

    @pytest.mark.parametrize("argv", [["--snr", "nan"], ["--snr=-inf"], ["--snr", "-14,nan"]])
    def test_non_finite_snr_exits(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_run_spec(argv)
        assert exc.value.code != 0
        assert "snr" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", ["--snr=-7000", "--detector ml --snr=-6130",
                                      "--scheme sas-sm --nr 16 --snr=-3100",
                                      "--snr=-1001:1:-999"])
    def test_snr_below_floor_exits(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_run_spec(argv.split() + ["--trials", "20"])
        assert exc.value.code != 0
        assert "snr" in capsys.readouterr().err

    def test_oversized_snr_range_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_run_spec(["--snr", "0:1e-4:1", "--trials", "20"])
        assert exc.value.code != 0
        assert "snr" in capsys.readouterr().err

    def test_non_finite_snr_in_file_exits(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("scheme=sas-sm\nnr=16\nsnr=nan\n")
        with pytest.raises(SystemExit):
            parse_run_spec(["--config", str(path)])
        assert "snr" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--np", "5"), ("--alpha", "0.3,0.7"),
                                            ("--nc", "4"), ("--iters", "3")])
    @pytest.mark.parametrize("scheme", ["sas-sm", "sas-ssk"])
    def test_mas_only_flag_rejected_on_baseline(self, scheme, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_run_spec(["--scheme", scheme, "--nr", "16", flag, value])
        assert exc.value.code != 0
        assert flag.lstrip("-") + ":" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["np=2", "alpha=0.3,0.7", "nc=4", "iters=3"])
    def test_mas_only_key_in_file_rejected_on_baseline(self, tmp_path, line, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(f"scheme=sas-sm\nnr=16\n{line}\n")
        with pytest.raises(SystemExit):
            parse_run_spec(["--config", str(path)])
        assert line.split("=")[0] + ":" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,field", [
        ("--scheme sas-sm --nr 16 --n-reflectors 0", "n_refl:"),
        ("--scheme sas-sm --nr 16 --trials 0", "n_trials:"),
        ("--scheme sas-ssk --nr 16 --seed -1", "seed:"),
        ("--scheme sas-ssk --nr 12", "n_rx:"),
        ("--trials 0", "n_trials:"),
        ("--trials 18446744073709551617", "n_trials:"),
        ("--alpha=nan,nan", "alpha:"),
        ("--alpha=0.2,x", "alpha:"),
        ("--alpha 0.2,x", "alpha:"),
        ("--snr -20:x:-8", "snr:"),
    ])
    def test_invalid_config_exits_naming_field(self, argv, field, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_run_spec(argv.split())
        assert exc.value.code != 0
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("line,field", [
        ("nr=abc", "nr:"),
        ("seed=1.5", "seed:"),
        ("alpha=0.2,x", "alpha:"),
        ("snr=-20:x:-8", "snr:"),
        ("snr=-20:2", "snr:"),
        ("trials=", "trials:"),
    ])
    def test_invalid_config_file_value_exits_naming_key(self, tmp_path, line, field, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            parse_run_spec(["--config", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {field} " in err  # named once, at the start of the message

    @pytest.mark.parametrize("key,value,field,want,context", [
        ("nr", "16", "n_rx", 16, []),
        ("np", "3", "n_sel", 3, ["--alpha", "0.05,0.2,0.75"]),
        ("n-reflectors", "32", "n_refl", 32, []),
        ("mod", "qpsk", "mod_order", 4, []),
        ("alpha", "0.1,0.9", "alpha", (0.1, 0.9), []),
        ("nc", "5", "n_cand_antennas", 5, []),
        ("iters", "4", "n_iters", 4, []),
        ("snr", "-14:2:-10", "snr_grid_db", (-14.0, -12.0, -10.0), []),
        ("trials", "77", "n_trials", 77, []),
        ("seed", "9", "seed", 9, []),
    ])
    def test_flag_and_file_key_give_same_spec(self, tmp_path, key, value, field, want, context):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={value}\n")
        from_flag = parse_run_spec([f"--{key}", value] + context)
        from_file = parse_run_spec(["--config", str(path)] + context)
        assert from_flag == from_file
        assert getattr(from_flag.cfg, field) == want != getattr(SystemConfig(), field)

    @pytest.mark.parametrize("scheme", ["sas-sm", "sas-ssk"])
    def test_baseline_with_ssd_exits_naming_detector(self, tmp_path, scheme, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(f"scheme={scheme}\ndetector=ssd\n")
        for argv in (["--scheme", scheme, "--nr", "16", "--detector", "ssd"],
                     ["--config", str(path), "--nr", "16"]):
            with pytest.raises(SystemExit) as exc:
                parse_run_spec(argv)
            assert exc.value.code == 2  # a parse error, before any sweep
            assert "detector:" in capsys.readouterr().err

    def test_qpsk_capacity_resolution(self):
        spec = parse_run_spec("--mod qpsk".split())
        assert spec.cfg.block_len == 10


def cli_argv(cfg, scheme, detector):
    """Flags that ask the CLI for ``cfg`` under ``scheme`` and ``detector``;
    a baseline gets only the keys it reads."""
    argv = ["--scheme", scheme, "--detector", detector, "--nr", str(cfg.n_rx),
            "--n-reflectors", str(cfg.n_refl), "--mod", MOD_NAMES[cfg.mod_order],
            "--snr", ",".join(f"{v:g}" for v in cfg.snr_grid_db),
            "--trials", str(cfg.n_trials), "--seed", str(cfg.seed)]
    if scheme == "mas":
        argv += ["--np", str(cfg.n_sel), "--alpha", ",".join(map(repr, cfg.alpha)),
                 "--nc", str(cfg.n_cand_antennas), "--iters", str(cfg.n_iters)]
    return argv


GATE_CFG = SystemConfig(n_trials=20, snr_grid_db=(float("inf"),))


@pytest.mark.parametrize("scheme,detector,fields,rejected", [
    # at and one short of each search's 2^bits hypotheses: C M^n_sel = 64 * 2^2
    # for mas, 16 targets * 4 symbols for sas-sm, 8 targets for sas-ssk;
    # "guard" sets detection.ML_GUARD for the case
    ("mas", "ml", {"guard": 2**8}, None),
    ("mas", "ml", {"guard": 2**8 - 1}, "ml_guard:"),
    ("sas-sm", "ml", {"n_rx": 16, "mod_order": 4, "guard": 2**6}, None),
    ("sas-sm", "ml", {"n_rx": 16, "mod_order": 4, "guard": 2**6 - 1}, "ml_guard:"),
    ("sas-ssk", "ml", {"n_rx": 8, "guard": 2**3}, None),
    ("sas-ssk", "ml", {"n_rx": 8, "guard": 2**3 - 1}, "ml_guard:"),
    ("mas", "ssd", {}, None),
    ("sas-sm", "ssd", {"n_rx": 16}, "detector:"),
    ("sas-ssk", "ml", {"n_rx": 12}, "n_rx:"),
    ("mas", "ssd", {"alpha": (0.1, 0.2, 0.7)}, "alpha:"),
])
def test_run_trial_sweep_and_cli_share_one_gate(monkeypatch, capsys, scheme, detector, fields,
                                                rejected):
    fields = dict(fields)
    if "guard" in fields:
        monkeypatch.setattr(irsmas.detection, "ML_GUARD", fields.pop("guard"))
    cfg = dataclasses.replace(GATE_CFG, **fields)
    errors = []
    for run in (lambda: run_trial(cfg, scheme, detector, 0),
                lambda: run_sweep(cfg, scheme, detector, workers=1)):
        try:
            run()
            errors.append(None)
        except ValueError as exc:
            errors.append(str(exc))
    try:
        spec = parse_run_spec(cli_argv(cfg, scheme, detector))
        errors.append(None)
    except SystemExit as exc:
        assert exc.code == 2
        errors.append(capsys.readouterr().err)
    if rejected is None:
        assert errors == [None] * 3
        assert spec.cfg == scheme_config(cfg, scheme, detector)
    else:
        assert all(err is not None and rejected in err for err in errors), errors


class TestEmit:
    def test_csv_shape_and_columns(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_results(make_rows(), "csv", str(out))
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        parsed = list(csv.DictReader(lines))
        assert float(parsed[0]["ber"]) == 0.015
        assert float(parsed[1]["snr_db"]) == float("inf")

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "r.json"
        rows = make_rows()
        emit_results(rows, "json", str(out), config=SystemConfig())
        doc = json.loads(out.read_text())
        assert doc["seed"] == 0
        assert doc["config"]["n_rx"] == 12
        for row, rec in zip(rows, doc["rows"]):
            assert rec == row.as_dict()

    def test_atomic_overwrite(self, tmp_path):
        out = tmp_path / "r.csv"
        out.write_text("stale")
        emit_results(make_rows(), "csv", str(out))
        assert "stale" not in out.read_text()
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_gets_the_mode_open_gives(self, tmp_path, umask):
        # as `python -m irsmas --trials 10 --snr inf --out r.csv` writes it
        out, reference = tmp_path / "r.csv", tmp_path / "reference.csv"
        previous = os.umask(umask)
        try:
            assert main(["--trials", "10", "--snr", "inf", "--out", str(out)]) == 0
            with open(reference, "w"):
                pass
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)

    @pytest.mark.parametrize("mode", [0o644, 0o640, 0o664])
    def test_existing_file_keeps_its_mode(self, tmp_path, mode):
        out = tmp_path / "r.csv"
        out.write_text("stale")
        out.chmod(mode)
        emit_results(make_rows(), "csv", str(out))
        assert "stale" not in out.read_text()
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_rerun_identical(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_results(make_rows(), "csv", str(out))
        first = out.read_text()
        emit_results(make_rows(), "csv", str(out))
        assert out.read_text() == first  # overwritten, not appended

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="rows"):
            emit_results([], "csv", str(tmp_path / "r.csv"))

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            emit_results(make_rows(), "csv", "/nonexistent-dir/r.csv")


class TestRunMain:
    def run(self, argv, tmp_path, name="out.csv"):
        out = tmp_path / name
        code = main(argv + ["--out", str(out)])
        return code, out

    def test_noiseless_summary_shows_zero_ber(self, tmp_path, capsys):
        code, out = self.run(
            "--trials 200 --snr inf".split(), tmp_path
        )
        assert code == 0 and out.exists()
        captured = capsys.readouterr().out
        assert "ber=0 " in captured

    def test_sas_ssk_summary_shows_capacity(self, tmp_path, capsys):
        code, out = self.run(
            "--scheme sas-ssk --nr 16 --trials 20 --snr inf".split(), tmp_path
        )
        assert code == 0
        assert "L=4" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", ["--snr=-1000", "--detector ml --snr=-1000",
                                      "--scheme sas-sm --nr 16 --snr=-1000"])
    def test_snr_floor_emits_row(self, argv, tmp_path):
        code, out = self.run(argv.split() + ["--trials", "20"], tmp_path)
        assert code == 0
        with open(out) as fh:
            records = list(csv.DictReader(fh))
        assert [float(r["snr_db"]) for r in records] == [-1000.0]
        assert int(records[0]["trials"]) == 20

    def test_oversized_ml_search_fails_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_run_spec(
                "--nr 30 --np 3 --mod qam16 --alpha 0.1,0.3,0.6 --detector ml "
                "--trials 10 --snr inf".split()
            )
        assert exc.value.code == 2  # a parse error, before any sweep
        assert "ml_guard:" in capsys.readouterr().err

    def test_csv_written_matches_sweep(self, tmp_path):
        code, out = self.run("--trials 100 --snr inf,-12".split(), tmp_path)
        assert code == 0
        with open(out) as fh:
            records = list(csv.DictReader(fh))
        assert len(records) == 2
        assert records[0]["scheme"] == "mas"
        assert int(records[0]["trials"]) == 100

    def test_unwritable_out_nonzero_exit(self, capsys):
        code = main("--trials 10 --snr inf --out /nonexistent-dir/x.csv".split())
        assert code != 0
        assert capsys.readouterr().err != ""


def test_module_entry_point():
    # `python -m irsmas --help` exits 0 and mentions the flags
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "irsmas", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for flag in ("--scheme", "--detector", "--snr", "--format"):
        assert flag in proc.stdout
