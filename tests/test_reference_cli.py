"""Reference command-line runs: fixed ``python -m irsmas`` commands must print
exactly the recorded bytes, at one worker and at two.

The commands cover every scheme and detector, n_sel 1 to 4, BPSK to 64-QAM,
reflector counts that n_sel does not divide, noiseless points and several
points a sweep.  Their stdout (the per-point summaries and the CSV) depends
on every count and every formatted value, so the table shows whether a
change moved any output byte.  The md5s are those that BENCH_pr18.json
records for fresh ``python -m irsmas`` processes, stdout piped to md5sum;
the commands run in process here, through ``cli.main``.  A change that is
meant to move numbers regenerates the table and says so:

    PYTHONPATH=src python tests/test_reference_cli.py
"""

import hashlib
import io
import os
from contextlib import redirect_stdout

import pytest

from irsmas.cli import main

# name: (command-line arguments, md5 of the stdout they print)
COMMANDS = {
    "headline-ssd": ("--trials 1500 --seed 7 --snr -16,-10",
                     "29155a148744441ba9ae6b6cb070f790"),
    "ml-qam16": ("--detector ml --mod qam16 --alpha 0.05,0.95 --trials 300 --seed 3 "
                 "--snr -12,inf", "40d88b100575504c2a2a4773727c777a"),
    "sas-sm": ("--scheme sas-sm --nr 16 --trials 800 --seed 5 --snr -28",
               "5d3c9eef4851539da998761b13821087"),
    "sas-ssk": ("--scheme sas-ssk --nr 8 --trials 800 --seed 5 --snr -30",
                "df965849482ce64a75045be96e3c3b50"),
    "ml-3sel": ("--detector ml --nr 8 --np 3 --alpha 0.05,0.2,0.75 --trials 600 --seed 2 "
                "--snr -12,inf", "73c031be85f0fb620587b974133e8b55"),
    "sas-sm-bpsk": ("--scheme sas-sm --nr 16 --mod bpsk --trials 1500 --seed 11 "
                    "--snr -32,-28,inf", "6eb98bf7f1e6fd69d8c135162a0374c4"),
    "sas-sm-qpsk": ("--scheme sas-sm --nr 16 --mod qpsk --trials 1500 --seed 12 --snr -30,-26",
                    "7e42e880ff3d0b352416e33cf01ede1a"),
    "sas-sm-qam16": ("--scheme sas-sm --nr 32 --mod qam16 --trials 1500 --seed 13 "
                     "--snr -26,-22", "faa5172a54df1b8643ea9a75271c9a91"),
    "sas-sm-qam64": ("--scheme sas-sm --nr 4 --mod qam64 --n-reflectors 37 --trials 1500 "
                     "--seed 14 --snr -12,-8,inf", "e03acd4768f965c1f599d15f9e549c48"),
    "sas-ssk-3pt": ("--scheme sas-ssk --nr 8 --trials 1500 --seed 15 --snr -36,-32,inf",
                    "6fd6fcc7466c9c41e0692d0dd854dc13"),
    "ssd-1sel": ("--detector ssd --nr 8 --np 1 --alpha 1.0 --nc 4 --iters 3 --trials 1200 "
                 "--seed 4 --snr -30,-26,inf", "700cbfaca9dfa0d6fc25c4c3e461fc62"),
    "ml-1sel": ("--detector ml --nr 6 --np 1 --alpha 1.0 --mod qpsk --trials 1200 --seed 4 "
                "--snr -30,-26,inf", "3aee1e75e5e1cc0fd31a10af97be519f"),
    "ssd-grid": ("--detector ssd --trials 2500 --seed 9 --snr -20,-16,-12,-8",
                 "cca282406259abf80ad263341ab1aad1"),
    "ssd-4sel": ("--detector ssd --nr 16 --np 4 --alpha 0.02,0.08,0.25,0.65 --nc 16 "
                 "--trials 1200 --seed 3 --snr -20,-14,inf", "8a2d3575a143de572557bcadebe084ef"),
    "ssd-3sel-qam64": ("--detector ssd --nr 12 --np 3 --mod qam64 --alpha 0.001,0.02,0.979 "
                       "--n-reflectors 67 --nc 12 --trials 600 --seed 3 --snr -10,0,inf",
                       "59f8d3b367cab7a0214e3febe4e52329"),
    "ssd-qpsk-65": ("--detector ssd --mod qpsk --n-reflectors 65 --iters 100 --trials 1000 "
                    "--seed 6 --snr -16,-12,inf", "1d10547411d230517dcfa922065cd0c4"),
    "ssd-qam16": ("--detector ssd --mod qam16 --alpha 0.05,0.95 --trials 1500 --seed 8 "
                  "--snr -10,-6,-2", "e09c09c4c88a365bc35535ad7d87101d"),
}


def stdout_md5(args: str) -> str:
    """md5 of what ``python -m irsmas args`` prints, run in process."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(args.split()) == 0
    return hashlib.md5(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_stdout_matches_recorded_md5(monkeypatch, name, workers):
    args, want = COMMANDS[name]
    monkeypatch.setenv("IRSMAS_WORKERS", workers)
    assert stdout_md5(args) == want


if __name__ == "__main__":
    os.environ["IRSMAS_WORKERS"] = "1"
    print("COMMANDS = {")
    for name, (args, _) in COMMANDS.items():
        print(f"    {name!r}: ({args!r},\n        {stdout_md5(args)!r}),")
    print("}")
