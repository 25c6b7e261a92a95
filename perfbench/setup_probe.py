"""One cold start of irsmas, timed from the first import to the end of the
first trial: import, CLI parsing and ``validate_config``, the RAC table and
constellation, then trial 0.

    python3 perfbench/setup_probe.py <irsmas command-line flags>

Prints one JSON line: the seconds taken and the resolved config.
"""

import time

T0 = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from irsmas import run_trial  # noqa: E402
from irsmas.cli import parse_run_spec  # noqa: E402

spec = parse_run_spec(sys.argv[1:])
run_trial(spec.cfg, spec.scheme, spec.detector, 0)
elapsed = time.perf_counter() - T0
print(json.dumps({"setup_s": elapsed, "config": dataclasses.asdict(spec.cfg)}))
