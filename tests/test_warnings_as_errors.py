"""Under ``-W error``, a failing hypothesis test is reported as a failure,
and the tests after it still run (``conftest.py``)."""

import shutil
import subprocess
import sys
from pathlib import Path

# a failing hypothesis test, then a passing one that must still run
GENERATED = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # the generated module gets this suite's conftest.py, and no ini file
    # (so no filterwarnings ignore) is found above it
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_generated.py").write_text(GENERATED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-W", "error", "-p", "no:cacheprovider", "-q",
         "test_generated.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
