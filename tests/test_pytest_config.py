"""The suite's own pytest configuration, exercised in a child pytest run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_is_a_test_failure(tmp_path):
    # Reporting a failing property makes Hypothesis import libcst, which
    # raises a third-party DeprecationWarning; under the suite's filters that
    # must not turn into an INTERNALERROR that aborts the session.
    (tmp_path / "test_property.py").write_text(ONE_FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
