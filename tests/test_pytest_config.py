"""The pytest configuration in pyproject.toml reports a failing hypothesis
test as one failed test.

On failure hypothesis imports libcst to suggest a patch, and libcst still
uses the deprecated mypy_extensions.TypedDict. With DeprecationWarning
turned into an error that import aborted the session with INTERNALERROR,
and every later test result was lost.
"""

from __future__ import annotations

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_a_failing_hypothesis_test_fails_without_internal_error(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", PYPROJECT, "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed" in out
