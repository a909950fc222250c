"""The pytest settings in pyproject.toml: every warning fails its test, and a
failing Hypothesis test reports its falsifying example and lets the session
go on.

Hypothesis's failure report imports libcst, which raises a
DeprecationWarning (mypy_extensions.TypedDict); turned into an error by
`filterwarnings = ["error"]`, it would abort the session with an
INTERNALERROR.  Each check runs its own pytest in a fresh process on a
throwaway test file, with the repository's settings."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_pytest(tmp_path: Path, source: str) -> subprocess.CompletedProcess:
    (tmp_path / "test_pair.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)


def test_failing_hypothesis_test_lets_the_session_go_on(tmp_path):
    proc = run_pytest(tmp_path, """
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_runs_after():
    pass
""")
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout


def test_other_warnings_still_fail_their_test(tmp_path):
    proc = run_pytest(tmp_path, """
import warnings


def test_warns():
    warnings.warn("any other warning", DeprecationWarning)


def test_runs_after():
    pass
""")
    assert "1 failed, 1 passed" in proc.stdout
