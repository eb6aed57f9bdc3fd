import subprocess
import sys

from conftest import REPO_ROOT

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_given_test_reports_and_session_continues(tmp_path):
    # Under the project's warning filters a falsified @given test must fail
    # on its own (exit 1, falsifying example shown) and the session go on.
    (tmp_path / "test_probe.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO_ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "PASSED test_probe.py::test_passes" in proc.stdout
