"""The test session names a failing property test and runs on past it."""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

SAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_test_is_named(tmp_path):
    # The repository's pytest settings and tests/conftest.py, on a file with
    # one failing @given test and one passing test after it.
    shutil.copy(HERE / "conftest.py", tmp_path)
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(HERE.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    failed = [line for line in out.splitlines() if line.startswith("FAILED ")]
    assert [line.split()[1] for line in failed] == ["test_sample.py::test_fails"], out
    assert "1 passed" in out, out
    assert "INTERNALERROR" not in out, out
