"""The test session's own set-up (conftest.py)."""
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_property_test_prints_its_example_and_later_tests_run(tmp_path):
    # under the repository's warning filters, as tier-1 runs
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(n):
            assert n < 10

        def test_after():
            pass
        """))
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
                          str(tmp_path)], capture_output=True, text=True, cwd=tmp_path)
    assert "Falsifying example" in out.stdout, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout, out.stdout + out.stderr
