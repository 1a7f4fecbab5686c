import os
import subprocess
import sys
from pathlib import Path

pytest_plugins = ["pytester"]

REPO = Path(__file__).resolve().parents[1]


def test_package_import_loads_no_scipy():
    # scipy is a test dependency only: the CLI, and so every module of the
    # package, runs on numpy alone
    probe = "import sys, ddcontrol.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_failing_property_test_does_not_end_the_run(pytester):
    # under the project's warning filters a failing @given test is reported as
    # a failure, and the tests after it still run
    pytester.makepyprojecttoml((REPO / "pyproject.toml").read_text())
    tests = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_runs_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess(tests, "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
