import ast
import importlib.util
import os
import re
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


# Public names whose only caller is the benchmark's tracer, which wraps them
# by name (bench/tracing.py); they stay until the tracer's wrapping is
# revisited with the benchmark record (ROADMAP item 1)
TRACER_ONLY = {"white_noise_propagate", "expm_hermitian"}


def _identifiers(source):
    """The names a piece of code reads: names and attributes, not imports
    or definitions."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_library_surface_has_non_test_callers():
    # every public function, class and method of the package is read by the
    # package itself, the benchmark or the README's library example; what
    # only the tests use lives in tests/
    modules = sorted((REPO / "src" / "ddcontrol").glob("*.py"))
    used = set()
    for path in modules + sorted((REPO / "bench").glob("*.py")):
        used |= _identifiers(path.read_text())
    example = re.search(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S)
    used |= _identifiers(example.group(1))
    unused = set()
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                members = [node] + [sub for sub in node.body if isinstance(sub, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                members = [node]
            else:
                continue
            unused |= {m.name for m in members if not m.name.startswith("_")} - used
    assert unused == TRACER_ONLY


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


LINE_COUNT_FIXTURE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a comment after code


def join(x):
    """A function docstring."""

    return os.path.join(
        x,
        "y",
    )
'''


def test_code_line_counter(tmp_path):
    # tools/code_lines.py counts the lines that hold code: not the blank
    # line, the comment line or the docstrings, and every line of a call
    # spread over several
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(LINE_COUNT_FIXTURE)
    (package / "b.py").write_text("x = 1\n")
    script = REPO / "tools" / "code_lines.py"
    out = subprocess.run([sys.executable, str(script), str(package)], capture_output=True, text=True, check=True)
    counts = [line.split() for line in out.stdout.splitlines()]
    assert counts == [["6", str(package / "a.py")], ["1", str(package / "b.py")], ["7", "total"]]


def test_mutation_anchors_occur_once():
    # every mutation of tools/mutants.py names text that occurs exactly once
    # in its file and changes it, so each one applies to the current source;
    # the mutation runs themselves are not part of the tests
    spec = importlib.util.spec_from_file_location("mutants", REPO / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len(mutants.MUTATIONS) >= 8
    for name, (path, anchor, replacement) in mutants.MUTATIONS.items():
        assert (REPO / path).read_text().count(anchor) == 1, name
        assert replacement != anchor, name
