"""The README's library example, run as printed."""

import math
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    # the example calls the public functions by the signatures the README
    # documents; it prints the master fidelity and purity and the ensemble
    # fidelity of the robust pulse
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 3
    assert all(math.isfinite(v) and 0.0 < v <= 1.0 + 1e-9 for v in values)
