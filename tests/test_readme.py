"""The README's library example, run as printed."""

import json
import math
from pathlib import Path

from ddcontrol import cli

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


def test_readme_config_example_is_the_z_gate_preset(tmp_path):
    # the configuration example spells out every field of the z-gate task,
    # so it resolves to what the preset alone resolves to
    section = README.read_text().split("Example with all sections", 1)[1]
    path = tmp_path / "config.json"
    path.write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
    want = cli.load_experiment(task="z-gate").resolved
    assert cli.load_experiment(config_path=path).resolved == want


def test_readme_config_example_names_every_schema_field():
    # the documented example names each field of the CLI's table once, so it
    # cannot drift from it; guess.path belongs to a tabulated guess only
    section = README.read_text().split("Example with all sections", 1)[1]
    example = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    names = [
        f"{key}.{field}" if isinstance(value, dict) else key
        for key, value in example.items()
        for field in (value if isinstance(value, dict) else [None])
    ]
    assert sorted(names) == sorted(set(cli.SCHEMA) - {"guess.path"})


def test_readme_quotes_the_size_budget():
    # the README states the size rule's budget as cli.MAX_ARRAY_BYTES holds it
    power = cli.MAX_ARRAY_BYTES.bit_length() - 1
    assert cli.MAX_ARRAY_BYTES == 2**power
    assert f"`cli.MAX_ARRAY_BYTES` = 2^{power} bytes" in " ".join(README.read_text().split())
