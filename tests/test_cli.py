import copy
import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from ddcontrol import cli
from ddcontrol.krotov import ControlProblem, KrotovConfig, ddme_krotov
from ddcontrol.linalg import projector
from ddcontrol.model import KERNEL_KINDS, CorrelationKernel, HamiltonianFamily, TimeGrid, sample_perturbations
from ddcontrol.propagation import ddme_propagate, ensemble_average

REPO = Path(__file__).resolve().parents[1]


def write_config(tmp_path, name="config.json", **overrides):
    base = {
        "task": "z-gate",
        "grid": {"T": 10.0, "N_T": 30},
        "kernel": {"kind": "stationary-gaussian", "C0": 0.0, "t_corr": 100.0},
        "ensemble": {"count": 20, "seed": 7},
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    # unknown keys at the top level and inside sections, named in the message
    for config, name in (
        ({"taskk": "z-gate"}, "taskk"),
        ({"krotov": {"lam": 1}}, "krotov.lam"),
        ({"system": {"drift": {"z": 1.0}, "controls": [{"x": 1.0}], "extra": 1}}, "system.extra"),
        ({"guess": {"kind": "gaussian", "paths": "p.csv"}}, "guess.paths"),
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert cli.main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_guess_path_is_a_known_key(tmp_path):
    cfg = write_config(tmp_path, guess={"kind": "gaussian", "path": None})
    assert isinstance(cli.load_experiment(config_path=cfg), cli.ResolvedExperiment)


def test_invalid_kernel_kind_is_config_error(tmp_path, capsys):
    # the command line builds exactly the library's kernel kinds, and the
    # message names them
    for kind in ("pink-noise", "tabulated"):
        cfg = write_config(tmp_path, kernel={"kind": kind, "C0": 0.01, "t_corr": 1.0})
        assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "kernel.kind" in err and all(name in err for name in KERNEL_KINDS), kind
        assert not (tmp_path / "o").exists()


def test_custom_task_requires_states(tmp_path, capsys):
    cfg = write_config(tmp_path, task="custom")
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    # one message names every field that has no preset to fill it
    err = capsys.readouterr().err
    for name in CUSTOM_FIELDS:
        assert name in err, name


# the fields a custom task must set; the stock tasks' presets fill them
CUSTOM_FIELDS = (
    "states.initial",
    "states.target",
    "guess.kind",
    "krotov.lambda",
    "krotov.J_tol",
    "krotov.t_on",
    "krotov.t_off",
    "krotov.se_lambda",
)


def run_recorded_config(tmp_path, name, command, *args, **overrides):
    """Run a command on a test config; the resolved config its report records."""
    cfg = write_config(tmp_path, name=f"{name}.json", **overrides)
    out = tmp_path / name
    assert cli.main([command, "--config", str(cfg), "--out", str(out), *map(str, args)]) == 0
    report = {"optimize": "summary.json", "propagate": "propagate.json"}[command]
    return json.loads((out / report).read_text())["config"], out


def test_explicit_matrix_operators(tmp_path):
    # numbers and [re, im] pairs spell the Pauli matrices: the trajectory is
    # the Pauli dictionaries' byte for byte, and the config records the
    # matrices as written
    pulses = write_pulse_lines(tmp_path, "pulse.csv")
    system = {"drift": [[1, 0], [0, [-1.0, 0.0]]], "controls": [[[0.0, [1, 0]], [[1, 0], 0]]]}
    config, out = run_recorded_config(tmp_path, "matrix", "propagate", pulses, system=system)
    _, pauli = run_recorded_config(tmp_path, "pauli", "propagate", pulses)
    assert config["system"] == system
    assert (out / "trajectory.csv").read_bytes() == (pauli / "trajectory.csv").read_bytes()


def test_explicit_ket_vectors(tmp_path):
    # unnormalized vectors with number and [re, im] entries; the config
    # records each state as a unit ket of [re, im] pairs that resolves to
    # the same projector and records itself unchanged
    pulses = write_pulse_lines(tmp_path, "pulse.csv")
    states = {"initial": [2, [2.0, 0.0]], "target": [[0, 1], 1.0]}
    config, _ = run_recorded_config(tmp_path, "kets", "propagate", pulses, states=states)
    for key, want in (("initial", projector("+")), ("target", projector([1j, 1]))):
        got = cli.load_experiment(config_path=write_config(tmp_path, states={key: config["states"][key]}))
        rho = got.problem.rho0 if key == "initial" else got.problem.rho_targ
        assert np.max(np.abs(rho - want)) <= 1e-15, key
        assert got.resolved["states"][key] == config["states"][key], key


def test_custom_two_control_task(tmp_path):
    # a custom task sets every field a preset would; the config records
    # them, and each control starts from the same guess
    custom = {
        "task": "custom",
        "system": {"drift": {"z": 1.0}, "controls": [{"x": 1.0}, {"y": 1.0}]},
        "states": {"initial": "0", "target": "1"},
        "guess": {"kind": "sine"},
        "krotov": {"lambda": [2.0, 4.0], "J_tol": 0.01, "t_on": 1.0, "t_off": 1.0, "se_lambda": 2.0},
    }
    config, out = run_recorded_config(tmp_path, "custom", "optimize", **custom)
    assert config["task"] == "custom"
    assert config["system"] == custom["system"]
    assert config["guess"] == {"kind": "sine"}
    assert config["krotov"] == {**custom["krotov"], "i_max": 50, "se_J_tol": 1e-4, "se_i_max": 1000}
    assert config["states"] == {"initial": [[1.0, 0.0], [0.0, 0.0]], "target": [[0.0, 0.0], [1.0, 0.0]]}
    exp = cli.load_experiment(config_path=write_config(tmp_path, **custom))
    assert np.array_equal(exp.guess[0], exp.guess[1])
    assert np.array_equal(exp.ddme_config.lambdas, [2.0, 4.0])
    assert list(read_rows(out / "pulses.csv")[0])[2:] == [
        "f_guess_1", "f_guess_2", "f_se_1", "f_se_2", "f_ddme_1", "f_ddme_2"
    ]


def test_tabulated_guess(tmp_path, capsys):
    # a tabulated guess is read from guess.path, and the config records both
    path = write_pulse_lines(tmp_path, "guess.csv")
    guess = {"kind": "tabulated", "path": str(path)}
    config, out = run_recorded_config(tmp_path, "tabulated", "optimize", guess=guess)
    assert config["guess"] == guess
    assert [float(r["f_guess"]) for r in read_rows(out / "pulses.csv")] == [0.5] * 30
    cfg = write_config(tmp_path, guess={"kind": "tabulated"})
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "guess.path" in capsys.readouterr().err


def test_zero_kernel_kind(tmp_path):
    # kind 'zero' ignores C0 and t_corr: the config records the section with
    # their defaults, and the evolution stays pure despite C0 = 0.01
    pulses = write_pulse_lines(tmp_path, "pulse.csv")
    config, out = run_recorded_config(tmp_path, "zero", "propagate", pulses, kernel={"kind": "zero"})
    assert config["kernel"] == {"kind": "zero", "C0": 0.01, "t_corr": 100.0}
    exp = cli.load_experiment(config_path=write_config(tmp_path, kernel={"kind": "zero"}))
    assert exp.kernel.kind == "zero"
    purity = [float(r["purity"]) for r in read_rows(out / "trajectory.csv")]
    assert max(abs(p - 1.0) for p in purity) <= 1e-12


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "section, key, literal",
    [
        ("kernel", "C0", "NaN"),
        ("grid", "T", "NaN"),
        ("krotov", "lambda", "NaN"),
        ("kernel", "t_corr", "Infinity"),
        ("kernel", "C0", "-Infinity"),
        ("grid", "T", "1e400"),
        pytest.param("grid", "T", "1" + "0" * 400, id="grid-T-huge-integer"),
        ("grid", "N_T", "2.7"),
    ],
)
def test_non_finite_or_fractional_config_value_is_config_error(tmp_path, section, key, literal):
    cfg = write_config(
        tmp_path, kernel={"kind": "stationary-gaussian", "C0": 0.01, "t_corr": 100.0}
    )
    raw = json.loads(cfg.read_text())
    raw.setdefault(section, {})[key] = "@value@"
    cfg.write_text(json.dumps(raw).replace('"@value@"', literal))
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides, name",
    [
        ({"grid": {"T": None}}, "grid.T"),
        ({"kernel": {"kind": "white-noise", "C0": None}}, "kernel.C0"),
        ({"kernel": "gaussian"}, "kernel"),
        ({"ensemble": [20, 7]}, "ensemble"),
        ({"outputs": None}, "outputs"),
        ({"grid": {"T": [10.0]}}, "grid.T"),
        ({"krotov": {"t_on": True}}, "krotov.t_on"),
        ({"system": {"drift": {"z": "1.5"}, "controls": [{"x": 1.0}]}}, "system.drift.z"),
        ({"system": {"drift": {"z": True}, "controls": [{"x": 1.0}]}}, "system.drift.z"),
        ({"system": {"drift": [[1, 0], [0, "-1"]], "controls": [{"x": 1.0}]}}, "system.drift[1][1]"),
        (
            {"system": {"drift": {"z": 1.0}, "controls": [[[0, [1, False]], [1, 0]]]}},
            "system.controls[0][0][1][1]",
        ),
        ({"system": {"drift": {"z": 1.0}, "controls": {"x": 1.0}}}, "system.controls must be a list"),
        ({"states": {"initial": [True, 0]}}, "states.initial[0]"),
        ({"states": {"target": [1, ["0", 0]]}}, "states.target[1][0]"),
        ({"krotov": {"lambda": "1.25"}}, "krotov.lambda"),
        ({"krotov": {"lambda": [None]}}, "krotov.lambda[0]"),
        ({"krotov": {"se_lambda": True}}, "krotov.se_lambda"),
        ({"system": {"drift": [1, 2], "controls": [{"x": 1.0}]}}, "system.drift[0]"),
        ({"task": ["z-gate"]}, "task"),
        ({"guess": {"kind": ["gaussian"]}}, "guess.kind"),
        ({"outputs": 5}, "outputs"),
        ({"guess": {"kind": "tabulated", "path": True}}, "guess.path"),
        ({"guess": {"kind": "gaussian", "path": 3}}, "guess.path"),
        ({"krotov": {"lambda": [1.0, 2.0]}}, "krotov.lambda lists 2 values for 1 controls"),
        ({"krotov": {"se_lambda": []}}, "krotov.se_lambda lists 0 values"),
        ({"system": {"drift": [[1]], "controls": [[[1]]]}}, "dimension at least 2"),
    ],
)
def test_null_or_mistyped_config_value_is_config_error(tmp_path, capsys, overrides, name):
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "o"), "p.csv"]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_task_is_config_error(tmp_path):
    assert cli.main(["optimize", "--task", "toffoli", "--out", str(tmp_path / "o")]) == 2


def test_optimize_zero_kernel_pipeline(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0

    summary = json.loads((out / "summary.json").read_text())
    required = [
        "final_fidelity_se",
        "final_fidelity_ddme",
        "final_purity_se",
        "final_purity_ddme",
        "min_purity_ddme",
        "max_trace_distance_master_vs_ensemble",
        "iterations",
        "converged",
        "config",
    ]
    for key in required:
        assert key in summary, key
    assert summary["converged"] is True
    # no disorder: both stages score the same fidelity
    assert abs(summary["final_fidelity_se"] - summary["final_fidelity_ddme"]) <= 1e-9

    for name in (
        "pulses.csv",
        "pulse_se.csv",
        "pulse_ddme.csv",
        "trajectory_se_master.csv",
        "trajectory_ddme_master.csv",
        "trajectory_se_ensemble.csv",
        "trajectory_ddme_ensemble.csv",
        "optimization_trace.csv",
        "se_optimization_trace.csv",
        "summary.json",
    ):
        assert (out / name).exists(), name

    pulses = read_rows(out / "pulses.csv")
    assert len(pulses) == 30
    assert list(pulses[0]) == ["k", "t_mid", "f_guess", "f_se", "f_ddme"]

    traj = read_rows(out / "trajectory_se_master.csv")
    assert len(traj) == 31
    assert list(traj[0]) == ["s", "t", "purity", "fidelity", "bloch_x", "bloch_y", "bloch_z"]
    norms = [
        float(r["bloch_x"]) ** 2 + float(r["bloch_y"]) ** 2 + float(r["bloch_z"]) ** 2
        for r in traj
    ]
    assert max(norms) <= 1.0 + 1e-9
    # trajectory floats round-trip to the summary values exactly
    assert float(traj[-1]["fidelity"]) == summary["final_fidelity_se"]

    trace = read_rows(out / "optimization_trace.csv")
    assert list(trace[0]) == ["iteration", "J_T"]
    assert int(trace[0]["iteration"]) == 0


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, kernel={"kind": "stationary-gaussian", "C0": 0.01, "t_corr": 100.0},
                       krotov={"J_tol": 0.05})
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} changed between identical runs"


def test_seed_flag_changes_ensemble(tmp_path):
    cfg = write_config(tmp_path, kernel={"kind": "stationary-gaussian", "C0": 0.01, "t_corr": 100.0},
                       krotov={"J_tol": 0.05})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(out_b), "--seed", "99"]) == 0
    ens_a = (out_a / "trajectory_se_ensemble.csv").read_bytes()
    ens_b = (out_b / "trajectory_se_ensemble.csv").read_bytes()
    assert ens_a != ens_b
    # the master trajectories are seed independent
    m_a = (out_a / "trajectory_se_master.csv").read_bytes()
    m_b = (out_b / "trajectory_se_master.csv").read_bytes()
    assert m_a == m_b


def test_non_convergence_exit_code_and_partial_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, krotov={"J_tol": 1e-9, "i_max": 1})
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert (out / "pulses.csv").exists()
    # the sweep's closed-system stage
    cfg = write_config(tmp_path, krotov={"se_J_tol": 1e-9, "se_i_max": 1})
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", str(cfg), "--out", str(out), "--iterations", "1", "--tcorr", "2.0"]
    assert cli.main(argv) == 3
    assert json.loads((out / "sweep.json").read_text())["se_converged"] is False
    assert "closed-system stage did not converge" in capsys.readouterr().err


def test_compare_identical_files(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    cmp_out = tmp_path / "cmp"
    code = cli.main(
        [
            "compare",
            "--config",
            str(cfg),
            "--out",
            str(cmp_out),
            str(out / "pulse_se.csv"),
            str(out / "pulse_se.csv"),
        ]
    )
    assert code == 0
    report = json.loads((cmp_out / "compare.json").read_text())
    for key in ("final_fidelity", "final_purity", "min_purity"):
        assert report["a"][key] == report["b"][key]
    assert report["fidelity_gap"] == 0.0


def test_compare_grid_mismatch_is_config_error(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    other = write_config(tmp_path, name="other.json", grid={"T": 10.0, "N_T": 40})
    code = cli.main(
        [
            "compare",
            "--config",
            str(other),
            "--out",
            str(tmp_path / "cmp"),
            str(out / "pulse_se.csv"),
            str(out / "pulse_se.csv"),
        ]
    )
    assert code == 2


def test_propagate_and_ensemble_commands(tmp_path):
    cfg = write_config(tmp_path, kernel={"kind": "stationary-gaussian", "C0": 0.01, "t_corr": 100.0},
                       krotov={"J_tol": 0.05})
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0

    prop_out = tmp_path / "prop"
    assert (
        cli.main(
            ["propagate", "--config", str(cfg), "--out", str(prop_out), str(out / "pulse_ddme.csv")]
        )
        == 0
    )
    report = json.loads((prop_out / "propagate.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    assert report["final_fidelity"] == summary["final_fidelity_ddme"]

    ens_out = tmp_path / "ens"
    assert (
        cli.main(
            [
                "ensemble",
                "--config",
                str(cfg),
                "--out",
                str(ens_out),
                "--count",
                "10",
                str(out / "pulse_ddme.csv"),
            ]
        )
        == 0
    )
    rows = read_rows(ens_out / "trajectory_ensemble.csv")
    assert len(rows) == 31


def test_sweep_command(tmp_path):
    cfg = write_config(
        tmp_path,
        grid={"T": 10.0, "N_T": 20},
        kernel={"kind": "stationary-gaussian", "C0": 0.01, "t_corr": 100.0},
    )
    out = tmp_path / "sweep"
    code = cli.main(
        [
            "sweep",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--iterations",
            "2",
            "--tcorr",
            "2.0",
            "--tcorr",
            "14.0",
        ]
    )
    assert code == 0
    rows = read_rows(out / "sweep.csv")
    assert list(rows[0]) == ["t_corr", "iteration", "J_T"]
    assert len(rows) == 2 * 3  # two correlation times, iterations 0..2
    tcorrs = sorted({float(r["t_corr"]) for r in rows})
    assert tcorrs == [2.0, 14.0]


def test_sweep_requires_gaussian_kernel(tmp_path):
    cfg = write_config(tmp_path, kernel={"kind": "white-noise", "C0": 0.01})
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_pulse_file_round_trip(tmp_path):
    from ddcontrol.cli import read_pulse_file, write_pulse_file
    from ddcontrol.model import TimeGrid

    grid = TimeGrid(T=1.0, n_steps=7)
    pulses = np.linspace(-1.0, 1.0, 7)[None, :] * np.pi
    path = tmp_path / "pulse.csv"
    write_pulse_file(path, grid, pulses)
    back = read_pulse_file(path, grid, 1)
    assert np.array_equal(back, pulses)


def test_white_noise_kernel_pipeline(tmp_path):
    cfg = write_config(
        tmp_path,
        kernel={"kind": "white-noise", "C0": 0.002},
        krotov={"J_tol": 0.2, "i_max": 5},
    )
    out = tmp_path / "run"
    code = cli.main(["optimize", "--config", str(cfg), "--out", str(out)])
    assert code in (0, 3)
    assert (out / "summary.json").exists()


def test_ensemble_realization_flag(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, kernel={"kind": "stationary-gaussian", "C0": 0.01, "t_corr": 100.0},
                       krotov={"J_tol": 0.05})
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    ens_out = tmp_path / "ens"
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sample_perturbations(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_perturbations", counted)
    code = cli.main(
        [
            "ensemble",
            "--config",
            str(cfg),
            "--out",
            str(ens_out),
            "--count",
            "10",
            "--realization",
            "3",
            str(out / "pulse_ddme.csv"),
        ]
    )
    assert code == 0
    assert len(calls) == 1  # the average and draw 3 come from one sampling
    rows = read_rows(ens_out / "trajectory_realization_3.csv")
    assert len(rows) == 31
    # single closed-system realization stays pure
    assert max(float(r["purity"]) for r in rows) <= 1.0 + 1e-9
    assert min(float(r["purity"]) for r in rows) >= 1.0 - 1e-9
    # out-of-range index is a config error
    assert (
        cli.main(
            [
                "ensemble",
                "--config",
                str(cfg),
                "--out",
                str(ens_out),
                "--count",
                "10",
                "--realization",
                "10",
                str(out / "pulse_ddme.csv"),
            ]
        )
        == 2
    )


def test_nan_pulse_file_is_numerical_failure(tmp_path):
    cfg = write_config(tmp_path)
    path = tmp_path / "bad_pulse.csv"
    lines = ["k,t_mid,f_1"]
    for k in range(30):
        lines.append(f"{k + 1},{(k + 0.5) / 3.0},nan")
    path.write_text("\n".join(lines) + "\n")
    code = cli.main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "o"), str(path)])
    assert code == 4


def write_pulse_lines(tmp_path, name, bad_index=None, bad_row=None):
    """A 30-step single-control pulse file, with line ``bad_index`` replaced."""
    lines = ["k,t_mid,f_1"] + [f"{k + 1},{(k + 0.5) / 3.0},0.5" for k in range(30)]
    if bad_index is not None:
        lines[bad_index] = bad_row
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def pulse_commands(cfg, out, good, bad):
    """Every command that reads a pulse file, reading ``bad`` last."""
    common = ["--config", str(cfg), "--out", str(out)]
    return {
        "propagate": ["propagate", *common, str(bad)],
        "ensemble": ["ensemble", *common, "--count", "3", str(bad)],
        "compare": ["compare", *common, str(good), str(bad)],
    }


@pytest.mark.parametrize("bad_row", ["7,2.1667", "7,2.1667,0.5,0.25"], ids=["short", "long"])
def test_malformed_pulse_file_row_is_config_error(tmp_path, capsys, bad_row):
    # a row with too few or too many fields is rejected at the config
    # boundary, naming the file and the row's line, before any output
    # directory is made
    cfg = write_config(tmp_path)
    good = write_pulse_lines(tmp_path, "pulse.csv")
    path = write_pulse_lines(tmp_path, "bad_pulse.csv", 7, bad_row)
    for command, argv in pulse_commands(cfg, tmp_path / "o", good, path).items():
        assert cli.main(argv) == 2, command
        err = capsys.readouterr().err
        assert str(path) in err and "line 8" in err, command
        assert not (tmp_path / "o").exists(), command


def test_non_numeric_pulse_value_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    good = write_pulse_lines(tmp_path, "pulse.csv")
    path = write_pulse_lines(tmp_path, "bad_pulse.csv", 3, "3,0.8333,half")
    for command, argv in pulse_commands(cfg, tmp_path / "o", good, path).items():
        assert cli.main(argv) == 2, command
        err = capsys.readouterr().err
        assert str(path) in err and "line 4" in err, command
        assert not (tmp_path / "o").exists(), command


@pytest.mark.parametrize(
    "case, message",
    [
        ("negative-seed", "ensemble.seed must be nonnegative"),
        ("config-unreadable", "cannot read config file"),
        ("config-not-object", "config file must contain a JSON object"),
        ("pulse-without-f_1", "lacks columns ['f_1']"),
        ("pulse-unreadable", "cannot read pulse file"),
    ],
)
def test_bad_flag_or_input_file_is_config_error(tmp_path, capsys, case, message):
    # each is refused with exit 2 and its message before any output is made
    cfg = write_config(tmp_path)
    pulse = write_pulse_lines(tmp_path, "pulse.csv")
    seed = []
    if case == "negative-seed":
        seed = ["--seed", "-1"]
    elif case == "config-unreadable":
        cfg = tmp_path  # a directory
    elif case == "config-not-object":
        cfg.write_text("[1, 2]")
    elif case == "pulse-without-f_1":
        pulse.write_text(pulse.read_text().replace("f_1", "g_1"))
    else:
        pulse = tmp_path / "missing.csv"
    argv = ["propagate", "--config", str(cfg), *seed, "--out", str(tmp_path / "o"), str(pulse)]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_out_of_range_ensemble_flags_leave_no_output(tmp_path, capsys):
    cfg = write_config(tmp_path)
    path = write_pulse_lines(tmp_path, "pulse.csv")
    argv = ["ensemble", "--config", str(cfg), "--out", str(tmp_path / "o")]
    for flags, message in (
        (["--count", "3", "--realization", "3"], "realization index"),
        (["--count", "3", "--realization", "-1"], "realization index"),
        (["--count", "0"], "at least one realization"),
        (["--count", str(10**12)], "--count: the run's largest array would take"),
    ):
        assert cli.main(argv + flags + [str(path)]) == 2, flags
        assert message in capsys.readouterr().err, flags
        assert not (tmp_path / "o").exists(), flags


# Runs whose largest array (cli._array_bytes) exceeds cli.MAX_ARRAY_BYTES,
# by case: the config sections that write_config replaces, the ensemble
# flags, and the key that the message names.  Each would otherwise exit 1
# allocating its array: 16 GiB of commutator tensor for d = 32, 4 GiB in
# np.kron for a 14-letter Pauli label, a 2.98 GiB weight table for two
# controls on 10 000 steps, two 4.8 GB Horner stacks for 5e7 sets of one
# step, and a grid of 1e12 steps or 1e12 sets that nothing could hold
SIZE_REFUSED = {
    "N_T-1e12": ({"grid": {"T": 10.0, "N_T": 1e12}}, [], "grid.N_T"),
    "count-1e12": ({"ensemble": {"count": 1e12, "seed": 7}}, [], "ensemble.count"),
    "count-flag-1e12": ({}, ["--count", str(10**12)], "--count"),
    "d-32-pauli": ({"system": {"drift": {"zzzzz": 1.0}, "controls": [{"xxxxx": 1.0}]}}, [], "system.drift"),
    "d-32-matrix": ({"system": {"drift": [[0.0] * 32] * 32}}, [], "system.drift"),
    "d-32-ket": ({"states": {"initial": [1.0] + [0.0] * 31}}, [], "states.initial"),
    "pauli-14": ({"system": {"drift": {"z": 1.0}, "controls": [{"x" * 14: 1.0}]}}, [], "system.controls[0]"),
    "two-controls-N_T-10000": (
        {"task": "x-gate", "system": {"drift": {"z": 1.0}, "controls": [{"x": 1.0}, {"y": 1.0}]},
         "grid": {"T": 10.0, "N_T": 10_000}},
        [],
        "system.controls",
    ),
    "N_T-1-count-5e7": ({"grid": {"T": 10.0, "N_T": 1}, "ensemble": {"count": 5 * 10**7, "seed": 7}}, [],
                        "ensemble.count"),
}


@pytest.mark.parametrize("case", list(SIZE_REFUSED))
def test_size_rule_is_config_error(tmp_path, capsys, case):
    # the size rule refuses each run where the size first becomes known,
    # before any array of that size is built: exit 2, a message naming the
    # key, no output directory, and well under 1 MiB allocated on the way
    overrides, flags, key = SIZE_REFUSED[case]
    cfg = write_config(tmp_path, **overrides)
    pulse = write_pulse_lines(tmp_path, "pulse.csv")
    argv = ["ensemble", "--config", str(cfg), "--out", str(tmp_path / "o"), *flags, str(pulse)]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert key in err and "the run's largest array would take" in err, err
    assert peak < 2**20
    assert not (tmp_path / "o").exists()


def test_size_rule_edges(tmp_path):
    # N_T = 128 and 2^20 sets take pulse sets of exactly MAX_ARRAY_BYTES,
    # which load; one set more is refused.  The stock qubit keeps the edges
    # of the two limits that the rule replaced: 10 000 steps, and 990 099
    # sets at N_T = 100
    edge = cli.MAX_ARRAY_BYTES // (8 * 128)
    assert cli._array_bytes("", 2, 1, 128, edge) == cli.MAX_ARRAY_BYTES
    for n_steps, count in ((128, edge), (10_000, 20), (100, 990_099)):
        cfg = write_config(tmp_path, grid={"T": 10.0, "N_T": n_steps}, ensemble={"count": count, "seed": 7})
        exp = cli.load_experiment(config_path=cfg)
        assert (exp.grid.n_steps, exp.count) == (n_steps, count)
    cfg = write_config(tmp_path, grid={"T": 10.0, "N_T": 128}, ensemble={"count": edge + 1, "seed": 7})
    with pytest.raises(ValueError, match="ensemble.count: the run's largest array would take"):
        cli.load_experiment(config_path=cfg)


@pytest.mark.parametrize("d, m, n_steps, count", [(2, 1, 400, 200), (6, 1, 100, 300), (2, 2, 100, 4000)])
def test_size_estimate_tracks_memory(d, m, n_steps, count):
    # on runs that its weight table, its step-map powers and its pulse sets
    # dominate in turn, the traced peak of a propagation, one optimizer
    # iteration and an ensemble lies between the estimate and four times
    # it (2.2 to 3.0 times here)
    rng = np.random.default_rng(3)
    family = HamiltonianFamily(random_hermitian(rng, d), tuple(random_hermitian(rng, d) for _ in range(m)))
    problem = ControlProblem(
        rho0=projector(np.eye(d)[0]), rho_targ=projector(np.eye(d)[-1]), h_family=family,
        grid=TimeGrid(T=5.0, n_steps=n_steps), kernel=CorrelationKernel.gaussian(0.01, 2.0, n_controls=m),
    )
    pulses = 0.3 * rng.standard_normal((m, n_steps))
    config = KrotovConfig(lambdas=np.full(m, 5.0), shapes=np.ones((m, n_steps)), j_tol=None, i_max=1)
    estimate = cli._array_bytes("", d, m, n_steps, count)
    tracemalloc.start()
    try:
        ddme_propagate(problem, pulses)
        ddme_krotov(problem, pulses, config)
        ensemble_average(problem, pulses, count, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert estimate <= peak <= 4 * estimate


@pytest.mark.parametrize(
    "overrides, name",
    [
        ({"grid": {"T": 1e200, "N_T": 30}}, "grid.T"),
        ({"kernel": {"kind": "stationary-gaussian", "C0": 0.01, "t_corr": 1e-300}}, "kernel.t_corr"),
        ({"system": {"drift": {"z": 1e300}, "controls": [{"x": 1.0}]}}, "system.drift.z"),
        ({"states": {"initial": [1.34e154, 0]}}, "states.initial[0]"),
        ({"krotov": {"lambda": [-1e-101]}}, "krotov.lambda[0]"),
    ],
)
def test_real_outside_the_magnitude_rule_is_config_error(tmp_path, capsys, overrides, name):
    # real numbers are 0 or of magnitude 1e-100 to 1e100: an extreme value is
    # refused at the boundary, not left to overflow in the numerics
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert name in err and "magnitude" in err
    assert not (tmp_path / "o").exists()


def test_magnitude_rule_edges():
    edge = cli.MAX_MAGNITUDE
    for value in (edge, -edge, 1 / edge, -1 / edge, 0, -0.0, 2**300):
        assert cli._real(value, "x") == value
    for value in (edge * (1 + 1e-15), 1 / edge * (1 - 1e-15), 10**101, 5e-324, float("nan")):
        with pytest.raises(ValueError, match="x must be 0 or of magnitude"):
            cli._real(value, "x")


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "1e-300"])
def test_sweep_tcorr_flag_is_config_error(tmp_path, capsys, monkeypatch, value):
    # an invalid correlation time is refused before the closed-system stage
    # runs and before the output directory exists; no RuntimeWarning is
    # raised, which this suite's "error" filter would turn into a failure
    monkeypatch.setattr(cli, "se_krotov", lambda *args: pytest.fail("closed-system stage ran"))
    cfg = write_config(tmp_path, kernel={"kind": "stationary-gaussian", "C0": 0.01, "t_corr": 100.0})
    argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--tcorr", "2.0"]
    assert cli.main(argv + [f"--tcorr={value}"]) == 2
    assert "--tcorr" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert cli.main(argv + ["--iterations", "0"]) == 2
    assert "--iterations" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    # every command refuses an output path that is a file, or lies under
    # one, with a configuration error naming the path; the file is untouched
    cfg = write_config(tmp_path, kernel={"kind": "stationary-gaussian", "C0": 0.01, "t_corr": 100.0})
    pulse = write_pulse_lines(tmp_path, "pulse.csv")
    commands = [
        ["optimize"],
        ["propagate", str(pulse)],
        ["ensemble", "--count", "3", str(pulse)],
        ["sweep", "--iterations", "1", "--tcorr", "2.0"],
        ["compare", str(pulse), str(pulse)],
    ]
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    for out in (blocker, blocker / "run"):
        for command in commands:
            assert cli.main(command + ["--config", str(cfg), "--out", str(out)]) == 2, command
            assert f"output directory {out}" in capsys.readouterr().err, command
    assert blocker.read_text() == "keep\n"


# Values that pass their reader but fail a library constructor or a
# library call inside a reader, with the dotted key the message must name
LIBRARY_REJECTED = [
    ({"grid": {"T": -1, "N_T": 30}}, "grid.T"),
    ({"grid": {"T": 10.0, "N_T": 0}}, "grid.N_T"),
    ({"krotov": {"J_tol": 2}}, "krotov.J_tol"),
    ({"krotov": {"i_max": 0}}, "krotov.i_max"),
    ({"krotov": {"lambda": -1}}, "krotov.lambda"),
    ({"krotov": {"t_on": -1}}, "krotov.t_on"),
    ({"kernel": {"kind": "stationary-gaussian", "C0": 0.01, "t_corr": -1}}, "kernel.t_corr"),
    ({"kernel": {"kind": "stationary-gaussian", "C0": -1, "t_corr": 100.0}}, "kernel.C0"),
    ({"guess": {"kind": "box"}}, "guess.kind"),
    ({"states": {"initial": "x"}}, "states.initial"),
    ({"states": {"initial": [0, 0]}}, "states.initial"),
    ({"system": {"drift": {"z": 1.0, "q": 0.5}}}, "system.drift"),
    # the kernel section is read by the model alone: kind 'zero' keeps the
    # check on C0, and C0 = 0 the check on t_corr
    ({"kernel": {"kind": "zero", "C0": -1, "t_corr": 100.0}}, "kernel.C0"),
    ({"kernel": {"kind": "stationary-gaussian", "C0": 0.0, "t_corr": 0.0}}, "kernel.t_corr"),
]


@pytest.mark.parametrize("overrides, name", LIBRARY_REJECTED)
def test_library_rejected_value_names_its_key(tmp_path, capsys, overrides, name):
    # the message names the dotted key once, and no output is made
    cfg = write_config(tmp_path, **overrides)
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count(name) == 1, err
    assert not (tmp_path / "o").exists()


def test_sweep_runs_on_a_gaussian_kernel_without_variance(tmp_path):
    # C0 = 0 leaves the kernel Gaussian: the sweep runs, on static dynamics,
    # and every correlation time of the default list gives the same cost series
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    argv = ["sweep", "--config", str(cfg), "--out", str(out), "--iterations", "2"]
    assert cli.main(argv) == 0
    report = json.loads((out / "sweep.json").read_text())
    assert report["t_corr"] == [f * 10.0 for f in cli.SWEEP_TCORR_FACTORS]
    assert len(set(report["final_J_T"])) == 1


@pytest.mark.parametrize("command", ["optimize", "ensemble"])
def test_unresolved_drift_is_numerical_failure(tmp_path, command):
    # a drift of 1e100 passes the magnitude rule, and the ensemble's Taylor
    # plan would run about 1e99 substeps per step: the run exits 4 at once
    # instead of running for ever
    cfg = write_config(tmp_path, system={"drift": {"z": 1e100}}, grid={"T": 10.0, "N_T": 20})
    pulse = tmp_path / "pulse.csv"
    cli.write_pulse_file(pulse, TimeGrid(T=10.0, n_steps=20), np.full((1, 20), 0.3))
    argv = {"optimize": ["optimize"], "ensemble": ["ensemble", str(pulse)]}[command]
    argv += ["--config", str(cfg), "--out", str(tmp_path / "o")]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "ddcontrol.cli", *argv], env=env, capture_output=True, text=True, timeout=20
    )
    assert done.returncode == 4, done.stderr
    assert "substeps" in done.stderr


def test_overflowing_taylor_bound_is_numerical_failure(tmp_path):
    # a control of 1e100 sigma_x and pulse values of 1e300 both pass the
    # input rules, but the ensemble's step-norm bound overflows: exit 4 with
    # the substep message, not a traceback
    cfg = write_config(tmp_path, system={"controls": [{"x": 1e100}]}, grid={"T": 10.0, "N_T": 20})
    pulse = tmp_path / "pulse.csv"
    cli.write_pulse_file(pulse, TimeGrid(T=10.0, n_steps=20), np.full((1, 20), 1e300))
    argv = ["ensemble", str(pulse), "--config", str(cfg), "--out", str(tmp_path / "o")]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "ddcontrol.cli", *argv], env=env, capture_output=True, text=True, timeout=20
    )
    assert done.returncode == 4, done.stderr
    assert "substeps" in done.stderr
    assert "Traceback" not in done.stderr


def test_generator_beyond_scaling_is_numerical_failure(tmp_path, capsys):
    # a two-qubit control of 1e100 and pulse values of 1e195 pass the input
    # rules, but the step generators' 1-norms, about 1e295, are too large to
    # scale: exit 4, not an overflow in the Taylor plan
    cfg = write_config(
        tmp_path,
        system={"drift": {"zz": 1.0}, "controls": [{"xi": 1e100}]},
        states={"initial": [1, 0, 0, 0], "target": [0, 0, 1, 0]},
        grid={"T": 10.0, "N_T": 20},
    )
    pulse = tmp_path / "pulse.csv"
    cli.write_pulse_file(pulse, TimeGrid(T=10.0, n_steps=20), np.full((1, 20), 1e195))
    assert cli.main(["propagate", str(pulse), "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert "beyond scaling" in capsys.readouterr().err


# A stock config with every section on a short grid and a small ensemble,
# and the dotted path of every section and field that a generated value
# replaces (guess.path has no default)
GENERATED_BASE = copy.deepcopy(cli.DEFAULT_CONFIG)
GENERATED_BASE["grid"]["N_T"] = 8
GENERATED_BASE["ensemble"]["count"] = 4
CONFIG_PATHS = [(section,) for section in GENERATED_BASE] + [
    (section, key)
    for section, fields in GENERATED_BASE.items()
    if isinstance(fields, dict)
    for key in list(fields) + (["path"] if section == "guess" else [])
]


def json_values(numbers):
    """JSON values: null, booleans, the given numbers, short strings, and
    lists and objects of them nested a little."""
    leaves = st.none() | st.booleans() | numbers | st.text(max_size=3)
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=5,
    )


def replaced_config(path, value):
    raw = copy.deepcopy(GENERATED_BASE)
    if len(path) == 1:
        raw[path[0]] = value
    else:
        raw[path[0]][path[1]] = value
    return raw


# Every double, NaN and the infinities included, and integers of any size:
# the magnitude rule (cli.MAX_MAGNITUDE) turns away what would overflow or
# underflow while the config loads, which under this suite's "error" filter
# would surface as a RuntimeWarning, not as a configuration error
ANY_FLOATS = st.floats()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(CONFIG_PATHS), value=json_values(st.integers() | ANY_FLOATS))
def test_generated_config_loads_or_is_config_error(tmp_path_factory, path, value):
    # one field or section of a stock config replaced by a generated JSON
    # value: load_experiment returns an experiment or raises ValueError with
    # a message, and nothing else
    cfg = tmp_path_factory.mktemp("generated") / "config.json"
    cfg.write_text(json.dumps(replaced_config(path, value)))
    try:
        exp = cli.load_experiment(config_path=cfg)
    except ValueError as exc:
        assert str(exc)
    else:
        sizes = exp.h_family.dim, exp.problem.n_controls, exp.grid.n_steps, exp.count
        assert cli._array_bytes("", *sizes) <= cli.MAX_ARRAY_BYTES


SMALL_NUMBERS = st.integers(-2, 12) | st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(CONFIG_PATHS), value=SMALL_NUMBERS | json_values(SMALL_NUMBERS))
def test_generated_config_propagate_exits_0_or_2(tmp_path_factory, path, value):
    # the command line on a few of those configs, half of them with a number
    # in place of a field: a run or a configuration error, never a traceback
    tmp = tmp_path_factory.mktemp("generated-run")
    pulses = tmp / "pulses.csv"
    cli.write_pulse_file(pulses, TimeGrid(T=10.0, n_steps=8), np.full((1, 8), 0.3))
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(replaced_config(path, value)))
    code = cli.main(["propagate", "--config", str(cfg), "--out", str(tmp / "o"), str(pulses)])
    assert code in (0, 2)
