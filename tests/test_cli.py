import csv
import json
from pathlib import Path

import numpy as np
import pytest

from ddcontrol import cli
from ddcontrol.model import sample_perturbations


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


def test_invalid_kernel_kind_is_config_error(tmp_path):
    cfg = write_config(tmp_path, kernel={"kind": "pink-noise", "C0": 0.01, "t_corr": 1.0})
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_custom_task_requires_states(tmp_path):
    cfg = write_config(tmp_path, task="custom")
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


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


def test_non_convergence_exit_code_and_partial_outputs(tmp_path):
    cfg = write_config(tmp_path, krotov={"J_tol": 1e-9, "i_max": 1})
    out = tmp_path / "run"
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is False
    assert (out / "pulses.csv").exists()


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


@pytest.mark.parametrize("bad_row", ["7,2.1667", "7,2.1667,0.5,0.25"], ids=["short", "long"])
def test_malformed_pulse_file_row_is_config_error(tmp_path, capsys, bad_row):
    # a row with too few or too many fields is rejected at the config
    # boundary, naming the file and the row's line
    cfg = write_config(tmp_path)
    path = tmp_path / "bad_pulse.csv"
    lines = ["k,t_mid,f_1"] + [f"{k + 1},{(k + 0.5) / 3.0},0.5" for k in range(30)]
    lines[7] = bad_row
    path.write_text("\n".join(lines) + "\n")
    code = cli.main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "o"), str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "line 8" in err


def test_non_numeric_pulse_value_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    path = tmp_path / "bad_pulse.csv"
    lines = ["k,t_mid,f_1"] + [f"{k + 1},{(k + 0.5) / 3.0},0.5" for k in range(30)]
    lines[3] = "3,0.8333,half"
    path.write_text("\n".join(lines) + "\n")
    code = cli.main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "o"), str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "line 4" in err
