"""Command-line interface: experiment configuration, orchestration, outputs.

Subcommands
-----------
optimize   full pipeline: closed-system Krotov from the guess, then the
           disorder-dressed optimizer from that pulse, then master-equation
           and brute-force evaluation of both pulses
propagate  disorder-dressed propagation of a pulse file
ensemble   brute-force disorder average of a pulse file
sweep      fixed-iteration optimizations across correlation times
compare    side-by-side evaluation of two pulse files

Configuration is a single JSON file, layered over ``DEFAULT_CONFIG``: every
omitted field takes its default (the stock single-qubit experiments: T = 10,
100 steps, Gaussian kernel with C0 = 0.01 and t_corr = 100, 4000 ensemble
realizations).  The fields whose default is null (the states, the guess
kind and the task-specific Krotov fields) then take the task's preset in
:mod:`ddcontrol.tasks`, a partial config; a ``custom`` task has none, so
its config must set them.  All floats are written with 17 significant
digits, so re-running a command with the same config and seed reproduces
its output files byte for byte.

Exit codes: 0 success, 2 configuration error, 3 optimizer did not converge
(partial outputs are still written), 4 numerical failure.
"""

import argparse
import copy
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .linalg import NumericalError, pauli_string, projector, trace_distance
from .model import (
    KERNEL_KINDS,
    CorrelationKernel,
    HamiltonianFamily,
    TimeGrid,
    as_pulses,
    sample_perturbations,
)
from .krotov import ControlProblem, KrotovConfig, ddme_krotov, run_correlation_sweep, se_krotov
from .propagation import ddme_propagate, ensemble_average, unitary_average
from .tasks import TASK_PRESETS, guess_pulses

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_NUMERICAL = 4

SWEEP_TCORR_FACTORS = (0.05, 0.2, 0.6, 1.0, 1.4)

# The largest grid.N_T a config may set, checked before any array is built.
# A memory kernel's Riemann-sum weights take 8 M^2 (N_T + 1) N_T bytes for M
# controls, 0.8 GB for one control at this limit.
MAX_STEPS = 10_000

# The largest ensemble.count (N_T + 1) a config or ``ensemble --count`` may
# ask for, checked before sampling: each realization's kets take
# 16 d (N_T + 1) bytes for dimension d, 3.2 GB for a qubit at this limit.
MAX_ENSEMBLE_KETS = 10**8

DEFAULT_CONFIG = {
    "task": "z-gate",
    "system": {"drift": {"z": 1.0}, "controls": [{"x": 1.0}]},
    "grid": {"T": 10.0, "N_T": 100},
    "kernel": {"kind": "stationary-gaussian", "C0": 0.01, "t_corr": 100.0},
    "guess": {"kind": None},
    "krotov": {
        "lambda": None,
        "J_tol": None,
        "i_max": 50,
        "t_on": None,
        "t_off": None,
        "se_lambda": None,
        "se_J_tol": 1.0e-4,
        "se_i_max": 1000,
    },
    "states": {"initial": None, "target": None},
    "ensemble": {"count": 4000, "seed": 7},
    "outputs": "out",
}


def _fmt(value):
    """17-significant-digit float formatting; integers stay integers."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, Path):
        return str(obj)
    return obj


def write_json(path, payload):
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _merge(user):
    """The default config overridden by a user config, one section deep.

    Rejects unknown keys (``guess.path`` is the one key without a default),
    sections that are not objects, top-level values (``task``,
    ``outputs``) that are not strings, and null where the default is not null;
    a null default means "take the task preset".  Values inside a section,
    such as a Pauli dictionary, replace the default whole.
    """
    raw = copy.deepcopy(DEFAULT_CONFIG)
    unknown = sorted(set(user) - set(raw))
    fields = []
    for key in sorted(set(user) & set(raw)):
        value = user[key]
        if isinstance(raw[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config section {key} must be a JSON object, got {value!r}")
            allowed = set(raw[key]) | ({"path"} if key == "guess" else set())
            unknown += [f"{key}.{k}" for k in sorted(set(value) - allowed)]
            fields += [(f"{key}.{k}", v, raw[key].get(k)) for k, v in value.items()]
            raw[key].update(copy.deepcopy(value))
        else:
            if value is not None:
                _string(value, key)
            fields.append((key, value, raw[key]))
            raw[key] = value
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    nulls = sorted(name for name, value, default in fields if value is None and default is not None)
    if nulls:
        raise ValueError(f"config keys must not be null: {', '.join(nulls)}")
    return raw


def _finite_float(text):
    """JSON float literal to float; rejects literals that overflow to infinity."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def _finite_int(text):
    """JSON integer literal to int; rejects integers beyond the float range."""
    _finite_float(text)
    return int(text)


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} is not allowed")


def _real(value, name):
    """A real config field: a JSON number, not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _integer(value, name):
    """An integer config field; a float is accepted only if it is integral."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _ensemble_count(count, grid, name):
    """``count``, if the ensemble's ``count (N_T + 1)`` kets are within
    ``MAX_ENSEMBLE_KETS``."""
    limit = MAX_ENSEMBLE_KETS // (grid.n_steps + 1)
    if count > limit:
        raise ValueError(
            f"{name} must be at most {limit} on a grid of N_T = {grid.n_steps} "
            f"(count (N_T + 1) <= {MAX_ENSEMBLE_KETS}), got {count}"
        )
    return count


def _string(value, name):
    """A text config field: a JSON string."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _complex(entry, name):
    """A matrix or ket entry: a real number or an [re, im] pair."""
    if isinstance(entry, list) and len(entry) == 2:
        return complex(_real(entry[0], f"{name}[0]"), _real(entry[1], f"{name}[1]"))
    return complex(_real(entry, name))


def _parse_operator(spec, name):
    """Operator from a Pauli-coefficient dict or an explicit matrix."""
    if isinstance(spec, dict):
        if not spec:
            raise ValueError(f"{name}: empty Pauli-coefficient dictionary")
        out = None
        for label in sorted(spec):
            term = _real(spec[label], f"{name}.{label}") * pauli_string(label)
            out = term if out is None else out + term
        return out
    if isinstance(spec, list):
        for i, row in enumerate(spec):
            if not isinstance(row, list):
                raise ValueError(f"{name}[{i}]: expected a matrix row, a list, got {row!r}")
        rows = [
            [_complex(e, f"{name}[{i}][{j}]") for j, e in enumerate(row)] for i, row in enumerate(spec)
        ]
        return np.array(rows, dtype=complex)
    raise ValueError(f"{name}: expected a Pauli dictionary or a nested matrix, got {type(spec).__name__}")


def _parse_state(spec, name):
    if isinstance(spec, str):
        return projector(spec)
    if isinstance(spec, list):
        return projector(np.array([_complex(e, f"{name}[{i}]") for i, e in enumerate(spec)]))
    raise ValueError(f"{name}: expected a ket label or an explicit ket vector")


def _lambdas(value, name, n_controls):
    """An inverse step size: one number, or a list with one per control."""
    if isinstance(value, list):
        if len(value) != n_controls:
            raise ValueError(f"{name} lists {len(value)} values for {n_controls} controls")
        return [_real(x, f"{name}[{i}]") for i, x in enumerate(value)]
    return _real(value, name)


class ResolvedExperiment:
    """Everything a command needs, derived from one merged config dict."""

    def __init__(self, raw):
        self.resolved = raw
        task = raw["task"]
        if task != "custom" and task not in TASK_PRESETS:
            raise ValueError(
                f"unknown task {task!r}; expected one of {sorted(TASK_PRESETS)} or 'custom'"
            )
        # the task's preset fills the fields left null; guess.path has none
        preset = TASK_PRESETS.get(task, {})
        missing = []
        for section, fields in raw.items():
            for key, value in fields.items() if isinstance(fields, dict) else ():
                if value is None and key != "path":
                    fields[key] = preset.get(section, {}).get(key)
                    if fields[key] is None:
                        missing.append(f"{section}.{key}")
        if missing:
            raise ValueError(f"task {task!r} requires {', '.join(missing)}")

        grid_cfg = raw["grid"]
        n_steps = _integer(grid_cfg["N_T"], "grid.N_T")
        if n_steps > MAX_STEPS:
            raise ValueError(f"grid.N_T must be at most {MAX_STEPS}, got {n_steps}")
        self.grid = TimeGrid(T=_real(grid_cfg["T"], "grid.T"), n_steps=n_steps)

        controls = raw["system"]["controls"]
        if not isinstance(controls, list):
            raise ValueError(f"system.controls must be a list of operators, got {controls!r}")
        self.h_family = HamiltonianFamily(
            drift=_parse_operator(raw["system"]["drift"], "system.drift"),
            controls=tuple(_parse_operator(c, f"system.controls[{i}]") for i, c in enumerate(controls)),
        )

        kern = raw["kernel"]
        kind = kern["kind"]
        m = self.h_family.n_controls
        if kind == "zero":
            self.kernel = CorrelationKernel.zero(m)
        elif kind == "stationary-gaussian":
            c0 = _real(kern["C0"], "kernel.C0")
            if c0 == 0.0:
                self.kernel = CorrelationKernel.zero(m)
            else:
                self.kernel = CorrelationKernel.gaussian(c0, _real(kern["t_corr"], "kernel.t_corr"), m)
        elif kind == "white-noise":
            self.kernel = CorrelationKernel.white_noise(_real(kern["C0"], "kernel.C0"), m)
        else:
            raise ValueError(f"kernel.kind must be one of {KERNEL_KINDS}, got {kind!r}")

        # the resolved config records each state as its unit ket
        states = {key: _parse_state(spec, f"states.{key}") for key, spec in raw["states"].items()}
        raw["states"] = {
            key: _jsonable([[x.real, x.imag] for x in np.linalg.eigh(rho)[1][:, -1]])
            for key, rho in states.items()
        }
        self.problem = ControlProblem(
            rho0=states["initial"],
            rho_targ=states["target"],
            h_family=self.h_family,
            grid=self.grid,
            kernel=self.kernel,
        )

        guess = raw["guess"]
        kind = _string(guess["kind"], "guess.kind")
        if guess.get("path") is not None:
            _string(guess["path"], "guess.path")
        if kind == "tabulated":
            if not guess.get("path"):
                raise ValueError("guess.kind 'tabulated' requires guess.path")
            self.guess = read_pulse_file(guess["path"], self.grid, m)
        else:
            self.guess = np.tile(guess_pulses(kind, self.grid), (m, 1))

        kro = raw["krotov"]

        def krotov_config(prefix):
            return KrotovConfig.with_blackman_ramps(
                self.grid,
                _lambdas(kro[f"{prefix}lambda"], f"krotov.{prefix}lambda", m),
                _real(kro["t_on"], "krotov.t_on"),
                _real(kro["t_off"], "krotov.t_off"),
                j_tol=_real(kro[f"{prefix}J_tol"], f"krotov.{prefix}J_tol"),
                i_max=_integer(kro[f"{prefix}i_max"], f"krotov.{prefix}i_max"),
                n_controls=m,
            )

        self.ddme_config = krotov_config("")
        self.se_config = krotov_config("se_")

        count = _integer(raw["ensemble"]["count"], "ensemble.count")
        self.count = _ensemble_count(count, self.grid, "ensemble.count")
        if self.count < 1:
            raise ValueError(f"ensemble.count must be at least 1, got {self.count}")
        self.seed = _integer(raw["ensemble"]["seed"], "ensemble.seed")
        if self.seed < 0:
            raise ValueError(f"ensemble.seed must be nonnegative, got {self.seed}")
        self.outputs = Path(raw["outputs"])


def load_experiment(config_path=None, task=None, seed=None, out=None):
    """Merge defaults, config file and command-line overrides, then resolve."""
    raw = copy.deepcopy(DEFAULT_CONFIG)
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read config file {config_path}: {exc}") from None
        try:
            user = json.loads(
                text,
                parse_float=_finite_float,
                parse_int=_finite_int,
                parse_constant=_reject_constant,
            )
        except ValueError as exc:  # includes json.JSONDecodeError
            raise ValueError(f"config file {config_path} is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ValueError("config file must contain a JSON object")
        raw = _merge(user)
    if task is not None:
        raw["task"] = task
    if seed is not None:
        raw["ensemble"]["seed"] = seed
    if out is not None:
        raw["outputs"] = str(out)
    return ResolvedExperiment(raw)


def read_pulse_file(path, grid: TimeGrid, n_controls):
    """Read a standalone pulse file: columns k, t_mid, f_1 ... f_M.

    Every row must have exactly one field per header column and numeric
    pulse values; a row that does not is rejected with its line number.
    """
    names = [f"f_{m + 1}" for m in range(n_controls)]
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in names if c not in (reader.fieldnames or [])]
            if missing:
                raise ValueError(
                    f"pulse file {path} lacks columns {missing}; "
                    f"found {reader.fieldnames}"
                )
            for row in reader:
                # DictReader files the fields past the header under the key
                # None and fills the columns a short row lacks with None
                if None in row or None in row.values():
                    raise ValueError(
                        f"pulse file {path} line {reader.line_num} does not have "
                        f"the header's {len(reader.fieldnames)} fields"
                    )
                try:
                    rows.append([float(row[c]) for c in names])
                except ValueError as exc:
                    raise ValueError(f"pulse file {path} line {reader.line_num}: {exc}") from None
    except OSError as exc:
        raise ValueError(f"cannot read pulse file {path}: {exc}") from None
    if len(rows) != grid.n_steps:
        raise ValueError(
            f"pulse file {path} has {len(rows)} rows but the grid has "
            f"{grid.n_steps} steps"
        )
    return as_pulses(np.ascontiguousarray(np.array(rows).T), grid, n_controls)


def write_pulse_file(path, grid: TimeGrid, pulses):
    pulses = np.asarray(pulses)
    header = ["k", "t_mid"] + [f"f_{m + 1}" for m in range(pulses.shape[0])]
    rows = [
        [k + 1, grid.midpoints[k]] + [pulses[m, k] for m in range(pulses.shape[0])]
        for k in range(grid.n_steps)
    ]
    write_csv(path, header, rows)


def write_combined_pulses(path, grid: TimeGrid, guess, f_se, f_ddme):
    m = guess.shape[0]
    suffixes = [""] if m == 1 else [f"_{i + 1}" for i in range(m)]
    header = ["k", "t_mid"] + [f"f_{name}{x}" for name in ("guess", "se", "ddme") for x in suffixes]
    rows = [
        [k + 1, grid.midpoints[k]] + [p[i, k] for p in (guess, f_se, f_ddme) for i in range(m)]
        for k in range(grid.n_steps)
    ]
    write_csv(path, header, rows)


def write_trajectory(path, traj):
    header = ["s", "t", "purity", "fidelity"]
    columns = [range(len(traj.times)), traj.times, traj.purity, traj.fidelity]
    if traj.bloch is not None:
        header += ["bloch_x", "bloch_y", "bloch_z"]
        columns += list(traj.bloch.T)
    write_csv(path, header, zip(*columns))


def write_trace(path, j_values):
    write_csv(path, ["iteration", "J_T"], [[i, j] for i, j in enumerate(j_values)])


def _check_finite_trajectory(traj, label):
    if not np.isfinite(traj.states).all():
        raise NumericalError(f"{label} trajectory contains non-finite entries")


def _evaluate_pulse(exp: ResolvedExperiment, pulses):
    """Master-equation and ensemble trajectories of one pulse set, and their metrics."""
    master = ddme_propagate(exp.problem, pulses)
    ens = ensemble_average(exp.problem, pulses, exp.count, exp.seed)
    _check_finite_trajectory(master, "master")
    _check_finite_trajectory(ens, "ensemble")
    return master, ens, {
        "final_fidelity": master.final_fidelity,
        "final_purity": master.final_purity,
        "min_purity": master.min_purity,
        "max_trace_distance_master_vs_ensemble": float(
            np.max(trace_distance(master.states, ens.states))
        ),
    }


def run_task(exp: ResolvedExperiment):
    """Full pipeline; returns (exit_code, summary dict)."""
    out = exp.outputs
    out.mkdir(parents=True, exist_ok=True)
    problem = exp.problem

    se_trace = se_krotov(problem, exp.guess, exp.se_config)
    ddme_trace = ddme_krotov(problem, se_trace.pulses, exp.ddme_config)

    # same seed for both pulses: common random numbers sharpen the comparison
    traj_se_master, traj_se_ens, se = _evaluate_pulse(exp, se_trace.pulses)
    traj_ddme_master, traj_ddme_ens, ddme = _evaluate_pulse(exp, ddme_trace.pulses)

    write_combined_pulses(out / "pulses.csv", exp.grid, exp.guess, se_trace.pulses, ddme_trace.pulses)
    write_pulse_file(out / "pulse_se.csv", exp.grid, se_trace.pulses)
    write_pulse_file(out / "pulse_ddme.csv", exp.grid, ddme_trace.pulses)
    write_trajectory(out / "trajectory_se_master.csv", traj_se_master)
    write_trajectory(out / "trajectory_ddme_master.csv", traj_ddme_master)
    write_trajectory(out / "trajectory_se_ensemble.csv", traj_se_ens)
    write_trajectory(out / "trajectory_ddme_ensemble.csv", traj_ddme_ens)
    write_trace(out / "optimization_trace.csv", ddme_trace.j_values)
    write_trace(out / "se_optimization_trace.csv", se_trace.j_values)

    td_se = se["max_trace_distance_master_vs_ensemble"]
    td_ddme = ddme["max_trace_distance_master_vs_ensemble"]
    converged = bool(se_trace.converged and ddme_trace.converged)
    diffs = np.diff(ddme_trace.j_values)
    summary = {
        "config": exp.resolved,
        "final_fidelity_se": se["final_fidelity"],
        "final_fidelity_ddme": ddme["final_fidelity"],
        "final_purity_se": se["final_purity"],
        "final_purity_ddme": ddme["final_purity"],
        "min_purity_se": se["min_purity"],
        "min_purity_ddme": ddme["min_purity"],
        "max_trace_distance_master_vs_ensemble": max(td_se, td_ddme),
        "max_trace_distance_se": td_se,
        "max_trace_distance_ddme": td_ddme,
        "iterations": ddme_trace.iterations,
        "converged": converged,
        "se": {
            "iterations": se_trace.iterations,
            "converged": bool(se_trace.converged),
            "final_cost": float(se_trace.j_values[-1]),
        },
        "ddme": {
            "iterations": ddme_trace.iterations,
            "converged": bool(ddme_trace.converged),
            "final_cost": float(ddme_trace.j_values[-1]),
            "cost_increase_count": int(np.sum(diffs > 0)),
        },
    }
    write_json(out / "summary.json", summary)
    print(f"final fidelity: se {se['final_fidelity']:.6f}, ddme {ddme['final_fidelity']:.6f}")
    if not converged:
        print("warning: optimization did not converge within the iteration budget", file=sys.stderr)
    return (EXIT_OK if converged else EXIT_NOT_CONVERGED), summary


def run_sweep(exp: ResolvedExperiment, tcorr_list, iterations):
    """Correlation-time sweep from the closed-system optimum; returns exit code."""
    if exp.kernel.kind != "stationary-gaussian":
        raise ValueError("sweep requires a stationary Gaussian kernel in the config")
    out = exp.outputs
    out.mkdir(parents=True, exist_ok=True)
    se_trace = se_krotov(exp.problem, exp.guess, exp.se_config)
    series = run_correlation_sweep(
        exp.problem, se_trace.pulses, exp.ddme_config, tcorr_list, iterations
    )
    rows = []
    for t_corr, j_values in zip(tcorr_list, series):
        for i, j in enumerate(j_values):
            rows.append([t_corr, i, j])
    write_csv(out / "sweep.csv", ["t_corr", "iteration", "J_T"], rows)
    write_json(
        out / "sweep.json",
        {
            "config": exp.resolved,
            "iterations": iterations,
            "t_corr": list(tcorr_list),
            "final_J_T": [float(j[-1]) for j in series],
            "se_converged": bool(se_trace.converged),
        },
    )
    if not se_trace.converged:
        print("warning: closed-system stage did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def run_compare(exp: ResolvedExperiment, path_a, path_b):
    pulses_a = read_pulse_file(path_a, exp.grid, exp.problem.n_controls)
    pulses_b = read_pulse_file(path_b, exp.grid, exp.problem.n_controls)
    out = exp.outputs
    out.mkdir(parents=True, exist_ok=True)
    _, _, metrics_a = _evaluate_pulse(exp, pulses_a)
    _, _, metrics_b = _evaluate_pulse(exp, pulses_b)
    report = {
        "config": exp.resolved,
        "a": {"path": str(path_a), **metrics_a},
        "b": {"path": str(path_b), **metrics_b},
        "fidelity_gap": metrics_b["final_fidelity"] - metrics_a["final_fidelity"],
    }
    write_json(out / "compare.json", report)
    width = max(len(k) for k in metrics_a)
    print(f"{'metric':<{width}}  {'a':>12}  {'b':>12}")
    for key in metrics_a:
        print(f"{key:<{width}}  {metrics_a[key]:>12.6f}  {metrics_b[key]:>12.6f}")
    return EXIT_OK


def run_propagate(exp: ResolvedExperiment, pulse_path):
    pulses = read_pulse_file(pulse_path, exp.grid, exp.problem.n_controls)
    out = exp.outputs
    out.mkdir(parents=True, exist_ok=True)
    traj = ddme_propagate(exp.problem, pulses)
    _check_finite_trajectory(traj, "master")
    write_trajectory(out / "trajectory.csv", traj)
    write_json(
        out / "propagate.json",
        {
            "config": exp.resolved,
            "pulses": str(pulse_path),
            "final_fidelity": traj.final_fidelity,
            "final_purity": traj.final_purity,
            "min_purity": traj.min_purity,
        },
    )
    print(f"final fidelity {traj.final_fidelity:.6f}, final purity {traj.final_purity:.6f}")
    return EXIT_OK


def run_ensemble(exp: ResolvedExperiment, pulse_path, count=None, realization=None):
    pulses = read_pulse_file(pulse_path, exp.grid, exp.problem.n_controls)
    count = exp.count if count is None else _ensemble_count(count, exp.grid, "--count")
    if realization is not None and not 0 <= realization < count:
        raise ValueError(f"realization index {realization} outside 0..{count - 1}")
    # the draws of ensemble_average, sampled once for the average and draw r;
    # sampling rejects a count below one
    sets = pulses + sample_perturbations(exp.kernel, exp.grid, count, exp.seed)
    out = exp.outputs
    out.mkdir(parents=True, exist_ok=True)
    traj = unitary_average(exp.problem, sets)
    _check_finite_trajectory(traj, "ensemble")
    write_trajectory(out / "trajectory_ensemble.csv", traj)
    if realization is not None:
        single = unitary_average(exp.problem, sets[realization : realization + 1])
        write_trajectory(out / f"trajectory_realization_{realization}.csv", single)
    write_json(
        out / "ensemble.json",
        {
            "config": exp.resolved,
            "pulses": str(pulse_path),
            "count": count,
            "seed": exp.seed,
            "final_fidelity": traj.final_fidelity,
            "final_purity": traj.final_purity,
            "min_purity": traj.min_purity,
        },
    )
    print(f"ensemble of {count}: final fidelity {traj.final_fidelity:.6f}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ddcontrol",
        description="Robust pulse optimization under disorder-dressed evolution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--task", default=None, help="task preset name or 'custom'")
        p.add_argument("--seed", type=int, default=None, help="ensemble sampling seed")
        p.add_argument("--out", type=Path, default=None, help="output directory")

    p_opt = sub.add_parser("optimize", help="run the full optimization pipeline")
    common(p_opt)

    p_prop = sub.add_parser("propagate", help="propagate a pulse file under the configured kernel")
    common(p_prop)
    p_prop.add_argument("pulses", type=Path, help="pulse file (columns k, t_mid, f_1..f_M)")

    p_ens = sub.add_parser("ensemble", help="brute-force disorder average of a pulse file")
    common(p_ens)
    p_ens.add_argument("pulses", type=Path)
    p_ens.add_argument("--count", type=int, default=None, help="number of realizations")
    p_ens.add_argument(
        "--realization",
        type=int,
        default=None,
        help="also write the closed-system trajectory of this sampled realization",
    )

    p_sweep = sub.add_parser("sweep", help="fixed-iteration optimizations across correlation times")
    common(p_sweep)
    p_sweep.add_argument(
        "--iterations", type=int, default=30, help="iterations per correlation time"
    )
    p_sweep.add_argument(
        "--tcorr",
        type=float,
        action="append",
        default=None,
        help="correlation time (repeatable); default 0.05T, 0.2T, 0.6T, T, 1.4T",
    )

    p_cmp = sub.add_parser("compare", help="evaluate two pulse files side by side")
    common(p_cmp)
    p_cmp.add_argument("pulse_a", type=Path)
    p_cmp.add_argument("pulse_b", type=Path)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        exp = load_experiment(config_path=args.config, task=args.task, seed=args.seed, out=args.out)
        if args.command == "optimize":
            code, _ = run_task(exp)
            return code
        if args.command == "propagate":
            return run_propagate(exp, args.pulses)
        if args.command == "ensemble":
            return run_ensemble(exp, args.pulses, count=args.count, realization=args.realization)
        if args.command == "sweep":
            if args.iterations < 1:
                raise ValueError(f"need at least one iteration, got {args.iterations}")
            tcorr = args.tcorr
            if tcorr is None:
                tcorr = [f * exp.grid.T for f in SWEEP_TCORR_FACTORS]
            return run_sweep(exp, tcorr, args.iterations)
        if args.command == "compare":
            return run_compare(exp, args.pulse_a, args.pulse_b)
        raise ValueError(f"unknown command {args.command!r}")
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
