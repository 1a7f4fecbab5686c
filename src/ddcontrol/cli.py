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

Configuration is a single JSON file of sections, read against ``SCHEMA``:
one table that gives every field, by dotted name such as ``grid.T``, its
default and its reader.  ``load_experiment`` makes one pass over it.  The
user's config replaces the defaults one section deep; the ``--task``,
``--seed`` and ``--out`` flags replace their fields; the fields whose
default is null (the states, the guess kind and the task-specific Krotov
fields) take the task's preset in :mod:`ddcontrol.tasks`, a partial
config; and every field is read by its reader, then by the library
constructors, and an error from either names the dotted keys of the
fields it comes from.  A ``custom`` task has no preset, so its config must
set the null fields.  The defaults are the stock single-qubit experiments:
T = 10, 100 steps, Gaussian kernel with C0 = 0.01 and t_corr = 100, 4000
ensemble realizations.  ``DEFAULT_CONFIG`` is the table's defaults as sections.
All floats are written with 17 significant digits, so re-running a
command with the same config and seed reproduces its output files byte
for byte.

Exit codes: 0 success, 2 configuration error, 3 optimizer did not converge
(partial outputs are still written), 4 numerical failure.
"""

import argparse
import copy
import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .linalg import NumericalError, pauli_string, projector, trace_distance
from .model import (
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
# ask for, checked before sampling.  The ensemble keeps no ket history; its
# largest arrays are the pulse sets, their step-major copy and the
# sampler's draws, about 8 M N_T bytes each per realization for M
# controls, 0.8 GB each for one control at this limit.
MAX_ENSEMBLE_KETS = 10**8

# The magnitude rule of every real config number and of ``sweep --tcorr``:
# 0, or 1 / MAX_MAGNITUDE <= |x| <= MAX_MAGNITUDE.  A square or a quotient
# of two such numbers is a finite normal float, so nothing that passes
# overflows or underflows to zero while a config loads; NaN and the
# infinities fail the rule.
MAX_MAGNITUDE = 1e100


def _real(value, name):
    """A real config field or flag: a number, not a boolean, that keeps the
    magnitude rule."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if value != 0 and not 1 / MAX_MAGNITUDE <= abs(value) <= MAX_MAGNITUDE:
        bounds = f"{1 / MAX_MAGNITUDE:g} to {MAX_MAGNITUDE:g}"
        raise ValueError(f"{name} must be 0 or of magnitude {bounds}, got {value!r}")
    return float(value)


def _integer(value, name):
    """An integer config field; a float is accepted only if it is integral."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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


def _operator(spec, name):
    """Operator from a Pauli-coefficient dict or an explicit matrix."""
    if isinstance(spec, dict):
        if not spec:
            raise ValueError(f"{name}: empty Pauli-coefficient dictionary")
        terms = [_real(spec[label], f"{name}.{label}") * pauli_string(label) for label in sorted(spec)]
        return sum(terms[1:], terms[0])
    if isinstance(spec, list):
        for i, row in enumerate(spec):
            if not isinstance(row, list):
                raise ValueError(f"{name}[{i}]: expected a matrix row, a list, got {row!r}")
        rows = [
            [_complex(e, f"{name}[{i}][{j}]") for j, e in enumerate(row)] for i, row in enumerate(spec)
        ]
        return np.array(rows, dtype=complex)
    raise ValueError(f"{name}: expected a Pauli dictionary or a nested matrix, got {type(spec).__name__}")


def _operators(spec, name):
    """A list of operators, as a tuple."""
    if not isinstance(spec, list):
        raise ValueError(f"{name} must be a list of operators, got {spec!r}")
    return tuple(_operator(op, f"{name}[{i}]") for i, op in enumerate(spec))


def _state(spec, name):
    """The projector of a ket label or an explicit ket vector."""
    if isinstance(spec, str):
        return projector(spec)
    if isinstance(spec, list):
        return projector(np.array([_complex(e, f"{name}[{i}]") for i, e in enumerate(spec)]))
    raise ValueError(f"{name}: expected a ket label or an explicit ket vector")


def _step_size(value, name):
    """An inverse step size: one number, or a list with one per control."""
    if isinstance(value, list):
        return [_real(x, f"{name}[{i}]") for i, x in enumerate(value)]
    return _real(value, name)


# guess.path has no default: a config may set it, to a string or null, and
# only then does the resolved config record it
_NO_DEFAULT = object()

# Every config field by dotted name: its default and its reader.  A null
# default means "take the task preset".
SCHEMA = {
    "task": ("z-gate", _string),
    "system.drift": ({"z": 1.0}, _operator),
    "system.controls": ([{"x": 1.0}], _operators),
    "grid.T": (10.0, _real),
    "grid.N_T": (100, _integer),
    "kernel.kind": ("stationary-gaussian", _string),
    "kernel.C0": (0.01, _real),
    "kernel.t_corr": (100.0, _real),
    "guess.kind": (None, _string),
    "guess.path": (_NO_DEFAULT, _string),
    "krotov.lambda": (None, _step_size),
    "krotov.J_tol": (None, _real),
    "krotov.i_max": (50, _integer),
    "krotov.t_on": (None, _real),
    "krotov.t_off": (None, _real),
    "krotov.se_lambda": (None, _step_size),
    "krotov.se_J_tol": (1.0e-4, _real),
    "krotov.se_i_max": (1000, _integer),
    "states.initial": (None, _state),
    "states.target": (None, _state),
    "ensemble.count": (4000, _integer),
    "ensemble.seed": (7, _integer),
    "outputs": ("out", _string),
}


def _sections(flat):
    """A dict keyed by dotted name as a dict of sections."""
    nested = {}
    for name, value in flat.items():
        section, _, key = name.rpartition(".")
        (nested.setdefault(section, {}) if section else nested)[key] = value
    return nested


DEFAULT_CONFIG = _sections({name: d for name, (d, _) in SCHEMA.items() if d is not _NO_DEFAULT})


def _resolve(user, overrides):
    """A run's config by dotted name: ``SCHEMA``'s defaults, the user's
    config one section deep, the flags' ``overrides``, then the task preset
    in the fields still null.

    Rejects unknown keys, sections that are not objects, null where the
    default is not null, and a user value that fails its reader where a
    flag overrides it.  Values inside a section, such as a Pauli
    dictionary, replace the default whole.
    """
    given, unknown = {}, []
    for key, value in user.items():
        if isinstance(DEFAULT_CONFIG.get(key), dict):
            if not isinstance(value, dict):
                raise ValueError(f"config section {key} must be a JSON object, got {value!r}")
            given.update((f"{key}.{k}", v) for k, v in value.items())
        elif key in DEFAULT_CONFIG:
            given[key] = value
        else:
            unknown.append(key)
    unknown += [name for name in given if name not in SCHEMA]
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    nulls = [name for name, v in given.items() if v is None and SCHEMA[name][0] not in (None, _NO_DEFAULT)]
    if nulls:
        raise ValueError(f"config keys must not be null: {', '.join(sorted(nulls))}")
    for name in [name for name in overrides if name in given]:
        SCHEMA[name][1](given[name], name)
    raw = {name: copy.deepcopy(d) for name, (d, _) in SCHEMA.items() if d is not _NO_DEFAULT}
    raw.update(given)
    raw.update(overrides)
    task = _string(raw["task"], "task")
    if task != "custom" and task not in TASK_PRESETS:
        raise ValueError(f"unknown task {task!r}; expected one of {sorted(TASK_PRESETS)} or 'custom'")
    preset = {f"{s}.{k}": v for s, fields in TASK_PRESETS.get(task, {}).items() for k, v in fields.items()}
    left_null = [name for name, (d, _) in SCHEMA.items() if d is None and raw[name] is None]
    raw.update((name, preset.get(name)) for name in left_null)
    missing = [name for name in left_null if raw[name] is None]
    if missing:
        raise ValueError(f"task {task!r} requires {', '.join(missing)}")
    return raw


def _ensemble_count(count, grid, name):
    """``count``, if it is at least 1 and the ensemble's ``count (N_T + 1)``
    kets are within ``MAX_ENSEMBLE_KETS``."""
    limit = MAX_ENSEMBLE_KETS // (grid.n_steps + 1)
    if count < 1:
        raise ValueError(f"{name} needs at least one realization, got {count}")
    if count > limit:
        raise ValueError(
            f"{name} must be at most {limit} on a grid of N_T = {grid.n_steps} "
            f"(count (N_T + 1) <= {MAX_ENSEMBLE_KETS}), got {count}"
        )
    return count


class ResolvedExperiment:
    """Everything a command needs, read from one config by dotted name.

    ``raw`` is the config as :func:`_resolve` returns it; ``resolved`` is
    the same config as sections, with each state recorded as its unit ket.
    """

    def __init__(self, raw):
        fields = {}
        for name, (_, read) in SCHEMA.items():
            if raw.get(name) is not None:
                with self._keyed(name):
                    fields[name] = read(raw[name], name)
        if fields["grid.N_T"] > MAX_STEPS:
            raise ValueError(f"grid.N_T must be at most {MAX_STEPS}, got {fields['grid.N_T']}")
        with self._keyed("grid.T", "grid.N_T"):
            self.grid = TimeGrid(T=fields["grid.T"], n_steps=fields["grid.N_T"])
        with self._keyed("system.drift", "system.controls"):
            self.h_family = HamiltonianFamily(fields["system.drift"], fields["system.controls"])
        m = self.h_family.n_controls

        names = ("kernel.kind", "kernel.C0", "kernel.t_corr")
        with self._keyed(*names):
            self.kernel = CorrelationKernel(*map(fields.get, names), n_controls=m)
        with self._keyed("states.initial", "states.target"):
            self.problem = ControlProblem(
                rho0=fields["states.initial"], rho_targ=fields["states.target"],
                h_family=self.h_family, grid=self.grid, kernel=self.kernel,
            )

        if fields["guess.kind"] == "tabulated":
            if not fields.get("guess.path"):
                raise ValueError("guess.kind 'tabulated' requires guess.path")
            with self._keyed("guess.path"):
                self.guess = read_pulse_file(fields["guess.path"], self.grid, m)
        else:
            with self._keyed("guess.kind"):
                self.guess = np.tile(guess_pulses(fields["guess.kind"], self.grid), (m, 1))

        for name in ("krotov.lambda", "krotov.se_lambda"):
            if isinstance(fields[name], list) and len(fields[name]) != m:
                raise ValueError(f"{name} lists {len(fields[name])} values for {m} controls")
        configs = []
        for p in ("", "se_"):
            # the parameters of with_blackman_ramps after the grid, in order
            names = [f"krotov.{key}" for key in (p + "lambda", "t_on", "t_off", p + "J_tol", p + "i_max")]
            with self._keyed(*names):
                args = map(fields.get, names)
                configs.append(KrotovConfig.with_blackman_ramps(self.grid, *args, n_controls=m))
        self.ddme_config, self.se_config = configs

        self.count = _ensemble_count(fields["ensemble.count"], self.grid, "ensemble.count")
        self.seed = fields["ensemble.seed"]
        if self.seed < 0:
            raise ValueError(f"ensemble.seed must be nonnegative, got {self.seed}")
        self.outputs = Path(fields["outputs"])
        for name in ("states.initial", "states.target"):
            ket = np.linalg.eigh(fields[name])[1][:, -1]
            raw[name] = np.column_stack([ket.real, ket.imag]).tolist()
        self.resolved = _sections(raw)

    @staticmethod
    @contextmanager
    def _keyed(*names):
        """Prefix a ValueError raised in the block, by a reader or a library
        constructor, with the dotted keys of the fields the block reads,
        unless its message names one of them already."""
        try:
            yield
        except ValueError as exc:
            if any(name in str(exc) for name in names):
                raise
            raise ValueError(f"{', '.join(names)}: {exc}") from None


def load_experiment(config_path=None, task=None, seed=None, out=None):
    """Resolve a config file and the command-line overrides against ``SCHEMA``."""
    user = {}
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read config file {config_path}: {exc}") from None
        try:
            user = json.loads(text)
        except ValueError as exc:  # includes json.JSONDecodeError
            raise ValueError(f"config file {config_path} is not valid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise ValueError("config file must contain a JSON object")
    overrides = {"task": task, "ensemble.seed": seed, "outputs": None if out is None else str(out)}
    return ResolvedExperiment(_resolve(user, {k: v for k, v in overrides.items() if v is not None}))


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


def _fmt(value):
    """17-significant-digit float formatting; integers stay integers."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_pulse_file(path, grid: TimeGrid, pulses):
    """Write pulses with columns k, t_mid and one per control.

    ``pulses`` is an (M, N) array, written as f_1 ... f_M, or a dict of
    named pulse sets, each written as f_<name>, or as f_<name>_1 ...
    f_<name>_M for several controls.
    """
    sets = pulses if isinstance(pulses, dict) else {None: pulses}
    header, columns = ["k", "t_mid"], [range(1, grid.n_steps + 1), grid.midpoints]
    for name, values in sets.items():
        values = np.asarray(values)
        prefix = "f" if name is None else f"f_{name}"
        numbered = name is None or len(values) > 1
        header += [f"{prefix}_{i + 1}" if numbered else prefix for i in range(len(values))]
        columns += list(values)
    write_csv(path, header, zip(*columns))


def write_trajectory(path, traj):
    header = ["s", "t", "purity", "fidelity"]
    columns = [range(len(traj.times)), traj.times, traj.purity, traj.fidelity]
    if traj.bloch is not None:
        header += ["bloch_x", "bloch_y", "bloch_z"]
        columns += list(traj.bloch.T)
    write_csv(path, header, zip(*columns))


def write_trace(path, j_values):
    write_csv(path, ["iteration", "J_T"], [[i, j] for i, j in enumerate(j_values)])


def _metrics(traj):
    """A trajectory's final fidelity and purity and its lowest purity."""
    return {
        "final_fidelity": traj.final_fidelity,
        "final_purity": traj.final_purity,
        "min_purity": traj.min_purity,
    }


def _evaluate_pulse(exp: ResolvedExperiment, pulses):
    """Master-equation and ensemble trajectories of one pulse set, and their metrics."""
    master = ddme_propagate(exp.problem, pulses)
    ens = ensemble_average(exp.problem, pulses, exp.count, exp.seed)
    distance = float(np.max(trace_distance(master.states, ens.states)))
    return master, ens, {**_metrics(master), "max_trace_distance_master_vs_ensemble": distance}


def _output_dir(exp: ResolvedExperiment):
    """The run's output directory, made if need be; a path that cannot be
    one is a configuration error."""
    try:
        exp.outputs.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot make output directory {exp.outputs}: {exc}") from None
    return exp.outputs


def run_task(exp: ResolvedExperiment):
    """Full pipeline; returns (exit_code, summary dict)."""
    out = _output_dir(exp)
    problem = exp.problem

    se_trace = se_krotov(problem, exp.guess, exp.se_config)
    ddme_trace = ddme_krotov(problem, se_trace.pulses, exp.ddme_config)

    # same seed for both pulses: common random numbers sharpen the comparison
    traj_se_master, traj_se_ens, se = _evaluate_pulse(exp, se_trace.pulses)
    traj_ddme_master, traj_ddme_ens, ddme = _evaluate_pulse(exp, ddme_trace.pulses)

    named = {"guess": exp.guess, "se": se_trace.pulses, "ddme": ddme_trace.pulses}
    write_pulse_file(out / "pulses.csv", exp.grid, named)
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
    """Correlation-time sweep from the closed-system optimum; returns exit code.

    ``tcorr_list`` holds the ``--tcorr`` values, or is None for
    ``SWEEP_TCORR_FACTORS`` times T.  The flags are checked before the
    output directory is made.
    """
    if exp.kernel.kind != "stationary-gaussian":
        raise ValueError("sweep requires a stationary Gaussian kernel in the config")
    if iterations < 1:
        raise ValueError(f"--iterations must be at least 1, got {iterations}")
    if tcorr_list is None:
        tcorr_list = [f * exp.grid.T for f in SWEEP_TCORR_FACTORS]
    elif min(_real(t, "--tcorr") for t in tcorr_list) <= 0.0:
        raise ValueError(f"--tcorr must be positive, got {min(tcorr_list)!r}")
    out = _output_dir(exp)
    se_trace = se_krotov(exp.problem, exp.guess, exp.se_config)
    series = run_correlation_sweep(
        exp.problem, se_trace.pulses, exp.ddme_config, tcorr_list, iterations
    )
    rows = [[t_corr, i, j] for t_corr, j_values in zip(tcorr_list, series) for i, j in enumerate(j_values)]
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
    out = _output_dir(exp)
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
    out = _output_dir(exp)
    traj = ddme_propagate(exp.problem, pulses)
    write_trajectory(out / "trajectory.csv", traj)
    report = {"config": exp.resolved, "pulses": str(pulse_path)}
    write_json(out / "propagate.json", {**report, **_metrics(traj)})
    print(f"final fidelity {traj.final_fidelity:.6f}, final purity {traj.final_purity:.6f}")
    return EXIT_OK


def run_ensemble(exp: ResolvedExperiment, pulse_path, count=None, realization=None):
    pulses = read_pulse_file(pulse_path, exp.grid, exp.problem.n_controls)
    count = exp.count if count is None else _ensemble_count(count, exp.grid, "--count")
    if realization is not None and not 0 <= realization < count:
        raise ValueError(f"--realization index {realization} outside 0..{count - 1}")
    # the draws of ensemble_average, sampled once for the average and draw r
    sets = sample_perturbations(exp.kernel, exp.grid, count, exp.seed)
    sets += pulses
    out = _output_dir(exp)
    traj = unitary_average(exp.problem, sets)
    write_trajectory(out / "trajectory_ensemble.csv", traj)
    if realization is not None:
        single = unitary_average(exp.problem, sets[realization : realization + 1])
        write_trajectory(out / f"trajectory_realization_{realization}.csv", single)
    report = {"config": exp.resolved, "pulses": str(pulse_path), "count": count, "seed": exp.seed}
    write_json(out / "ensemble.json", {**report, **_metrics(traj)})
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
    p_opt.set_defaults(run=lambda exp, args: run_task(exp)[0])

    p_prop = sub.add_parser("propagate", help="propagate a pulse file under the configured kernel")
    common(p_prop)
    p_prop.add_argument("pulses", type=Path, help="pulse file (columns k, t_mid, f_1..f_M)")
    p_prop.set_defaults(run=lambda exp, args: run_propagate(exp, args.pulses))

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
    p_ens.set_defaults(
        run=lambda exp, args: run_ensemble(exp, args.pulses, args.count, args.realization)
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
    p_sweep.set_defaults(run=lambda exp, args: run_sweep(exp, args.tcorr, args.iterations))

    p_cmp = sub.add_parser("compare", help="evaluate two pulse files side by side")
    common(p_cmp)
    p_cmp.add_argument("pulse_a", type=Path)
    p_cmp.add_argument("pulse_b", type=Path)
    p_cmp.set_defaults(run=lambda exp, args: run_compare(exp, args.pulse_a, args.pulse_b))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        exp = load_experiment(config_path=args.config, task=args.task, seed=args.seed, out=args.out)
        return args.run(exp, args)
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
