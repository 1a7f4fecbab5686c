"""Single-qubit state-transfer presets and guess pulses.

All three stock tasks drive a qubit with drift sigma_z and a single
sigma_x control on a grid with T = 10 and 100 steps (units with the drift
frequency and hbar set to 1):

* ``z-gate``:   |+> -> |->,  Gaussian guess,  ramps t_on = t_off = 2
* ``x-gate``:   |0> -> |1>,  Gaussian guess,  ramps t_on = t_off = 2
* ``hadamard``: |0> -> |+>,  sine guess,      ramps t_on = t_off = 0.3
"""

from dataclasses import dataclass

import numpy as np

from .linalg import projector
from .model import TimeGrid


@dataclass(frozen=True)
class TaskPreset:
    initial: str
    target: str
    guess: str
    t_on: float
    t_off: float
    ddme_lambda: float
    ddme_j_tol: float
    se_lambda: float


# The closed-system stage has no published step size; the per-task values
# below make that stage converge and leave the downstream disorder-aware
# optimization at its reported operating point.
TASK_PRESETS = {
    "z-gate": TaskPreset("+", "-", "gaussian", 2.0, 2.0, 1.25, 0.003, 0.5),
    "x-gate": TaskPreset("0", "1", "gaussian", 2.0, 2.0, 0.5, 0.003, 2.0),
    "hadamard": TaskPreset("0", "+", "sine", 0.3, 0.3, 1.25, 0.003, 4.0),
}


def gaussian_guess(grid: TimeGrid):
    """Gaussian centered at T/2 with unit width, sampled at the midpoints."""
    t = grid.midpoints
    return np.exp(-0.5 * (t - grid.T / 2.0) ** 2)[None, :]


def sine_guess(grid: TimeGrid):
    """Half sine arch sin(pi t / T), sampled at the midpoints."""
    t = grid.midpoints
    return np.sin(np.pi * t / grid.T)[None, :]


GUESS_BUILDERS = {"gaussian": gaussian_guess, "sine": sine_guess}


def guess_pulses(kind, grid: TimeGrid):
    if kind not in GUESS_BUILDERS:
        raise ValueError(f"unknown guess kind {kind!r}; expected one of {sorted(GUESS_BUILDERS)}")
    return GUESS_BUILDERS[kind](grid)


def task_states(task):
    """Initial and target projectors for a stock task name."""
    if task not in TASK_PRESETS:
        raise ValueError(f"unknown task {task!r}; expected one of {sorted(TASK_PRESETS)}")
    preset = TASK_PRESETS[task]
    return projector(preset.initial), projector(preset.target)
