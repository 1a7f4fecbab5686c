"""Single-qubit state-transfer presets and guess pulses.

All three stock tasks drive a qubit with drift sigma_z and a single
sigma_x control on a grid with T = 10 and 100 steps (units with the drift
frequency and hbar set to 1):

* ``z-gate``:   |+> -> |->,  Gaussian guess,  ramps t_on = t_off = 2
* ``x-gate``:   |0> -> |1>,  Gaussian guess,  ramps t_on = t_off = 2
* ``hadamard``: |0> -> |+>,  sine guess,      ramps t_on = t_off = 0.3

A preset is a partial config, keyed like the CLI's config sections: it
holds the fields whose config default is ``null``, and the CLI fills every
such field the user leaves ``null`` from the task's preset.
"""

import numpy as np

from .model import TimeGrid

# The closed-system stage has no published step size; the per-task values
# of se_lambda make that stage converge and leave the downstream
# disorder-aware optimization at its reported operating point.
TASK_PRESETS = {
    "z-gate": {
        "states": {"initial": "+", "target": "-"},
        "guess": {"kind": "gaussian"},
        "krotov": {"lambda": 1.25, "J_tol": 0.003, "t_on": 2.0, "t_off": 2.0, "se_lambda": 0.5},
    },
    "x-gate": {
        "states": {"initial": "0", "target": "1"},
        "guess": {"kind": "gaussian"},
        "krotov": {"lambda": 0.5, "J_tol": 0.003, "t_on": 2.0, "t_off": 2.0, "se_lambda": 2.0},
    },
    "hadamard": {
        "states": {"initial": "0", "target": "+"},
        "guess": {"kind": "sine"},
        "krotov": {"lambda": 1.25, "J_tol": 0.003, "t_on": 0.3, "t_off": 0.3, "se_lambda": 4.0},
    },
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

