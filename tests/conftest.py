import numpy as np
import pytest

from ddcontrol.linalg import SIGMA_X, SIGMA_Z, projector, to_coherence
from ddcontrol.model import HamiltonianFamily, TimeGrid
from ddcontrol.propagation import ddme_propagate
from ddcontrol.tasks import TASK_PRESETS
from reference import white_noise_reference

# The two ways to evolve under a white-noise kernel: the propagator cache that
# the optimizer follows, and the directly built Markovian generator of the
# tests' reference.
WHITE_NOISE_PATHS = {
    "ddme_propagate": lambda problem, pulses: ddme_propagate(problem, pulses),
    "white_noise_reference": lambda problem, pulses: white_noise_reference(
        problem, pulses, problem.kernel.c0
    ),
}


def default_h_family():
    """The stock tasks' qubit: drift sigma_z with a single sigma_x control."""
    return HamiltonianFamily(drift=SIGMA_Z, controls=(SIGMA_X,))


def default_grid():
    """The stock tasks' grid: T = 10 with 100 steps."""
    return TimeGrid(T=10.0, n_steps=100)


def task_states(task):
    """Initial and target projectors of a stock task's preset."""
    states = TASK_PRESETS[task]["states"]
    return projector(states["initial"]), projector(states["target"])


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


@pytest.fixture
def rng():
    return np.random.default_rng(20230907)


def swept_coherence(cache, rho0, rho_targ):
    """States and costates of a cache as coherence vectors on every node."""
    v = cache.v_steps
    states = np.empty((len(v) + 1, v.shape[-1]))
    costates = np.empty_like(states)
    states[0] = to_coherence(rho0)
    for j in range(len(v)):
        states[j + 1] = v[j] @ states[j]
    costates[-1] = to_coherence(rho_targ)
    for j in range(len(v) - 1, -1, -1):
        costates[j] = v[j].T @ costates[j + 1]
    return states, costates
