import numpy as np
import pytest

from ddcontrol.propagation import ddme_propagate, white_noise_propagate

# The two ways to evolve under a white-noise kernel: the propagator cache that
# the optimizer follows, and the directly built Markovian generator.
WHITE_NOISE_PATHS = {
    "ddme_propagate": lambda problem, pulses: ddme_propagate(problem, pulses),
    "white_noise_propagate": lambda problem, pulses: white_noise_propagate(
        problem, pulses, problem.kernel.c0
    ),
}


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
