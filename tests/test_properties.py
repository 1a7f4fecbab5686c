"""Properties over generated problems: dimension, controls, kernel kind,
grid and pulses."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from reference import reference_generators, to_vec_basis
from ddcontrol.model import CorrelationKernel, HamiltonianFamily, TimeGrid
from ddcontrol.propagation import build_cache

KINDS = ("zero", "stationary-gaussian", "white-noise", "tabulated")


def _kernel(kind, m, grid, rng):
    if kind == "zero":
        return CorrelationKernel.zero(m)
    if kind == "stationary-gaussian":
        return CorrelationKernel.gaussian(rng.uniform(0.05, 0.5), rng.uniform(0.1, 2.0), m)
    if kind == "white-noise":
        return CorrelationKernel.white_noise(rng.uniform(0.05, 0.5), m)
    # symmetric amplitudes with cross correlations between the controls
    a = rng.uniform(-0.3, 0.3, (m, m))
    coef = 0.5 * (a + a.T) + 0.4 * np.eye(m)
    t_corr = rng.uniform(0.1, 2.0)

    def table(t, s):
        return coef[:, :, None, None] * np.exp(-((t[:, None] - s[None, :]) ** 2) / t_corr**2)

    nodes, mids = grid.nodes, grid.midpoints
    return CorrelationKernel.tabulated(table(nodes, mids), table(mids, mids))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 4])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_step_maps_match_complex_reference_generator(d, m, kind, n, seed):
    # the cache's real step maps, mapped to column-stacked operators, equal
    # the exponentials of the complex superoperator generators, before and
    # after an incremental pulse update
    rng = np.random.default_rng(seed)
    grid = TimeGrid(T=0.15 * n, n_steps=n)
    fam = HamiltonianFamily(
        drift=random_hermitian(rng, d), controls=tuple(random_hermitian(rng, d) for _ in range(m))
    )
    kernel = _kernel(kind, m, grid, rng)
    pulses = rng.standard_normal((m, n))
    cache = build_cache(fam, grid, pulses, kernel)
    assert cache.v_steps.dtype == np.float64
    k = int(rng.integers(1, n + 1))
    for update in (False, True):
        if update:
            cache.update_step(k, rng.standard_normal(m))
        gens = reference_generators(fam, grid, cache.pulses, kernel)
        for v, gen in zip(cache.v_steps, gens):
            assert np.max(np.abs(to_vec_basis(v) - scipy.linalg.expm(grid.dt * gen))) <= 1e-12
