"""Properties over generated problems: dimension, controls, kernel kind,
grid and pulses."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_hermitian, swept_coherence
from reference import (
    TabulatedKernel,
    adjoint_map,
    ddme_backward_step,
    ddme_krotov_reference,
    ddme_step,
    gradient_reference_terms,
    node_propagators,
    reference_generators,
    se_krotov_reference,
    to_vec_basis,
    unitary_average_reference,
)
from ddcontrol.krotov import ControlProblem, KrotovConfig, ddme_gradient_D, ddme_krotov
from ddcontrol.linalg import from_coherence, projector, to_coherence
from ddcontrol.model import CorrelationKernel, HamiltonianFamily, TimeGrid
from ddcontrol.propagation import build_cache, ddme_propagate, unitary_average

KINDS = ("zero", "stationary-gaussian", "white-noise", "tabulated")


def _kernel(kind, m, rng, scale=1.0):
    """A random kernel of the kind, its amplitude multiplied by ``scale``."""
    if kind == "zero":
        return CorrelationKernel.zero(m)
    if kind == "stationary-gaussian":
        return CorrelationKernel.gaussian(scale * rng.uniform(0.05, 0.5), rng.uniform(0.1, 2.0), m)
    if kind == "white-noise":
        return CorrelationKernel.white_noise(scale * rng.uniform(0.05, 0.5), m)
    # symmetric amplitudes with cross correlations between the controls
    a = rng.uniform(-0.3, 0.3, (m, m))
    coef = scale * (0.5 * (a + a.T) + 0.4 * np.eye(m))
    return TabulatedKernel(coef, rng.uniform(0.1, 2.0))


def _problem(d, m, kind, n, seed, scale=1.0):
    """Grid, Hamiltonian family, kernel, pulses and random generator of one
    case; ``scale`` multiplies the kernel's amplitude."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(T=0.15 * n, n_steps=n)
    fam = HamiltonianFamily(
        drift=random_hermitian(rng, d), controls=tuple(random_hermitian(rng, d) for _ in range(m))
    )
    kernel = _kernel(kind, m, rng, scale)
    return grid, fam, kernel, rng.standard_normal((m, n)), rng


# every (d, M, kind) case, each with three derandomized Hypothesis examples
# of grids of 1-5 steps, seeds and pulses, and no example database
cases = pytest.mark.parametrize(
    "d, m, kind", [(d, m, kind) for d in (2, 3, 4) for m in (1, 2) for kind in KINDS]
)
examples = settings(max_examples=3, deadline=None, derandomize=True, database=None)
grids = given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))


@cases
@examples
@grids
def test_step_maps_match_complex_reference_generator(d, m, kind, n, seed):
    # the cache's real step maps, mapped to column-stacked operators, equal
    # the exponentials of the complex superoperator generators, and its real
    # frame the adjoint maps of the complex node propagators, before and
    # after an incremental pulse update; every table the cache holds is real
    grid, fam, kernel, pulses, rng = _problem(d, m, kind, n, seed)
    cache = build_cache(fam, grid, pulses, kernel)
    k = int(rng.integers(1, n + 1))
    for update in (False, True):
        if update:
            cache.update_step(k, rng.standard_normal(m))
        arrays = {a: v for a, v in vars(cache).items() if isinstance(v, np.ndarray)}
        assert {"f_steps", "eta", "v_steps", "pulses"} <= arrays.keys()
        for name, value in arrays.items():
            assert value.dtype == np.float64, name
        gens = reference_generators(fam, grid, cache.pulses, kernel)
        for v, gen in zip(cache.v_steps, gens):
            assert np.max(np.abs(to_vec_basis(v) - scipy.linalg.expm(grid.dt * gen))) <= 1e-12
        if cache.has_memory:
            frame = adjoint_map(node_propagators(fam, grid, cache.pulses))
            assert np.max(np.abs(cache.o - frame)) <= 1e-12


@cases
@examples
@grids
def test_ascending_updates_equal_fresh_build(d, m, kind, n, seed):
    # the optimizer's pattern, an update at every step in ascending order,
    # leaves every table the cache keeps equal to a fresh build
    grid, fam, kernel, pulses, rng = _problem(d, m, kind, n, seed)
    cache = build_cache(fam, grid, pulses, kernel)
    for k in range(1, n + 1):
        cache.update_step(k, rng.standard_normal(m))
    fresh = build_cache(fam, grid, cache.pulses, kernel)
    for name in ("o", "kappa", "eta", "f_steps", "v_steps"):
        got, want = getattr(cache, name), getattr(fresh, name)
        if got is None:
            assert want is None and not cache.has_memory
        else:
            assert np.max(np.abs(got - want)) <= 1e-12, name


@cases
@examples
@grids
def test_running_memory_table_equals_direct_sum(d, m, kind, n, seed):
    # the running table s_<k against the weights contracted with the current
    # interaction-picture controls, read in the optimizer's ascending order
    # with an update at every step, then at a random order of steps
    grid, fam, kernel, pulses, rng = _problem(d, m, kind, n, seed)
    cache = build_cache(fam, grid, pulses, kernel)
    if not cache.has_memory:
        assert cache.weights is None
        return
    order = list(range(1, n + 1)) + rng.integers(1, n + 1, size=n).tolist()
    for k in order:
        want = np.einsum("pjnl,nlc->pjc", cache.weights[..., :k], cache.kappa[:, :k])
        assert np.max(np.abs(cache.past_sums(k) - want)) <= 1e-13
        cache.update_step(k, rng.standard_normal(m))


@cases
@examples
@grids
def test_gradient_matches_frame_independent_reference(d, m, kind, n, seed):
    # the real-frame gradient against the nested-commutator formula on
    # explicitly evolved controls, at every step and control; the bound is
    # relative to the size of the coherent term's summands and of the
    # memory term, which may each cancel
    grid, fam, kernel, pulses, rng = _problem(d, m, kind, n, seed)
    cache = build_cache(fam, grid, pulses, kernel)
    states = np.empty((n + 1, d * d - 1))
    costates = np.empty_like(states)
    states[0] = to_coherence(random_density(rng, d))
    costates[n] = to_coherence(projector(rng.standard_normal(d) + 1j * rng.standard_normal(d)))
    for j in range(n):
        states[j + 1] = cache.v_steps[j] @ states[j]
        costates[n - j - 1] = cache.v_steps[n - j - 1].T @ costates[n - j]
    phi = from_coherence(states, trace=1.0)
    chi = from_coherence(costates, trace=1.0)
    for k in range(1, n + 1):
        got = ddme_gradient_D(cache, states, costates, k)
        for mm in range(m):
            coherent, memory, summands = gradient_reference_terms(cache, phi, chi, mm, k)
            want = (coherent + memory).real
            assert abs(got[mm] - want) <= 1e-12 * (summands + abs(memory.real))


@pytest.mark.parametrize(
    "d, kind, tol",
    [
        (2, "stationary-gaussian", 1.0e-2),
        (2, "tabulated", 6e-3),
        (3, "stationary-gaussian", 1.0e-2),
        (3, "tabulated", 7e-3),
        (4, "stationary-gaussian", 1.3e-2),
        (4, "tabulated", 9e-3),
    ],
)
def test_gradient_matches_finite_differences_with_memory(d, kind, tol):
    # dt * D of both controls at steps N/4, N/2 and 3N/4 against central
    # differences of the overlap Tr(rho_targ rho(T)), on a generated
    # two-control problem with smooth pulses, weak Hamiltonians (half the
    # generated scale) and a strong kernel (four times the generated
    # amplitude), so the memory term is at least 0.1 of the largest
    # difference quotient.  Their gap is the O(dt) bias of the
    # one-exponential step: it halves from N = 200 to N = 400 on every case.
    # Measured at N = 400, relative to the largest difference quotient, it
    # is 6.6e-3, 3.8e-3, 6.8e-3, 4.7e-3, 8.4e-3 and 5.7e-3 in the order of
    # the cases; each tol is that envelope with a 1.5x margin.  A memory
    # term that is dropped or wired to the wrong control overshoots it.
    n, m, eps = 400, 2, 1e-5
    rng = np.random.default_rng(0)
    grid = TimeGrid(T=1.0, n_steps=n)
    fam = HamiltonianFamily(
        drift=0.5 * random_hermitian(rng, d),
        controls=tuple(0.5 * random_hermitian(rng, d) for _ in range(m)),
    )
    kernel = _kernel(kind, m, rng, scale=4.0)
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    problem = ControlProblem(
        rho0=random_density(rng, d), rho_targ=projector(ket), h_family=fam, grid=grid, kernel=kernel
    )
    c = rng.standard_normal((m, 3))
    t = grid.midpoints / grid.T
    pulses = c[:, :1] + c[:, 1:2] * np.sin(np.pi * t) + c[:, 2:] * np.cos(2 * np.pi * t)

    cache = build_cache(fam, grid, pulses, kernel)
    assert cache.has_memory
    states, costates = swept_coherence(cache, problem.rho0, problem.rho_targ)

    def overlap(p):
        return float(np.real(np.trace(problem.rho_targ @ ddme_propagate(problem, p).final_state)))

    analytic, memory, fd = [], [], []
    for k in (n // 4, n // 2, 3 * n // 4):
        grad = grid.dt * ddme_gradient_D(cache, states, costates, k)
        coherent = grid.dt * 2.0 * (costates[k] @ cache.f_controls) @ states[k]
        analytic.extend(grad)
        memory.extend(grad - coherent)
        for mm in range(m):
            plus, minus = pulses.copy(), pulses.copy()
            plus[mm, k - 1] += eps
            minus[mm, k - 1] -= eps
            fd.append((overlap(plus) - overlap(minus)) / (2.0 * eps))
    scale = np.max(np.abs(fd))
    assert np.max(np.abs(memory)) >= 0.1 * scale, "memory term too small to be exercised"
    assert np.max(np.abs(np.subtract(analytic, fd))) <= tol * scale


@cases
@examples
@grids
def test_krotov_iterations_match_sequential_reference(d, m, kind, n, seed):
    # two iterations of the optimizer, with its incremental cache updates,
    # paired sweeps and real-frame gradient, against the loop that rebuilds
    # the cache, propagates node by node and takes the nested-commutator
    # gradient before every update
    grid, fam, kernel, pulses, rng = _problem(d, m, kind, n, seed)
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    problem = ControlProblem(
        rho0=random_density(rng, d),
        rho_targ=projector(ket),
        h_family=fam,
        grid=grid,
        kernel=kernel,
    )
    shapes = rng.uniform(0.0, 1.0, (m, n))
    shapes[rng.random((m, n)) < 0.2] = 0.0
    config = KrotovConfig(lambdas=rng.uniform(0.5, 2.0, m), shapes=shapes, j_tol=None, i_max=2)
    got = ddme_krotov(problem, pulses, config)
    want = ddme_krotov_reference(problem, pulses, config)
    assert got.iterations == want.iterations == 2
    assert np.max(np.abs(got.j_values - want.j_values)) <= 1e-12
    assert np.max(np.abs(got.pulses - want.pulses)) <= 1e-12


@cases
@examples
@grids
def test_backward_step_is_adjoint_of_forward_step(d, m, kind, n, seed):
    # <backward_k(chi), rho> = <chi, forward_k(rho)> in the Hilbert-Schmidt
    # inner product at every step, for Hermitian operators of any trace
    grid, fam, kernel, pulses, rng = _problem(d, m, kind, n, seed)
    cache = build_cache(fam, grid, pulses, kernel)
    for k in range(1, n + 1):
        chi, rho = random_hermitian(rng, d), random_hermitian(rng, d)
        lhs = np.trace(ddme_backward_step(cache, k, chi).conj().T @ rho)
        rhs = np.trace(chi.conj().T @ ddme_step(cache, k, rho))
        scale = np.linalg.norm(chi) * np.linalg.norm(rho)
        assert abs(lhs - rhs) <= 1e-12 * scale


@cases
@examples
@grids
def test_zero_amplitude_kernel_reduces_to_closed_system(d, m, kind, n, seed):
    # each kind with its amplitude set to zero makes the optimizer the
    # closed-system Krotov update on step unitaries
    grid, fam, kernel, pulses, rng = _problem(d, m, kind, n, seed, scale=0.0)
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    problem = ControlProblem(
        rho0=random_density(rng, d),
        rho_targ=projector(ket),
        h_family=fam,
        grid=grid,
        kernel=kernel,
    )
    shapes = rng.uniform(0.0, 1.0, (m, n))
    shapes[rng.random((m, n)) < 0.2] = 0.0
    config = KrotovConfig(lambdas=rng.uniform(0.5, 2.0, m), shapes=shapes, j_tol=None, i_max=2)
    got = ddme_krotov(problem, pulses, config)
    want = se_krotov_reference(problem, pulses, config)
    assert got.iterations == want.iterations == 2
    assert np.max(np.abs(got.j_values - want.j_values)) <= 1e-12
    assert np.max(np.abs(got.pulses - want.pulses)) <= 1e-12


@pytest.mark.parametrize(
    "d, m, pure", [(d, m, pure) for d in (2, 3, 4) for m in (1, 2) for pure in (True, False)]
)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5))
def test_ket_average_matches_density_matrix_reference(d, m, pure, n, seed, count):
    # the Taylor ket propagation against the density-matrix loop on
    # eigh-based step unitaries, over pulse amplitudes from 0.1 to 10
    grid, fam, _, _, rng = _problem(d, m, "zero", n, seed)
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    problem = ControlProblem(
        rho0=projector(ket) if pure else random_density(rng, d),
        rho_targ=projector(np.eye(d)[0]),
        h_family=fam,
        grid=grid,
        kernel=CorrelationKernel.zero(m),
    )
    sets = 10.0 ** rng.uniform(-1.0, 1.0) * rng.standard_normal((count, m, n))
    got = unitary_average(problem, sets).states
    want = unitary_average_reference(problem, sets).states
    assert np.max(np.abs(got - want)) <= 1e-12
