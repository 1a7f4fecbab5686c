import copy
import csv
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import WHITE_NOISE_PATHS, random_density, random_hermitian
from reference import (
    TabulatedKernel,
    bloch_vector,
    build_htilde_table,
    ddme_backward_step,
    ddme_step,
    fidelity_pure_target,
    gaussian_correlation,
    htilde_row,
    node_sweep_loop,
    relative_propagator,
    unitary_average_reference,
    unitary_step,
    unitary_steps,
    white_noise_reference,
)
from ddcontrol import cli
from ddcontrol.linalg import (
    _TAYLOR_DEGREES,
    _TAYLOR_THETA,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    NumericalError,
    dag,
    from_coherence,
    projector,
    to_coherence,
    trace_distance,
)
from ddcontrol.model import (
    CorrelationKernel,
    HamiltonianFamily,
    TimeGrid,
    sample_perturbations,
)
from ddcontrol.krotov import ControlProblem
from ddcontrol.propagation import (
    PropagatorCache,
    Trajectory,
    _BOUND_BLOCK,
    _MAX_SUBSTEPS,
    _aligned_empty,
    _node_sweep,
    build_cache,
    ddme_propagate,
    ensemble_average,
    unitary_average,
    white_noise_propagate,
)

QUBIT = HamiltonianFamily(drift=SIGMA_Z, controls=(SIGMA_X,))
DRIFTLESS = HamiltonianFamily(drift=np.zeros((2, 2)), controls=(SIGMA_X,))


def qubit_problem(grid, kernel, rho0="+", targ="-"):
    return ControlProblem(
        rho0=projector(rho0), rho_targ=projector(targ), h_family=QUBIT, grid=grid, kernel=kernel
    )


def test_unitary_step_diagonal_generator():
    pulses = np.zeros((1, 10))
    u = unitary_step(QUBIT, pulses, 3, dt=0.1)
    assert np.allclose(u, np.diag([np.exp(-0.1j), np.exp(0.1j)]), atol=1e-14)


def test_unitary_step_small_dt_limit():
    pulses = np.ones((1, 4))
    u = unitary_step(QUBIT, pulses, 1, dt=1e-9)
    assert np.max(np.abs(u - np.eye(2))) <= 1e-8


def test_unitary_step_product_matches_single_exponential(rng):
    # constant pulse: the step product equals one exponential of the total time
    grid = TimeGrid(T=1.0, n_steps=16)
    pulses = np.full((1, 16), 0.7)
    u = unitary_steps(QUBIT, pulses, grid.dt)
    prod = np.eye(2, dtype=complex)
    for k in range(16):
        prod = u[k] @ prod
    h = SIGMA_Z + 0.7 * SIGMA_X
    w, v = np.linalg.eigh(h)
    total = (v * np.exp(-1j * grid.T * w)) @ dag(v)
    assert np.max(np.abs(prod - total)) <= 1e-10


def test_unitary_step_index_bounds():
    with pytest.raises(ValueError):
        unitary_step(QUBIT, np.zeros((1, 5)), 0, dt=0.1)
    with pytest.raises(ValueError):
        unitary_step(QUBIT, np.zeros((1, 5)), 6, dt=0.1)


def test_cache_invariants(rng):
    grid = TimeGrid(T=2.0, n_steps=20)
    kern = CorrelationKernel.gaussian(0.05, 3.0)
    pulses = rng.standard_normal((1, 20)) * 0.5
    cache = build_cache(QUBIT, grid, pulses, kern)
    # step unitaries stay unitary, and the adjoint representations of the
    # cumulative propagators orthogonal
    for u in unitary_steps(QUBIT, cache.pulses, grid.dt):
        assert np.max(np.abs(dag(u) @ u - np.eye(2))) <= 1e-10
    for o in cache.o:
        assert np.max(np.abs(o.T @ o - np.eye(3))) <= 1e-10
    # evolved controls at coinciding nodes reproduce the control exactly
    table = build_htilde_table(cache)
    for j in (0, 7, 20):
        assert np.array_equal(table[0, j, j], SIGMA_X)
    # the real frame factors the explicitly evolved controls
    for j, l in ((7, 3), (20, 0), (20, 19)):
        want = to_coherence(table[0, j, l])
        assert np.max(np.abs(cache.o[j] @ cache.kappa[0, l] - want)) <= 1e-12
    # no memory accumulated at time zero
    assert np.max(np.abs(cache.eta[:, 0])) == 0.0
    # memory integrals are Hermitian for a real kernel: real coefficients
    assert cache.eta.dtype == np.float64
    for e in from_coherence(cache.eta[0]):
        assert np.max(np.abs(e - dag(e))) <= 1e-12


def test_eta_zero_kernel_vanishes(rng):
    grid = TimeGrid(T=1.0, n_steps=10)
    cache = build_cache(QUBIT, grid, rng.standard_normal((1, 10)), CorrelationKernel.zero())
    assert np.max(np.abs(from_coherence(cache.eta))) == 0.0


def test_eta_commuting_closed_form():
    # drift sigma_x with sigma_x control and zero pulses: the evolved control
    # never rotates, so eta is sigma_x times the accumulated kernel weight
    fam = HamiltonianFamily(drift=SIGMA_X, controls=(SIGMA_X,))
    grid = TimeGrid(T=2.0, n_steps=10)
    c0, t_corr = 0.3, 0.7
    kern = CorrelationKernel.gaussian(c0, t_corr)
    cache = build_cache(fam, grid, np.zeros((1, 10)), kern)
    for j in (0, 1, 4, 10):
        acc = grid.dt * sum(
            gaussian_correlation(grid.nodes[j], grid.midpoints[l], c0, t_corr) for l in range(j)
        )
        assert np.allclose(from_coherence(cache.eta[0, j]), acc * SIGMA_X, atol=1e-13)


def test_htilde_row_matches_explicit_conjugation(rng):
    grid = TimeGrid(T=1.5, n_steps=12)
    kern = CorrelationKernel.gaussian(0.1, 1.0)
    pulses = rng.standard_normal((1, 12)) * 0.4
    cache = build_cache(QUBIT, grid, pulses, kern)
    j, l = 9, 4
    u_rel = relative_propagator(cache, j, l)
    expected = u_rel @ SIGMA_X @ dag(u_rel)
    assert np.allclose(htilde_row(cache, j)[0, l], expected, atol=1e-12)


def _cache_inputs(kind):
    """Hamiltonian family and kernel for each kernel kind; tabulated has two
    controls with a cross correlation."""
    if kind == "zero":
        return QUBIT, CorrelationKernel.zero()
    if kind == "white-noise":
        return QUBIT, CorrelationKernel.white_noise(0.2)
    if kind == "stationary-gaussian":
        return QUBIT, CorrelationKernel.gaussian(0.1, 0.8)
    fam = HamiltonianFamily(drift=0.5 * SIGMA_Z, controls=(0.5 * SIGMA_X, 0.5 * SIGMA_Y))
    return fam, TabulatedKernel([[0.3, 0.1], [0.1, 0.2]], 0.8)


def _assert_matches_rebuild(cache, fam, grid, kern):
    """Every table the cache keeps equals a fresh build to 1e-12."""
    rebuilt = build_cache(fam, grid, cache.pulses, kern)
    for name in ("o", "kappa", "eta", "f_steps", "v_steps"):
        got, want = getattr(cache, name), getattr(rebuilt, name)
        if not cache.has_memory and name in ("o", "kappa"):
            assert got is None and want is None
        else:
            assert np.max(np.abs(got - want)) <= 1e-12, name


@pytest.mark.parametrize("kind", ["zero", "white-noise", "stationary-gaussian", "tabulated"])
def test_incremental_update_equals_full_rebuild(kind):
    rng = np.random.default_rng(11)
    # a random sequence of updates, including the first and the last step
    n = 12
    grid = TimeGrid(T=2.0, n_steps=n)
    fam, kern = _cache_inputs(kind)
    m = fam.n_controls
    cache = build_cache(fam, grid, rng.standard_normal((m, n)) * 0.5, kern)
    assert cache.has_memory == (kind in ("stationary-gaussian", "tabulated"))
    steps = rng.permutation(np.concatenate([[1, n], rng.integers(1, n + 1, size=10)]))
    for k in steps:
        last = cache.update_step(int(k), rng.standard_normal(m) * 0.5)
        assert last == (n if cache.has_memory else k)
    _assert_matches_rebuild(cache, fam, grid, kern)

    # the optimizer's pattern: one ascending sweep over a longer grid, where
    # every update rotates all later tables of the previous ones
    n = 40
    grid = TimeGrid(T=4.0, n_steps=n)
    cache = build_cache(fam, grid, rng.standard_normal((m, n)) * 0.5, kern)
    for k in range(1, n + 1):
        cache.update_step(k, rng.standard_normal(m) * 0.5)
    _assert_matches_rebuild(cache, fam, grid, kern)


@pytest.mark.parametrize("kind", ["zero", "stationary-gaussian"])
def test_update_step_rejects_bad_input_before_writing(kind):
    # a step outside 1..N or a non-finite value is refused before any table
    # is written, with or without memory
    rng = np.random.default_rng(3)
    n = 10
    grid = TimeGrid(T=2.0, n_steps=n)
    fam, kern = _cache_inputs(kind)
    cache = build_cache(fam, grid, rng.standard_normal((1, n)) * 0.5, kern)
    names = ("pulses", "f_steps", "eta", "v_steps", "o", "kappa")
    before = {name: copy.deepcopy(getattr(cache, name)) for name in names}
    for k, value, error in (
        (0, 0.3, ValueError),
        (-1, 0.3, ValueError),
        (n + 1, 0.3, ValueError),
        (4, np.nan, NumericalError),
        (4, np.inf, NumericalError),
    ):
        with pytest.raises(error):
            cache.update_step(k, [value])
        for name in names:
            got, want = getattr(cache, name), before[name]
            assert (got is None and want is None) or np.array_equal(got, want), (k, name)


def test_build_cache_rejects_kernel_for_other_control_count():
    grid = TimeGrid(T=1.0, n_steps=5)
    with pytest.raises(ValueError, match="kernel describes 2 controls"):
        build_cache(QUBIT, grid, np.zeros((1, 5)), CorrelationKernel.gaussian(0.1, 1.0, n_controls=2))


@pytest.mark.parametrize("kind", ["stationary-gaussian", "tabulated"])
def test_refresh_out_of_order_after_partial_sweep(kind):
    # ascending updates over part of the grid advance the running memory
    # table; an update below the last step starts it again from node 0, and
    # every table the cache keeps still equals a fresh build
    rng = np.random.default_rng(5)
    n = 30
    grid = TimeGrid(T=3.0, n_steps=n)
    fam, kern = _cache_inputs(kind)
    m = fam.n_controls
    cache = build_cache(fam, grid, rng.standard_normal((m, n)) * 0.5, kern)
    for k in range(1, 18):
        cache.update_step(k, rng.standard_normal(m) * 0.5)
    for k in (9, 3, 25, 26, 12, 12, n, 1):
        cache.update_step(k, rng.standard_normal(m) * 0.5)
        _assert_matches_rebuild(cache, fam, grid, kern)
        # the table holds the terms of the nodes before k, from the current
        # interaction-picture controls
        want = np.einsum("pjnl,nlc->pjc", cache.weights[..., :k], cache.kappa[:, :k])
        assert np.max(np.abs(cache.past_sums(k) - want)) <= 1e-14


def test_memoryless_kernels_build_no_weight_table(rng):
    grid = TimeGrid(T=2.0, n_steps=12)
    pulses = rng.standard_normal((1, 12))
    # a Gaussian kernel whose past weights underflow to zero has no table
    # either, and the zero kernel's dynamics
    tiny = CorrelationKernel.gaussian(0.1, 1e-4)
    for kern in (CorrelationKernel.zero(), CorrelationKernel.white_noise(0.1), tiny):
        cache = build_cache(QUBIT, grid, pulses, kern)
        assert cache.weights is None and not cache.has_memory
        assert cache.o is None and cache.kappa is None
    zero = build_cache(QUBIT, grid, pulses, CorrelationKernel.zero())
    assert np.array_equal(build_cache(QUBIT, grid, pulses, tiny).v_steps, zero.v_steps)


def test_cache_weights_are_the_causally_masked_table(rng):
    # weights[p, j, n, l] is the kernel table's [p, j, n, l] for l < j and
    # exactly zero for l >= j: every kernel, the cross-correlated one too,
    # lays its table out in the cache's order
    grid = TimeGrid(T=3.0, n_steps=9)
    fam2 = HamiltonianFamily(
        drift=random_hermitian(rng, 2), controls=(random_hermitian(rng, 2), random_hermitian(rng, 2))
    )
    cases = [
        (QUBIT, CorrelationKernel.gaussian(0.05, 1.3)),
        (fam2, CorrelationKernel.gaussian(0.05, 1.3, n_controls=2)),
        (fam2, TabulatedKernel([[0.3, -0.1], [-0.1, 0.2]], 1.0)),
    ]
    past = np.arange(9)[None, :] < np.arange(10)[:, None]
    for fam, kern in cases:
        cache = build_cache(fam, grid, rng.standard_normal((fam.n_controls, 9)), kern)
        want = np.where(past[:, None], kern.weight_table(grid), 0.0)
        assert cache.weights.flags.c_contiguous
        assert np.array_equal(cache.weights, want)
        assert not np.any(cache.weights.transpose(0, 2, 1, 3)[..., ~past])


def test_caches_share_the_family_tables(rng):
    # every cache on one family reads the family's read-only tables, the
    # memory term's rows included, so a write through a cache raises; a
    # cache on a fresh, equal family is bit-identical
    grid = TimeGrid(T=3.0, n_steps=9)
    drift, c1, c2 = (random_hermitian(rng, 3) for _ in range(3))
    fam = HamiltonianFamily(drift=drift, controls=(c1, c2))
    gauss = CorrelationKernel.gaussian(0.05, 1.3, n_controls=2)
    pulses = rng.standard_normal((2, 9))
    first = build_cache(fam, grid, pulses, gauss)
    second = build_cache(fam, grid, pulses, CorrelationKernel.white_noise(0.1, n_controls=2))
    for cache in (first, second):
        assert cache.f_controls is fam.control_maps and cache._f_drift is fam.drift_map
        assert cache._memory_rows is fam.memory_rows
        for table in (cache.f_controls, cache._f_drift, cache._f_rows, cache._memory_rows):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
    for name in ("control_stack", "control_coefficients", "drift_map", "control_maps", "memory_rows"):
        with pytest.raises(ValueError):
            getattr(fam, name)[0] = 1.0
    fresh = build_cache(HamiltonianFamily(drift=drift, controls=(c1, c2)), grid, pulses, gauss)
    for name in ("v_steps", "eta", "o"):
        assert np.array_equal(getattr(fresh, name), getattr(first, name)), name


SWEEP_LENGTHS = sorted(
    {1, 2, 3, 100, 400} | {s * s + e for s in range(2, 21) for e in (-1, 1)}
)


@pytest.mark.parametrize("dim", [3, 8, 15])
def test_blocked_sweep_matches_loop(dim):
    # one map per node: the blocked sweep against the node-by-node loop, on
    # contractive maps, forward and in the optimizer's costate form (the
    # reversed, transposed maps)
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((max(SWEEP_LENGTHS), dim, dim)) / dim
    b = rng.standard_normal((max(SWEEP_LENGTHS), dim, dim)) / dim
    maps = scipy.linalg.expm(0.5 * (a - np.swapaxes(a, 1, 2)) - 0.01 * b @ np.swapaxes(b, 1, 2))
    x0 = rng.standard_normal(dim)
    x0 /= np.linalg.norm(x0)
    for n in SWEEP_LENGTHS:
        for steps in (maps[:n], maps[:n][::-1].swapaxes(1, 2)):
            got, want = _node_sweep(steps, x0), node_sweep_loop(steps, x0)
            assert got.shape == want.shape == (n + 1, dim)
            assert np.max(np.abs(got - want)) <= 1e-13, n
        # the optimizer's paired form: run 0 the costates on the reversed,
        # transposed maps of one step fewer, padded with a discarded map (at
        # n = 1, the last update, an empty run), run 1 the states
        pair = np.empty((2, n, dim, dim))
        pair[0, : n - 1] = maps[1:n][::-1].swapaxes(1, 2)
        pair[0, n - 1] = b[0]
        pair[1] = maps[:n]
        ends = np.stack([x0, x0[::-1]])
        got = _node_sweep(pair, ends)
        assert got.shape == (2, n + 1, dim)
        assert np.max(np.abs(got[0, :n] - node_sweep_loop(pair[0, : n - 1], ends[0]))) <= 1e-13, n
        assert np.max(np.abs(got[1] - node_sweep_loop(pair[1], ends[1]))) <= 1e-13, n
    # a matrix starting value, as for the cache's node propagators
    u = unitary_steps(QUBIT, rng.standard_normal((1, 50)), 0.1)
    eye = np.eye(2, dtype=complex)
    assert np.max(np.abs(_node_sweep(u, eye) - node_sweep_loop(u, eye))) <= 1e-13
    # and a batch of them
    runs = np.stack([u, u[::-1]])
    got = _node_sweep(runs, np.stack([eye, eye]))
    for run, nodes in zip(runs, got):
        assert np.max(np.abs(nodes - node_sweep_loop(run, eye))) <= 1e-13


def test_ddme_step_zero_kernel_is_unitary_conjugation(rng):
    grid = TimeGrid(T=1.0, n_steps=10)
    pulses = rng.standard_normal((1, 10)) * 0.8
    cache = build_cache(QUBIT, grid, pulses, CorrelationKernel.zero())
    rho = random_density(rng, 2)
    units = unitary_steps(QUBIT, pulses, grid.dt)
    for k in (1, 5, 10):
        u = units[k - 1]
        assert np.allclose(ddme_step(cache, k, rho), u @ rho @ dag(u), atol=1e-13)


def test_ddme_step_unital(rng):
    grid = TimeGrid(T=1.0, n_steps=8)
    kern = CorrelationKernel.gaussian(0.2, 0.5)
    cache = build_cache(QUBIT, grid, rng.standard_normal((1, 8)), kern)
    for k in (1, 4, 8):
        out = ddme_step(cache, k, np.eye(2) / 2.0)
        assert np.max(np.abs(out - np.eye(2) / 2.0)) <= 1e-12


def _micro_propagators(fam, pulse_fn, t_end, micro_dt):
    """Cumulative propagators on a micro grid with piecewise-constant pulses."""
    n_micro = int(round(t_end / micro_dt))
    g = np.empty((n_micro + 1, 2, 2), dtype=complex)
    g[0] = np.eye(2)
    for i in range(n_micro):
        t_mid = (i + 0.5) * micro_dt
        h = fam.drift + pulse_fn(t_mid) * fam.controls[0]
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * micro_dt * w)) @ dag(v)
        g[i + 1] = u @ g[i]
    return g


def _reference_step(fam, pulse_fn, kern_fn, t_start, t_end, rho, fine=100):
    """RK4 on the time-local equation with continuously refreshed memory.

    Integrates d rho / dt = -i[H(t), rho] - [H_1, [eta(t), rho]] from t_start
    to t_end with `fine` substeps, evaluating eta(t) by a midpoint Riemann
    sum on a micro grid that spans [0, t_end].
    """
    h_step = (t_end - t_start) / fine
    micro_dt = h_step / 2.0  # stage times land on the micro grid
    g = _micro_propagators(fam, pulse_fn, t_end, micro_dt)
    n_hist = g.shape[0] - 1
    k_fine = np.empty((n_hist, 2, 2), dtype=complex)
    for i in range(n_hist):
        gm = 0.5 * (g[i] + g[i + 1])  # propagator at the cell midpoint, O(dt^2)
        k_fine[i] = dag(gm) @ fam.controls[0] @ gm
    cell_mids = (np.arange(n_hist) + 0.5) * micro_dt

    def eta_at(q):
        t = q * micro_dt
        n_cells = q
        if n_cells == 0:
            return np.zeros((2, 2), dtype=complex)
        w = kern_fn(t, cell_mids[:n_cells]) * micro_dt
        core = np.einsum("l,lab->ab", w, k_fine[:n_cells])
        return g[q] @ core @ dag(g[q])

    def generator(q, rho_val):
        t = q * micro_dt
        h = fam.drift + pulse_fn(t) * fam.controls[0]
        eta = eta_at(q)
        inner = eta @ rho_val - rho_val @ eta
        h1 = fam.controls[0]
        return -1j * (h @ rho_val - rho_val @ h) - (h1 @ inner - inner @ h1)

    q0 = int(round(t_start / micro_dt))
    rho = rho.astype(complex)
    for i in range(fine):
        q = q0 + 2 * i
        k1 = generator(q, rho)
        k2 = generator(q + 1, rho + 0.5 * h_step * k1)
        k3 = generator(q + 1, rho + 0.5 * h_step * k2)
        k4 = generator(q + 2, rho + h_step * k3)
        rho = rho + h_step / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def test_ddme_step_error_is_second_order():
    # one-exponential step vs RK4 reference: local error O(dt^2)
    T = 1.0
    c0, t_corr = 0.4, 0.35
    pulse_fn = lambda t: 0.8 * np.sin(2 * np.pi * t / T)
    kern_fn = lambda t, tp: gaussian_correlation(t, tp, c0, t_corr)
    rho = projector("+")
    diffs = {}
    for n, k in ((10, 5), (20, 9)):  # both steps start at t = 0.4
        grid = TimeGrid(T=T, n_steps=n)
        pulses = pulse_fn(grid.midpoints)[None, :]
        cache = build_cache(QUBIT, grid, pulses, CorrelationKernel.gaussian(c0, t_corr))
        got = ddme_step(cache, k, rho)
        # the pulse the reference sees must be the same piecewise-constant one
        def held_pulse(t, grid=grid, pulses=pulses):
            idx = min(int(t / grid.dt), grid.n_steps - 1)
            return pulses[0, idx]
        ref = _reference_step(QUBIT, held_pulse, kern_fn, (k - 1) * grid.dt, k * grid.dt, rho)
        diffs[n] = np.max(np.abs(got - ref))
    assert diffs[10] < 5e-3
    ratio = diffs[10] / diffs[20]
    assert 2.2 <= ratio <= 7.0, f"expected O(dt^2) scaling, got ratio {ratio}"


def test_backward_step_is_adjoint(rng):
    grid = TimeGrid(T=1.0, n_steps=10)
    kern = CorrelationKernel.gaussian(0.3, 0.8)
    cache = build_cache(QUBIT, grid, rng.standard_normal((1, 10)), kern)
    for k in (1, 6, 10):
        chi = random_hermitian(rng, 2)
        rho = random_hermitian(rng, 2)
        lhs = np.trace(dag(ddme_backward_step(cache, k, chi)) @ rho)
        rhs = np.trace(dag(chi) @ ddme_step(cache, k, rho))
        assert abs(lhs - rhs) <= 1e-10


def test_backward_step_zero_kernel_is_heisenberg():
    rng = np.random.default_rng(5)
    grid = TimeGrid(T=1.0, n_steps=6)
    pulses = rng.standard_normal((1, 6))
    cache = build_cache(QUBIT, grid, pulses, CorrelationKernel.zero())
    chi = random_hermitian(rng, 2)
    got = ddme_backward_step(cache, 3, chi)
    u = unitary_steps(QUBIT, pulses, grid.dt)[2]
    assert np.allclose(got, dag(u) @ chi @ u, atol=1e-12)


def test_backward_forward_round_trip_zero_kernel(rng):
    grid = TimeGrid(T=1.0, n_steps=8)
    cache = build_cache(QUBIT, grid, rng.standard_normal((1, 8)), CorrelationKernel.zero())
    targ = projector("-")
    chi = targ
    for k in range(8, 0, -1):
        chi = ddme_backward_step(cache, k, chi)
    rho = chi
    for k in range(1, 9):
        rho = ddme_step(cache, k, rho)
    assert np.max(np.abs(rho - targ)) <= 1e-12


def test_ddme_propagate_preserves_trace_and_hermiticity(rng):
    grid = TimeGrid(T=10.0, n_steps=100)
    kern = CorrelationKernel.gaussian(0.01, 100.0)
    prob = qubit_problem(grid, kern)
    pulses = np.exp(-0.5 * (grid.midpoints - 5.0) ** 2)[None, :]
    traj = ddme_propagate(prob, pulses)
    for rho in traj.states:
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        assert np.max(np.abs(rho - dag(rho))) <= 1e-10


def test_ddme_propagate_zero_kernel_matches_unitary(rng):
    grid = TimeGrid(T=5.0, n_steps=50)
    prob = qubit_problem(grid, CorrelationKernel.zero())
    pulses = rng.standard_normal((1, 50)) * 0.5
    traj = ddme_propagate(prob, pulses)
    u = unitary_steps(QUBIT, pulses, grid.dt)
    rho = prob.rho0
    for k in range(50):
        rho = u[k] @ rho @ dag(u[k])
    assert np.max(np.abs(traj.final_state - rho)) <= 1e-12
    assert np.max(np.abs(traj.purity - 1.0)) <= 1e-10


def test_white_noise_zero_rate_is_unitary(rng):
    grid = TimeGrid(T=2.0, n_steps=20)
    prob = qubit_problem(grid, CorrelationKernel.zero())
    pulses = rng.standard_normal((1, 20)) * 0.3
    traj = white_noise_reference(prob, pulses, alpha=0.0)
    ref = ddme_propagate(prob, pulses)
    assert np.max(np.abs(traj.states - ref.states)) <= 1e-12


@pytest.mark.parametrize("path", sorted(WHITE_NOISE_PATHS))
def test_white_noise_dephasing_closed_form(path):
    # H = 0, control sigma_x, zero pulses: Bloch z component decays as exp(-2 alpha t)
    grid = TimeGrid(T=2.0, n_steps=40)
    alpha = 0.35
    prob = ControlProblem(
        rho0=projector("0"),
        rho_targ=projector("0"),
        h_family=DRIFTLESS,
        grid=grid,
        kernel=CorrelationKernel.white_noise(alpha),
    )
    traj = WHITE_NOISE_PATHS[path](prob, np.zeros((1, 40)))
    for s, t in enumerate(grid.nodes):
        expect = 0.5 * (np.eye(2) + np.exp(-2.0 * alpha * t) * SIGMA_Z)
        assert np.max(np.abs(traj.states[s] - expect)) <= 1e-12


@pytest.mark.parametrize("path", sorted(WHITE_NOISE_PATHS))
def test_white_noise_purity_monotone(rng, path):
    grid = TimeGrid(T=4.0, n_steps=40)
    prob = qubit_problem(grid, CorrelationKernel.white_noise(0.2))
    pulses = rng.standard_normal((1, 40))
    traj = WHITE_NOISE_PATHS[path](prob, pulses)
    assert np.all(np.diff(traj.purity) <= 1e-10)


def test_white_noise_rejects_negative_rate():
    grid = TimeGrid(T=1.0, n_steps=4)
    prob = qubit_problem(grid, CorrelationKernel.zero())
    for propagate in (white_noise_propagate, white_noise_reference):
        with pytest.raises(ValueError, match="nonnegative"):
            propagate(prob, np.zeros((1, 4)), alpha=-0.1)


def test_ddme_propagate_agrees_with_white_noise_reference(rng):
    # the cache's local memory term reproduces the Markovian generator: bit
    # for bit on the stock qubit, to roundoff for general controls, where
    # (alpha/2) scales H before its coherence vector is taken
    grid = TimeGrid(T=1.0, n_steps=10)
    kern = CorrelationKernel.white_noise(0.15)
    prob = qubit_problem(grid, kern)
    pulses = rng.standard_normal((1, 10)) * 0.2
    a = ddme_propagate(prob, pulses)
    b = white_noise_reference(prob, pulses, 0.15)
    assert np.array_equal(a.states, b.states)
    # white_noise_propagate swaps in the white-noise kernel of the given rate
    c = white_noise_propagate(qubit_problem(grid, CorrelationKernel.zero()), pulses, 0.15)
    assert np.array_equal(c.states, b.states)

    fam = HamiltonianFamily(
        drift=random_hermitian(rng, 3), controls=(random_hermitian(rng, 3), random_hermitian(rng, 3))
    )
    prob = ControlProblem(
        rho0=random_density(rng, 3),
        rho_targ=np.diag([1.0, 0.0, 0.0]),
        h_family=fam,
        grid=grid,
        kernel=CorrelationKernel.white_noise(0.15, n_controls=2),
    )
    pulses = rng.standard_normal((2, 10)) * 0.2
    a = ddme_propagate(prob, pulses)
    b = white_noise_reference(prob, pulses, 0.15)
    assert np.max(np.abs(a.states - b.states)) <= 1e-12


def test_ensemble_zero_kernel_matches_unitary(rng):
    grid = TimeGrid(T=2.0, n_steps=20)
    prob = qubit_problem(grid, CorrelationKernel.zero())
    pulses = rng.standard_normal((1, 20)) * 0.4
    ens = ensemble_average(prob, pulses, count=3, seed=11)
    ref = ddme_propagate(prob, pulses)
    assert np.max(np.abs(ens.states - ref.states)) <= 1e-12


def test_ensemble_single_realization_stays_pure():
    grid = TimeGrid(T=5.0, n_steps=50)
    kern = CorrelationKernel.gaussian(0.01, 100.0)
    prob = qubit_problem(grid, kern)
    pulses = np.sin(np.pi * grid.midpoints / 5.0)[None, :]
    ens = ensemble_average(prob, pulses, count=1, seed=4)
    assert np.max(np.abs(ens.purity - 1.0)) <= 1e-10


def test_ensemble_is_deterministic():
    grid = TimeGrid(T=2.0, n_steps=20)
    kern = CorrelationKernel.gaussian(0.02, 5.0)
    prob = qubit_problem(grid, kern)
    pulses = np.cos(grid.midpoints)[None, :]
    a = ensemble_average(prob, pulses, count=200, seed=9)
    b = ensemble_average(prob, pulses, count=200, seed=9)
    assert np.array_equal(a.states, b.states)


def test_ensemble_memory_stays_within_three_pulse_set_arrays():
    # every node's Gram product is formed as the loop passes the node, so no
    # (N+1, 2d, count) ket history is kept: the peak is the pulse sets,
    # their step-major copy and the sampler's draws, about 2.4 arrays of
    # 8 count M N bytes; the ket history took it to about 7.4
    exp = cli.load_experiment(task="z-gate")
    prob, count = exp.problem, 1000
    pulses = np.sin(prob.grid.midpoints)[None]
    tracemalloc.start()
    try:
        ensemble_average(prob, pulses, count, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * count * prob.n_controls * prob.grid.n_steps


def test_cli_pulse_sets_give_the_library_ensemble():
    # ddcontrol ensemble averages pulses plus its own draws; ensemble_average
    # adds the pulses to the draws in place: the same sums, bit for bit
    exp = cli.load_experiment(task="x-gate")
    prob = exp.problem
    pulses = 0.3 * np.cos(prob.grid.midpoints)[None]
    sets = sample_perturbations(prob.kernel, prob.grid, 300, 5) + pulses
    want = unitary_average(prob, sets).states
    assert np.array_equal(ensemble_average(prob, pulses, 300, seed=5).states, want)


def test_ket_taylor_bound_covers_every_block_of_sets(rng):
    # the step-norm bound is taken one block of sets at a time; only the one
    # set after the last full block drives hard, so a bound that missed the
    # last block would plan too few substeps for it
    prob = _ket_problem(rng, 2, 1, 10, projector("+"))
    sets = 0.1 * rng.standard_normal((_BOUND_BLOCK + 1, 1, 10))
    sets[-1] = 25.0
    assert _taylor_choice(prob, sets) != _taylor_choice(prob, sets[:-1])
    got = unitary_average(prob, sets).states
    assert np.max(np.abs(got - unitary_average_reference(prob, sets).states)) <= 1e-12


def _ket_problem(rng, d, m, n, rho0):
    fam = HamiltonianFamily(
        drift=random_hermitian(rng, d), controls=tuple(random_hermitian(rng, d) for _ in range(m))
    )
    return ControlProblem(
        rho0=rho0,
        rho_targ=projector(np.eye(d)[0]),
        h_family=fam,
        grid=TimeGrid(T=0.1 * n, n_steps=n),
        kernel=CorrelationKernel.zero(m),
    )


def _taylor_choice(problem, pulse_sets):
    """(degree, substeps) that the ket propagation picks for these sets."""
    fam = problem.h_family
    norms = [np.max(np.sum(np.abs(h), axis=0)) for h in (fam.drift,) + fam.controls]
    controls = np.tensordot(norms[1:], np.abs(pulse_sets), (0, 1))
    bound = problem.grid.dt * (norms[0] + np.max(controls))
    substeps = np.maximum(np.ceil(bound / _TAYLOR_THETA), 1)
    best = np.argmin(_TAYLOR_DEGREES * substeps)
    return _TAYLOR_DEGREES[best], substeps[best]


def test_ket_taylor_top_degree_with_substeps(rng):
    # pulses large enough for the top degree and several substeps per step,
    # on a pure qubit and a mixed d = 3 two-control problem
    for d, m in ((2, 1), (3, 2)):
        prob = _ket_problem(rng, d, m, 30, random_density(rng, d) if d > 2 else projector("+"))
        sets = 12.0 * rng.standard_normal((4, m, 30))
        degree, substeps = _taylor_choice(prob, sets)
        assert degree == _TAYLOR_DEGREES[-1] and substeps >= 2
        got = unitary_average(prob, sets).states
        assert np.max(np.abs(got - unitary_average_reference(prob, sets).states)) <= 1e-12


def test_ket_taylor_substep_limit():
    # a plan of up to _MAX_SUBSTEPS substeps per step runs; one more is
    # refused before the loop, which would run them one by one
    prob = ControlProblem(
        rho0=projector("+"), rho_targ=projector("0"), h_family=DRIFTLESS,
        grid=TimeGrid(T=0.3, n_steps=3), kernel=CorrelationKernel.zero(),
    )
    for substeps in (_MAX_SUBSTEPS, _MAX_SUBSTEPS + 1):
        # bound = dt |f| for the pulse value f on the sigma_x control
        sets = np.full((2, 1, 3), 10.0 * (substeps - 0.5) * _TAYLOR_THETA[-1])
        assert _taylor_choice(prob, sets) == (_TAYLOR_DEGREES[-1], substeps)
        if substeps > _MAX_SUBSTEPS:
            with pytest.raises(NumericalError, match="substeps"):
                unitary_average(prob, sets)
        else:
            assert np.all(np.isfinite(unitary_average(prob, sets).states))


def test_ket_taylor_overflowing_bound_is_refused():
    # finite operators and pulses whose step-norm bound overflows: refused
    # with the substep limit's error, and without an overflow warning on the
    # way (the suite turns warnings into errors)
    fam = HamiltonianFamily(drift=np.zeros((2, 2)), controls=(1e100 * SIGMA_X,))
    prob = ControlProblem(
        rho0=projector("+"), rho_targ=projector("0"), h_family=fam,
        grid=TimeGrid(T=0.3, n_steps=3), kernel=CorrelationKernel.zero(),
    )
    with pytest.raises(NumericalError, match="substeps"):
        unitary_average(prob, np.full((2, 1, 3), 1e300))


def test_ket_taylor_keeps_the_small_eigenvalue_of_rho0(rng):
    # rho0 with eigenvalues 1 - 1e-13 and 1e-13: both lie above eigh's
    # roundoff, so both are propagated and the averaged trace stays 1
    # within 1e-14 at every node; dropping the small one would leave a
    # deficit of 1e-13
    v = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    rho0 = (v * [1.0 - 1e-13, 1e-13]) @ dag(v)
    prob = ControlProblem(
        rho0=rho0, rho_targ=projector("0"), h_family=QUBIT,
        grid=TimeGrid(T=1.0, n_steps=10), kernel=CorrelationKernel.zero(),
    )
    states = unitary_average(prob, rng.standard_normal((50, 1, 10))).states
    assert np.max(np.abs(np.trace(states[1:], axis1=1, axis2=2) - 1.0)) <= 1e-14


def test_ket_taylor_zero_generator_keeps_rho0(rng):
    # zero drift and zero pulses: a generator of norm 0 divides by nothing
    # and leaves every node at rho0
    rho0 = random_density(rng, 2)
    prob = ControlProblem(
        rho0=rho0,
        rho_targ=projector("0"),
        h_family=DRIFTLESS,
        grid=TimeGrid(T=1.0, n_steps=10),
        kernel=CorrelationKernel.zero(),
    )
    with np.errstate(all="raise"):
        states = unitary_average(prob, np.zeros((3, 1, 10))).states
    assert np.array_equal(states[0], rho0)
    assert all(np.array_equal(s, states[1]) for s in states[1:])
    assert np.max(np.abs(states - rho0)) <= 1e-12


def test_ket_taylor_refuses_non_finite_pulses():
    prob = qubit_problem(TimeGrid(T=1.0, n_steps=4), CorrelationKernel.zero())
    sets = np.zeros((2, 1, 4))
    sets[1, 0, 2] = np.nan
    with pytest.raises(NumericalError):
        unitary_average(prob, sets)


@pytest.mark.parametrize("shape", [(2, 3, 4, 4000), (1,), (2, 1, 7, 3)])
def test_horner_stacks_start_on_a_cache_line(shape):
    # the ensemble's Horner loop runs 1.6x slower on stacks off a 64-byte line
    arrays = [_aligned_empty(shape) for _ in range(8)]  # held: eight addresses
    for a in arrays:
        assert a.shape == shape and a.dtype == float and a.flags.c_contiguous
        assert a.ctypes.data % 64 == 0
        a[...] = 1.0


def test_ket_taylor_keeps_unit_norm_over_400_steps(rng):
    # one pure set per run: the trace of its state is the squared ket norm
    prob = _ket_problem(rng, 2, 1, 400, projector("+"))
    sets = rng.standard_normal((3, 1, 400))
    for c in range(3):
        states = unitary_average(prob, sets[c : c + 1]).states
        assert np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)) <= 1e-12
        ref = unitary_average_reference(prob, sets[c : c + 1]).states
        assert np.max(np.abs(states - ref)) <= 1e-12


def test_ket_taylor_rank_deficient_rho0(rng):
    # a rank-2 d = 4 state keeps two kets per set
    basis = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    rho0 = 0.8 * np.outer(basis[:, 0], basis[:, 0].conj())
    rho0 += 0.2 * np.outer(basis[:, 2], basis[:, 2].conj())
    prob = _ket_problem(rng, 4, 2, 25, rho0)
    sets = rng.standard_normal((7, 2, 25))
    got = unitary_average(prob, sets).states
    assert np.max(np.abs(got - unitary_average_reference(prob, sets).states)) <= 1e-12


@pytest.mark.parametrize("amplitudes", [[0.7], [0.3, -1.1, 2.0, 0.5, 12.0]])
def test_ket_taylor_sigma_y_drive_is_y_rotation(amplitudes):
    # H = f sigma_y, the imaginary part of the Hamiltonian alone, turns |0>
    # into cos(f t)|0> + sin(f t)|1>; each set holds one constant amplitude,
    # and the largest needs several substeps per step
    grid = TimeGrid(T=2.0, n_steps=20)
    prob = ControlProblem(
        rho0=projector("0"),
        rho_targ=projector("1"),
        h_family=HamiltonianFamily(drift=np.zeros((2, 2)), controls=(SIGMA_Y,)),
        grid=grid,
        kernel=CorrelationKernel.zero(),
    )
    amplitudes = np.array(amplitudes)
    sets = np.broadcast_to(amplitudes[:, None, None], (len(amplitudes), 1, 20))
    theta = amplitudes[:, None] * grid.nodes[None, :]  # (count, N+1)
    kets = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    want = np.mean(kets[..., :, None] * kets[..., None, :], axis=0)
    got = unitary_average(prob, sets).states
    assert np.max(np.abs(got - want)) <= 1e-12


def test_ket_taylor_slightly_negative_eigenvalue(rng):
    # roundoff can leave rho0 an eigenvalue just below zero, inside the
    # -1e-9 floor; the eigenpair is kept, and its weight enters the average
    # as it is, not through a square root
    basis = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    w = np.array([0.6 + 5e-10, 0.4, -5e-10])
    rho0 = (basis * w) @ basis.conj().T
    assert np.min(np.linalg.eigvalsh(rho0)) < -4e-10
    prob = _ket_problem(rng, 3, 2, 25, rho0)
    sets = rng.standard_normal((6, 2, 25))
    got = unitary_average(prob, sets).states
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - unitary_average_reference(prob, sets).states)) <= 1e-12


def test_first_order_convergence_in_dt():
    # halving dt halves the final-state error of the one-exponential scheme
    T, c0, t_corr = 2.0, 0.3, 1.0
    pulse_fn = lambda t: np.sin(np.pi * t / T) + 0.3
    finals = {}
    for n in (50, 100, 200):
        grid = TimeGrid(T=T, n_steps=n)
        prob = qubit_problem(grid, CorrelationKernel.gaussian(c0, t_corr))
        traj = ddme_propagate(prob, pulse_fn(grid.midpoints)[None, :])
        finals[n] = traj.final_state
    d1 = np.max(np.abs(finals[50] - finals[100]))
    d2 = np.max(np.abs(finals[100] - finals[200]))
    assert 1.5 <= d1 / d2 <= 3.0, f"expected O(dt) scaling, got ratio {d1 / d2}"


@pytest.mark.parametrize("d, m", [(2, 1), (3, 2), (4, 2)])
def test_first_order_in_dt_on_generated_problems(d, m):
    # the same piecewise-constant pulse on 50, 100 and 200 steps: the
    # quadrature of the memory integrals is first order in dt, so each
    # halving of dt halves the change of the final state (ratios of
    # 1.94 to 2.11 over seeds 0-5)
    rng = np.random.default_rng(0)
    hs = [h / np.linalg.norm(h, 2) for h in (random_hermitian(rng, d) for _ in range(m + 1))]
    family = HamiltonianFamily(hs[0], tuple(hs[1:]))
    pulse = rng.uniform(-1.0, 1.0, (m, 50))
    rho0 = projector(rng.standard_normal(d) + 1j * rng.standard_normal(d))
    finals = []
    for repeat in (1, 2, 4):
        problem = ControlProblem(
            rho0=rho0, rho_targ=rho0, h_family=family, grid=TimeGrid(T=5.0, n_steps=50 * repeat),
            kernel=CorrelationKernel.gaussian(0.04, 2.0, n_controls=m),
        )
        finals.append(ddme_propagate(problem, np.repeat(pulse, repeat, axis=1)).final_state)
    ratio = np.linalg.norm(finals[0] - finals[1]) / np.linalg.norm(finals[1] - finals[2])
    assert 1.5 <= ratio <= 2.5, f"expected O(dt) scaling, got ratio {ratio}"


def test_trajectory_series_shapes():
    grid = TimeGrid(T=1.0, n_steps=10)
    prob = qubit_problem(grid, CorrelationKernel.zero())
    traj = ddme_propagate(prob, np.zeros((1, 10)))
    assert traj.states.shape == (11, 2, 2)
    assert traj.purity.shape == (11,)
    assert traj.fidelity.shape == (11,)
    assert traj.bloch.shape == (11, 3)
    assert np.allclose(traj.times, grid.nodes)
    assert np.max(np.sum(traj.bloch**2, axis=1)) <= 1.0 + 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_trajectory_readout_matches_matrix_formulas(rng, d):
    # purity, overlap and Bloch vector read from coherence vectors against
    # Tr(rho^2), Tr(rho_targ rho) and the Pauli traces, on random mixed and
    # pure states and on the ensemble states of a two-control problem
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    targ = projector(ket)
    mixed = np.array([random_density(rng, d) for _ in range(12)])
    pure = np.array([projector(rng.standard_normal(d) + 1j * rng.standard_normal(d)) for _ in range(4)])
    fam = HamiltonianFamily(
        drift=random_hermitian(rng, d), controls=(random_hermitian(rng, d), random_hermitian(rng, d))
    )
    grid = TimeGrid(T=2.0, n_steps=15)
    prob = ControlProblem(
        rho0=random_density(rng, d),
        rho_targ=targ,
        h_family=fam,
        grid=grid,
        kernel=CorrelationKernel.gaussian(0.1, 1.0, n_controls=2),
    )
    ens = ensemble_average(prob, rng.standard_normal((2, 15)) * 0.5, count=20, seed=3)
    for states in (mixed, pure, np.concatenate([targ[None], np.eye(d)[None] / d]), ens.states):
        traj = Trajectory.from_states(np.arange(len(states)), states, targ)
        want_purity = np.real(np.einsum("sab,sba->s", states, states))
        want_overlap = fidelity_pure_target(targ, states) ** 2
        assert np.max(np.abs(traj.purity - want_purity)) <= 1e-14
        assert np.max(np.abs(traj.fidelity**2 - want_overlap)) <= 1e-14
        if d == 2:
            assert np.max(np.abs(traj.bloch - bloch_vector(states))) <= 1e-14
        else:
            assert traj.bloch is None
    # a target of purity 1 but trace -1 enters the overlap with its trace
    flipped = Trajectory.from_states(np.arange(len(mixed)), mixed, -targ)
    assert np.max(np.abs(flipped.fidelity - fidelity_pure_target(-targ, mixed))) <= 1e-14
    with pytest.raises(ValueError, match="not pure"):
        Trajectory.from_states(np.arange(4), pure, np.eye(d) / d)
    # the one finiteness check on a trajectory's states
    pure[2, 0, 0] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        Trajectory.from_states(np.arange(4), pure, targ)


def test_ensemble_matches_density_matrix_reference(rng, tmp_path):
    # the ket loop against the density-matrix loop on a pure qubit rho0 and on
    # d = 3 two-control problems with a full-rank and a rank-2 rho0; the
    # rank-2 state has an eigenvalue at eigh's roundoff that the ket loop drops
    grid = TimeGrid(T=2.0, n_steps=20)
    basis = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    rank2 = 0.7 * np.outer(basis[:, 0], basis[:, 0].conj())
    rank2 += 0.3 * np.outer(basis[:, 1], basis[:, 1].conj())
    fam3 = HamiltonianFamily(
        drift=random_hermitian(rng, 3), controls=(random_hermitian(rng, 3), random_hermitian(rng, 3))
    )
    problems = [qubit_problem(grid, CorrelationKernel.gaussian(0.05, 1.0))] + [
        ControlProblem(
            rho0=rho0,
            rho_targ=np.diag([1.0, 0.0, 0.0]),
            h_family=fam3,
            grid=grid,
            kernel=CorrelationKernel.gaussian(0.05, 1.0, n_controls=2),
        )
        for rho0 in (random_density(rng, 3), rank2)
    ]
    for prob in problems:
        pulses = rng.standard_normal((prob.n_controls, 20)) * 0.4
        sets = pulses + sample_perturbations(prob.kernel, grid, 50, seed=5)
        ens = ensemble_average(prob, pulses, count=50, seed=5)
        assert np.array_equal(ens.states[0], prob.rho0)
        assert np.max(np.abs(ens.states - unitary_average_reference(prob, sets).states)) <= 1e-12
        one = unitary_average(prob, sets[3:4])
        ref = unitary_average_reference(prob, sets[3:4])
        assert np.max(np.abs(one.states - ref.states)) <= 1e-12

    # ddcontrol ensemble --realization r writes the one-set average of draw r
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "grid": {"T": 10.0, "N_T": 30},
        "kernel": {"kind": "stationary-gaussian", "C0": 0.01, "t_corr": 5.0},
    }))
    exp = cli.load_experiment(config_path=cfg)
    pulse_file = tmp_path / "pulse.csv"
    cli.write_pulse_file(pulse_file, exp.grid, np.sin(exp.grid.midpoints)[None, :])
    pulses = cli.read_pulse_file(pulse_file, exp.grid, 1)
    argv = ["ensemble", "--config", str(cfg), "--out", str(tmp_path / "ens"), "--count", "10"]
    assert cli.main(argv + ["--realization", "3", str(pulse_file)]) == 0
    draws = sample_perturbations(exp.kernel, exp.grid, 10, exp.seed)
    single = unitary_average(exp.problem, pulses + draws[3:4])
    with open(tmp_path / "ens" / "trajectory_realization_3.csv", newline="") as fh:
        written = np.array([[float(x) for x in row] for row in list(csv.reader(fh))[1:]])
    expect = np.column_stack(
        [np.arange(31), single.times, single.purity, single.fidelity, single.bloch]
    )
    assert np.array_equal(written, expect)
    ref = unitary_average_reference(exp.problem, pulses + draws[3:4])
    assert np.max(np.abs(single.states - ref.states)) <= 1e-12
