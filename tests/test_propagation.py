import numpy as np
import pytest

from conftest import WHITE_NOISE_PATHS, random_density, random_hermitian
from ddcontrol.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, dag, projector, trace_distance, unvec, vec
from ddcontrol.model import CorrelationKernel, HamiltonianFamily, TimeGrid, gaussian_kernel
from ddcontrol.krotov import ControlProblem
from ddcontrol.propagation import (
    PropagatorCache,
    build_cache,
    build_eta_table,
    build_htilde_table,
    ddme_backward_step,
    ddme_propagate,
    ddme_step,
    ensemble_average,
    unitary_step,
    unitary_steps,
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
    # step unitaries and cumulative propagators stay unitary
    for k in range(20):
        assert np.max(np.abs(dag(cache.u_steps[k]) @ cache.u_steps[k] - np.eye(2))) <= 1e-10
    for j in range(21):
        assert np.max(np.abs(dag(cache.g[j]) @ cache.g[j] - np.eye(2))) <= 1e-10
    # evolved controls at coinciding nodes reproduce the control exactly
    table = build_htilde_table(cache)
    for j in (0, 7, 20):
        assert np.array_equal(table[0, j, j], SIGMA_X)
    # no memory accumulated at time zero
    assert np.max(np.abs(cache.eta[:, :, 0])) == 0.0
    # memory integrals are Hermitian for a real kernel
    for j in range(21):
        e = cache.eta[0, 0, j]
        assert np.max(np.abs(e - dag(e))) <= 1e-12


def test_eta_zero_kernel_vanishes(rng):
    grid = TimeGrid(T=1.0, n_steps=10)
    cache = build_cache(QUBIT, grid, rng.standard_normal((1, 10)), CorrelationKernel.zero())
    assert np.max(np.abs(cache.eta)) == 0.0


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
            gaussian_kernel(grid.nodes[j], grid.midpoints[l], c0, t_corr) for l in range(j)
        )
        assert np.allclose(cache.eta[0, 0, j], acc * SIGMA_X, atol=1e-13)


def test_htilde_row_matches_explicit_conjugation(rng):
    grid = TimeGrid(T=1.5, n_steps=12)
    kern = CorrelationKernel.gaussian(0.1, 1.0)
    pulses = rng.standard_normal((1, 12)) * 0.4
    cache = build_cache(QUBIT, grid, pulses, kern)
    j, l = 9, 4
    u_rel = cache.relative_propagator(j, l)
    expected = u_rel @ SIGMA_X @ dag(u_rel)
    assert np.allclose(cache.htilde_row(j)[0, l], expected, atol=1e-12)


def test_ddme_step_zero_kernel_is_unitary_conjugation(rng):
    grid = TimeGrid(T=1.0, n_steps=10)
    pulses = rng.standard_normal((1, 10)) * 0.8
    cache = build_cache(QUBIT, grid, pulses, CorrelationKernel.zero())
    rho = random_density(rng, 2)
    for k in (1, 5, 10):
        u = cache.u_steps[k - 1]
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
    kern_fn = lambda t, tp: gaussian_kernel(t, tp, c0, t_corr)
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
    cache = build_cache(QUBIT, grid, rng.standard_normal((1, 6)), CorrelationKernel.zero())
    chi = random_hermitian(rng, 2)
    got = ddme_backward_step(cache, 3, chi)
    u = cache.u_steps[2]
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
    traj = white_noise_propagate(prob, pulses, alpha=0.0)
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
    with pytest.raises(ValueError):
        white_noise_propagate(prob, np.zeros((1, 4)), alpha=-0.1)


def test_ddme_propagate_agrees_with_white_noise_reference(rng):
    # the cache's local memory term reproduces the Markovian generator: bit
    # for bit on the stock qubit, to roundoff for general controls, where
    # (alpha/2) scales H before its commutator superoperator is formed
    grid = TimeGrid(T=1.0, n_steps=10)
    kern = CorrelationKernel.white_noise(0.15)
    prob = qubit_problem(grid, kern)
    pulses = rng.standard_normal((1, 10)) * 0.2
    a = ddme_propagate(prob, pulses)
    b = white_noise_propagate(prob, pulses, 0.15)
    assert np.array_equal(a.states, b.states)

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
    b = white_noise_propagate(prob, pulses, 0.15)
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


def test_htilde_snapshot_invalidated_on_update(rng):
    grid = TimeGrid(T=1.0, n_steps=8)
    cache = build_cache(QUBIT, grid, rng.standard_normal((1, 8)), CorrelationKernel.gaussian(0.1, 1.0))
    build_htilde_table(cache)
    assert cache.htilde is not None
    cache.update_step(4, np.array([0.9]))
    assert cache.htilde is None


def test_unitary_trajectory_matches_ensemble_of_one(rng):
    from ddcontrol.propagation import unitary_trajectory

    grid = TimeGrid(T=2.0, n_steps=20)
    prob = qubit_problem(grid, CorrelationKernel.zero())
    pulses = rng.standard_normal((1, 20)) * 0.4
    a = unitary_trajectory(prob, pulses)
    b = ensemble_average(prob, pulses, count=1, seed=0)
    assert np.max(np.abs(a.states - b.states)) <= 1e-12
