from dataclasses import replace

import numpy as np
import pytest

from conftest import default_grid, default_h_family, random_hermitian, swept_coherence, task_states
from reference import (
    TabulatedKernel,
    ddme_backward_step,
    ddme_step,
    gradient_reference,
    se_krotov_reference,
)
from ddcontrol.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, from_coherence, projector, to_coherence
from ddcontrol.model import CorrelationKernel, HamiltonianFamily, TimeGrid, update_shape
from ddcontrol import krotov
from ddcontrol.krotov import (
    ControlProblem,
    KrotovConfig,
    cost_JT,
    ddme_gradient_D,
    ddme_krotov,
    run_correlation_sweep,
    se_krotov,
)
from ddcontrol.propagation import PropagatorCache, _node_sweep, build_cache, ddme_propagate
from ddcontrol.tasks import TASK_PRESETS, guess_pulses

QUBIT = default_h_family()


def make_problem(task="z-gate", kernel=None, grid=None):
    grid = default_grid() if grid is None else grid
    kernel = CorrelationKernel.gaussian(0.01, 100.0) if kernel is None else kernel
    rho0, targ = task_states(task)
    return ControlProblem(rho0=rho0, rho_targ=targ, h_family=QUBIT, grid=grid, kernel=kernel)


def task_configs(task, grid, j_tol_se=1e-4):
    kro = TASK_PRESETS[task]["krotov"]
    cfg_se = KrotovConfig.with_blackman_ramps(
        grid, kro["se_lambda"], kro["t_on"], kro["t_off"], j_tol=j_tol_se, i_max=1000
    )
    cfg_dd = KrotovConfig.with_blackman_ramps(
        grid, kro["lambda"], kro["t_on"], kro["t_off"], j_tol=kro["J_tol"], i_max=50
    )
    return cfg_se, cfg_dd


def test_control_problem_validation():
    grid = TimeGrid(T=1.0, n_steps=4)
    kern = CorrelationKernel.zero()
    with pytest.raises(ValueError):  # mixed target
        ControlProblem(
            rho0=projector("0"), rho_targ=np.eye(2) / 2.0, h_family=QUBIT, grid=grid, kernel=kern
        )
    with pytest.raises(ValueError):  # dimension mismatch
        ControlProblem(
            rho0=np.eye(3) / 3.0, rho_targ=projector("0"), h_family=QUBIT, grid=grid, kernel=kern
        )
    with pytest.raises(ValueError):  # kernel controls mismatch
        ControlProblem(
            rho0=projector("0"),
            rho_targ=projector("1"),
            h_family=QUBIT,
            grid=grid,
            kernel=CorrelationKernel.zero(n_controls=2),
        )


def test_krotov_config_validation():
    grid = TimeGrid(T=1.0, n_steps=10)
    s = update_shape(grid, 0.0, 0.0)[None]
    KrotovConfig(lambdas=[1.0], shapes=s, j_tol=None, i_max=3)
    # one row per control; a 1-D shape is not promoted to one control
    with pytest.raises(ValueError, match=r"\(M, N\) array"):
        KrotovConfig(lambdas=[1.0], shapes=s[0])
    with pytest.raises(ValueError):
        KrotovConfig(lambdas=[0.0], shapes=s)
    with pytest.raises(ValueError):
        KrotovConfig(lambdas=[1.0], shapes=2.0 * s)
    with pytest.raises(ValueError):
        KrotovConfig(lambdas=[1.0], shapes=s, j_tol=1.5)
    with pytest.raises(ValueError):
        KrotovConfig(lambdas=[1.0], shapes=s, i_max=0)
    with pytest.raises(ValueError):
        KrotovConfig(lambdas=[1.0, 2.0], shapes=s)
    # a valid config for another control count or grid is refused by the
    # optimizer before any cache is built
    prob = make_problem(grid=grid)
    two = KrotovConfig(lambdas=[1.0, 1.0], shapes=np.ones((2, 10)))
    with pytest.raises(ValueError, match="2 step sizes for 1 controls"):
        ddme_krotov(prob, np.zeros((1, 10)), two)
    longer = KrotovConfig(lambdas=[1.0], shapes=np.ones((1, 12)))
    with pytest.raises(ValueError, match=r"shape \(1, 12\), expected \(1, 10\)"):
        ddme_krotov(prob, np.zeros((1, 10)), longer)


def test_cost_jt_values():
    grid = TimeGrid(T=1.0, n_steps=5)
    kern = CorrelationKernel.zero()
    drift = np.zeros((2, 2))
    fam = HamiltonianFamily(drift=drift, controls=(SIGMA_X,))
    zeros = np.zeros((1, 5))
    # frozen dynamics: rho(T) = rho0
    same = ControlProblem(
        rho0=projector("+"), rho_targ=projector("+"), h_family=fam, grid=grid, kernel=kern
    )
    assert cost_JT(same, zeros) == pytest.approx(0.0, abs=1e-12)
    orth = ControlProblem(
        rho0=projector("0"), rho_targ=projector("1"), h_family=fam, grid=grid, kernel=kern
    )
    assert cost_JT(orth, zeros) == pytest.approx(1.0, abs=1e-12)
    mixed = ControlProblem(
        rho0=np.eye(2) / 2.0, rho_targ=projector("+"), h_family=fam, grid=grid, kernel=kern
    )
    assert cost_JT(mixed, zeros) == pytest.approx(0.5, abs=1e-12)


def test_se_krotov_converges_task1():
    grid = default_grid()
    prob = make_problem("z-gate", kernel=CorrelationKernel.zero())
    cfg_se, _ = task_configs("z-gate", grid)
    trace = se_krotov(prob, guess_pulses("gaussian", grid), cfg_se)
    assert trace.converged
    assert trace.j_values[-1] <= 1e-4
    assert len(trace.j_values) == trace.iterations + 1
    # the optimized pulse actually drives the transfer under unitary evolution
    traj = ddme_propagate(prob, trace.pulses)
    assert traj.final_fidelity >= 1.0 - 1e-4


def test_se_krotov_converges_task3():
    grid = default_grid()
    prob = make_problem("hadamard", kernel=CorrelationKernel.zero())
    cfg_se, _ = task_configs("hadamard", grid)
    trace = se_krotov(prob, guess_pulses("sine", grid), cfg_se)
    assert trace.converged
    assert cost_JT(prob, trace.pulses) <= 1e-4


def test_se_krotov_returns_immediately_when_optimal():
    grid = default_grid()
    prob = make_problem("z-gate", kernel=CorrelationKernel.zero())
    cfg_se, _ = task_configs("z-gate", grid)
    first = se_krotov(prob, guess_pulses("gaussian", grid), cfg_se)
    again = se_krotov(prob, first.pulses, cfg_se)
    assert again.converged
    assert again.iterations == 0
    assert len(again.j_values) == 1
    assert np.array_equal(again.pulses, first.pulses)


def test_zero_kernel_reduction_matches_se_krotov():
    # with no disorder the optimizer must reproduce the closed-system
    # Krotov update on step unitaries; se_krotov must ignore the kernel
    grid = TimeGrid(T=10.0, n_steps=50)
    rho0, targ = task_states("z-gate")
    prob = ControlProblem(
        rho0=rho0, rho_targ=targ, h_family=QUBIT, grid=grid, kernel=CorrelationKernel.zero()
    )
    disordered = replace(prob, kernel=CorrelationKernel.gaussian(0.01, 100.0))
    guess = guess_pulses("gaussian", grid)
    for iters in (1, 2, 4):
        cfg = KrotovConfig.with_blackman_ramps(grid, 1.25, 2.0, 2.0, j_tol=None, i_max=iters)
        tr_ref = se_krotov_reference(prob, guess, cfg)
        for tr in (se_krotov(disordered, guess, cfg), ddme_krotov(prob, guess, cfg)):
            assert np.max(np.abs(tr_ref.pulses - tr.pulses)) <= 1e-12
            assert np.max(np.abs(tr_ref.j_values - tr.j_values)) <= 1e-12


def test_gradient_matches_operator_reference(rng):
    # the real gradient against the complex nested-commutator formula at
    # every step, on the Gaussian qubit and on a d = 3 two-control problem
    # with a cross-correlated tabulated kernel
    grid = TimeGrid(T=2.0, n_steps=8)
    qubit = make_problem("z-gate", kernel=CorrelationKernel.gaussian(0.05, 2.0), grid=grid)
    fam = HamiltonianFamily(
        drift=random_hermitian(rng, 3), controls=(random_hermitian(rng, 3), random_hermitian(rng, 3))
    )
    qutrit = ControlProblem(
        rho0=np.diag([1.0, 0.0, 0.0]),
        rho_targ=np.diag([0.0, 0.0, 1.0]),
        h_family=fam,
        grid=grid,
        kernel=TabulatedKernel([[0.3, 0.1], [0.1, 0.2]], 0.8),
    )
    for prob in (qubit, qutrit):
        pulses = rng.standard_normal((prob.n_controls, grid.n_steps)) * 0.5
        cache = build_cache(prob.h_family, grid, pulses, prob.kernel)
        states, costates = swept_coherence(cache, prob.rho0, prob.rho_targ)
        phi = from_coherence(states, trace=1.0)
        chi = from_coherence(costates, trace=1.0)
        for k in range(1, grid.n_steps + 1):
            got = ddme_gradient_D(cache, states, costates, k)
            assert got.shape == (prob.n_controls,)
            for m in range(prob.n_controls):
                want = gradient_reference(cache, phi, chi, m, k)
                assert abs(got[m] - want.real) <= 1e-12 * abs(want.real)


def _frozen_gradient_setup(T, n, h_scale, c0, t_corr):
    grid = TimeGrid(T=T, n_steps=n)
    fam = HamiltonianFamily(drift=h_scale * SIGMA_Z, controls=(h_scale * SIGMA_X,))
    kern = CorrelationKernel.gaussian(c0, t_corr)
    prob = ControlProblem(
        rho0=projector("0"), rho_targ=projector("+"), h_family=fam, grid=grid, kernel=kern
    )
    pulses = (0.8 * np.sin(np.pi * grid.midpoints / T) + 0.3)[None, :]
    cache = build_cache(fam, grid, pulses, kern)
    phi = np.empty((n + 1, 2, 2), complex)
    chi = np.empty((n + 1, 2, 2), complex)
    phi[0] = prob.rho0
    for j in range(1, n + 1):
        phi[j] = ddme_step(cache, j, phi[j - 1])
    chi[n] = prob.rho_targ
    for j in range(n - 1, -1, -1):
        chi[j] = ddme_backward_step(cache, j + 1, chi[j + 1])
    return prob, pulses, cache, phi, chi


def _central_difference(prob, pulses, k, eps=1e-5):
    def overlap(p):
        traj = ddme_propagate(prob, p)
        return float(np.real(np.trace(prob.rho_targ @ traj.final_state)))

    plus = pulses.copy()
    plus[0, k - 1] += eps
    minus = pulses.copy()
    minus[0, k - 1] -= eps
    return (overlap(plus) - overlap(minus)) / (2.0 * eps)


def test_frozen_gradient_matches_finite_differences():
    # fine grid keeps the one-exponential splitting bias below the tolerance
    n = 1280
    prob, pulses, cache, phi, chi = _frozen_gradient_setup(0.4, n, 0.3, 2.0, 0.3)
    states, costates = to_coherence(phi), to_coherence(chi)
    for k in (n // 4, n // 2):
        analytic = prob.grid.dt * ddme_gradient_D(cache, states, costates, k)[0]
        fd = _central_difference(prob, pulses, k)
        assert abs(analytic - fd) <= 1e-3 * abs(fd)


def test_frozen_gradient_memory_term_against_finite_differences():
    # configuration where the memory contribution dominates the gradient;
    # tolerances are the measured O(dt) splitting envelopes (x1.5 margin)
    n = 600
    prob, pulses, cache, phi, chi = _frozen_gradient_setup(3.0, n, 1.0, 0.2, 1.5)
    hm = prob.h_family.controls[0]
    states, costates = to_coherence(phi), to_coherence(chi)
    for k, tol, min_share in ((n // 4, 0.10, 0.8), (n // 2, 0.035, 0.4), (3 * n // 4, 0.005, 0.05)):
        grad = ddme_gradient_D(cache, states, costates, k)[0]
        coherent = float(
            np.real(np.trace(chi[k] @ (-1j * (hm @ phi[k] - phi[k] @ hm))))
        )
        share = abs(grad - coherent) / abs(grad)
        assert share >= min_share, f"memory term too small to be exercised at k={k}"
        fd = _central_difference(prob, pulses, k)
        assert abs(prob.grid.dt * grad - fd) <= tol * abs(fd)


def test_ddme_krotov_update_locality():
    # pinned update weights leave the corresponding pulse samples untouched
    grid = TimeGrid(T=2.0, n_steps=20)
    kern = CorrelationKernel.gaussian(0.05, 1.0)
    prob = make_problem("z-gate", kernel=kern, grid=grid)
    shapes = np.ones((1, 20))
    shapes[0, :3] = 0.0
    shapes[0, -2:] = 0.0
    cfg = KrotovConfig(lambdas=[1.0], shapes=shapes, j_tol=None, i_max=3)
    guess = 0.4 * np.ones((1, 20))
    trace = ddme_krotov(prob, guess, cfg)
    assert np.array_equal(trace.pulses[0, :3], guess[0, :3])
    assert np.array_equal(trace.pulses[0, -2:], guess[0, -2:])
    assert not np.array_equal(trace.pulses[0, 3:-2], guess[0, 3:-2])


def test_ddme_krotov_deterministic():
    grid = TimeGrid(T=5.0, n_steps=50)
    prob = make_problem("z-gate", grid=grid)
    cfg = KrotovConfig.with_blackman_ramps(grid, 1.25, 1.0, 1.0, j_tol=None, i_max=2)
    guess = guess_pulses("gaussian", grid)
    a = ddme_krotov(prob, guess, cfg)
    b = ddme_krotov(prob, guess, cfg)
    assert np.array_equal(a.pulses, b.pulses)
    assert np.array_equal(a.j_values, b.j_values)


def kernel_of_kind(kind):
    """A single-control kernel of each kind at the stock disorder scale."""
    if kind == "zero":
        return CorrelationKernel.zero()
    if kind == "stationary-gaussian":
        return CorrelationKernel.gaussian(0.01, 100.0)
    if kind == "white-noise":
        return CorrelationKernel.white_noise(0.01)
    return TabulatedKernel([[0.01]], 2.0)


@pytest.mark.parametrize("kind", ["zero", "stationary-gaussian", "white-noise", "tabulated"])
def test_ddme_krotov_final_cost_matches_repropagation(kind):
    # the optimizer and ddme_propagate must follow the same dynamics
    grid = TimeGrid(T=5.0, n_steps=50)
    prob = make_problem("z-gate", kernel=kernel_of_kind(kind), grid=grid)
    cfg = KrotovConfig.with_blackman_ramps(grid, 1.25, 1.0, 1.0, j_tol=None, i_max=3)
    trace = ddme_krotov(prob, guess_pulses("gaussian", grid), cfg)
    assert trace.j_values[-1] == pytest.approx(cost_JT(prob, trace.pulses), abs=1e-13)


@pytest.mark.parametrize("kind", ["zero", "stationary-gaussian", "white-noise"])
def test_zero_update_shapes_rebuild_no_step(monkeypatch, kind):
    # with all update weights zero every new pulse value equals the old one,
    # so the optimizer asks the cache for no rebuild and the pulses stay put
    grid = TimeGrid(T=5.0, n_steps=50)
    prob = make_problem("z-gate", kernel=kernel_of_kind(kind), grid=grid)
    calls = []
    update_step = PropagatorCache.update_step

    def counted(cache, k, values):
        calls.append(k)
        return update_step(cache, k, values)

    monkeypatch.setattr(PropagatorCache, "update_step", counted)
    cfg = KrotovConfig(lambdas=[1.0], shapes=np.zeros((1, 50)), j_tol=None, i_max=4)
    guess = guess_pulses("gaussian", grid)
    trace = ddme_krotov(prob, guess, cfg)
    assert calls == []
    assert np.array_equal(trace.pulses, guess)


def test_ddme_krotov_non_convergence_is_reported():
    grid = TimeGrid(T=2.0, n_steps=10)
    prob = make_problem("z-gate", grid=grid)
    cfg = KrotovConfig.with_blackman_ramps(grid, 1.25, 0.5, 0.5, j_tol=1e-8, i_max=2)
    trace = ddme_krotov(prob, guess_pulses("gaussian", grid), cfg)
    assert not trace.converged
    assert trace.iterations == 2
    assert len(trace.j_values) == 3


def test_sweep_single_entry_matches_direct_run():
    grid = TimeGrid(T=5.0, n_steps=40)
    prob = make_problem("z-gate", grid=grid)
    cfg = KrotovConfig.with_blackman_ramps(grid, 1.25, 1.0, 1.0, j_tol=0.003, i_max=50)
    guess = guess_pulses("gaussian", grid)
    series = run_correlation_sweep(prob, guess, cfg, [100.0], iterations=3)
    assert len(series) == 1
    direct = ddme_krotov(
        replace(prob, kernel=CorrelationKernel.gaussian(0.01, 100.0)),
        guess,
        replace(cfg, j_tol=None, i_max=3),
    )
    assert np.array_equal(series[0], direct.j_values)


def test_sweep_rejects_empty_list():
    grid = TimeGrid(T=1.0, n_steps=5)
    prob = make_problem("z-gate", grid=grid)
    cfg = KrotovConfig.with_blackman_ramps(grid, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        run_correlation_sweep(prob, np.zeros((1, 5)), cfg, [], iterations=2)


def test_sweep_requires_gaussian_kernel():
    grid = TimeGrid(T=1.0, n_steps=5)
    prob = make_problem("z-gate", kernel=CorrelationKernel.zero(), grid=grid)
    cfg = KrotovConfig.with_blackman_ramps(grid, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        run_correlation_sweep(prob, np.zeros((1, 5)), cfg, [1.0], iterations=2)


def test_ddme_krotov_accepts_white_noise_kernel():
    # the delta-correlated kernel enters the cache as the local term of eta
    grid = TimeGrid(T=2.0, n_steps=20)
    prob = make_problem("z-gate", kernel=CorrelationKernel.white_noise(0.01), grid=grid)
    cfg = KrotovConfig.with_blackman_ramps(grid, 1.25, 0.5, 0.5, j_tol=None, i_max=2)
    trace = ddme_krotov(prob, guess_pulses("gaussian", grid), cfg)
    assert len(trace.j_values) == 3
    assert np.all(np.isfinite(trace.pulses))


def _two_control_problem(n):
    # distinct variances plus a nonzero cross correlation exercise the full
    # (n1, n2) index structure of the memory term
    grid = TimeGrid(T=2.0, n_steps=n)
    fam = HamiltonianFamily(drift=0.5 * SIGMA_Z, controls=(0.5 * SIGMA_X, 0.5 * SIGMA_Y))
    kern = TabulatedKernel([[0.3, 0.1], [0.1, 0.2]], 0.8)
    mids = grid.midpoints
    prob = ControlProblem(
        rho0=projector("0"), rho_targ=projector("+"), h_family=fam, grid=grid, kernel=kern
    )
    pulses = np.vstack(
        [0.7 * np.sin(np.pi * mids / grid.T) + 0.2, 0.4 * np.cos(2 * np.pi * mids / grid.T)]
    )
    return prob, pulses, kern.table(mids, mids)


def test_two_control_gradient_matches_finite_differences():
    # tolerances are ~2x the measured O(dt) splitting bias at this grid;
    # a transposed (n1, n2) wiring overshoots them by an order of magnitude
    n = 400
    prob, pulses, _ = _two_control_problem(n)
    cache = build_cache(prob.h_family, prob.grid, pulses, prob.kernel)
    phi = np.empty((n + 1, 2, 2), complex)
    chi = np.empty((n + 1, 2, 2), complex)
    phi[0] = prob.rho0
    for j in range(1, n + 1):
        phi[j] = ddme_step(cache, j, phi[j - 1])
    chi[n] = prob.rho_targ
    for j in range(n - 1, -1, -1):
        chi[j] = ddme_backward_step(cache, j + 1, chi[j + 1])

    def overlap(p):
        return float(np.real(np.trace(prob.rho_targ @ ddme_propagate(prob, p).final_state)))

    eps = 1e-5
    for m, tol in ((0, 2e-3), (1, 2.5e-2)):
        k = n // 4
        grad = ddme_gradient_D(cache, to_coherence(phi), to_coherence(chi), k)[m]
        plus = pulses.copy()
        plus[m, k - 1] += eps
        minus = pulses.copy()
        minus[m, k - 1] -= eps
        fd = (overlap(plus) - overlap(minus)) / (2 * eps)
        assert abs(prob.grid.dt * grad - fd) <= tol * abs(fd)


def test_one_gradient_call_per_step(monkeypatch):
    # one iteration on a two-control memory problem takes the gradient of
    # both controls in one call per step
    n = 12
    prob, pulses, _ = _two_control_problem(n)
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return ddme_gradient_D(*args)

    monkeypatch.setattr(krotov, "ddme_gradient_D", counted)
    config = KrotovConfig(lambdas=[1.0, 1.0], shapes=np.ones((2, n)), j_tol=None, i_max=1)
    ddme_krotov(prob, pulses, config)
    assert calls == list(range(1, n + 1))


def _recorded_sweeps(monkeypatch):
    """The (runs..., steps) shape of every node sweep the optimizer makes:
    (N,) for the guess's states, (2, L) for a paired sweep of L steps."""
    calls = []

    def recorded(steps, x0):
        calls.append(steps.shape[:-2])
        return _node_sweep(steps, x0)

    monkeypatch.setattr(krotov, "_node_sweep", recorded)
    return calls


@pytest.mark.parametrize("kind", ["zero", "white-noise"])
def test_memoryless_run_sweeps_once_per_iteration(monkeypatch, kind):
    # an update rebuilds its own step map only, so the costates go stale
    # once per iteration: one paired sweep over all N steps, at step 1
    n = 12
    grid = TimeGrid(T=5.0, n_steps=n)
    prob = make_problem("z-gate", kernel=kernel_of_kind(kind), grid=grid)
    calls = _recorded_sweeps(monkeypatch)
    cfg = KrotovConfig(lambdas=[1.0], shapes=np.ones((1, n)), j_tol=None, i_max=3)
    ddme_krotov(prob, guess_pulses("gaussian", grid), cfg)
    assert calls == [(n,)] + [(2, n)] * 3


def test_memory_run_sweeps_before_every_step_but_the_last(monkeypatch):
    # an update rebuilds every later step map, so the gradient at steps
    # 1..N-1 follows a paired sweep over steps k..N; the costate of node N
    # is the target's, so step N only advances the states
    n = 12
    grid = TimeGrid(T=5.0, n_steps=n)
    prob = make_problem("z-gate", grid=grid)
    calls = _recorded_sweeps(monkeypatch)
    cfg = KrotovConfig(lambdas=[1.0], shapes=np.ones((1, n)), j_tol=None, i_max=1)
    ddme_krotov(prob, guess_pulses("gaussian", grid), cfg)
    assert calls == [(n,)] + [(2, n - k + 1) for k in range(1, n)]


def test_memory_run_does_not_sweep_after_unchanged_updates(monkeypatch):
    # with all update weights zero no map ever changes: the states and
    # costates of the first sweep stay current for every later step
    n = 12
    grid = TimeGrid(T=5.0, n_steps=n)
    prob = make_problem("z-gate", grid=grid)
    calls = _recorded_sweeps(monkeypatch)
    cfg = KrotovConfig(lambdas=[1.0], shapes=np.zeros((1, n)), j_tol=None, i_max=3)
    trace = ddme_krotov(prob, guess_pulses("gaussian", grid), cfg)
    assert calls == [(n,), (2, n)]
    assert trace.iterations == 3
    # the cost is re-read from states advanced node by node after the sweep,
    # so it stays the guess's to roundoff
    assert np.max(np.abs(trace.j_values - trace.j_values[0])) <= 1e-14


def test_two_control_sampler_cross_covariance():
    from ddcontrol.model import sample_perturbations

    prob, _, mid_mid = _two_control_problem(40)
    draws = sample_perturbations(prob.kernel, prob.grid, 50_000, seed=5)
    g1 = draws[:, 0, 10]
    g2 = draws[:, 1, 10]
    assert np.mean(g1 * g1) == pytest.approx(mid_mid[0, 0, 10, 10], rel=0.05)
    assert np.mean(g1 * g2) == pytest.approx(mid_mid[0, 1, 10, 10], rel=0.08)
    g2b = draws[:, 1, 25]
    assert np.mean(g1 * g2b) == pytest.approx(mid_mid[0, 1, 10, 25], rel=0.08)
