"""Sequential Krotov-type pulse optimization, with and without disorder.

``se_krotov`` is the standard linear Krotov update for closed-system
(von Neumann) dynamics.  ``ddme_krotov`` generalizes it to the
disorder-dressed evolution: because the memory integrals make the step
generators depend on all earlier pulse values, the costates and forward
states are recomputed inside the sequential update loop, and the pulse
gradient picks up contributions from every later node.  With a zero
correlation kernel the two produce identical update sequences.

Updates follow ``f += (S / lambda) * D`` with the update shape ``S`` in
[0, 1] and the inverse step size ``lambda`` (smaller lambda means larger
steps).  Monotonic decrease of the cost is not guaranteed by the linear
variant and is deliberately not asserted; non-convergence within the
iteration budget is reported through the trace, not raised.

A single optimization run is strictly sequential (each pulse update feeds
the next); independent runs share no mutable state and can execute
concurrently.
"""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import check_density_matrix, commutator, dag, purity, vec
from .model import CorrelationKernel, HamiltonianFamily, TimeGrid, as_pulses, update_shape
from .propagation import PropagatorCache, build_cache, ddme_propagate, unitary_steps


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """State-transfer task: initial state, pure target, drive model, disorder."""

    rho0: np.ndarray
    rho_targ: np.ndarray
    h_family: HamiltonianFamily
    grid: TimeGrid
    kernel: CorrelationKernel

    def __post_init__(self):
        rho0 = check_density_matrix(self.rho0, name="initial state")
        rho_targ = check_density_matrix(self.rho_targ, name="target state")
        if abs(purity(rho_targ) - 1.0) > 1e-10:
            raise ValueError(
                f"target state must be pure, got purity {purity(rho_targ):.12g}"
            )
        d = self.h_family.dim
        if rho0.shape != (d, d) or rho_targ.shape != (d, d):
            raise ValueError(
                f"state dimensions {rho0.shape}/{rho_targ.shape} do not match "
                f"the Hamiltonian dimension {d}"
            )
        if self.kernel.n_controls != self.h_family.n_controls:
            raise ValueError(
                f"kernel describes {self.kernel.n_controls} controls, "
                f"Hamiltonian family has {self.h_family.n_controls}"
            )
        object.__setattr__(self, "rho0", rho0)
        object.__setattr__(self, "rho_targ", rho_targ)

    @property
    def dim(self):
        return self.h_family.dim

    @property
    def n_controls(self):
        return self.h_family.n_controls


@dataclass(frozen=True, eq=False)
class KrotovConfig:
    """Optimizer parameters.

    ``lambdas``: inverse step size per control (> 0).
    ``shapes``: per-control update weights on the midpoint grid, in [0, 1].
    ``j_tol``: absolute cost tolerance in (0, 1), or None to always run
    ``i_max`` iterations (fixed-iteration mode).
    """

    lambdas: np.ndarray
    shapes: np.ndarray
    j_tol: float = 0.003
    i_max: int = 50

    def __post_init__(self):
        lambdas = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        shapes = np.asarray(self.shapes, dtype=float)
        if shapes.ndim == 1:
            shapes = shapes[None, :]
        if np.any(lambdas <= 0.0):
            raise ValueError(f"inverse step sizes must be positive, got {lambdas}")
        if shapes.shape[0] != lambdas.size:
            raise ValueError(
                f"{lambdas.size} step sizes but {shapes.shape[0]} update shapes"
            )
        if np.any(shapes < 0.0) or np.any(shapes > 1.0):
            raise ValueError("update shapes must lie in [0, 1]")
        if self.j_tol is not None and not 0.0 < self.j_tol < 1.0:
            raise ValueError(f"cost tolerance must lie in (0, 1), got {self.j_tol}")
        if self.i_max < 1:
            raise ValueError(f"need at least one iteration, got {self.i_max}")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "shapes", shapes)

    @classmethod
    def with_blackman_ramps(cls, grid, lambdas, t_on, t_off, j_tol=0.003, i_max=50, n_controls=1):
        """Config whose update shapes rise/fall as Blackman ramps of the given durations."""
        s = update_shape(grid, t_on, t_off)
        shapes = np.tile(s, (n_controls, 1))
        lambdas = np.broadcast_to(np.atleast_1d(lambdas), (n_controls,)).copy()
        return cls(lambdas=lambdas, shapes=shapes, j_tol=j_tol, i_max=i_max)


@dataclass(eq=False)
class OptimizationTrace:
    """Per-iteration cost history plus the final pulses.

    ``j_values`` has length ``iterations + 1``; entry 0 is the
    pre-optimization cost of the guess.
    """

    j_values: np.ndarray
    pulses: np.ndarray
    converged: bool
    iterations: int


def _check_config(problem: ControlProblem, config: KrotovConfig):
    m, n = problem.n_controls, problem.grid.n_steps
    if config.lambdas.size != m:
        raise ValueError(f"config has {config.lambdas.size} step sizes for {m} controls")
    if config.shapes.shape != (m, n):
        raise ValueError(
            f"update shapes have shape {config.shapes.shape}, expected {(m, n)}"
        )


def _overlap(rho_targ, rho):
    return float(np.real(np.trace(rho_targ @ rho)))


def _operators(vecs, d):
    """C-contiguous (..., d, d) operators from column-stacked (..., d*d) vectors."""
    return np.ascontiguousarray(np.swapaxes(vecs.reshape(vecs.shape[:-1] + (d, d)), -1, -2))


def cost_JT(problem: ControlProblem, pulses, kernel=None):
    """Infidelity-type cost 1 - Tr(rho_targ rho_avg(T)) of a pulse set."""
    traj = ddme_propagate(problem, pulses, kernel=kernel)
    return 1.0 - _overlap(problem.rho_targ, traj.final_state)


def se_krotov(problem: ControlProblem, guess, config: KrotovConfig):
    """Standard sequential Krotov update for closed-system evolution.

    The disorder kernel is ignored (the dynamics is the plain von Neumann
    equation); costates are backward-propagated once per iteration with the
    previous pulses, and each pulse value is updated from the state evolved
    up to its own step.
    """
    _check_config(problem, config)
    grid = problem.grid
    dt = grid.dt
    n, m = grid.n_steps, problem.n_controls
    controls = problem.h_family.control_stack
    pulses = as_pulses(guess, grid, m).copy()

    u = unitary_steps(problem.h_family, pulses, dt)
    rho = problem.rho0
    for k in range(n):
        rho = u[k] @ rho @ dag(u[k])
    j_val = 1.0 - _overlap(problem.rho_targ, rho)
    j_values = [j_val]
    converged = config.j_tol is not None and j_val <= config.j_tol

    chi = np.empty((n + 1,) + problem.rho0.shape, dtype=complex)
    iterations = 0
    while not converged and iterations < config.i_max:
        iterations += 1
        chi[n] = problem.rho_targ
        for j in range(n - 1, -1, -1):
            chi[j] = dag(u[j]) @ chi[j + 1] @ u[j]
        rho = problem.rho0
        for k in range(1, n + 1):
            rho_pre = u[k - 1] @ rho @ dag(u[k - 1])
            updated = False
            for mm in range(m):
                if config.shapes[mm, k - 1] == 0.0:
                    continue
                grad = np.real(
                    np.trace(chi[k] @ (-1j * commutator(controls[mm], rho_pre)))
                )
                pulses[mm, k - 1] += config.shapes[mm, k - 1] / config.lambdas[mm] * grad
                updated = True
            if updated:
                u[k - 1] = unitary_steps(problem.h_family, pulses[:, k - 1 : k], dt)[0]
            rho = u[k - 1] @ rho @ dag(u[k - 1])
        j_val = 1.0 - _overlap(problem.rho_targ, rho)
        j_values.append(j_val)
        converged = config.j_tol is not None and j_val <= config.j_tol

    return OptimizationTrace(
        j_values=np.array(j_values), pulses=pulses, converged=converged, iterations=iterations
    )


def _gradient_terms(cache: PropagatorCache, states, costates, m, k):
    """Complex pulse gradient D at control m (0-based) and step k (1-based).

    Sums the coherent contribution at node k and, for every node j >= k,
    the sensitivity of the memory integrals to the pulse value on step k.
    The exact result is real; the imaginary residue is returned for
    diagnostics.
    """
    hm = cache.h_family.controls[m]
    coherent = np.trace(costates[k] @ (-1j * commutator(hm, states[k])))
    if not cache.has_memory:
        # eta, including a white-noise kernel's local term, is pulse independent
        return coherent

    dt = cache.grid.dt
    b_kl = cache.htilde_row(k)[:, :k]  # (M, k, d, d)
    comms = hm @ b_kl - b_kl @ hm
    w = cache.weights[:, :, k:, :k]  # (M, M, n-k+1, k)
    deta = (-1j * dt * dt) * np.einsum("pnjl,nlab->pnjab", w, comms)
    u_rel = np.einsum("jab,cb->jac", cache.g[k:], np.conj(cache.g[k]))
    evolved = np.einsum("jab,pnjbc,jdc->pnjad", u_rel, deta, np.conj(u_rel))
    phi = states[k:]
    inner = evolved @ phi - phi @ evolved
    h_stack = cache.h_family.control_stack[:, None, None]
    outer = h_stack @ inner - inner @ h_stack
    incoherent = np.einsum("jab,pnjba->", costates[k:], outer)
    return coherent - incoherent


def ddme_gradient_D(cache: PropagatorCache, states, costates, m, k):
    """Real pulse gradient used by the disorder-dressed update rule."""
    return float(np.real(_gradient_terms(cache, states, costates, m, k)))


def ddme_krotov(problem: ControlProblem, guess, config: KrotovConfig):
    """Sequential Krotov optimization of the disorder-dressed evolution.

    Within each iteration the pulses are updated step by step; at update
    index k the costates are recomputed backward from the target and the
    states forward from node k-1, using propagators that already contain
    the updates at steps < k.  After each update the cached tables are
    rebuilt from step k on.
    """
    _check_config(problem, config)
    grid = problem.grid
    n, m = grid.n_steps, problem.n_controls
    cache = build_cache(problem.h_family, grid, guess, problem.kernel)

    d = problem.dim
    # refresh() writes into v_steps in place, so this alias stays current
    v_steps = cache.v_steps
    # states and costates as column-stacked vectors, one row per node
    phi = np.empty((n + 1, d * d), dtype=complex)
    chi = np.empty((n + 1, d * d), dtype=complex)
    phi[0] = vec(problem.rho0)
    for j in range(1, n + 1):
        phi[j] = v_steps[j - 1] @ phi[j - 1]
    chi[n] = vec(problem.rho_targ)

    j_val = 1.0 - _overlap(problem.rho_targ, _operators(phi[n], d))
    j_values = [j_val]
    converged = config.j_tol is not None and j_val <= config.j_tol

    iterations = 0
    while not converged and iterations < config.i_max:
        iterations += 1
        for k in range(1, n + 1):
            for j in range(n - 1, k - 1, -1):
                chi[j] = v_steps[j].conj().T @ chi[j + 1]
            for j in range(k, n + 1):
                phi[j] = v_steps[j - 1] @ phi[j - 1]
            new_values = cache.pulses[:, k - 1].copy()
            states, costates = _operators(phi, d), _operators(chi, d)
            for mm in range(m):
                if config.shapes[mm, k - 1] == 0.0:
                    continue
                grad = ddme_gradient_D(cache, states, costates, mm, k)
                new_values[mm] += config.shapes[mm, k - 1] / config.lambdas[mm] * grad
            if not np.array_equal(new_values, cache.pulses[:, k - 1]):
                cache.update_step(k, new_values)
            phi[k] = v_steps[k - 1] @ phi[k - 1]
        j_val = 1.0 - _overlap(problem.rho_targ, _operators(phi[n], d))
        j_values.append(j_val)
        converged = config.j_tol is not None and j_val <= config.j_tol

    return OptimizationTrace(
        j_values=np.array(j_values),
        pulses=cache.pulses.copy(),
        converged=converged,
        iterations=iterations,
    )


def run_correlation_sweep(problem: ControlProblem, guess, config: KrotovConfig, tcorr_list, iterations):
    """Fixed-iteration optimizations across correlation times.

    For every correlation time the optimizer runs for exactly
    ``iterations`` iterations (no tolerance stop) on a copy of the problem
    whose Gaussian kernel has that correlation time; returns the list of
    cost series, each of length ``iterations + 1``.
    """
    tcorr_list = list(tcorr_list)
    if not tcorr_list:
        raise ValueError("need at least one correlation time")
    if problem.kernel.kind != "stationary-gaussian":
        raise ValueError(
            "correlation-time sweeps require a stationary Gaussian kernel, "
            f"got kind {problem.kernel.kind!r}"
        )
    series = []
    for t_corr in tcorr_list:
        kernel = CorrelationKernel.gaussian(problem.kernel.c0, t_corr, problem.n_controls)
        swept = replace(problem, kernel=kernel)
        cfg = replace(config, j_tol=None, i_max=iterations)
        trace = ddme_krotov(swept, guess, cfg)
        series.append(trace.j_values)
    return series
