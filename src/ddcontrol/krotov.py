"""Sequential Krotov-type pulse optimization of the disorder-dressed evolution.

``ddme_krotov`` is the linear sequential update (Reich, Ndong & Koch,
J. Chem. Phys. 136, 104103 (2012)) of the disorder-dressed master
equation.  Because the memory integrals make the step generators depend on
all earlier pulse values, the costates and forward states are recomputed
inside the sequential update loop, and the pulse gradient picks up
contributions from every later node.  Closed-system (von Neumann) control
is the zero-kernel case of the same loop: ``se_krotov`` runs
``ddme_krotov`` with the kernel set to zero.

Updates follow ``f += (S / lambda) * D`` with the update shape ``S`` in
[0, 1] and the inverse step size ``lambda`` (smaller lambda means larger
steps).  Monotonic decrease of the cost is not guaranteed by the linear
variant and is deliberately not asserted; non-convergence within the
iteration budget is reported through the trace, not raised.

States and costates are the real coherence vectors of :mod:`ddcontrol.linalg`
(``rho = I / d + sum_e r_e lambda_e``).  The step maps ``V_j`` of the
:class:`~ddcontrol.propagation.PropagatorCache` advance states,
``r[j] = V_j r[j-1]``, and their transposes pull costates back,
``c[j-1] = V_j^T c[j]`` from ``c[N]``, the coefficients of the target.
With ``Tr(A B) = Tr(A) Tr(B) / d + 2 a.b`` for Hermitian A, B the cost is
``1 - 1/d - 2 c[N].r[N]`` and the pulse gradient is a real sum of products
of coefficient vectors and real maps.  Its memory term reads the cache's
real frame directly: the orthogonal node maps ``O_j``, the
interaction-picture controls ``kappa`` and the running memory table
``s_<k`` of :meth:`~ddcontrol.propagation.PropagatorCache.past_sums`, the
kernel weights contracted with the kappa of the nodes before k, which the
cache advances by one node per step of the ascending sweep.  Its sum over
the later nodes and the controls is a single gemm, contracted with
``F(kappa)`` of every control at once, so one call gives the gradient of
all controls at a step.

One rule schedules the propagation for every kernel.  An update at step k
changes the step maps that
:meth:`~ddcontrol.propagation.PropagatorCache.update_step` rebuilds: k
alone without memory, k..N with memory.  The loop keeps the last step whose
map changed since the costates were last swept.  If it lies after k, the
costate of node k is stale, and before the gradient the costates and states
are swept again, by one blocked :func:`~ddcontrol.propagation._node_sweep`
over a batch of two runs of equal length: the costates from the target on
the reversed, transposed maps of steps N..k, and the states from node k-1
on the maps of steps k..N.  Otherwise the states advance one node.  So a
memoryless run sweeps once per iteration, a memory run once after every
update that changed a pulse value, and no run after an update that changed
nothing.

A single optimization run is strictly sequential (each pulse update feeds
the next); independent runs share no mutable state and can execute
concurrently.
"""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import check_density_matrix, purity, structure_map, to_coherence
from .model import CorrelationKernel, HamiltonianFamily, TimeGrid, update_shape
from .propagation import PropagatorCache, _node_sweep, build_cache, ddme_propagate


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
    ``shapes``: (M, N) update weights on the midpoint grid, one row per
    control, in [0, 1].
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
        if np.any(lambdas <= 0.0):
            raise ValueError(f"inverse step sizes must be positive, got {lambdas}")
        if shapes.ndim != 2 or shapes.shape[0] != lambdas.size:
            raise ValueError(
                f"update shapes must be an (M, N) array with M = {lambdas.size} step sizes, "
                f"got shape {shapes.shape}"
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


def cost_JT(problem: ControlProblem, pulses):
    """Infidelity-type cost 1 - Tr(rho_targ rho_avg(T)) of a pulse set under
    the problem's kernel."""
    traj = ddme_propagate(problem, pulses)
    return 1.0 - float(np.real(np.trace(problem.rho_targ @ traj.final_state)))


def se_krotov(problem: ControlProblem, guess, config: KrotovConfig):
    """Sequential Krotov optimization of the closed-system (von Neumann) evolution.

    The zero-kernel case of :func:`ddme_krotov`: the problem's disorder
    kernel is replaced by the zero kernel.
    """
    zero = CorrelationKernel.zero(problem.n_controls)
    return ddme_krotov(replace(problem, kernel=zero), guess, config)


def ddme_gradient_D(cache: PropagatorCache, states, costates, k):
    """Pulse gradient D of every control at step k (1-based), an (M,) array.

    ``states`` and ``costates`` are (N+1, d^2-1) coherence vectors.  D sums
    the coherent term ``Tr(chi_k (-i [H_m, rho_k])) = 2 c_k.F(h_m) r_k`` and,
    for every node j >= k, the sensitivity of the step generator's memory
    term ``sum_p F(h_p) F(e_p)`` to the pulse value on step k.
    """
    grad = 2.0 * (costates[k] @ cache.f_controls) @ states[k]
    if not cache.has_memory:
        # eta, including a white-noise kernel's local term, is pulse independent
        return grad

    # The pulse of control m on step k rotates the node propagators g_j,
    # j >= k, by 1 - i dt df K, with K = g_k^dag H_m g_k (coefficients
    # kappa[m, k]); of the evolved controls in e_p[node j] only those from
    # start nodes l < k move, and e_p[node j] moves by dt^2 O_j F(kappa[m, k])
    # s_pj df with s_pj = sum_{n, l<k} W[p, j, n, l] kappa[n, l], the cache's
    # running memory table at step k.  Through
    # F(h_p) F(x) that adds 2 c_j.F(h_p) F(x) r_j = -2 a_pj.x to D,
    # a_pj = (c_j F(h_p)) F(r_j), since F(x) r = -F(r) x.
    dt = cache.grid.dt
    n_ctrl, n_later, n = cache.kappa.shape[0], cache.n_steps - k + 1, states.shape[-1]
    s = cache.past_sums(k)[:, k:]
    a = (costates[k:] @ cache.f_controls)[..., None, :] @ structure_map(states[k:])
    # with rows O_j^T a_pj, the sum over (p, j) of (O_j^T a_pj).F(kappa[m, k]) s_pj
    # is F(kappa[m, k]) contracted with G = sum_{p,j} (O_j^T a_pj) s_pj^T: one
    # gemm for G, shared by every control m
    oa = (a @ cache.o[k:]).reshape(n_ctrl * n_later, n)
    g = oa.T @ s.reshape(n_ctrl * n_later, n)
    f_kappa = structure_map(cache.kappa[:, k]).reshape(n_ctrl, -1)
    return grad - 2.0 * dt * dt * (f_kappa @ g.ravel())


def ddme_krotov(problem: ControlProblem, guess, config: KrotovConfig):
    """Sequential Krotov optimization of the disorder-dressed evolution.

    Within each iteration the pulses are updated step by step; at update
    index k one gradient call reads the states and costates from node k on,
    computed with propagators that already contain the updates at steps
    < k, and gives the update ``f += (S / lambda) * D`` of every control.
    Before the gradient at step k, if a step map after k changed since the
    last sweep, the costates are swept again from the target over steps
    N..k and the states from node k-1 over steps k..N, both runs in one
    :func:`~ddcontrol.propagation._node_sweep`; otherwise the states
    advance one node.  Which maps an update changed is the last step that
    :meth:`~ddcontrol.propagation.PropagatorCache.update_step` rebuilt, so
    the same loop serves every kernel.  The cost ``J_T`` is read once per
    iteration and once for the guess, from the final state and the
    target's costate.
    """
    _check_config(problem, config)
    grid = problem.grid
    n = grid.n_steps
    steps = config.shapes / config.lambdas[:, None]
    cache = build_cache(problem.h_family, grid, guess, problem.kernel)

    # refresh() writes into v_steps in place, so this alias stays current
    v_steps = cache.v_steps
    # states and costates, one coherence vector per node; the backward step
    # c[j-1] = V_j^T c[j] is the forward sweep of the reversed, transposed maps
    backward = v_steps[::-1].swapaxes(1, 2)
    states = _node_sweep(v_steps, to_coherence(problem.rho0))
    costates = np.empty_like(states)
    costates[n] = to_coherence(problem.rho_targ)
    offset = 1.0 - 1.0 / problem.dim
    # the paired sweep's maps and starting values: run 0 the costates, run 1
    # the states
    pair = np.empty((2, n) + v_steps.shape[1:])
    ends = np.empty((2,) + states.shape[1:])
    # the last step whose map changed since the costates were last swept
    rebuilt = n

    j_values = []
    for iteration in range(config.i_max + 1):
        j_values.append(offset - 2.0 * float(costates[n] @ states[n]))
        converged = config.j_tol is not None and j_values[-1] <= config.j_tol
        if converged or iteration == config.i_max:
            break
        for k in range(1, n + 1):
            if rebuilt > k:
                # costates of nodes N..k-1 on the maps V_N^T..V_k^T, states
                # of nodes k-1..N on the maps V_k..V_N: two runs of N - k + 1
                run = n - k + 1
                pair[0, :run] = backward[:run]
                pair[1, :run] = v_steps[k - 1 :]
                ends[0], ends[1] = costates[n], states[k - 1]
                swept = _node_sweep(pair[:, :run], ends)
                costates[k - 1 :] = swept[0, ::-1]
                states[k - 1 :] = swept[1]
                rebuilt = 0
            else:
                states[k] = v_steps[k - 1] @ states[k - 1]
            new = cache.pulses[:, k - 1] + steps[:, k - 1] * ddme_gradient_D(cache, states, costates, k)
            if (new != cache.pulses[:, k - 1]).any():
                rebuilt = max(rebuilt, cache.update_step(k, new))
                states[k] = v_steps[k - 1] @ states[k - 1]

    return OptimizationTrace(
        j_values=np.array(j_values),
        pulses=cache.pulses.copy(),
        converged=converged,
        iterations=len(j_values) - 1,
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
        swept = replace(problem, kernel=replace(problem.kernel, t_corr=t_corr))
        cfg = replace(config, j_tol=None, i_max=iterations)
        trace = ddme_krotov(swept, guess, cfg)
        series.append(trace.j_values)
    return series
