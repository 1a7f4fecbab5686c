"""Propagation of disorder-averaged states and their brute-force counterpart.

The forward solver advances the averaged state node-to-node with the
one-exponential step ``exp(dt * K_k)``, where the step generator

    K_k rho = -i [H(mid_k), rho] - sum_{m,n} [H_m, [eta[m, n, node_k], rho]]

combines the coherent drive with the accumulated memory integrals

    eta[n1, n2, j] = w[n1, n2] H_n2 + dt * sum_{l < j} C[n1, n2](t_j, mid_l) * Htilde[n2, j, l],

``Htilde[m, j, l]`` is the control Hamiltonian ``H_m`` coherently evolved
from node ``l`` to node ``j``, and ``w`` holds the kernel's local weights
(``alpha / 2`` on the diagonal for white noise, zero otherwise).  Every
kernel kind goes through this one generator: for white noise the Riemann
sum vanishes and the local term makes ``K_k`` the Markovian
double-commutator generator.  All tables live in a
:class:`PropagatorCache` that can be partially rebuilt after a pulse
changes, which is what the sequential optimizer relies on, so the
optimizer and :func:`ddme_propagate` follow the same map.
:func:`white_noise_propagate` builds the Markovian generator on its own and
is kept as an independent reference for that kind.

Step indices ``k`` are 1-based (step ``k`` connects node ``k-1`` to node
``k``); node indices are 0-based.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    NumericalError,
    bloch_vector,
    commutator_super_batch,
    dag,
    expm,
    expm_hermitian,
    fidelity_pure_target,
    purity,
    unvec,
    vec,
)
from .model import CorrelationKernel, TimeGrid, as_pulses, sample_perturbations


@dataclass
class Trajectory:
    """States on the node grid together with derived scalar series."""

    times: np.ndarray
    states: np.ndarray
    purity: np.ndarray
    fidelity: np.ndarray
    bloch: np.ndarray  # (n_nodes, 3) for qubits, None otherwise

    @classmethod
    def from_states(cls, times, states, rho_targ):
        states = np.asarray(states)
        return cls(
            times=np.asarray(times),
            states=states,
            purity=purity(states),
            fidelity=fidelity_pure_target(rho_targ, states),
            bloch=bloch_vector(states) if states.shape[-1] == 2 else None,
        )

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def final_purity(self):
        return float(self.purity[-1])

    @property
    def final_fidelity(self):
        return float(self.fidelity[-1])

    @property
    def min_purity(self):
        return float(np.min(self.purity))


def unitary_step(h_family, pulses, k, dt):
    """Unitary for step k: exp(-i dt (H_0 + sum_m f[m, k-1] H_m))."""
    pulses = np.asarray(pulses, dtype=float)
    if not 1 <= k <= pulses.shape[1]:
        raise ValueError(f"step index {k} outside 1..{pulses.shape[1]}")
    return expm_hermitian(h_family.at(pulses[:, k - 1]), -1j * dt)


def unitary_steps(h_family, pulses, dt):
    """All step unitaries at once: (n_steps, d, d)."""
    return expm_hermitian(h_family.stack(pulses), -1j * dt)


class PropagatorCache:
    """Step unitaries plus the coherently evolved controls, memory integrals
    and one-step superoperators.

    Attributes (N = grid.n_steps, d = Hilbert dimension, M = controls):

    * ``u_steps``: (N, d, d) step unitaries;
    * ``g``: (N+1, d, d) cumulative node propagators, ``g[j] = U(t_j, 0)``;
    * ``k_ops``: (M, N+1, d, d) interaction-picture controls
      ``g[l]^dag H_m g[l]``; together with ``g`` these factor the full
      evolved-control table, ``htilde[m, j, l] = g[j] k_ops[m, l] g[j]^dag``;
    * ``eta``: (M, M, N+1, d, d) memory integrals per node, the kernel's
      pulse-independent local term plus its Riemann sum;
    * ``has_memory``: whether the kernel has Riemann-sum weights in the
      past of some node; without them ``eta`` does not depend on the
      pulses (zero and white-noise kernels);
    * ``v_steps``: (N, d^2, d^2) one-step superoperators exp(dt * K_k);
    * ``htilde``: dense (M, N+1, N+1, d, d) snapshot, materialized on demand
      by :func:`build_htilde_table` and dropped on every refresh.
    """

    def __init__(self, h_family, grid: TimeGrid, pulses, kernel: CorrelationKernel):
        if kernel.n_controls != h_family.n_controls:
            raise ValueError(
                f"kernel describes {kernel.n_controls} controls, "
                f"Hamiltonian family has {h_family.n_controls}"
            )
        self.h_family = h_family
        self.grid = grid
        self.kernel = kernel
        self.pulses = as_pulses(pulses, grid, h_family.n_controls).copy()

        n, d, m = grid.n_steps, h_family.dim, h_family.n_controls
        self._c_controls = commutator_super_batch(h_family.control_stack)
        weights = kernel.weight_table(grid)
        # zero out l >= j so the eta sums run over the past only
        mask = (np.arange(n)[None, :] < np.arange(n + 1)[:, None]).astype(float)
        self.weights = weights
        self._masked_weights = weights * mask[None, None, :, :]
        self.has_memory = bool(np.any(self._masked_weights))
        self._local_eta = np.einsum("pn,nab->pnab", kernel.local_weights, h_family.control_stack)

        self.u_steps = np.empty((n, d, d), dtype=complex)
        self.g = np.empty((n + 1, d, d), dtype=complex)
        self.g[0] = np.eye(d, dtype=complex)
        self.k_ops = np.empty((m, n + 1, d, d), dtype=complex)
        self.eta = np.empty((m, m, n + 1, d, d), dtype=complex)
        self.v_steps = np.empty((n, d * d, d * d), dtype=complex)
        self.htilde = None
        # node-0 entries are pulse independent and never touched by refresh
        self.k_ops[:, 0] = h_family.control_stack
        self.eta[:, :, 0] = 0.0
        self.refresh(1)

    @property
    def n_steps(self):
        return self.grid.n_steps

    def update_step(self, k, values):
        """Set all pulse values on step k and rebuild the stale table suffix."""
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if not np.all(np.isfinite(values)):
            raise NumericalError(f"non-finite pulse update at step {k}")
        self.pulses[:, k - 1] = values
        self.refresh(k)

    def refresh(self, start_step):
        """Rebuild every table that depends on pulses at steps >= start_step."""
        k0 = start_step
        if not 1 <= k0 <= self.n_steps:
            raise ValueError(f"start step {k0} outside 1..{self.n_steps}")
        dt = self.grid.dt
        hams = self.h_family.stack(self.pulses[:, k0 - 1 :])
        self.u_steps[k0 - 1 :] = expm_hermitian(hams, -1j * dt)
        for j in range(k0, self.n_steps + 1):
            self.g[j] = self.u_steps[j - 1] @ self.g[j - 1]
        self.k_ops[:, k0:] = np.einsum(
            "jba,mbc,jcd->mjad",
            np.conj(self.g[k0:]),
            self.h_family.control_stack,
            self.g[k0:],
        )
        self.htilde = None
        build_eta_table(self, start_node=k0)
        self._build_v_steps(k0)

    def _build_v_steps(self, start_step):
        dt = self.grid.dt
        c_hbar = commutator_super_batch(self.h_family.stack(self.pulses[:, start_step - 1 :]))
        c_eta = commutator_super_batch(self.eta[:, :, start_step:])
        incoherent = np.einsum("mab,mnkbc->kac", self._c_controls, c_eta)
        gen = -1j * c_hbar - incoherent
        if not np.all(np.isfinite(gen)):
            raise NumericalError("non-finite step generator")
        self.v_steps[start_step - 1 :] = expm(gen, scale=dt)

    def htilde_row(self, j):
        """Evolved controls ending at node j: (M, j+1, d, d) over start nodes l <= j."""
        gj = self.g[j]
        row = np.einsum("ab,mlbc,dc->mlad", gj, self.k_ops[:, : j + 1], np.conj(gj))
        row[:, j] = self.h_family.control_stack  # exact at equal nodes
        return row

    def relative_propagator(self, j, l):
        """U(t_j, t_l) between nodes, j >= l."""
        if j < l:
            raise ValueError(f"need j >= l, got ({j}, {l})")
        return self.g[j] @ dag(self.g[l])


def build_htilde_table(cache: PropagatorCache):
    """Materialize the dense evolved-control table for the current pulses.

    Returns (and stores on the cache) the (M, N+1, N+1, d, d) array with
    entry [m, j, l] equal to H_m evolved from node l to node j for l <= j,
    and zeros above the diagonal.  The propagation and optimization paths
    work from the factored form; this snapshot exists for inspection and
    validation.
    """
    n = cache.n_steps
    m, d = cache.h_family.n_controls, cache.h_family.dim
    table = np.zeros((m, n + 1, n + 1, d, d), dtype=complex)
    for j in range(n + 1):
        table[:, j, : j + 1] = cache.htilde_row(j)
    cache.htilde = table
    return table


def build_eta_table(cache: PropagatorCache, start_node=0):
    """Memory integrals for nodes >= start_node.

    eta[n1, n2, j] = w[n1, n2] H_n2
                     + dt * sum_{l=0}^{j-1} C[n1, n2](t_j, mid_l) htilde[n2, j, l],

    with ``w`` the kernel's local weights; Hermitian whenever the kernel is
    real, since each htilde entry is.  The Riemann sum is skipped when the
    kernel has no weights in the past of any node.  Otherwise it is
    evaluated in factored form: the kernel weights contract with the
    interaction-picture controls first, and the single conjugation by g[j]
    happens after.
    """
    j0 = max(start_node, 1)
    cache.eta[:, :, j0:] = cache._local_eta[:, :, None]
    if not cache.has_memory:
        return
    weighted = np.einsum(
        "pnjl,nlab->pnjab", cache._masked_weights[:, :, j0:], cache.k_ops[:, :-1]
    )
    gs = cache.g[j0:]
    cache.eta[:, :, j0:] += cache.grid.dt * np.einsum(
        "jab,pnjbc,jdc->pnjad", gs, weighted, np.conj(gs)
    )


def build_cache(h_family, grid, pulses, kernel):
    """Construct a fully populated PropagatorCache."""
    return PropagatorCache(h_family, grid, pulses, kernel)


def ddme_step(cache: PropagatorCache, k, rho):
    """Advance the averaged state across step k (node k-1 to node k)."""
    return unvec(cache.v_steps[k - 1] @ vec(rho))


def ddme_backward_step(cache: PropagatorCache, k, chi):
    """Adjoint of :func:`ddme_step`: pull a costate from node k back to node k-1.

    Uses the conjugate transpose of the step superoperator, so
    <backward(chi), rho> == <chi, forward(rho)> holds to roundoff in the
    Hilbert-Schmidt inner product.
    """
    return unvec(np.conj(cache.v_steps[k - 1]).T @ vec(chi))


def ddme_propagate(problem, pulses, kernel=None):
    """Propagate the disorder-averaged state over the whole grid.

    Returns a :class:`Trajectory` on the node grid.  ``kernel`` overrides
    the problem's kernel when given.  Every kernel kind uses the step
    superoperators of a :class:`PropagatorCache`, the dynamics the
    optimizer follows.
    """
    kernel = problem.kernel if kernel is None else kernel
    cache = build_cache(problem.h_family, problem.grid, pulses, kernel)
    states = np.empty((cache.n_steps + 1,) + problem.rho0.shape, dtype=complex)
    states[0] = problem.rho0
    v = vec(problem.rho0)
    for k in range(1, cache.n_steps + 1):
        v = cache.v_steps[k - 1] @ v
        states[k] = unvec(v)
    return Trajectory.from_states(cache.grid.nodes, states, problem.rho_targ)


def white_noise_propagate(problem, pulses, alpha):
    """Evolve under the Markovian limit of delta-correlated perturbations.

    Generator: K rho = -i [H(t), rho] - (alpha / 2) sum_m [H_m, [H_m, rho]].
    The dissipator has Hermitian jump operators, so the purity series is
    non-increasing.  This builds the generator directly, without a
    :class:`PropagatorCache`; it is the independent reference that
    :func:`ddme_propagate` on a white-noise kernel is checked against.
    """
    if alpha < 0.0:
        raise ValueError(f"white-noise rate must be nonnegative, got {alpha}")
    grid = problem.grid
    pulses = as_pulses(pulses, grid, problem.h_family.n_controls)
    c_controls = commutator_super_batch(problem.h_family.control_stack)
    dissipator = 0.5 * alpha * np.einsum("mab,mbc->ac", c_controls, c_controls)
    gen = -1j * commutator_super_batch(problem.h_family.stack(pulses)) - dissipator[None]
    v_steps = expm(gen, scale=grid.dt)
    states = np.empty((grid.n_steps + 1,) + problem.rho0.shape, dtype=complex)
    states[0] = problem.rho0
    v = vec(problem.rho0)
    for k in range(grid.n_steps):
        v = v_steps[k] @ v
        states[k + 1] = unvec(v)
    return Trajectory.from_states(grid.nodes, states, problem.rho_targ)


def unitary_trajectory(problem, pulses):
    """Closed-system propagation of one (possibly perturbed) pulse set."""
    grid = problem.grid
    pulses = as_pulses(pulses, grid, problem.h_family.n_controls)
    u = unitary_steps(problem.h_family, pulses, grid.dt)
    states = np.empty((grid.n_steps + 1,) + problem.rho0.shape, dtype=complex)
    states[0] = problem.rho0
    rho = problem.rho0
    for k in range(grid.n_steps):
        rho = u[k] @ rho @ dag(u[k])
        states[k + 1] = rho
    return Trajectory.from_states(grid.nodes, states, problem.rho_targ)


def ensemble_average(problem, pulses, count, seed, kernel=None):
    """Brute-force disorder average over sampled pulse perturbations.

    Each realization adds a sampled perturbation to the pulses and evolves
    unitarily with the same piecewise-constant midpoint discretization; the
    returned trajectory averages the realization states at every node.
    Deterministic for a fixed seed: realizations are averaged with numpy's
    pairwise mean along the realization axis, in sampling order.
    """
    kernel = problem.kernel if kernel is None else kernel
    grid = problem.grid
    pulses = as_pulses(pulses, grid, problem.h_family.n_controls)
    perturbations = sample_perturbations(kernel, grid, count, seed)
    perturbed = pulses[None, :, :] + perturbations
    hams = problem.h_family.drift[None, None] + np.einsum(
        "cmk,mab->ckab", perturbed, problem.h_family.control_stack
    )
    u = expm_hermitian(hams, -1j * grid.dt)
    d = problem.h_family.dim
    states = np.empty((grid.n_steps + 1, d, d), dtype=complex)
    states[0] = problem.rho0
    rho = np.broadcast_to(problem.rho0, (count, d, d)).copy()
    for k in range(grid.n_steps):
        rho = np.einsum("cab,cbe,cde->cad", u[:, k], rho, np.conj(u[:, k]))
        states[k + 1] = rho.mean(axis=0)
    return Trajectory.from_states(grid.nodes, states, problem.rho_targ)
