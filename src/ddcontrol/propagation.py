"""Propagation of disorder-averaged states and their brute-force counterpart.

The averaged state is carried as its real coherence vector ``r``,
``rho = I / d + sum_e r_e lambda_e`` over the generalized Gell-Mann basis
(see :mod:`ddcontrol.linalg`).  The forward solver advances ``r``
node-to-node with the one-exponential step ``exp(dt * K_k)``, a real
``(d**2 - 1, d**2 - 1)`` matrix with no affine part, where the step
generator

    K_k = F(h_k) + sum_m F(h_m) F(e_m[node_k]),   E_m = sum_n eta[m, n],

acts on ``r`` as ``rho -> -i [H(mid_k), rho] - sum_{m,n} [H_m, [eta[m, n,
node_k], rho]]`` does on ``rho``; lower-case letters are the coefficients of
the operators and ``F(x)`` is :func:`~ddcontrol.linalg.structure_map`.  The
memory integrals

    eta[n1, n2, j] = w[n1, n2] H_n2 + dt * sum_{l < j} C[n1, n2](t_j, mid_l) * Htilde[n2, j, l]

are kept as operators: ``Htilde[m, j, l]`` is the control Hamiltonian
``H_m`` coherently evolved from node ``l`` to node ``j``, and ``w`` holds the
kernel's local weights (``alpha / 2`` on the diagonal for white noise, zero
otherwise).  Every kernel kind goes through this one generator: for white
noise the Riemann sum vanishes and the local term makes ``K_k`` the
Markovian double-commutator generator.  All tables live in a
:class:`PropagatorCache` that can be partially rebuilt after a pulse
changes, which is what the sequential optimizer relies on, so the
optimizer and :func:`ddme_propagate` follow the same map.
:func:`white_noise_propagate` builds the Markovian generator on its own and
is kept as an independent reference for that kind.

Every node-by-node propagation goes through one loop, :func:`_node_sweep`,
which applies a stack of step maps to a starting array: the step maps to
the coherence vector of ``rho0`` in :func:`ddme_propagate`,
:func:`white_noise_propagate` and the optimizer's first forward sweep, and
the step unitaries of every realization to the eigenvectors of ``rho0`` in
:func:`unitary_average`.  Only the optimizer's sequential update advances
states on its own.

Step indices ``k`` are 1-based (step ``k`` connects node ``k-1`` to node
``k``); node indices are 0-based.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    NumericalError,
    bloch_vector,
    dag,
    expm,
    expm_hermitian,
    fidelity_pure_target,
    from_coherence,
    purity,
    structure_map,
    to_coherence,
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


def unitary_steps(h_family, pulses, dt):
    """All step unitaries at once: (..., n_steps, d, d) for (..., M, n_steps) pulses."""
    return expm_hermitian(h_family.stack(pulses), -1j * dt)


def _node_sweep(steps, x0):
    """Node values x[k] = steps[k-1] @ x[k-1] from x[0] = x0.

    ``steps`` is an (N, ..., n, n) stack of step maps and ``x0`` has the
    shape of ``steps[0] @ x0``; returns the (N+1, ...) array of all nodes.
    """
    x = np.empty((len(steps) + 1,) + np.shape(x0), dtype=np.result_type(steps, x0))
    x[0] = x0
    for k in range(len(steps)):
        np.matmul(steps[k], x[k], out=x[k + 1])
    return x


class PropagatorCache:
    """One-step maps of the averaged dynamics on coherence vectors, plus the
    tables that feed them.

    Attributes (N = grid.n_steps, d = Hilbert dimension, M = controls):

    * ``has_memory``: whether the kernel has Riemann-sum weights in the
      past of some node; without them ``eta`` does not depend on the
      pulses (zero and white-noise kernels);
    * ``eta``: (M, M, N+1, d, d) memory integrals per node, the kernel's
      pulse-independent local term plus its Riemann sum;
    * ``f_controls``: (M, d^2-1, d^2-1) maps ``F(h_m)`` of the controls;
    * ``v_steps``: (N, d^2-1, d^2-1) real one-step maps exp(dt * K_k).

    With memory the cache also keeps the tables the Riemann sum is built
    from; without memory they are ``None``:

    * ``u_steps``: (N, d, d) step unitaries;
    * ``g``: (N+1, d, d) cumulative node propagators, ``g[j] = U(t_j, 0)``;
    * ``k_ops``: (M, N+1, d, d) interaction-picture controls
      ``g[l]^dag H_m g[l]``; together with ``g`` these factor the full
      evolved-control table, ``htilde[m, j, l] = g[j] k_ops[m, l] g[j]^dag``.

    A pulse change at step k alters the generator of step k.  Without
    memory :meth:`update_step` rebuilds only ``v_steps[k-1]``.  With memory
    the new step unitary also rotates every later node propagator,
    ``g'[j] = g[j] R`` for j >= k, and so every later ``eta``; the update
    recomputes the one unitary ``u_steps[k-1]``, applies ``R`` to ``g[k:]``
    and ``k_ops[:, k:]`` (``k_ops' = R^dag k_ops R``), and rebuilds ``eta``
    and ``v_steps`` from node k on.  The constructor builds the chain
    ``g`` once.
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
        self.f_controls = structure_map(to_coherence(h_family.control_stack))
        # _memory_maps[m, e] = F(h_m) F(unit vector e), so that
        # sum_m F(h_m) F(e_m) is one contraction with the coefficients e_m
        unit_maps = structure_map(np.eye(d * d - 1))
        self._memory_maps = self.f_controls[:, None] @ unit_maps
        self.weights = kernel.weight_table(grid)
        # zero out l >= j so the eta sums run over the past only
        mask = (np.arange(n)[None, :] < np.arange(n + 1)[:, None]).astype(float)
        self._masked_weights = self.weights * mask[None, None, :, :]
        self.has_memory = bool(np.any(self._masked_weights))
        self._local_eta = np.einsum("pn,nab->pnab", kernel.local_weights, h_family.control_stack)

        self.eta = np.empty((m, m, n + 1, d, d), dtype=complex)
        self.eta[:, :, 0] = 0.0
        self.v_steps = np.empty((n, d * d - 1, d * d - 1))
        if self.has_memory:
            self.u_steps = unitary_steps(h_family, self.pulses, grid.dt)
            self.g = _node_sweep(self.u_steps, np.eye(d, dtype=complex))
            self.k_ops = np.einsum(
                "jba,mbc,jcd->mjad", np.conj(self.g), h_family.control_stack, self.g
            )
        else:
            self.u_steps = self.g = self.k_ops = None
            # eta is pulse independent, and so is the incoherent generator
            self._static_incoherent = self._incoherent(self._local_eta[:, :, None])
        build_eta_table(self)
        self._build_v_steps(1, n)

    @property
    def n_steps(self):
        return self.grid.n_steps

    def update_step(self, k, values):
        """Set all pulse values on step k and rebuild the tables they feed.

        Returns the last step whose map was rebuilt: k without
        memory, N with memory.
        """
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if not np.all(np.isfinite(values)):
            raise NumericalError(f"non-finite pulse update at step {k}")
        self.pulses[:, k - 1] = values
        return self.refresh(k)

    def refresh(self, start_step):
        """Rebuild the tables that a pulse change at step start_step makes stale.

        With memory that is one step unitary, a rotation of the later
        ``g`` and ``k_ops`` entries, and every ``eta`` and ``v_steps`` entry
        from start_step on; without memory it is the one step map of
        step start_step.  Returns the last rebuilt step.
        """
        k0 = start_step
        if not 1 <= k0 <= self.n_steps:
            raise ValueError(f"start step {k0} outside 1..{self.n_steps}")
        if not self.has_memory:
            self._build_v_steps(k0, k0)
            return k0
        # The new step unitary rotates every later node propagator,
        # g'[j] = g[j] R for j >= k0.  Solving g[k0] R = g'[k0] keeps the
        # chain at roundoff; R = g[k0]^dag g'[k0] would feed g's own
        # deviation from unitarity back in, doubling it with every update.
        u = unitary_steps(self.h_family, self.pulses[:, k0 - 1 : k0], self.grid.dt)[0]
        self.u_steps[k0 - 1] = u
        rot = np.linalg.solve(self.g[k0], u @ self.g[k0 - 1])
        self.g[k0:] = self.g[k0:] @ rot
        self.k_ops[:, k0:] = dag(rot) @ self.k_ops[:, k0:] @ rot
        build_eta_table(self, start_node=k0)
        self._build_v_steps(k0, self.n_steps)
        return self.n_steps

    def _build_v_steps(self, first, last):
        """Step maps of steps first..last (1-based, inclusive)."""
        dt = self.grid.dt
        coherent = _coherent_maps(self.h_family, self.pulses[:, first - 1 : last])
        if self.has_memory:
            incoherent = self._incoherent(self.eta[:, :, first : last + 1])
        else:
            incoherent = self._static_incoherent
        gen = coherent + incoherent
        if not np.all(np.isfinite(gen)):
            raise NumericalError("non-finite step generator")
        self.v_steps[first - 1 : last] = expm(gen, scale=dt)

    def _incoherent(self, eta):
        """Maps ``sum_m F(h_m) F(e_m)`` for a (M, M, K, d, d) eta slice, with
        ``e_m`` the coefficients of ``E_m = sum_n eta_mn``: (K, d^2-1, d^2-1)."""
        e = to_coherence(np.sum(eta, axis=1))
        return np.tensordot(e, self._memory_maps, axes=([0, 2], [0, 1]))


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
    m, n1, d = cache.k_ops.shape[:3]
    weights = cache._masked_weights[:, :, j0:]
    weighted = weights @ cache.k_ops[:, :-1].reshape(m, n1 - 1, d * d)
    gs = cache.g[j0:]
    cache.eta[:, :, j0:] += cache.grid.dt * (
        gs @ weighted.reshape(weights.shape[:3] + (d, d)) @ dag(gs)
    )


def _coherent_maps(h_family, pulses):
    """Maps ``F(h_k)`` of the total Hamiltonians for (M, K) pulses: (K, d^2-1, d^2-1)."""
    return structure_map(to_coherence(h_family.stack(pulses)))


def _trajectory(problem, states):
    """Trajectory of (N+1, d, d) node states; node 0 becomes ``rho0`` itself."""
    states[0] = problem.rho0
    return Trajectory.from_states(problem.grid.nodes, states, problem.rho_targ)


def build_cache(h_family, grid, pulses, kernel):
    """Construct a fully populated PropagatorCache."""
    return PropagatorCache(h_family, grid, pulses, kernel)


def ddme_propagate(problem, pulses, kernel=None):
    """Propagate the disorder-averaged state over the whole grid.

    Returns a :class:`Trajectory` on the node grid.  ``kernel`` overrides
    the problem's kernel when given.  Every kernel kind uses the step maps
    of a :class:`PropagatorCache`, the dynamics the optimizer follows; the
    coherence vectors become density matrices once, after the sweep.
    """
    kernel = problem.kernel if kernel is None else kernel
    cache = build_cache(problem.h_family, problem.grid, pulses, kernel)
    r = _node_sweep(cache.v_steps, to_coherence(problem.rho0))
    return _trajectory(problem, from_coherence(r, trace=1.0))


def white_noise_propagate(problem, pulses, alpha):
    """Evolve under the Markovian limit of delta-correlated perturbations.

    Generator: K rho = -i [H(t), rho] - (alpha / 2) sum_m [H_m, [H_m, rho]],
    on coherence vectors ``F(h(t)) + (alpha / 2) sum_m F(h_m)^2``.
    The dissipator has Hermitian jump operators, so the purity series is
    non-increasing.  This builds the generator directly, without a
    :class:`PropagatorCache`; it is the independent reference that
    :func:`ddme_propagate` on a white-noise kernel is checked against.
    """
    if alpha < 0.0:
        raise ValueError(f"white-noise rate must be nonnegative, got {alpha}")
    grid = problem.grid
    pulses = as_pulses(pulses, grid, problem.h_family.n_controls)
    f_controls = structure_map(to_coherence(problem.h_family.control_stack))
    dissipator = 0.5 * alpha * np.sum(f_controls @ f_controls, axis=0)
    gen = _coherent_maps(problem.h_family, pulses) + dissipator
    r = _node_sweep(expm(gen, scale=grid.dt), to_coherence(problem.rho0))
    return _trajectory(problem, from_coherence(r, trace=1.0))


def unitary_average(problem, pulse_sets):
    """Closed-system evolution under each of a (count, M, N) stack of pulse
    sets, averaged over the sets at every node.

    Propagates kets rather than density matrices.  ``rho0`` is split into
    its eigenpairs ``w_i, v_i``, dropping the eigenvalues that lie within
    ``eigh``'s roundoff of zero, so a pure ``rho0`` needs one ket per set.
    Every set evolves the kept ``v_i`` with the piecewise-constant midpoint
    unitaries, and node k averages ``w_i |psi_ci(k)><psi_ci(k)|`` over sets
    c and eigenpairs i as one weighted product of the kets, summed in
    order of c.  Node 0 is ``rho0`` itself.  One set gives its own
    closed-system trajectory.
    """
    u = unitary_steps(problem.h_family, pulse_sets, problem.grid.dt)
    count, n, d = u.shape[:3]
    w, v = np.linalg.eigh(problem.rho0)
    keep = np.abs(w) > d * np.finfo(float).eps * np.max(np.abs(w))
    w, v = w[keep], v[:, keep]
    kets = _node_sweep(u.swapaxes(0, 1), np.broadcast_to(v, (count,) + v.shape))
    # rows are the kets of all sets, eigenpair index fastest
    psi = kets.swapaxes(-1, -2).reshape(n + 1, -1, d)
    weighted = np.conj(psi)
    weighted *= np.tile(w, count)[:, None]
    return _trajectory(problem, psi.swapaxes(-1, -2) @ weighted / count)


def ensemble_average(problem, pulses, count, seed, kernel=None):
    """Brute-force disorder average over sampled pulse perturbations.

    Each realization adds a sampled perturbation to the pulses and evolves
    unitarily with the same piecewise-constant midpoint discretization;
    :func:`unitary_average` averages the realization states at every node.
    Deterministic for a fixed seed: every node is one weighted product of
    the realizations' kets, summed in sampling order.
    """
    kernel = problem.kernel if kernel is None else kernel
    pulses = as_pulses(pulses, problem.grid, problem.h_family.n_controls)
    perturbations = sample_perturbations(kernel, problem.grid, count, seed)
    return unitary_average(problem, pulses + perturbations)
