"""Propagation of disorder-averaged states and their brute-force counterpart.

The averaged state is carried as its real coherence vector ``r``,
``rho = I / d + sum_e r_e lambda_e`` over the generalized Gell-Mann basis
(see :mod:`ddcontrol.linalg`).  The forward solver advances ``r``
node-to-node with the one-exponential step ``exp(dt * K_k)``, a real
``(n, n)`` matrix with no affine part (``n = d**2 - 1``), where the step
generator

    K_k = F(h_k) + sum_p F(h_p) F(e_p[node_k]),   E_p = sum_n eta_pn,

acts on ``r`` as ``rho -> -i [H(mid_k), rho] - sum_{p,n} [H_p, [eta_pn(t_k),
rho]]`` does on ``rho``; lower-case letters are the coefficients of the
operators and ``F(x)`` is :func:`~ddcontrol.linalg.structure_map`.  The
memory integrals

    eta_pn(t_j) = w[p, n] H_n + dt * sum_{l < j} C[p, n](t_j, mid_l) * Htilde[n, j, l]

sum the control Hamiltonians ``H_n`` coherently evolved from node ``l`` to
node ``j``, ``Htilde[n, j, l] = U(t_j, t_l) H_n U(t_j, t_l)^dag``; ``w``
holds the kernel's local weights (``alpha / 2`` on the diagonal for white
noise, zero otherwise).  They are kept only as the coefficients ``e_p`` of
their sums over ``n``, and evaluated in a real frame: with the adjoint
representation ``O_j = O(U(t_j, 0))`` of the node propagators, the
orthogonal map that ``X -> U X U^dag`` is on coefficients, and the
interaction-picture controls ``kappa[n, l] = O_l^T h_n``, the evolved
control has coefficients ``O_j kappa[n, l]``, so

    e_p[node j] = sum_n w[p, n] h_n + dt * O_j sum_{n, l < j} C[p, n](t_j, mid_l) kappa[n, l].

Every kernel kind goes through this one generator: for white noise the
Riemann sum vanishes and the local term makes ``K_k`` the Markovian
double-commutator generator.  All tables live in a
:class:`PropagatorCache` that can be partially rebuilt after a pulse
changes, which is what the sequential optimizer relies on, so the
optimizer and :func:`ddme_propagate` follow the same map.  A pulse change
at step k rotates the frame of every node from k on, which moves only the
Riemann-sum terms from the nodes before k; the cache keeps their sums
``s_<k`` as a running table, advanced by one node per step of the
optimizer's ascending sweep, and both ``eta`` and the optimizer's gradient
read it, so an update costs O(N n) flops for the memory sums in place of
O(N^2 n).
:func:`white_noise_propagate` builds the Markovian generator on its own and
is kept as an independent reference for that kind.

Every propagation under one step map per node goes through one function,
:func:`_node_sweep`, which applies a stack of step maps to a starting
array in blocks, for one run or a small batch of runs at once: the step
maps to the coherence vector of ``rho0`` in :func:`ddme_propagate` and
:func:`white_noise_propagate`, the coherent step maps ``O(U_k) = exp(dt
F(h_k))`` to the identity for the cache's frame ``O_j``, and the step maps
and their transposes to the optimizer's states and costates, paired into
one batch of two runs.  The brute-force ensemble of
:func:`unitary_average` forms no step maps: it advances the kets of all
realizations at once by the action of every step's exponential, a
truncated Taylor series applied to the kets.  Its arithmetic is real too:
each ket is the real block ``[Re psi; Im psi]``, every Horner term is one
real product, and each node's average is read from real Gram products of
the kets.

A one-shot propagation does little besides building the cache and the
sweep: the cache masks the future entries of the fresh kernel table from
:meth:`~ddcontrol.model.CorrelationKernel.weight_table` in place, and
:meth:`Trajectory.from_states` reads purity, fidelity and Bloch vector from
the coherence vectors of the states, with no d x d products.

Step indices ``k`` are 1-based (step ``k`` connects node ``k-1`` to node
``k``); node indices are 0-based.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    NumericalError,
    expm,
    expm_hermitian,  # unused; kept while bench/tracing.py wraps propagation.expm_hermitian
    expm_skew,
    from_coherence,
    horner_choice,
    purity,
    structure_map,
    to_coherence,
)
from .model import CorrelationKernel, TimeGrid, as_pulses, sample_perturbations


@dataclass
class Trajectory:
    """States on the node grid together with derived scalar series.

    ``purity`` is ``Tr(rho^2)``, ``fidelity`` is ``sqrt(<psi|rho|psi>)``
    against the pure target ``|psi><psi|`` (zero where roundoff makes the
    overlap negative), and ``bloch`` holds the Pauli expectation values
    ``(x, y, z)`` of a qubit state, ``None`` for d > 2.
    """

    times: np.ndarray
    states: np.ndarray
    purity: np.ndarray
    fidelity: np.ndarray
    bloch: np.ndarray  # (n_nodes, 3) for qubits, None otherwise

    @classmethod
    def from_states(cls, times, states, rho_targ):
        """Series of unit-trace (n_nodes, d, d) states against a pure target.

        Every series is read from the coherence vectors ``r`` of the states
        and ``r_targ`` of the target: with ``Tr(lambda_a lambda_b) = 2
        delta_ab``, the purity is ``1/d + 2 |r|^2``, the overlap
        ``Tr(rho_targ rho) = Tr(rho_targ) / d + 2 r . r_targ``, and for
        d = 2, where the Gell-Mann matrices are the Pauli matrices, the
        Bloch vector is ``2 r``.  Raises ``ValueError`` for a target that is
        not pure.
        """
        states = np.asarray(states)
        rho_targ = np.asarray(rho_targ, dtype=complex)
        if abs(purity(rho_targ) - 1.0) > 1e-10:
            raise ValueError(
                f"target state is not pure (purity {purity(rho_targ):.12g}); "
                "only rank-1 projector targets are supported"
            )
        d = states.shape[-1]
        r = to_coherence(states)
        overlap = np.trace(rho_targ).real / d + 2.0 * (r @ to_coherence(rho_targ))
        return cls(
            times=np.asarray(times),
            states=states,
            purity=1.0 / d + 2.0 * np.einsum("...e,...e->...", r, r),
            fidelity=np.sqrt(np.maximum(overlap, 0.0)),
            bloch=2.0 * r if d == 2 else None,
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


def _node_sweep(steps, x0):
    """Node values x[k] = steps[k-1] @ x[k-1] from x[0] = x0, for one run
    or for a small leading batch of independent runs.

    ``steps`` is an (N, m, m) stack of N >= 1 step maps, or a (B..., N, m, m)
    stack with one run of N maps per leading index; ``x0`` holds each run's
    starting value, an (m,) vector or (m, p) matrix, after the same leading
    axes.  Returns the (B...) + (N+1,) + value-shape array of all nodes.

    The maps are swept in blocks of b = ceil(sqrt(N)) steps: the prefix
    products within every block are formed for all blocks of all runs at
    once, the values at the block boundaries are chained in order, and one
    batched product applies every prefix to its block's starting value.
    That is about 2 sqrt(N) numpy calls and O(N m^3) work in place of N
    calls per run, and a batch of runs shares the calls.  Against the loop
    (2 cores, one BLAS thread) one run took 48 against 136 us at N = 100
    and 104 against 568 us at N = 400 on m = 3, and 86 against 145 us and
    296 against 658 us on m = 15; at N = 10 the loop's 14 us beat its 19.
    A batch of two runs took 0.4 to 0.8 of the time of two single runs
    over N = 10 .. 400 on m = 3 and m = 15.
    """
    x0 = np.asarray(x0)
    batch, (n_steps, dim) = steps.shape[:-3], steps.shape[-3:-1]
    runs = math.prod(batch)
    size = math.isqrt(n_steps - 1) + 1
    n_blocks = -(-n_steps // size)
    tail = n_steps - (n_blocks - 1) * size  # steps in the last block
    dtype = np.result_type(steps, x0)
    steps = steps.reshape(runs, n_steps, dim, dim)
    # prods[:, b, i] = steps[b*size + i] @ ... @ steps[b*size] of every run,
    # each product formed from the one before; the last block is padded
    # with zero maps, whose products no kept node reads
    prods = np.empty((runs, n_blocks, size, dim, dim), dtype=dtype)
    prods[:, :, 0] = steps[:, ::size]
    if tail < size:
        prods[:, -1, tail:] = 0.0
    for i in range(1, size):
        full = n_blocks - (i >= tail)
        np.matmul(steps[:, i::size], prods[:, :full, i - 1], out=prods[:, :full, i])
    # starts[:, b]: the value at the node before block b, as columns
    cols = x0.size // (runs * dim)
    starts = np.empty((runs, n_blocks, dim, cols), dtype=dtype)
    starts[:, 0] = x0.reshape(runs, dim, cols)
    for b in range(1, n_blocks):
        np.matmul(prods[:, b - 1, -1], starts[:, b - 1], out=starts[:, b])
    # nodes 1 .. n_blocks * size, the padded ones after node N included, as
    # one view of blocks: every prefix applied to its block's start at once
    x = np.empty((runs, 1 + n_blocks * size, dim, cols), dtype=dtype)
    x[:, 0] = starts[:, 0]
    later = x.reshape(runs, -1, cols)[:, dim:].reshape(runs, n_blocks, size * dim, cols)
    np.matmul(prods.reshape(runs, n_blocks, size * dim, dim), starts, out=later)
    return x[:, : n_steps + 1].reshape(batch + (n_steps + 1,) + x0.shape[len(batch) :])


class PropagatorCache:
    """One-step maps of the averaged dynamics on coherence vectors, plus the
    real tables that feed them.

    Attributes (N = grid.n_steps, d = Hilbert dimension, M = controls,
    n = d^2 - 1):

    * ``has_memory``: whether the kernel has Riemann-sum weights in the
      past of some node; without them ``eta`` does not depend on the
      pulses (zero and white-noise kernels, and a Gaussian or tabulated
      kernel whose table is zero);
    * ``weights``: (M, N+1, M, N) Riemann-sum weights,
      ``weights[p, j, n, l] = C[p, n](t_j, mid_l)`` for l < j and zero for
      l >= j, the kernel's table with its future entries zeroed in place;
      ``None`` for zero and white-noise kernels, which have no values on
      the grid;
    * ``eta``: (M, N+1, n) coefficients ``e_p`` of the summed memory
      integrals ``E_p = sum_n eta_pn`` per node, the kernel's
      pulse-independent local term plus its Riemann sum; zero at node 0;
    * ``f_controls``: (M, n, n) maps ``F(h_m)`` of the controls;
    * ``f_steps``: (N, n, n) maps ``F(h_k)`` of the step Hamiltonians;
    * ``v_steps``: (N, n, n) one-step maps exp(dt * K_k).

    With memory the cache also keeps the real frame the Riemann sum is
    evaluated in; without memory both are ``None``:

    * ``o``: (N+1, n, n) adjoint representations ``O_j = O(g_j)`` of the
      node propagators ``g_j = U(t_j, 0)``, the products of the coherent
      step maps ``O(u_k) = exp(dt F(h_k))``;
    * ``kappa``: (M, N+1, n) interaction-picture controls
      ``kappa[m, j] = O_j^T h_m``, the coefficients of ``g_j^dag H_m g_j``;
      the control evolved from node l to node j has coefficients
      ``O_j kappa[m, l]``.

    A pulse change at step k alters ``f_steps[k-1]`` and so the generator
    of step k.  Without memory :meth:`update_step` rebuilds only
    ``v_steps[k-1]``.  With memory the new step unitary ``u`` also rotates
    every later node propagator, ``O'_j = O_j R`` for j >= k, and so every
    later ``eta``: the update forms ``O(u) = exp(dt F(h_k))`` from the new
    ``f_steps`` row, solves ``O_k R = O(u) O_{k-1}``, applies ``R`` to
    ``o[k:]`` and ``kappa[:, k:]`` (``kappa' = kappa R`` as rows), moves
    ``eta`` from node k on by the change of its terms from the nodes before
    k, and rebuilds ``v_steps`` from step k on.  The constructor chains the
    coherent step maps of all of ``f_steps`` to build ``o``; no complex
    propagator is formed.

    The terms from the nodes before k are the running memory table
    ``s_<k`` (:meth:`past_sums`), ``s_<k[p, j] = sum_{n, l<k} W[p, n, j, l]
    kappa[n, l]`` with ``W = weights``.  During the optimizer's ascending
    sweep the kappa of the nodes before k no longer move, so the table grows
    by the one node k - 1 per step: ``eta``'s update and the gradient's
    memory term read it in place of a Riemann sum over all earlier nodes.
    Any other order of updates starts it again from node 0.

    An update is a fixed number of small numpy calls on tables built with
    the cache, whatever the kernel: the new row of ``f_steps`` is
    ``F(h_0) + sum_m f_mk F(h_m)``, one product of the pulse values with the
    stacked maps ``F(h_m)``; ``O(u)`` is :func:`~ddcontrol.linalg.expm_skew`
    of that row, a closed-form rotation for d = 2 and an exponential with no
    d x d eigendecomposition otherwise; the memory terms of ``eta`` move by
    ``dt O_j (R - 1) s_<k`` per node, O(N n) flops; the incoherent
    generators ``sum_m F(h_m) F(e_m)`` of the whole suffix are one product
    of the ``eta`` rows with a stacked ``(M n, n^2)`` table; and the
    finiteness of the generators is checked once, by
    :func:`~ddcontrol.linalg.expm`.
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
        nc = d * d - 1
        h_controls = to_coherence(h_family.control_stack)
        self.f_controls = structure_map(h_controls)
        # Tables built once.  Step k's coherent map is F(h_0) plus the pulse
        # values times the rows of _f_rows, F(h_m) flattened.  Row (m, e) of
        # _memory_rows is F(h_m) F(unit vector e) flattened, so
        # sum_m F(h_m) F(e_m) is one product with the coefficients e_m laid
        # out as one row.
        self._f_drift = structure_map(to_coherence(h_family.drift))
        self._f_rows = self.f_controls.reshape(m, nc * nc)
        unit_maps = structure_map(np.eye(nc))
        self._memory_rows = (self.f_controls[:, None] @ unit_maps).reshape(m * nc, nc * nc)
        if kernel.kind in ("zero", "white-noise"):
            # no values on the grid, only a local term
            self.weights = None
            self.has_memory = False
        else:
            # zero out l >= j in the fresh table so the eta sums run over
            # the past only; the (M, N+1, M, N) layout is a copy for M > 1
            table = kernel.weight_table(grid)
            table *= np.tri(n + 1, n, -1, dtype=bool)
            self.weights = np.ascontiguousarray(table.transpose(0, 2, 1, 3))
            self.has_memory = bool(np.any(self.weights))
        self._local_eta = kernel.local_weights @ h_controls

        self.f_steps = self._f_drift + (self.pulses.T @ self._f_rows).reshape(n, nc, nc)
        self.eta = np.zeros((m, n + 1, nc))
        self.v_steps = np.empty((n, nc, nc))
        if self.has_memory:
            self.o = _node_sweep(expm_skew(self.f_steps, scale=grid.dt), np.eye(nc))
            self.kappa = np.ascontiguousarray((h_controls @ self.o).swapaxes(0, 1))
            self._past = np.zeros((m, n + 1, nc))
            self._past_end = 0
        else:
            self.o = self.kappa = self._past = None
            # eta is pulse independent, and so is the incoherent generator
            self._static_incoherent = self._incoherent(self._local_eta[:, None])
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
        if not np.isfinite(values).all():
            raise NumericalError(f"non-finite pulse update at step {k}")
        self.pulses[:, k - 1] = values
        self.f_steps[k - 1] = self._f_drift + (self.pulses[:, k - 1] @ self._f_rows).reshape(
            self._f_drift.shape
        )
        return self.refresh(k)

    def refresh(self, start_step):
        """Rebuild the tables that a pulse change at step start_step makes
        stale, once ``f_steps`` holds the new step map.

        With memory that is the coherent step map ``exp(dt F(h_k))`` of the
        new ``f_steps`` row, a rotation of the later ``o`` and ``kappa``
        entries, the increment of every ``eta`` entry from start_step on
        from the running memory table, and every ``v_steps`` entry from
        start_step on; without memory it is the one step map of step
        start_step.  Returns the last rebuilt step.
        """
        k0 = start_step
        if not 1 <= k0 <= self.n_steps:
            raise ValueError(f"start step {k0} outside 1..{self.n_steps}")
        if not self.has_memory:
            self._build_v_steps(k0, k0)
            return k0
        # The new step unitary u rotates every later node propagator,
        # O'_j = O_j R for j >= k0, with O(u) = exp(dt F(h_k0)).  Solving
        # O_k0 R = O(u) O_{k0-1} keeps the frame at roundoff;
        # R = O_k0^T O(u) O_{k0-1} would feed O's own deviation from
        # orthogonality back in, doubling it with every update.
        o_u = expm_skew(self.f_steps[k0 - 1], scale=self.grid.dt)
        rot = np.linalg.solve(self.o[k0], o_u @ self.o[k0 - 1])
        self.o[k0:] = self.o[k0:] @ rot
        self.kappa[:, k0:] = self.kappa[:, k0:] @ rot
        build_eta_table(self, start_node=k0, rotation=rot)
        self._build_v_steps(k0, self.n_steps)
        return self.n_steps

    def past_sums(self, k):
        """The running memory table ``s_<k``, (M, N+1, n): row j of control p
        is ``sum_{n, l<k} W[p, n, j, l] kappa[n, l]``, the part of node j's
        Riemann sum from the nodes before k (1 <= k <= N).

        The table is kept from call to call, and a call adds the terms of
        the nodes since the last one: in the optimizer's ascending order
        that is one node and one product per step.  An update at step k
        rotates only the kappa of the nodes >= k, so the terms kept stay
        current while the updates come in ascending order; a k below the
        last one starts the table again from node 0, and :meth:`refresh`
        reads the table at its own step before it uses it.  Only with
        memory.
        """
        if k < self._past_end:
            self._past[...] = 0.0
            self._past_end = 0
        first = self._past_end
        if k > first:
            # the weights of nodes l >= first vanish at nodes j <= first
            m, n1, nc = self._past.shape
            w = self.weights[:, first + 1 :, :, first:k].reshape(m, n1 - first - 1, -1)
            self._past[:, first + 1 :] += w @ self.kappa[:, first:k].reshape(-1, nc)
            self._past_end = k
        return self._past

    def _build_v_steps(self, first, last):
        """Step maps of steps first..last (1-based, inclusive); :func:`expm`
        rejects a non-finite generator."""
        if self.has_memory:
            gen = self._incoherent(self.eta[:, first : last + 1])
            gen += self.f_steps[first - 1 : last]
        else:
            gen = self.f_steps[first - 1 : last] + self._static_incoherent
        self.v_steps[first - 1 : last] = expm(gen, scale=self.grid.dt)

    def _incoherent(self, eta):
        """Maps ``sum_m F(h_m) F(e_m)`` for a (M, K, n) slice of coefficients
        ``e_m``: (K, n, n)."""
        m, k, n = eta.shape
        return (eta.transpose(1, 0, 2).reshape(k, m * n) @ self._memory_rows).reshape(k, n, n)


def build_eta_table(cache: PropagatorCache, start_node=0, rotation=None):
    """Coefficients of the summed memory integrals for nodes >= start_node.

    e_p[node j] = sum_n w[p, n] h_n
                  + dt * O_j sum_{n, l<j} C[p, n](t_j, mid_l) kappa[n, l],

    with ``w`` the kernel's local weights.  Without ``rotation`` the table
    is built: the Riemann sum is skipped when the kernel has no weights in
    the past of any node; otherwise the kernel weights contract with the
    interaction-picture controls in one product per control, and the
    single rotation by O_j happens after.

    With ``rotation`` the table is updated in place.  R is the rotation by
    which :meth:`PropagatorCache.refresh` has just turned the frame from
    node k = start_node on, ``O'_j = O_j R`` and ``kappa'[n, l] = R^T
    kappa[n, l]``.  The terms from the nodes l >= k keep their values,
    since ``O'_j R^T = O_j``.  Only those from l < k move, and their sum is
    the running table ``s_<k`` (:meth:`PropagatorCache.past_sums`): every
    ``e_p[node j]``, j >= k, moves by ``dt (O'_j - O_j) s_<k[p, j] = dt O'_j
    (1 - R^T) s_<k[p, j]``.  That is one product with R and one with the
    frame, O(N n) flops in place of the Riemann sum's O(N^2 n).
    """
    j0 = max(start_node, 1)
    if rotation is not None:
        past = cache.past_sums(j0)[:, j0:]
        past = past - past @ rotation
        cache.eta[:, j0:] += cache.grid.dt * (cache.o[j0:] @ past[..., None])[..., 0]
        return
    cache.eta[:, j0:] = cache._local_eta[:, None]
    if not cache.has_memory:
        return
    m, n1, n = cache.kappa.shape
    weights = cache.weights[:, j0:].reshape(m, n1 - j0, m * (n1 - 1))
    s = weights @ cache.kappa[:, :-1].reshape(m * (n1 - 1), n)
    cache.eta[:, j0:] += cache.grid.dt * (cache.o[j0:] @ s[..., None])[..., 0]


def _trajectory(problem, states):
    """Trajectory of (N+1, d, d) node states; node 0 becomes ``rho0`` itself."""
    states[0] = problem.rho0
    return Trajectory.from_states(problem.grid.nodes, states, problem.rho_targ)


def build_cache(h_family, grid, pulses, kernel):
    """Construct a fully populated PropagatorCache."""
    return PropagatorCache(h_family, grid, pulses, kernel)


def ddme_propagate(problem, pulses):
    """Propagate the disorder-averaged state over the whole grid.

    Returns a :class:`Trajectory` on the node grid.  Every kernel kind uses
    the step maps of a :class:`PropagatorCache` built on the problem's
    kernel, the dynamics the optimizer follows; the coherence vectors become
    density matrices once, after the sweep.  Another kernel is a copy of the
    problem, ``dataclasses.replace(problem, kernel=...)``.
    """
    cache = build_cache(problem.h_family, problem.grid, pulses, problem.kernel)
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
    f_drift = structure_map(to_coherence(problem.h_family.drift))
    f_controls = structure_map(to_coherence(problem.h_family.control_stack))
    dissipator = 0.5 * alpha * np.sum(f_controls @ f_controls, axis=0)
    gen = f_drift + np.einsum("mk,mab->kab", pulses, f_controls) + dissipator
    r = _node_sweep(expm(gen, scale=grid.dt), to_coherence(problem.rho0))
    return _trajectory(problem, from_coherence(r, trace=1.0))


# Alignment of the ensemble's Horner stacks.  malloc aligns to 16 bytes, so
# a plain np.empty starts at 0, 16, 32 or 48 mod 64, by the heap's history.
# The Horner loop of a stock ensemble (d = 2, 4000 sets, one BLAS thread,
# a 2-core Xeon) took 25 ms on stacks at 0 mod 64 and 38 to 41 ms at 16 or
# 32, so its speed changed from one process to the next by 1.6x.  The
# alignment of the pulse-value copies and of the kets made no difference.
_STACK_ALIGN = 64


def _aligned_empty(shape):
    """Uninitialized C-contiguous float array whose first element starts
    at a multiple of ``_STACK_ALIGN`` bytes."""
    size = math.prod(shape)
    raw = np.empty(size + _STACK_ALIGN // 8)
    start = (-raw.ctypes.data % _STACK_ALIGN) // 8
    return raw[start : start + size].reshape(shape)


def unitary_average(problem, pulse_sets):
    """Closed-system evolution under each of a (count, M, N) stack of pulse
    sets, averaged over the sets at every node.

    Propagates kets rather than density matrices.  ``rho0`` is split into
    its eigenpairs ``w_i, v_i``, dropping the eigenvalues that lie within
    ``eigh``'s roundoff of zero, so a pure ``rho0`` needs one ket per set.
    Every set c evolves the kept ``v_i`` across step k by the action of the
    midpoint unitary ``exp(A_k)``, ``A_k = -i dt (H_0 + sum_m f_mk(c) H_m)``,
    as s substeps of the degree-m truncated Taylor series,
    ``psi <- T_m(A_k / s)^s psi``, evaluated by Horner's rule
    ``y <- x + A_k y / (s j)`` for j = m .. 1 (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)).  One (m, s) serves every step and set,
    :func:`ddcontrol.linalg.horner_choice` of the bound ``dt (|H_0|_1 +
    max_{c,k} sum_m |f_mk(c)| |H_m|_1)``.

    The arithmetic is real.  A ket ``psi = a + i b`` is carried as the real
    block ``[a; b]``, on which a complex matrix ``G = G_r + i G_i`` acts as
    ``[[G_r, -G_i], [G_i, G_r]]``.  No per-set Hamiltonian or unitary is
    formed: the kets of all sets and eigenpairs are the columns of one
    (2d, r * count) array, stacked above their copies scaled by each set's
    M pulse values and above the substep's starting kets ``x``, and one real
    product with the block row ``[G_0, G_1, .., G_M, 1]`` of ``G_n = -i dt
    H_n / (s j)`` applies a whole Horner term: the drift, every control and
    the added ``x``.  Two such stacks take turns, so a term copies no kets.

    Node k averages ``w_i |psi_ci(k)><psi_ci(k)|`` over sets c and
    eigenpairs i from the real Gram products ``P_i = K_i K_i^T`` of every
    eigenpair's kets over all sets, summed with the weights ``w_i``:
    ``Re rho = P_aa + P_bb`` and ``Im rho = P_ba - P_ab`` for the blocks
    of ``P``.  The weights multiply the products, never a square root of
    them into the kets, since a kept eigenvalue may be slightly negative.
    Node 0 is ``rho0`` itself.  One set gives its own closed-system
    trajectory.
    """
    fam, dt = problem.h_family, problem.grid.dt
    pulse_sets = np.asarray(pulse_sets, dtype=float)
    if not np.all(np.isfinite(pulse_sets)):
        raise NumericalError("pulse sets have non-finite entries")
    count, n_controls, n = pulse_sets.shape
    d = fam.dim
    w, v = np.linalg.eigh(problem.rho0)
    keep = np.abs(w) > d * np.finfo(float).eps * np.max(np.abs(w))
    w, v = w[keep], v[:, keep]

    ops = np.concatenate([fam.drift[None], fam.control_stack])
    norms = np.max(np.sum(np.abs(ops), axis=-2), axis=-1)
    bound = dt * (norms[0] + np.max(norms[1:] @ np.abs(pulse_sets)))
    degree, s = horner_choice(bound)
    # gens[i] is Horner term j = m - i: the real (2d, (M+2) 2d) block row
    # [G_0, G_1, .., G_M, 1] of G_n = -i dt H_n / (s j) = (Im H_n - i Re H_n)
    # dt / (s j), each G_n as [[Re G_n, -Im G_n], [Im G_n, Re G_n]]; it
    # takes the stack [y; f_1k(c) y; ..; f_Mk(c) y; x] to x + A_k y / (s j)
    h = ops.transpose(1, 0, 2)
    block_row = np.concatenate(
        [np.concatenate([h.imag, h.real], axis=-1), np.concatenate([-h.real, h.imag], axis=-1)]
    ).reshape(2 * d, -1)
    gens = [np.hstack([block_row * (dt / s / j), np.eye(2 * d)]) for j in range(degree, 0, -1)]
    r = len(w)
    # pulses[k, m - 1, 0, 0, c] = f_mk(c)
    pulses = np.ascontiguousarray(pulse_sets.transpose(2, 1, 0))[:, :, None, None]

    # kets[k, :, i * count + c]: the real block [Re; Im] of eigenvector i
    # evolved under set c to node k
    kets = np.empty((n + 1, 2 * d, r * count))
    kets[0] = np.repeat(np.concatenate([v.real, v.imag]), count, axis=1)
    # Two stacks [y; f_1k y; ..; f_Mk y; x] take turns as the source and the
    # destination of a Horner term: each term scales the source's y by the
    # pulse values and writes the next y into the other stack with one gemm.
    # The pulse values are laid out once per step like the scaled copies,
    # since a product with a broadcast operand is slower.  The stacks start
    # on a cache line, since the gemm runs at its speed only there.
    stacks = _aligned_empty((2, n_controls + 2) + kets.shape[1:])
    src, dst = ((stack[0], stack[1:-1], stack.reshape(-1, r * count)) for stack in stacks)
    scale = np.empty_like(src[1])
    src[0][...] = kets[0]
    for k in range(n):
        scale.reshape(n_controls, 2 * d, r, count)[...] = pulses[k]
        for _ in range(s):
            stacks[:, -1] = src[0]
            for gen in gens:
                np.multiply(src[0], scale, out=src[1])
                np.matmul(gen, src[2], out=dst[0])
                src, dst = dst, src
        kets[k + 1] = src[0]
    # the Gram products P_i = K_i K_i^T of every eigenpair's kets over all
    # sets, weighted by w_i
    per_pair = kets.reshape(n + 1, 2 * d, r, count).swapaxes(1, 2)
    grams = per_pair @ per_pair.swapaxes(-1, -2)
    gram = (w @ grams.reshape(n + 1, r, -1)).reshape(n + 1, 2 * d, 2 * d)
    re = gram[:, :d, :d] + gram[:, d:, d:]
    im = gram[:, d:, :d] - gram[:, :d, d:]
    return _trajectory(problem, (re + 1j * im) / count)


def ensemble_average(problem, pulses, count, seed):
    """Brute-force disorder average over sampled pulse perturbations.

    Each realization adds a perturbation sampled from the problem's kernel
    to the pulses and evolves unitarily with the same piecewise-constant
    midpoint discretization; :func:`unitary_average` advances the kets of
    all realizations together, each step by the truncated Taylor series of
    its exponential, and averages the realization states at every node.
    The kets are real blocks ``[Re psi; Im psi]``, so every Horner term is
    one real product, and every node's average comes from real Gram
    products of the kets weighted by the eigenvalues of ``rho0``.
    Deterministic for a fixed seed: the Taylor degree and substep count
    depend only on the sampled pulses, and every node is the same fixed
    sequence of products of the realizations' kets, laid out in sampling
    order.
    """
    pulses = as_pulses(pulses, problem.grid, problem.h_family.n_controls)
    perturbations = sample_perturbations(problem.kernel, problem.grid, count, seed)
    return unitary_average(problem, pulses + perturbations)
