"""Independent reference implementations the tests compare the package against.

None of these are used by the package itself: each one is a direct,
unoptimized form of something the package computes another way.
"""

import math
from functools import lru_cache

import numpy as np

from ddcontrol.krotov import OptimizationTrace
from ddcontrol.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TRACE_TOL,
    _TAYLOR_PLANS,
    _float_or_array,
    as_operator,
    dag,
    expm_hermitian,
    from_coherence,
    gell_mann,
    purity,
    to_coherence,
)
from ddcontrol.model import as_pulses
from ddcontrol.propagation import Trajectory, build_cache


def taylor_choice_loop(norm):
    """The plan and squarings of the batched Taylor exponential, by the rule
    run over the plans on every call: the fewest matrix products plus
    squarings ``s = max(ceil(log2(norm / theta[m])), 0)``, the first degree
    on a tie.  The degrees cost 0, 1, 2, .. products and need ever fewer
    squarings, so no degree after the first that needs none can be cheaper."""
    norm = max(norm, 1e-300)
    cost = None
    for plan in _TAYLOR_PLANS:
        s = max(math.ceil(math.log2(norm / plan.theta)), 0)
        if cost is None or plan.products + s < cost:
            cost, best, squarings = plan.products + s, plan, s
        if s == 0:
            break
    return best, squarings


def commutator(a, b):
    return a @ b - b @ a


def vec(x):
    """Column-stack a (d, d) matrix into a length d**2 vector."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v):
    """Inverse of :func:`vec`; batched over leading axes: (..., d*d) -> (..., d, d)."""
    v = np.asarray(v)
    n = v.shape[-1]
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise ValueError(f"cannot devectorize length-{n} vector into a square matrix")
    return np.swapaxes(v.reshape(v.shape[:-1] + (d, d)), -1, -2)


def node_sweep_loop(steps, x0):
    """Node values x[k] = steps[k-1] @ x[k-1] from x[0] = x0, one node at a time."""
    x = np.empty((len(steps) + 1,) + np.shape(x0), dtype=np.result_type(steps, x0))
    x[0] = x0
    for k in range(len(steps)):
        np.matmul(steps[k], x[k], out=x[k + 1])
    return x


def to_vec_basis(v):
    """The (d**2, d**2) superoperator on column-stacked operators of a
    unital, trace-preserving map given by its (n, n) real coherence-vector
    matrix, n = d**2 - 1: identity on I, ``v`` on the Gell-Mann coefficients."""
    d = int(round(np.sqrt(v.shape[-1] + 1)))
    basis = np.column_stack([vec(np.eye(d))] + [vec(lam) for lam in gell_mann(d)])
    block = np.zeros((d * d, d * d))
    block[0, 0] = 1.0
    block[1:, 1:] = v
    norms = np.r_[d, np.full(d * d - 1, 2.0)]
    return basis @ block @ (dag(basis) / norms[:, None])


def hamiltonian_stack(h_family, pulses):
    """Total Hamiltonians on every step: (..., n_steps, d, d) for (..., M, n_steps) pulses."""
    return h_family.drift + np.einsum(
        "...mk,mab->...kab", np.asarray(pulses, dtype=float), h_family.control_stack
    )


def unitary_steps(h_family, pulses, dt):
    """All step unitaries at once: (..., n_steps, d, d) for (..., M, n_steps) pulses."""
    return expm_hermitian(hamiltonian_stack(h_family, pulses), -1j * dt)


@lru_cache(maxsize=None)
def _adjoint_tables(d):
    """Halved conjugate and transposed flattened basis, read-only: the
    factors on either side of the Kronecker product in :func:`adjoint_map`."""
    lam = gell_mann(d).reshape(-1, d * d)
    left, right = 0.5 * np.conj(lam), np.ascontiguousarray(lam.T)
    for table in (left, right):
        table.flags.writeable = False
    return left, right


def adjoint_map(u):
    """``O(U)_ab = Tr(lambda_a U lambda_b U^dag) / 2``, the action of
    ``U . U^dag`` on coefficients: (..., d, d) -> (..., d**2 - 1, d**2 - 1).

    Real, and orthogonal for unitary ``U``; ``O(U V) = O(U) O(V)``.  Formed
    from the Kronecker product ``U (x) conj(U)``, which maps the flattened
    ``X`` to the flattened ``U X U^dag``, between basis tables built once
    per d.
    """
    u = np.asarray(u, dtype=complex)
    d = u.shape[-1]
    left, right = _adjoint_tables(d)
    kron = u[..., :, None, :, None] * np.conj(u)[..., None, :, None, :]
    kron = kron.reshape(u.shape[:-2] + (d * d, d * d))
    return np.ascontiguousarray((left @ kron @ right).real)


def hamiltonian_at(h_family, pulse_values):
    """Total Hamiltonian for one vector of pulse values (length M)."""
    h = h_family.drift.copy()
    for f, hc in zip(np.atleast_1d(pulse_values), h_family.controls):
        h = h + float(f) * hc
    return h


def unitary_step(h_family, pulses, k, dt):
    """Unitary for step k: exp(-i dt (H_0 + sum_m f[m, k-1] H_m))."""
    pulses = np.asarray(pulses, dtype=float)
    if not 1 <= k <= pulses.shape[1]:
        raise ValueError(f"step index {k} outside 1..{pulses.shape[1]}")
    return expm_hermitian(hamiltonian_at(h_family, pulses[:, k - 1]), -1j * dt)


def ddme_step(cache, k, rho):
    """Advance the averaged state across step k (node k-1 to node k)."""
    return unvec(to_vec_basis(cache.v_steps[k - 1]) @ vec(rho))


def ddme_backward_step(cache, k, chi):
    """Adjoint of :func:`ddme_step`: pull a costate from node k back to node k-1.

    Uses the conjugate transpose of the step superoperator, so
    <backward(chi), rho> == <chi, forward(rho)> holds to roundoff in the
    Hilbert-Schmidt inner product.
    """
    return unvec(np.conj(to_vec_basis(cache.v_steps[k - 1])).T @ vec(chi))


def node_propagators(h_family, grid, pulses):
    """(N+1, d, d) node propagators U(t_j, 0), chained one step unitary at a time."""
    g = [np.eye(h_family.dim, dtype=complex)]
    for k in range(1, grid.n_steps + 1):
        g.append(unitary_step(h_family, pulses, k, grid.dt) @ g[-1])
    return np.array(g)


def relative_propagator(cache, j, l):
    """U(t_j, t_l) between nodes, j >= l, from the cache's pulses and grid."""
    if j < l:
        raise ValueError(f"need j >= l, got ({j}, {l})")
    g = node_propagators(cache.h_family, cache.grid, cache.pulses)
    return g[j] @ dag(g[l])


def htilde_row(cache, j):
    """Evolved controls ending at node j: (M, j+1, d, d) over start nodes l <= j,
    each H_m conjugated by U(t_j, t_l) from the cache's pulses and grid."""
    g = node_propagators(cache.h_family, cache.grid, cache.pulses)
    u_rel = g[j] @ dag(g[: j + 1])
    row = np.einsum("lab,mbc,ldc->mlad", u_rel, cache.h_family.control_stack, np.conj(u_rel))
    row[:, j] = cache.h_family.control_stack  # exact at equal nodes
    return row


def build_htilde_table(cache):
    """Dense evolved-control table from the cache's pulses and grid.

    Returns the (M, N+1, N+1, d, d) array with entry [m, j, l] equal to H_m
    evolved from node l to node j for l <= j, and zeros above the diagonal.
    """
    n = cache.n_steps
    m, d = cache.h_family.n_controls, cache.h_family.dim
    table = np.zeros((m, n + 1, n + 1, d, d), dtype=complex)
    for j in range(n + 1):
        table[:, j, : j + 1] = htilde_row(cache, j)
    return table


def fidelity_pure_target(rho_targ, rho):
    """Uhlmann fidelity against a pure target: sqrt(<psi|rho|psi>).

    The target must be a rank-1 projector; the general matrix-square-root
    fidelity for mixed targets is deliberately not provided.  Batched over
    the leading axes of ``rho``; the target is checked once per call.
    """
    rho_targ = np.asarray(rho_targ, dtype=complex)
    if abs(purity(rho_targ) - 1.0) > 1e-10:
        raise ValueError(
            f"target state is not pure (purity {purity(rho_targ):.12g}); "
            "only rank-1 projector targets are supported"
        )
    overlap = np.real(np.trace(rho_targ @ np.asarray(rho), axis1=-2, axis2=-1))
    return _float_or_array(np.sqrt(np.maximum(overlap, 0.0)))


def bloch_vector(rho):
    """(x, y, z) expectation values of the Pauli operators for a qubit state.

    Batched over leading axes: a (..., 2, 2) stack gives (..., 3).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError("Bloch coordinates are only defined for qubit states")
    return np.stack(
        [np.real(np.trace(rho @ s, axis1=-2, axis2=-1)) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)],
        axis=-1,
    )


def check_trace_preserving(s, tol=TRACE_TOL):
    """Check that a superoperator preserves the trace: vec(I)^dag S = vec(I)^dag."""
    s = as_operator(s, "superoperator")
    d = int(round(np.sqrt(s.shape[0])))
    vid = vec(np.eye(d, dtype=complex))
    dev = np.max(np.abs(vid @ s - vid))
    if dev > tol:
        raise ValueError(f"superoperator is not trace preserving: deviation {dev:.3e}")
    return s


def commutator_super(a):
    """Superoperator S with S vec(X) = vec([A, X])."""
    a = as_operator(a)
    eye = np.eye(a.shape[0], dtype=complex)
    return np.kron(eye, a) - np.kron(a.T, eye)


def double_commutator_super(a, b):
    """Superoperator S with S vec(X) = vec([A, [B, X]])."""
    a = as_operator(a, "A")
    b = as_operator(b, "B")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    return commutator_super(a) @ commutator_super(b)


def reference_generators(h_family, grid, pulses, kernel):
    """(N, d**2, d**2) step generators on column-stacked operators,

        K_k = -i C(H_k) - sum_{p,n} C(H_p) C(eta[p, n, k]),   C(A) = [A, .],

    with every memory integral summed term by term from explicitly evolved
    controls: the complex superoperator form of the cache's step maps."""
    dt, n = grid.dt, grid.n_steps
    pulses = as_pulses(pulses, grid, h_family.n_controls)
    controls = h_family.control_stack
    g = node_propagators(h_family, grid, pulses)
    weights = kernel.weight_table(grid)
    local = kernel.local_weights
    gens = []
    for j in range(1, n + 1):
        gen = -1j * commutator_super(hamiltonian_at(h_family, pulses[:, j - 1]))
        for p, hp in enumerate(controls):
            for q, hq in enumerate(controls):
                eta = local[p, q] * hq
                for l in range(j):
                    u_rel = g[j] @ dag(g[l])
                    eta = eta + dt * weights[p, q, j, l] * (u_rel @ hq @ dag(u_rel))
                gen = gen - double_commutator_super(hp, eta)
        gens.append(gen)
    return np.array(gens)


def gradient_reference(cache, states, costates, m, k):
    """Pulse gradient D at control m and step k from operator states and
    costates (N+1, d, d), the sum of :func:`gradient_reference_terms`.
    Returns the complex value; the exact one is real."""
    coherent, memory, _ = gradient_reference_terms(cache, states, costates, m, k)
    return coherent + memory


def gradient_reference_terms(cache, states, costates, m, k):
    """The two terms of the pulse gradient D at control m and step k, from
    operator states and costates (N+1, d, d): the coherent term and, summed
    over every node j >= k, the memory integrals' sensitivity to the pulse
    on step k, as nested commutators.  Reads only the pulses, grid,
    Hamiltonians and kernel of the cache.  Returns the complex values, the
    exact ones being real, and the size of the coherent term's summands,
    ``sum_ab |chi_ab| |(-i[H_m, rho])_ba|``, which bounds its roundoff when
    they cancel."""
    hm = cache.h_family.controls[m]
    drive = -1j * commutator(hm, states[k])
    coherent = np.trace(costates[k] @ drive)
    summands = np.sum(np.abs(costates[k]) * np.abs(drive.T))
    dt = cache.grid.dt
    g = node_propagators(cache.h_family, cache.grid, cache.pulses)
    b_kl = htilde_row(cache, k)[:, :k]  # (M, k, d, d)
    comms = hm @ b_kl - b_kl @ hm
    w = cache.kernel.weight_table(cache.grid)[:, :, k:, :k]  # (M, M, n-k+1, k)
    deta = (-1j * dt * dt) * np.einsum("pnjl,nlab->pnjab", w, comms)
    u_rel = np.einsum("jab,cb->jac", g[k:], np.conj(g[k]))
    evolved = np.einsum("jab,pnjbc,jdc->pnjad", u_rel, deta, np.conj(u_rel))
    phi = states[k:]
    inner = evolved @ phi - phi @ evolved
    h_stack = cache.h_family.control_stack[:, None, None]
    outer = h_stack @ inner - inner @ h_stack
    return coherent, -np.einsum("jab,pnjba->", costates[k:], outer), summands


def _overlap(rho_targ, rho):
    return float(np.real(np.trace(rho_targ @ rho)))


def se_krotov_reference(problem, guess, config):
    """Sequential Krotov update of the closed-system (von Neumann) evolution.

    Works on step unitaries and Hilbert-space states, without superoperators
    or a propagator cache.  The disorder kernel is ignored; costates are
    backward-propagated once per iteration with the previous pulses, and
    each pulse value is updated from the state evolved up to its own step.
    """
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


def ddme_krotov_reference(problem, guess, config):
    """Sequential Krotov update of the disorder-dressed evolution, node by node.

    Before the update at step k every table is rebuilt: a fresh
    :func:`~ddcontrol.propagation.build_cache` of the current pulses gives
    the step maps, the states are propagated from ``rho0`` and the costates
    pulled back from the target one node at a time, and every control's
    gradient is :func:`gradient_reference` on the operator states.  The
    values of all controls at step k change together.
    """
    grid = problem.grid
    n, m, d = grid.n_steps, problem.n_controls, problem.dim
    pulses = as_pulses(guess, grid, m).copy()
    r0, c_final = to_coherence(problem.rho0), to_coherence(problem.rho_targ)

    def tables():
        cache = build_cache(problem.h_family, grid, pulses, problem.kernel)
        states = node_sweep_loop(cache.v_steps, r0)
        costates = node_sweep_loop(cache.v_steps[::-1].swapaxes(1, 2), c_final)[::-1]
        return cache, states, costates

    def cost():
        states = tables()[1]
        return 1.0 - 1.0 / d - 2.0 * float(c_final @ states[n])

    j_values = [cost()]
    converged = config.j_tol is not None and j_values[-1] <= config.j_tol
    iterations = 0
    while not converged and iterations < config.i_max:
        iterations += 1
        for k in range(1, n + 1):
            cache, states, costates = tables()
            phi = from_coherence(states, trace=1.0)
            chi = from_coherence(costates, trace=1.0)
            for mm in range(m):
                if config.shapes[mm, k - 1] == 0.0:
                    continue
                grad = gradient_reference(cache, phi, chi, mm, k).real
                pulses[mm, k - 1] += config.shapes[mm, k - 1] / config.lambdas[mm] * grad
        j_values.append(cost())
        converged = config.j_tol is not None and j_values[-1] <= config.j_tol

    return OptimizationTrace(
        j_values=np.array(j_values), pulses=pulses, converged=converged, iterations=iterations
    )


def unitary_average_reference(problem, pulse_sets):
    """Closed-system evolution under each of a (count, M, N) stack of pulse
    sets, averaged over the sets at every node.

    Propagates density matrices, each realization's by ``U rho U^dag``, and
    averages them with numpy's pairwise mean along the set axis.
    """
    grid = problem.grid
    count = pulse_sets.shape[0]
    hams = problem.h_family.drift[None, None] + np.einsum(
        "cmk,mab->ckab", pulse_sets, problem.h_family.control_stack
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
