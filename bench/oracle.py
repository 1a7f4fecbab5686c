"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls into ``ddcontrol``'s numerics: the qubit propagators are
the closed-form rotations ``cos(theta) I - i sin(theta) n.sigma``, the
d-level propagators come from ``scipy.linalg.expm`` (Pade), perturbations
are drawn from this module's own sampler with its own seed, and static
disorder is averaged with Gauss-Hermite quadrature.
"""

import numpy as np
import scipy.linalg as sla

SIGMA = np.array(
    [[[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]],
    dtype=complex,
)


def gaussian_covariance(midpoints, c0, t_corr):
    """C0 exp(-(t - t')^2 / t_corr^2) on the midpoint grid (one control)."""
    dt = midpoints[:, None] - midpoints[None, :]
    return c0 * np.exp(-(dt**2) / t_corr**2)


def sample_offsets(cov, count, rng):
    """Zero-mean Gaussian draws with covariance ``cov`` through its
    symmetric square root (eigenvalues clipped at zero)."""
    w, v = np.linalg.eigh(cov)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    return rng.standard_normal((count, cov.shape[0])) @ root.T


def qubit_rotations(drift_z, control_x, pulses, dt):
    """exp(-i dt (a sigma_z + f sigma_x)) in closed form for a stack of
    pulse values ``pulses`` (any shape); returns shape pulses.shape + (2, 2)."""
    f = np.asarray(pulses, dtype=float) * control_x
    a = np.broadcast_to(float(drift_z), f.shape)
    norm = np.hypot(f, a)
    theta = dt * norm
    safe = np.where(norm > 0.0, norm, 1.0)
    nx, nz = f / safe, a / safe
    c, s = np.cos(theta), np.sin(theta)
    u = np.empty(f.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = c - 1j * s * nz
    u[..., 0, 1] = -1j * s * nx
    u[..., 1, 0] = -1j * s * nx
    u[..., 1, 1] = c + 1j * s * nz
    return u


def evolve_states(u_steps, rho0):
    """Density matrices on every node for a stack of step unitaries.

    ``u_steps`` has shape (..., N, d, d); returns (..., N+1, d, d).
    """
    lead = u_steps.shape[:-3]
    n, d = u_steps.shape[-3], u_steps.shape[-1]
    out = np.empty(lead + (n + 1, d, d), dtype=complex)
    rho = np.broadcast_to(rho0, lead + (d, d)).astype(complex)
    out[..., 0, :, :] = rho
    for k in range(n):
        u = u_steps[..., k, :, :]
        rho = u @ rho @ np.conj(np.swapaxes(u, -1, -2))
        out[..., k + 1, :, :] = rho
    return out


def pure_ket(rho):
    """Leading eigenvector of a (numerically) pure state."""
    w, v = np.linalg.eigh(rho)
    return v[:, -1]


def bloch(states):
    """Pauli expectation values of qubit states: (..., 2, 2) -> (..., 3)."""
    return np.real(np.einsum("kab,...ba->...k", SIGMA, states))


def stock_brute_force(pulses, dt, rho0, rho_targ, cov, count, seed, chunk=500):
    """Brute-force disorder average for the stock qubit (drift sigma_z,
    control sigma_x) over ``count`` perturbations drawn from ``cov``.

    Realizations are evolved as kets in chunks of ``chunk`` so that the
    oracle's memory stays small.  Returns the mean Bloch vector on every
    node with its standard error, and the mean final infidelity against
    ``rho_targ`` with its standard error.
    """
    rng = np.random.default_rng(seed)
    psi0, targ = pure_ket(rho0), pure_ket(rho_targ)
    n = cov.shape[0]
    r_sum, r_sq = np.zeros((n + 1, 3)), np.zeros((n + 1, 3))
    j_sum = j_sq = 0.0
    left = count
    while left > 0:
        size = min(chunk, left)
        left -= size
        u = qubit_rotations(1.0, 1.0, pulses[0][None, :] + sample_offsets(cov, size, rng), dt)
        psi = np.broadcast_to(psi0, (size, 2)).astype(complex)
        for k in range(n + 1):
            if k:
                psi = np.einsum("cab,cb->ca", u[:, k - 1], psi)
            cross = np.conj(psi[:, 0]) * psi[:, 1]
            r = np.stack(
                [2.0 * cross.real, 2.0 * cross.imag, np.abs(psi[:, 0]) ** 2 - np.abs(psi[:, 1]) ** 2],
                axis=1,
            )
            r_sum[k] += r.sum(axis=0)
            r_sq[k] += (r**2).sum(axis=0)
        infid = 1.0 - np.abs(psi @ np.conj(targ)) ** 2
        j_sum += infid.sum()
        j_sq += (infid**2).sum()
    r_mean = r_sum / count
    j_mean = j_sum / count
    return {
        "bloch": r_mean,
        "bloch_err": np.sqrt(np.clip(r_sq / count - r_mean**2, 0.0, None) / (count - 1)),
        "infidelity": j_mean,
        "infidelity_err": float(np.sqrt(max(j_sq / count - j_mean**2, 0.0) / (count - 1))),
    }


def unitary_states(drift, controls, pulses, dt, rho0):
    """Closed-system states on every node via scipy's Pade exponential
    (or closed-form rotations for the stock qubit)."""
    pulses = np.asarray(pulses, dtype=float)
    if _is_stock_qubit(drift, controls):
        return evolve_states(qubit_rotations(1.0, 1.0, pulses[0], dt), rho0)
    hams = drift[None] + np.einsum("mk,mab->kab", pulses, np.stack(controls))
    u = np.stack([sla.expm(-1j * dt * h) for h in hams])
    return evolve_states(u, rho0)


def _is_stock_qubit(drift, controls):
    return (
        len(controls) == 1
        and np.array_equal(drift, SIGMA[2])
        and np.array_equal(controls[0], SIGMA[0])
    )


def static_disorder_average(drift, controls, pulses, dt, rho0, c0, order=12):
    """Average over static pulse offsets delta_m ~ N(0, c0), independent per
    control, by tensor-product Gauss-Hermite quadrature of the given order.

    This is the exact disorder average of the quasi-static limit
    (t_corr >> T) up to the quadrature error, which for smooth integrands at
    weak disorder is far below roundoff-level concerns of the checks.
    """
    x, w = np.polynomial.hermite_e.hermegauss(order)
    w = w / w.sum()
    sigma = np.sqrt(c0)
    m = len(controls)
    grids = np.meshgrid(*([x] * m), indexing="ij")
    weights = np.ones_like(grids[0])
    for wg in np.meshgrid(*([w] * m), indexing="ij"):
        weights = weights * wg
    pulses = np.asarray(pulses, dtype=float)
    total = 0.0
    for idx in np.ndindex(weights.shape):
        offset = np.array([sigma * g[idx] for g in grids])[:, None]
        total = total + weights[idx] * unitary_states(drift, controls, pulses + offset, dt, rho0)
    return total
