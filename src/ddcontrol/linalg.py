"""Dense complex linear algebra for finite-dimensional quantum systems.

Operators, density matrices and propagators are plain ``(d, d)`` complex
numpy arrays; superoperators are ``(d**2, d**2)`` arrays acting on
column-stacked (``vec``) operators, so that ``A X B`` maps to
``kron(B.T, A) @ vec(X)``.  Every function here is pure and never mutates
its arguments, which makes all of them safe to share across threads.
"""

import numpy as np
import scipy.linalg as sla

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
EIGVAL_FLOOR = -1e-9

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = {"i": np.eye(2, dtype=complex), "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


class NumericalError(RuntimeError):
    """Raised when a computation leaves the numerically trustworthy regime
    (non-finite entries, covariance not positive semidefinite, ...)."""


def dag(a):
    """Conjugate transpose; batched over leading axes."""
    return np.conj(np.swapaxes(a, -2, -1))


def commutator(a, b):
    return a @ b - b @ a


def vec(x):
    """Column-stack a (d, d) matrix into a length d**2 vector."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v):
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"cannot devectorize length-{v.size} vector into a square matrix")
    return v.reshape((d, d), order="F")


def as_operator(a, name="operator"):
    """Validate and return a square complex matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NumericalError(f"{name} has non-finite entries")
    return a


def check_hermitian(a, tol=HERMITIAN_TOL, name="operator"):
    a = as_operator(a, name)
    dev = np.max(np.abs(a - dag(a)))
    if dev > tol:
        raise ValueError(f"{name} is not Hermitian: max |A - A^dag| = {dev:.3e} > {tol:.0e}")
    return a


def check_density_matrix(rho, name="density matrix"):
    """Validate Hermiticity, unit trace and spectrum of a state.

    Eigenvalues are allowed to dip slightly below zero (floor -1e-9):
    perturbative master equations can produce tiny negativity, which we
    report via this check instead of clipping.
    """
    rho = check_hermitian(rho, name=name)
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} has trace {tr:.12g}, expected 1 within {TRACE_TOL:.0e}")
    lam_min = np.min(np.linalg.eigvalsh(rho))
    if lam_min < EIGVAL_FLOOR:
        raise ValueError(
            f"{name} has eigenvalue {lam_min:.3e} below the tolerated floor {EIGVAL_FLOOR:.0e}"
        )
    return rho


def commutator_super(a):
    """Superoperator S with S vec(X) = vec([A, X])."""
    a = as_operator(a)
    eye = np.eye(a.shape[0], dtype=complex)
    return np.kron(eye, a) - np.kron(a.T, eye)


def commutator_super_batch(ops):
    """Stack of commutator superoperators for a stack of (d, d) operators."""
    ops = np.asarray(ops, dtype=complex)
    d = ops.shape[-1]
    eye = np.eye(d, dtype=complex)
    left = np.einsum("ij,...ab->...iajb", eye, ops)
    right = np.einsum("...ba,ij->...aibj", ops, eye)
    shape = ops.shape[:-2] + (d * d, d * d)
    return left.reshape(shape) - right.reshape(shape)


def expm(a, scale=1.0):
    """Matrix exponential exp(scale * A) via scaling-and-squaring (Pade).

    Works for operators and superoperators alike; batched over leading axes.
    """
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise NumericalError("expm: generator has non-finite entries")
    return sla.expm(scale * a)


def expm_hermitian(h, scale=1.0):
    """exp(scale * H) for Hermitian H through its eigendecomposition.

    With scale = -1j * dt this yields the unitary generated by H, exactly
    unitary up to roundoff.  Batched over leading axes.
    """
    h = np.asarray(h, dtype=complex)
    if not np.all(np.isfinite(h.real)) or not np.all(np.isfinite(h.imag)):
        raise NumericalError("expm_hermitian: generator has non-finite entries")
    w, v = np.linalg.eigh(h)
    phases = np.exp(scale * w)
    return np.einsum("...ab,...b,...cb->...ac", v, phases, np.conj(v))


def _float_or_array(x):
    """A Python float for a 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def purity(rho):
    """Tr(rho^2); equals 1 iff the state is pure.  Batched over leading axes."""
    rho = np.asarray(rho, dtype=complex)
    return _float_or_array(np.real(np.einsum("...ab,...ba->...", rho, rho)))


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


def trace_distance(a, b):
    """(1/2) Tr |A - B| for Hermitian A, B."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


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


def ket(label_or_vector):
    """Build a normalized column vector from a label ('0', '1', '+', '-') or
    an explicit complex vector."""
    if isinstance(label_or_vector, str):
        table = {
            "0": np.array([1.0, 0.0], dtype=complex),
            "1": np.array([0.0, 1.0], dtype=complex),
            "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
            "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
        }
        if label_or_vector not in table:
            raise ValueError(f"unknown ket label {label_or_vector!r}; use one of {sorted(table)}")
        return table[label_or_vector]
    v = np.asarray(label_or_vector, dtype=complex)
    if v.ndim != 1:
        raise ValueError("ket vector must be one-dimensional")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("ket vector must be nonzero")
    return v / norm


def projector(psi):
    """|psi><psi| for a (label or vector) ket."""
    v = ket(psi)
    return np.outer(v, np.conj(v))


def pauli_string(label):
    """Tensor product of single-qubit Paulis, e.g. 'zx' -> sigma_z (x) sigma_x."""
    label = label.lower()
    if not label or any(c not in PAULI for c in label):
        raise ValueError(f"invalid Pauli string {label!r}; letters must be from 'ixyz'")
    out = PAULI[label[0]]
    for c in label[1:]:
        out = np.kron(out, PAULI[c])
    return out
