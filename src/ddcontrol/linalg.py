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
    """Inverse of :func:`vec`; batched over leading axes: (..., d*d) -> (..., d, d)."""
    v = np.asarray(v)
    n = v.shape[-1]
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise ValueError(f"cannot devectorize length-{n} vector into a square matrix")
    return np.swapaxes(v.reshape(v.shape[:-1] + (d, d)), -1, -2)


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


def commutator_super_batch(ops):
    """Stack of commutator superoperators for a stack of (d, d) operators."""
    ops = np.asarray(ops, dtype=complex)
    d = ops.shape[-1]
    eye = np.eye(d, dtype=complex)
    left = np.einsum("ij,...ab->...iajb", eye, ops)
    right = np.einsum("...ba,ij->...aibj", ops, eye)
    shape = ops.shape[:-2] + (d * d, d * d)
    return left.reshape(shape) - right.reshape(shape)


# Truncated-Taylor degrees whose Paterson-Stockmeyer evaluation costs one
# matrix product more than the previous one, and the largest 1-norm
# theta[m] for which degree m has relative backward error <= 2**-53: the
# backward-error bound of Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
# 970 (2009), solved for the Taylor remainder (the values of Table 3.1 in
# Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
_TAYLOR_DEGREES = np.array([1, 2, 4, 6, 9, 12, 16, 20, 25, 30])
_TAYLOR_THETA = np.array([
    2.220446049250313e-16, 2.580956802971767e-8, 3.397168839976962e-4,
    9.065656407595102e-3, 8.957760203223343e-2, 2.996158913811581e-1,
    7.802874256626574e-1, 1.438252596804337, 2.428582524442826,
    3.539666348743689,
])
_TAYLOR_POWERS = np.ceil(np.sqrt(_TAYLOR_DEGREES)).astype(int)
_TAYLOR_PRODUCTS = _TAYLOR_POWERS - 1 + _TAYLOR_DEGREES // _TAYLOR_POWERS - 1
_INV_FACTORIALS = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, _TAYLOR_DEGREES[-1] + 1)])
# Smallest stack that :func:`expm` exponentiates in one batch.  Below it
# scipy's per-matrix Pade method is as fast or faster: on 4x4 generators
# the batch breaks even at about 5 matrices, on 16x16 ones at about 2.
_TAYLOR_MIN_STACK = 4


def expm(a, scale=1.0):
    """Matrix exponential exp(scale * A) by scaling and squaring.

    Works for operators and superoperators alike; batched over leading axes.
    Stacks of fewer than ``_TAYLOR_MIN_STACK`` matrices, a lone matrix
    among them, go to scipy's Pade method one matrix at a time.  Larger
    stacks are exponentiated all at once by :func:`_expm_taylor`.
    """
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise NumericalError("expm: generator has non-finite entries")
    if a.size < _TAYLOR_MIN_STACK * a.shape[-1] ** 2:
        return sla.expm(scale * a)
    return _expm_taylor(scale * a)


def _expm_taylor(a):
    """exp(A) for a (..., n, n) stack, all matrices at once.

    Evaluates the degree-m Taylor polynomial of A / 2**s in
    Paterson-Stockmeyer form, then squares s times.  (m, s) minimizes the
    matrix products among the degrees whose bound theta[m] covers the
    largest 1-norm in the stack divided by 2**s.
    """
    norm = np.max(np.sum(np.abs(a), axis=-2))
    squarings = np.ceil(np.log2(np.maximum(norm, 1e-300) / _TAYLOR_THETA))
    squarings = np.maximum(squarings, 0.0)
    best = int(np.argmin(_TAYLOR_PRODUCTS + squarings))
    m, p, s = _TAYLOR_DEGREES[best], _TAYLOR_POWERS[best], int(squarings[best])
    r = m // p

    # powers[j] = (A / 2**s)^(j+1) for j < p
    powers = np.empty((p,) + a.shape, dtype=complex)
    np.multiply(a, 2.0**-s, out=powers[0])
    for j in range(1, p):
        np.matmul(powers[j - 1], powers[0], out=powers[j])
    # T_m(A) = sum_{i<r} B_i (A^p)^i with B_i = sum_{j<p} A^j / (i p + j)!,
    # plus A^p / m! in the last block; coef[i, j] is the weight of A^j in B_i
    coef = np.zeros((r, p + 1))
    coef[:, :p] = _INV_FACTORIALS[:m].reshape(r, p)
    coef[-1, p] = _INV_FACTORIALS[m]
    # real weights: contract the real and imaginary parts as one real array
    flat = powers.reshape(p, -1).view(float)
    blocks = (coef[:, 1:] @ flat).view(complex).reshape((r,) + a.shape)
    diag = np.arange(a.shape[-1])
    blocks[..., diag, diag] += coef[:, 0].reshape((r,) + (1,) * (a.ndim - 1))

    # Horner's rule in A^p
    result = blocks[r - 1]
    for i in range(r - 2, -1, -1):
        result = result @ powers[p - 1]
        result += blocks[i]
    for _ in range(s):
        result = result @ result
    return result


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
    """(1/2) Tr |A - B| for Hermitian A, B.  Batched over leading axes."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return _float_or_array(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1))


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
