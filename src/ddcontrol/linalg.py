"""Dense linear algebra for finite-dimensional quantum systems.

Operators, density matrices and propagators are plain ``(d, d)`` complex
numpy arrays.  Maps on Hermitian operators act on real coherence vectors:
with the generalized Gell-Mann matrices ``lambda_e`` (e = 1 .. d**2 - 1;
traceless, Hermitian, ``Tr(lambda_a lambda_b) = 2 delta_ab``; Bertlmann &
Krammer, J. Phys. A 41, 235303 (2008)), an operator ``X`` has coefficients
``x_e = Tr(X lambda_e) / 2``, so ``X = Tr(X) I / d + sum_e x_e lambda_e``.
With the su(d) structure constants ``[lambda_a, lambda_b] = 2i f_abc
lambda_c``, ``-i[X, .]`` acts on coefficients as the real antisymmetric
matrix ``F(x)_cb = 2 sum_e x_e f_ebc``.  Every function here is pure and
never mutates its arguments, which makes all of them safe to share across
threads.
"""

import bisect
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

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


def as_operator(a, name="operator"):
    """Validate and return a square complex matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
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


@lru_cache(maxsize=None)
def gell_mann(d):
    """The (d**2 - 1, d, d) generalized Gell-Mann matrices: the symmetric
    ``E_jk + E_kj`` and antisymmetric ``-i E_jk + i E_kj`` pairs (j < k),
    then the diagonal ones.  Built once per d; read-only."""
    lam = []
    for j in range(d):
        for k in range(j + 1, d):
            e = np.outer(np.eye(d)[j], np.eye(d)[k])
            lam += [e + e.T, -1j * e + 1j * e.T]
    for l in range(1, d):
        lam.append(np.sqrt(2.0 / (l * (l + 1))) * np.diag(np.r_[np.ones(l), -l, np.zeros(d - l - 1)]))
    lam = np.array(lam, dtype=complex).reshape(-1, d, d)
    lam.flags.writeable = False
    return lam


@lru_cache(maxsize=None)
def _coherence_tables(d):
    """Real forms of the basis, read-only: ``proj`` maps the float view of a
    flattened operator to its coefficients, ``lift`` maps coefficients to
    the float view of ``sum_e x_e lambda_e``, and row e of ``fmaps`` is
    ``F(unit vector e)`` flattened, so that ``F(x) = x @ fmaps``."""
    lam = gell_mann(d)
    n = len(lam)
    lift = lam.reshape(n, -1).view(float)
    proj = 0.5 * np.ascontiguousarray(lift.T)
    comm = np.einsum("aij,bjk->abik", lam, lam)
    comm -= np.swapaxes(comm, 0, 1)
    f = np.real(np.einsum("abij,cji->abc", comm, lam) / 4j)  # f_abc
    fmaps = np.ascontiguousarray(2.0 * np.swapaxes(f, 1, 2)).reshape(n, n * n)
    for table in (proj, fmaps):
        table.flags.writeable = False
    return proj, lift, fmaps


def to_coherence(x):
    """Coefficients ``Tr(X lambda_e) / 2`` of Hermitian operators: (..., d, d) -> (..., d**2 - 1)."""
    x = np.asarray(x, dtype=complex)
    d = x.shape[-1]
    flat = np.ascontiguousarray(x).reshape(x.shape[:-2] + (d * d,))
    return flat.view(float) @ _coherence_tables(d)[0]


def from_coherence(x, trace=0.0):
    """Operators ``trace * I / d + sum_e x_e lambda_e``: (..., d**2 - 1) -> (..., d, d)."""
    x = np.asarray(x, dtype=float)
    d = int(round(np.sqrt(x.shape[-1] + 1)))
    ops = (x @ _coherence_tables(d)[1]).view(complex).reshape(x.shape[:-1] + (d, d))
    if trace:
        ops[..., np.arange(d), np.arange(d)] += trace / d
    return ops


def structure_map(x):
    """``F(x)``, the action of ``-i[X, .]`` on coefficients: (..., n) -> (..., n, n)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    fmaps = _coherence_tables(math.isqrt(n + 1))[2]
    return (x @ fmaps).reshape(x.shape[:-1] + (n, n))


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
_INV_FACTORIALS = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, _TAYLOR_DEGREES[-1] + 1)])


class _TaylorPlan(NamedTuple):
    """Paterson-Stockmeyer layout of one Taylor degree m with p = ceil(sqrt(m))
    powers and r = m / p blocks: T_m(A) = sum_{i<r} B_i (A^p)^i, where B_i =
    sum_{j<p} A^j / (i p + j)! plus A^p / m! in the last block.  Row i of the
    (r, p) ``weights`` holds the weights of A^1 .. A^p in B_i and
    ``diagonal[i]`` that of the identity."""

    theta: float
    products: int
    degree: int
    powers: int
    weights: np.ndarray
    diagonal: np.ndarray


def _taylor_plan(index):
    m = int(_TAYLOR_DEGREES[index])
    p = math.isqrt(m - 1) + 1
    r = m // p
    coef = np.zeros((r, p + 1))
    coef[:, :p] = _INV_FACTORIALS[:m].reshape(r, p)
    coef[-1, p] = _INV_FACTORIALS[m]
    weights = np.ascontiguousarray(coef[:, 1:])
    return _TaylorPlan(float(_TAYLOR_THETA[index]), p - 1 + r - 1, m, p, weights, coef[:, 0].copy())


_TAYLOR_PLANS = tuple(_taylor_plan(i) for i in range(len(_TAYLOR_DEGREES)))


def _plan_table(top):
    """Breakpoints and choices of the plan rule for largest 1-norms up to ``top``.

    The rule takes the plan with the fewest products plus squarings
    ``s_i(x) = max(ceil(log2(x / theta_i)), 0)``, the first plan on a tie.
    Costs only rise with x, so the choice holds until the cost of the
    chosen plan i rises, at its step from t to t + 1 squarings.  In exact
    arithmetic that step is at ``theta_i 2**t``; with the rounded quotient
    and log2 it is a few floats higher, more for larger t (18 at t = 60),
    so the breakpoint is found by walking up from ``theta_i 2**t`` one float
    at a time.  The next choice is the cheapest plan just above it, where
    the other plans are far from their own steps.  Returns the ascending
    breakpoints and the (plan, squarings) for the norms up to each of them,
    with one more choice for the norms above the last.
    """
    (i, t), breaks, choices = (0, 0), [], [(_TAYLOR_PLANS[0], 0)]
    while (step := (theta := _TAYLOR_PLANS[i].theta) * 2.0**t) <= top:
        while math.ceil(math.log2(math.nextafter(step, math.inf) / theta)) <= t:
            step = math.nextafter(step, math.inf)
        breaks.append(step)
        costs = [plan.products + max(math.ceil(math.log2(step / plan.theta)), 0) for plan in _TAYLOR_PLANS]
        costs[i] = _TAYLOR_PLANS[i].products + t + 1
        i = costs.index(min(costs))
        t = costs[i] - _TAYLOR_PLANS[i].products
        choices.append((_TAYLOR_PLANS[i], t))
    return breaks, choices


# The plan rule as a lookup, for largest 1-norms up to 2**_PLAN_TOP: the
# choice for a norm x is the one for the interval (breaks[a-1], breaks[a]]
# that holds x.  Above 2**(_PLAN_TOP - 1) every plan squares at least once,
# and halving the norm takes one squaring off each, so above the table the
# rule continues by exact halving.
_PLAN_TOP = 64
_PLAN_TOP_NORM = 2.0**_PLAN_TOP
_PLAN_BREAKS, _PLAN_CHOICES = _plan_table(_PLAN_TOP_NORM)


def _taylor_choice(norm):
    """The plan and number of squarings s for a stack of largest 1-norm
    ``norm``: the fewest matrix products among the degrees whose bound
    theta[m] covers norm / 2**s, the first such degree on a tie.  Looked up
    in breakpoints laid out once; up to 2**64 the choice is the rule's with
    rounded quotients and log2 at every float, above it the rule continued
    by exact halving."""
    extra = math.frexp(norm)[1] - _PLAN_TOP if norm > _PLAN_TOP_NORM else 0
    plan, squarings = _PLAN_CHOICES[bisect.bisect_left(_PLAN_BREAKS, math.ldexp(norm, -extra))]
    return plan, squarings + extra


def horner_choice(bound):
    """The degree m and substeps s that evaluate exp(A) for ||A||_1 <= ``bound``
    as T_m(A / s)^s by Horner's rule: the fewest products m * s whose
    backward-error bound theta[m] covers bound / s, the first degree on a
    tie."""
    substeps = np.maximum(np.ceil(bound / _TAYLOR_THETA), 1.0)
    best = int(np.argmin(_TAYLOR_DEGREES * substeps))
    return int(_TAYLOR_DEGREES[best]), int(substeps[best])


def expm(a, scale=1.0):
    """Matrix exponential exp(scale * A) of a (..., n, n) stack, all matrices
    at once, by scaling and squaring.

    Keeps the dtype of ``scale * A``: real generators give real maps.
    Evaluates the degree-m Taylor polynomial of scale * A / 2**s in
    Paterson-Stockmeyer form, then squares s times.  (m, s) minimizes the
    matrix products among the degrees whose bound theta[m] covers the
    largest 1-norm in the stack divided by 2**s (:func:`_taylor_choice`,
    a lookup in breakpoints laid out once).  That 1-norm is also the
    finiteness check: a generator with non-finite entries has a NaN or inf
    norm and raises :class:`NumericalError`.  The scale goes in with the
    power of two, in one product.
    """
    a = np.asarray(a)
    # einsum sums the columns in the order sum(axis=-2) does, and faster
    norm = abs(scale) * float(np.einsum("...ij->...j", np.abs(a)).max())
    if not norm < math.inf:
        raise NumericalError("expm: generator has non-finite entries or 1-norm")
    plan, squarings = _taylor_choice(norm)
    p, weights, diagonal = plan.powers, plan.weights, plan.diagonal
    r = len(diagonal)

    # powers[j] = (scale * A / 2**s)^(j+1) for j < p
    dtype = np.result_type(a, scale)
    powers = np.empty((p,) + a.shape, dtype=dtype)
    np.multiply(a, scale * 2.0**-squarings, out=powers[0])
    for j in range(1, p):
        np.matmul(powers[j - 1], powers[0], out=powers[j])
    # real weights: contract the real and imaginary parts as one real array
    flat = powers.reshape(p, -1).view(float)
    blocks = (weights @ flat).view(dtype).reshape((r,) + a.shape)
    n = a.shape[-1]
    blocks.reshape(r, -1, n * n)[..., :: n + 1] += diagonal[:, None, None]

    # Horner's rule in A^p
    result = blocks[r - 1]
    for i in range(r - 2, -1, -1):
        result = result @ powers[p - 1]
        result += blocks[i]
    for _ in range(squarings):
        result = result @ result
    return result


_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def expm_skew(a, scale=1.0):
    """exp(scale * A) for real antisymmetric A, the coherent step maps of a
    real frame; batched over leading axes.

    For 3 x 3 maps (d = 2) the exponential is a rotation by theta, with
    ``theta**2 = |A|_F**2 / 2``, and Rodrigues' formula gives it in closed
    form, ``I + sinc(theta) A + sinc(theta / 2)**2 A**2 / 2`` with
    ``sinc(x) = sin(x) / x``.  Both coefficients come from the half angle h:
    ``sinc(theta) = sinc(h) cos(h)``.  A floor of 1e-300 on h keeps sin(h) / h
    exactly 1 at theta = 0 without a branch; at any h below 1e-8 it is 1 in
    floating point anyway.  A lone map takes its coefficients on Python
    floats, a stack on arrays.  Other sizes go to :func:`expm`.  Raises
    :class:`NumericalError` for a non-finite generator.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != 3:
        return expm(a, scale)
    a = scale * a
    if a.ndim == 2:
        sq_norm = float(np.vdot(a, a))
        finite = sq_norm < math.inf
        sqrt, sin, cos, floor = math.sqrt, math.sin, math.cos, max
    else:
        sq_norm = np.einsum("...ij,...ij->...", a, a)[..., None, None]
        finite = (sq_norm < math.inf).all()
        sqrt, sin, cos, floor = np.sqrt, np.sin, np.cos, np.maximum
    if not finite:
        raise NumericalError("expm_skew: generator has non-finite entries or norm")
    h = floor(sqrt(0.125 * sq_norm), 1e-300)
    sinc_h = sin(h) / h
    out = a @ a
    out *= 0.5 * sinc_h * sinc_h
    out += (sinc_h * cos(h)) * a
    out += _EYE3
    return out


def expm_hermitian(h, scale=1.0):
    """exp(scale * H) for Hermitian H through its eigendecomposition.

    With scale = -1j * dt this yields the unitary generated by H, exactly
    unitary up to roundoff.  Batched over leading axes.
    """
    h = np.asarray(h, dtype=complex)
    if not np.isfinite(h).all():
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


def trace_distance(a, b):
    """(1/2) Tr |A - B| for Hermitian A, B.  Batched over leading axes."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return _float_or_array(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1))


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
