import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from conftest import random_density, random_hermitian
from reference import (
    adjoint_map,
    bloch_vector,
    check_trace_preserving,
    commutator,
    commutator_super,
    double_commutator_super,
    fidelity_pure_target,
    taylor_choice_loop,
    unvec,
    vec,
)
from ddcontrol.linalg import (
    _PLAN_BREAKS,
    _PLAN_TOP,
    _TAYLOR_DEGREES,
    _TAYLOR_THETA,
    NumericalError,
    _taylor_choice,
    horner_choice,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    check_density_matrix,
    dag,
    expm,
    expm_hermitian,
    expm_skew,
    from_coherence,
    gell_mann,
    ket,
    pauli_string,
    projector,
    purity,
    structure_map,
    to_coherence,
    trace_distance,
)


def test_vec_unvec_round_trip(rng):
    for d in range(1, 9):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.array_equal(unvec(vec(x)), x)
    # batched over leading axes
    xs = rng.standard_normal((3, 2, 4, 4))
    vecs = np.stack([[vec(x) for x in row] for row in xs])
    assert np.array_equal(unvec(vecs), xs)


def test_vec_is_column_stacking():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(x), np.array([1.0, 3.0, 2.0, 4.0]))


def test_unvec_rejects_non_square_length():
    with pytest.raises(ValueError):
        unvec(np.arange(3.0))


def test_commutator_super_identity_is_zero():
    s = commutator_super(np.eye(3, dtype=complex))
    assert np.max(np.abs(s)) == 0.0


def test_commutator_super_pauli_algebra():
    s = commutator_super(SIGMA_Z)
    got = unvec(s @ vec(SIGMA_X))
    assert np.allclose(got, 2j * SIGMA_Y, atol=1e-14)


def test_commutator_super_matches_direct_product(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s = commutator_super(a)
    for _ in range(5):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(unvec(s @ vec(x)), a @ x - x @ a, atol=1e-13)


def test_double_commutator_super_pauli_algebra():
    s = double_commutator_super(SIGMA_X, SIGMA_X)
    got = unvec(s @ vec(SIGMA_Z))
    assert np.allclose(got, 4.0 * SIGMA_Z, atol=1e-14)


def test_double_commutator_super_identity_inner_is_zero():
    s = double_commutator_super(SIGMA_X, np.eye(2, dtype=complex))
    assert np.max(np.abs(s)) == 0.0


def test_double_commutator_super_matches_nested_products(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    s = double_commutator_super(a, b)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    direct = a @ (b @ x - x @ b) - (b @ x - x @ b) @ a
    assert np.allclose(unvec(s @ vec(x)), direct, atol=1e-12)


def test_double_commutator_super_dimension_mismatch():
    with pytest.raises(ValueError):
        double_commutator_super(SIGMA_X, np.eye(3, dtype=complex))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_coherence_vectors_and_structure_map(rng, d):
    lam = gell_mann(d)
    assert lam.shape == (d * d - 1, d, d)
    assert np.allclose(np.einsum("aij,bji->ab", lam, lam), 2.0 * np.eye(d * d - 1), atol=1e-14)
    assert np.allclose(lam, dag(lam)) and np.allclose(np.trace(lam, axis1=1, axis2=2), 0.0)
    xs = np.stack([random_hermitian(rng, d) for _ in range(3)])
    x = to_coherence(xs)
    assert x.dtype == np.float64 and x.shape == (3, d * d - 1)
    traces = np.real(np.trace(xs, axis1=1, axis2=2))
    assert np.max(np.abs(from_coherence(x[0], trace=traces[0]) - xs[0])) <= 1e-14
    # -i[X, Y] acts on coefficients as the real antisymmetric F(x)
    f = structure_map(x)
    assert np.array_equal(f, -np.swapaxes(f, -1, -2))
    for a in range(3):
        got = f[a] @ x[(a + 1) % 3]
        want = to_coherence(-1j * commutator(xs[a], xs[(a + 1) % 3]))
        assert np.max(np.abs(got - want)) <= 1e-13
    # U . U^dag acts on coefficients as the orthogonal O(U), O(UV) = O(U) O(V)
    u = expm_hermitian(xs[:2], -1j)
    o = adjoint_map(u)
    assert o.dtype == np.float64 and o.shape == (2, d * d - 1, d * d - 1)
    assert np.max(np.abs(o[0] @ x[2] - to_coherence(u[0] @ xs[2] @ dag(u[0])))) <= 1e-13
    assert np.max(np.abs(o[0].T @ o[0] - np.eye(d * d - 1))) <= 1e-13
    assert np.max(np.abs(adjoint_map(u[0] @ u[1]) - o[0] @ o[1])) <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 4])
def test_coherent_step_map_is_adjoint_of_step_unitary(rng, d):
    # the real frame's step map exp(dt F(h)) is O(exp(-i dt H)), for lone
    # matrices and for a stack, with dt |F(h)|_1 from 1e-3 to 20
    n = d * d - 1
    hs = np.stack([random_hermitian(rng, d) for _ in range(4 * 12)])
    fs = structure_map(to_coherence(hs))
    norms = np.repeat(np.geomspace(1e-3, 20.0, 12), 4)
    dts = norms / np.max(np.sum(np.abs(fs), axis=-2), axis=-1)
    want = np.stack([adjoint_map(expm_hermitian(h, -1j * dt)) for h, dt in zip(hs, dts)])
    lone = np.stack([expm(f, scale=dt) for f, dt in zip(fs, dts)])
    stacked = expm(fs * dts[:, None, None])
    for got in (lone, stacked):
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(got.swapaxes(1, 2) @ got - np.eye(n))) <= 1e-12


def test_expm_zero_scale_is_identity(rng):
    s = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    assert np.allclose(expm(s, scale=0.0), np.eye(9), atol=1e-15)


def test_expm_pauli_rotation_identity():
    got = expm(SIGMA_X, scale=-1j * np.pi / 2.0)
    assert np.allclose(got, -1j * SIGMA_X, atol=1e-14)


def test_expm_matches_eigendecomposition_oracle(rng):
    for d in (2, 3, 5):
        h = random_hermitian(rng, d)
        taylor = expm(h, scale=-1j * 0.37)
        eig = expm_hermitian(h, scale=-1j * 0.37)
        assert np.max(np.abs(taylor - eig)) <= 1e-10 * np.max(np.abs(eig))


@pytest.mark.parametrize("count", [1, 2, 4, 100])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_expm_matches_scipy(rng, d, count):
    # stacks of d-level superoperator-sized generators whose 1-norms are
    # spread from 20 down to 1e-3 within the stack
    n = d * d
    a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    norms = np.sum(np.abs(a), axis=-2).max(axis=-1)
    a *= (np.geomspace(20.0, 1e-3, count) / norms)[:, None, None]
    want = scipy.linalg.expm(a)
    got = expm(a)
    err = np.max(np.abs(got - want), axis=(-2, -1)) / np.max(np.abs(want), axis=(-2, -1))
    assert np.max(err) <= 1e-13
    assert np.array_equal(expm(a[None]), got[None])  # more leading axes
    scaled = expm(a[0], scale=-0.5j)
    assert np.max(np.abs(scaled - scipy.linalg.expm(-0.5j * a[0]))) <= 1e-13 * np.max(np.abs(scaled))


@pytest.mark.parametrize("count", [1, 100])
def test_expm_keeps_real_dtype(rng, count):
    # real coherence-vector generators of step size: the stack stays real
    a = 0.3 * rng.standard_normal((count, 8, 8))
    got = expm(a, scale=0.5)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - scipy.linalg.expm(0.5 * a + 0j))) <= 1e-13


def _reference_taylor_choice(norm):
    """The degree and squarings of the batched Taylor step, as the rule
    reads on arrays: the fewest products plus squarings, the first degree
    on a tie."""
    powers = np.ceil(np.sqrt(_TAYLOR_DEGREES)).astype(int)
    products = powers - 1 + _TAYLOR_DEGREES // powers - 1
    squarings = np.maximum(np.ceil(np.log2(np.maximum(norm, 1e-300) / _TAYLOR_THETA)), 0.0)
    best = int(np.argmin(products + squarings))
    return int(_TAYLOR_DEGREES[best]), int(squarings[best])


def _reference_horner_choice(bound):
    """The degree and substeps of the ket propagation's Horner evaluation,
    as the rule reads inline: the fewest products m * s, the first degree
    on a tie."""
    substeps = np.maximum(np.ceil(bound / _TAYLOR_THETA), 1.0)
    best = int(np.argmin(_TAYLOR_DEGREES * substeps))
    return int(_TAYLOR_DEGREES[best]), int(substeps[best])


@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize("index", range(len(_TAYLOR_THETA)))
def test_expm_at_degree_boundaries(rng, index, side):
    # stacks whose largest 1-norm sits just below or just above theta[m],
    # where the degree or the number of squarings changes: the choice
    # follows the rule, and the result matches scipy
    target = _TAYLOR_THETA[index] * (1.0 + side * 1e-12)
    for dtype in (float, complex):
        a = rng.standard_normal((6, 5, 5)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal((6, 5, 5))
        norms = np.sum(np.abs(a), axis=-2).max(axis=-1)
        a *= (target * np.geomspace(1.0, 1e-3, 6) / norms)[:, None, None]
        norm = np.sum(np.abs(a), axis=-2).max()
        assert (norm > _TAYLOR_THETA[index]) == (side > 0)
        plan, squarings = _taylor_choice(norm)
        assert (plan.degree, squarings) == _reference_taylor_choice(norm)
        # the Horner choice changes degree m's substeps at s * theta[m]
        for s in (1, 2, 3):
            assert horner_choice(s * norm) == _reference_horner_choice(s * norm), s
        want = scipy.linalg.expm(a)
        got = expm(a)
        assert got.dtype == want.dtype
        err = np.max(np.abs(got - want), axis=(-2, -1)) / np.max(np.abs(want), axis=(-2, -1))
        assert np.max(err) <= 1e-13


def _choice(result):
    plan, squarings = result
    return plan.degree, squarings


def test_plan_lookup_equals_the_loop():
    # at every breakpoint and both its neighbouring floats, where the rounded
    # log2 of the loop decides, and on a dense log grid over the table and
    # below it
    assert _PLAN_BREAKS == sorted(set(_PLAN_BREAKS))
    norms = [0.0, 5e-324, 1e-300, 2.0**_PLAN_TOP]
    for b in _PLAN_BREAKS:
        norms += [math.nextafter(b, 0.0), b, math.nextafter(b, math.inf)]
    norms += np.geomspace(1e-20, 2.0**_PLAN_TOP, 20001).tolist()
    for norm in norms:
        assert _choice(_taylor_choice(norm)) == _choice(taylor_choice_loop(norm)), norm
    # the loop's squarings step one float above theta[m] 2**t for small t
    # but more floats above it for larger t, so not every breakpoint is a
    # theta[m] 2**t
    exact = {float(theta) * 2.0**t for theta in _TAYLOR_THETA for t in range(200)}
    assert not set(_PLAN_BREAKS) <= exact


def test_plan_lookup_continues_the_rule_above_the_table():
    # every plan squares there, so the rule continues by exact halving;
    # away from the breakpoints it is the loop's choice
    for norm in np.geomspace(2.0**_PLAN_TOP, 1e290, 2001)[1:].tolist():
        assert _choice(_taylor_choice(norm)) == _choice(taylor_choice_loop(norm)), norm
        plan, squarings = _taylor_choice(norm)
        assert _choice(_taylor_choice(2.0 * norm)) == (plan.degree, squarings + 1)


def _rotation_generator(theta, axis):
    """The antisymmetric 3x3 generator of the rotation by theta about axis."""
    x, y, z = theta * np.asarray(axis) / np.linalg.norm(axis)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def test_closed_form_rotation_matches_exponentials():
    # Rodrigues' formula against scipy and a 50-digit exponential of the
    # same float matrix, for a lone map and a stack, from the identity
    # through the small-angle and half-turn regimes to several turns; and
    # expm on lone real 3x3 generators of 1-norm 20, where scipy's Pade
    # exponential is off by up to 1e-12
    thetas = [0.0, 1e-9, 1.0, np.pi - 1e-6, 10.0]
    gens = np.stack([_rotation_generator(t, (0.3, -1.2, 0.7)) for t in thetas])
    stacked = expm_skew(gens)
    lone_gens = np.random.default_rng(11).standard_normal((20, 3, 3))
    lone_gens *= 20.0 / np.sum(np.abs(lone_gens), axis=-2).max(axis=-1)[:, None, None]
    mpmath.mp.dps = 50
    try:
        for theta, a, from_stack in zip(thetas, gens, stacked):
            want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
            lone = expm_skew(a)
            for got in (lone, from_stack):
                assert got.dtype == np.float64
                assert np.max(np.abs(got - want)) <= 2e-15, theta
                assert np.max(np.abs(got - scipy.linalg.expm(a))) <= 1e-13, theta
                assert np.max(np.abs(got.T @ got - np.eye(3))) <= 2e-15, theta
        for a in lone_gens:
            want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
            got = expm(a)
            assert got.dtype == np.float64
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    finally:
        mpmath.mp.dps = 15
    assert np.array_equal(expm_skew(np.zeros((3, 3))), np.eye(3))
    # the scale multiplies the generator; other sizes go to expm
    assert np.max(np.abs(expm_skew(gens[2], scale=0.5) - expm_skew(0.5 * gens[2]))) <= 1e-16
    f = structure_map(np.random.default_rng(3).standard_normal(8))
    assert np.array_equal(expm_skew(f, scale=0.2), expm(f, scale=0.2))


def test_closed_form_rotation_rejects_non_finite():
    for shape in ((3, 3), (5, 3, 3)):
        for entry in (np.nan, np.inf):
            a = np.zeros(shape)
            a[..., 0, 1] = entry
            with pytest.raises(NumericalError):
                expm_skew(a)


def test_expm_of_zero_stack_is_identity():
    plan, squarings = _taylor_choice(0.0)
    assert (plan.degree, squarings) == _reference_taylor_choice(0.0) == (1, 0)
    assert horner_choice(0.0) == _reference_horner_choice(0.0) == (1, 1)
    got = expm(np.zeros((5, 3, 3)))
    assert np.array_equal(got, np.broadcast_to(np.eye(3), (5, 3, 3)))
    assert np.max(np.abs(got - scipy.linalg.expm(np.zeros((5, 3, 3))))) <= 1e-13


def test_expm_rejects_non_finite(rng):
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NumericalError):
        expm(bad)
    with pytest.raises(NumericalError):
        expm_hermitian(bad)
    stack = rng.standard_normal((100, 4, 4)).astype(complex)
    for entry in (np.nan, np.inf, complex(0.0, np.nan)):
        stack[57, 2, 1] = entry
        with pytest.raises(NumericalError):
            expm(stack)


def test_expm_of_hermitian_generator_is_unitary(rng):
    for _ in range(5):
        h = random_hermitian(rng, 4)
        u = expm(h, scale=-1j * 0.8)
        assert np.max(np.abs(dag(u) @ u - np.eye(4))) <= 1e-10


def test_minus_i_commutator_preserves_hermiticity(rng):
    a = random_hermitian(rng, 3)
    s = commutator_super(a)
    x = random_hermitian(rng, 3)
    y = -1j * unvec(s @ vec(x))
    assert np.max(np.abs(y - dag(y))) <= 1e-12


def test_exponentiated_double_commutator_is_tp_and_hermiticity_preserving(rng):
    a = random_hermitian(rng, 2)
    gen = -0.3 * double_commutator_super(a, a)
    v = expm(gen)
    check_trace_preserving(v)
    x = random_hermitian(rng, 2)
    y = unvec(v @ vec(x))
    assert np.max(np.abs(y - dag(y))) <= 1e-12


def test_purity_values():
    assert purity(projector("0")) == pytest.approx(1.0, abs=1e-14)
    assert purity(np.eye(2) / 2.0) == pytest.approx(0.5, abs=1e-14)
    assert purity(np.diag([0.75, 0.25])) == pytest.approx(0.625, abs=1e-14)


def test_fidelity_pure_target_values():
    targ = projector("+")
    assert fidelity_pure_target(targ, targ) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_pure_target(projector("0"), projector("1")) == pytest.approx(0.0, abs=1e-12)
    assert fidelity_pure_target(targ, np.eye(2) / 2.0) == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_fidelity_rejects_mixed_target():
    with pytest.raises(ValueError):
        fidelity_pure_target(np.eye(2) / 2.0, projector("0"))


def test_trace_distance():
    assert trace_distance(projector("0"), projector("1")) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(projector("0"), projector("0")) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(projector("0"), np.eye(2) / 2.0) == pytest.approx(0.5, abs=1e-12)
    assert isinstance(trace_distance(projector("0"), projector("1")), float)
    # batched over leading axes, one pair at a time
    a = np.stack([projector("0"), projector("+"), np.eye(2) / 2.0])
    b = np.stack([projector("1"), projector("0"), projector("0")])
    got = trace_distance(a, b)
    assert got.shape == (3,)
    assert np.array_equal(got, [trace_distance(x, y) for x, y in zip(a, b)])


def test_bloch_vector():
    assert np.allclose(bloch_vector(projector("0")), [0.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose(bloch_vector(projector("+")), [1.0, 0.0, 0.0], atol=1e-14)


def test_ket_and_projector(rng):
    v = ket([3.0, 4.0j])
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    p = projector(v)
    assert purity(p) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        ket("psi")
    with pytest.raises(ValueError):
        ket([0.0, 0.0])


def test_pauli_string():
    assert np.array_equal(pauli_string("x"), SIGMA_X)
    zz = pauli_string("zz")
    assert zz.shape == (4, 4)
    assert np.allclose(zz, np.kron(SIGMA_Z, SIGMA_Z))
    with pytest.raises(ValueError):
        pauli_string("q")


def test_check_density_matrix_valid(rng):
    rho = random_density(rng, 3)
    check_density_matrix(rho)


def test_check_density_matrix_rejects_bad_states():
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
