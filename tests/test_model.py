import numpy as np
import pytest

from reference import hamiltonian_at, hamiltonian_stack
from ddcontrol.linalg import NumericalError, SIGMA_X, SIGMA_Y, SIGMA_Z, from_coherence
from ddcontrol.model import (
    CorrelationKernel,
    HamiltonianFamily,
    TimeGrid,
    as_pulses,
    blackman,
    gaussian_kernel,
    sample_perturbations,
    update_shape,
)
from ddcontrol.propagation import build_cache


def test_grid_spacing_and_interleaving():
    grid = TimeGrid(T=10.0, n_steps=100)
    assert grid.dt == pytest.approx(0.1)
    assert len(grid.nodes) == 101
    assert len(grid.midpoints) == 100
    assert np.allclose(np.diff(grid.nodes), grid.dt)
    # midpoints sit exactly between consecutive nodes
    assert np.array_equal(grid.midpoints, (grid.nodes[:-1] + grid.nodes[1:]) / 2.0)


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        TimeGrid(T=-1.0, n_steps=10)
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, n_steps=0)


def test_as_pulses_validation():
    grid = TimeGrid(T=1.0, n_steps=4)
    p = as_pulses(np.zeros(4), grid)
    assert p.shape == (1, 4)
    with pytest.raises(ValueError):
        as_pulses(np.zeros((1, 5)), grid)
    with pytest.raises(ValueError):
        as_pulses(np.zeros((2, 4)), grid, n_controls=1)
    with pytest.raises(NumericalError):
        as_pulses(np.full(4, np.nan), grid)


def test_hamiltonian_family_validation():
    fam = HamiltonianFamily(drift=SIGMA_Z, controls=(SIGMA_X,))
    assert fam.dim == 2 and fam.n_controls == 1
    with pytest.raises(ValueError):
        HamiltonianFamily(drift=np.array([[0.0, 1.0], [0.0, 0.0]]), controls=(SIGMA_X,))
    with pytest.raises(ValueError):
        HamiltonianFamily(drift=SIGMA_Z, controls=())
    with pytest.raises(ValueError):
        HamiltonianFamily(drift=SIGMA_Z, controls=(np.eye(3),))


def test_hamiltonian_family_stack():
    fam = HamiltonianFamily(drift=SIGMA_Z, controls=(SIGMA_X,))
    pulses = np.array([[0.0, 1.0, -2.0]])
    h = hamiltonian_stack(fam, pulses)
    assert np.allclose(h[0], SIGMA_Z)
    assert np.allclose(h[1], SIGMA_Z + SIGMA_X)
    assert np.allclose(h[2], SIGMA_Z - 2 * SIGMA_X)
    assert np.allclose(hamiltonian_at(fam, [1.0]), SIGMA_Z + SIGMA_X)


def test_gaussian_kernel_values():
    assert gaussian_kernel(3.0, 3.0, 0.01, 100.0) == pytest.approx(0.01, abs=1e-18)
    assert gaussian_kernel(0.0, 2.0, 0.5, 2.0) == pytest.approx(0.5 / np.e, rel=1e-14)
    assert gaussian_kernel(1.0, 9.0, 0.0, 3.0) == 0.0
    assert gaussian_kernel(1.0, 4.0, 0.2, 5.0) == gaussian_kernel(4.0, 1.0, 0.2, 5.0)
    with pytest.raises(ValueError):
        gaussian_kernel(0.0, 1.0, 0.01, 0.0)
    with pytest.raises(ValueError):
        gaussian_kernel(0.0, 1.0, -0.1, 1.0)


def test_blackman_window_values():
    assert blackman(0.0, 0.0, 4.0) == pytest.approx(0.0, abs=1e-15)
    assert blackman(2.0, 0.0, 4.0) == pytest.approx(1.0, abs=1e-15)
    assert blackman(4.0, 0.0, 4.0) == pytest.approx(0.0, abs=1e-15)
    # direct formula evaluation as oracle
    t, t0, t1 = 1.95, 0.0, 4.0
    x = (t - t0) / (t1 - t0)
    ref = 0.42 - 0.5 * np.cos(2 * np.pi * x) + 0.08 * np.cos(4 * np.pi * x)
    assert blackman(t, t0, t1) == pytest.approx(ref, rel=1e-15)
    with pytest.raises(ValueError):
        blackman(4.5, 0.0, 4.0)
    with pytest.raises(ValueError):
        blackman(1.0, 2.0, 2.0)


def test_update_shape_degenerate_ramps_is_one():
    grid = TimeGrid(T=10.0, n_steps=100)
    s = update_shape(grid, 0.0, 0.0)
    assert np.array_equal(s, np.ones(100))


def test_update_shape_profile():
    grid = TimeGrid(T=10.0, n_steps=100)
    s = update_shape(grid, 2.0, 2.0)
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    # midpoint nearest t = 2 sits at the half-window peak of the ramp
    k_near = int(np.argmin(np.abs(grid.midpoints - 2.0)))
    assert s[k_near] >= 0.99
    # midpoint nearest t = 0.05 carries a tiny weight
    assert 0.0 < s[0] < 0.02
    # plateau
    mid = (grid.midpoints >= 2.0) & (grid.midpoints <= 8.0)
    assert np.all(s[mid] == 1.0)


def test_update_shape_endpoint_bound():
    grid = TimeGrid(T=10.0, n_steps=100)
    s = update_shape(grid, 2.0, 2.0)
    bound = blackman(grid.dt / 2.0, 0.0, 4.0)
    assert s[0] <= bound + 1e-15
    assert s[-1] <= blackman(10.0 - grid.dt / 2.0, 6.0, 10.0) + 1e-15


def test_update_shape_rejects_overlapping_ramps():
    grid = TimeGrid(T=1.0, n_steps=10)
    with pytest.raises(ValueError):
        update_shape(grid, 0.6, 0.6)
    with pytest.raises(ValueError):
        update_shape(grid, -0.1, 0.0)


def test_kernel_kinds_and_validation():
    CorrelationKernel.zero()
    CorrelationKernel.gaussian(0.01, 100.0)
    CorrelationKernel.white_noise(0.1)
    with pytest.raises(ValueError):
        CorrelationKernel.gaussian(0.01, 0.0)
    with pytest.raises(ValueError):
        CorrelationKernel.gaussian(-0.01, 1.0)
    with pytest.raises(ValueError):
        CorrelationKernel(kind="banana")


def test_kernel_weight_table_shapes_and_symmetry():
    grid = TimeGrid(T=10.0, n_steps=50)
    kern = CorrelationKernel.gaussian(0.01, 100.0)
    w = kern.weight_table(grid)
    assert w.shape == (1, 1, 51, 50)
    cov = kern.covariance(grid)
    assert np.array_equal(cov, cov.T)
    zero = CorrelationKernel.zero().weight_table(grid)
    assert np.max(np.abs(zero)) == 0.0


@pytest.mark.parametrize("n", [1, 2, 7, 100, 400])
def test_gaussian_weight_table_matches_elementwise_kernel(n):
    # the table filled from the kernel on the 2 N lags against the kernel
    # evaluated at every (node, midpoint) pair of the grid, over final times
    # and correlation times from 0.05 T to 1e3 T, on two controls
    for big_t in (0.3, 1.0, 10.0, 137.0):
        grid = TimeGrid(T=big_t, n_steps=n)
        for ratio in (0.05, 0.2, 1.0, 5.0, 1e3):
            c0 = 0.037
            kern = CorrelationKernel.gaussian(c0, ratio * big_t, n_controls=2)
            want = gaussian_kernel(grid.nodes[:, None], grid.midpoints[None, :], c0, kern.t_corr)
            table = kern.weight_table(grid)
            assert table.shape == (2, 2, n + 1, n)
            for i in range(2):
                assert np.max(np.abs(table[i, i] - want)) <= 1e-14 * c0
            assert not np.any(table[0, 1]) and not np.any(table[1, 0])


def test_weight_table_returns_fresh_arrays():
    # callers own the table: writing to it changes neither the kernel nor
    # the next table
    grid = TimeGrid(T=2.0, n_steps=6)
    gauss = CorrelationKernel.gaussian(0.1, 1.0)
    t = np.exp(-((grid.nodes[:, None] - grid.midpoints[None, :]) ** 2))[None, None]
    m = np.exp(-((grid.midpoints[:, None] - grid.midpoints[None, :]) ** 2))[None, None]
    tab = CorrelationKernel.tabulated(t, m)
    for kern in (gauss, tab, CorrelationKernel.zero()):
        first = kern.weight_table(grid)
        again = first.copy()
        first *= 0.0
        assert np.array_equal(kern.weight_table(grid), again)


def test_quasistatic_weight_floor():
    # t_corr = 10 T keeps every kernel entry above C0 * exp(-0.01)
    grid = TimeGrid(T=10.0, n_steps=100)
    kern = CorrelationKernel.gaussian(0.01, 100.0)
    w = kern.weight_table(grid)[0, 0]
    assert np.min(w) >= 0.01 * np.exp(-0.01)
    cov = kern.covariance(grid)
    assert np.min(cov) >= 0.01 * np.exp(-0.01)


def test_white_noise_tables():
    grid = TimeGrid(T=1.0, n_steps=10)
    kern = CorrelationKernel.white_noise(0.2)
    cov = kern.covariance(grid)
    assert np.allclose(cov, np.eye(10) * 0.2 / grid.dt)
    # the delta kernel has no values on the grid: it enters eta as the exact
    # local term (alpha / 2) delta_mn H_n at every node after the first
    two = CorrelationKernel.white_noise(0.2, n_controls=2)
    assert np.count_nonzero(two.weight_table(grid)) == 0
    fam = HamiltonianFamily(drift=SIGMA_Z, controls=(SIGMA_X, SIGMA_Y))
    cache = build_cache(fam, grid, np.linspace(-1.0, 1.0, 20).reshape(2, 10), two)
    # E_p = sum_n eta_pn, kept as coefficients
    expected = np.array([0.1 * SIGMA_X, 0.1 * SIGMA_Y])
    eta = from_coherence(cache.eta)
    assert np.array_equal(eta[:, 1:], np.broadcast_to(expected[:, None], (2, 10, 2, 2)))
    assert np.count_nonzero(eta[:, 0]) == 0


def test_tabulated_kernel_symmetry_check():
    node_mid = np.zeros((1, 1, 4, 3))
    good = np.zeros((1, 1, 3, 3))
    CorrelationKernel.tabulated(node_mid, good)
    bad = good.copy()
    bad[0, 0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        CorrelationKernel.tabulated(node_mid, bad)


def test_sampler_zero_kernel_returns_zeros():
    grid = TimeGrid(T=10.0, n_steps=20)
    draws = sample_perturbations(CorrelationKernel.zero(), grid, 5, seed=1)
    assert draws.shape == (5, 1, 20)
    assert np.max(np.abs(draws)) == 0.0


def test_sampler_is_bit_reproducible():
    grid = TimeGrid(T=10.0, n_steps=30)
    kern = CorrelationKernel.gaussian(0.01, 100.0)
    a = sample_perturbations(kern, grid, 100, seed=42)
    b = sample_perturbations(kern, grid, 100, seed=42)
    assert np.array_equal(a, b)
    c = sample_perturbations(kern, grid, 100, seed=43)
    assert not np.array_equal(a, c)


def test_sampler_mean_is_small():
    # standard-error bound: |mean| <= 3 sqrt(C0 / count) per component
    grid = TimeGrid(T=10.0, n_steps=100)
    kern = CorrelationKernel.gaussian(0.01, 100.0)
    draws = sample_perturbations(kern, grid, 4000, seed=7)
    mean = draws.mean(axis=0)
    assert np.max(np.abs(mean)) <= 3.0 * np.sqrt(0.01 / 4000)


def test_sampler_covariance_matches_kernel():
    grid = TimeGrid(T=10.0, n_steps=40)
    c0, t_corr = 0.01, 100.0
    kern = CorrelationKernel.gaussian(c0, t_corr)
    draws = sample_perturbations(kern, grid, 100_000, seed=3)[:, 0, :]
    emp = draws.T @ draws / draws.shape[0]
    ref = gaussian_kernel(grid.midpoints[:, None], grid.midpoints[None, :], c0, t_corr)
    diag = np.diag(emp) / np.diag(ref)
    assert np.max(np.abs(diag - 1.0)) <= 0.05
    assert np.max(np.abs(emp - ref)) <= 0.05 * c0


def test_sampler_rejects_indefinite_covariance():
    node_mid = np.zeros((1, 1, 3, 2))
    mid_mid = np.array([[[[1.0, 2.0], [2.0, 1.0]]]])  # eigenvalues 3, -1
    kern = CorrelationKernel.tabulated(node_mid, mid_mid)
    grid = TimeGrid(T=1.0, n_steps=2)
    with pytest.raises(NumericalError, match="eigenvalue"):
        sample_perturbations(kern, grid, 10, seed=0)


def test_sampler_rejects_bad_count():
    grid = TimeGrid(T=1.0, n_steps=2)
    with pytest.raises(ValueError):
        sample_perturbations(CorrelationKernel.zero(), grid, 0, seed=0)
