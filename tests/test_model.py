import numpy as np
import pytest

from reference import (
    TabulatedKernel,
    blackman_window,
    gaussian_correlation,
    hamiltonian_at,
    hamiltonian_stack,
)
from ddcontrol.linalg import NumericalError, SIGMA_X, SIGMA_Y, SIGMA_Z, from_coherence
from ddcontrol.model import (
    CorrelationKernel,
    HamiltonianFamily,
    TimeGrid,
    as_pulses,
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
    p = as_pulses([[0.0, 1.0, 2.0, 3.0]], grid, 1)
    assert p.shape == (1, 4) and p.dtype == float
    with pytest.raises(ValueError, match=r"\(1, 4\), got \(4,\)"):
        as_pulses(np.zeros(4), grid, 1)
    with pytest.raises(ValueError):
        as_pulses(np.zeros((1, 5)), grid, 1)
    with pytest.raises(ValueError):
        as_pulses(np.zeros((2, 4)), grid, 1)
    with pytest.raises(NumericalError):
        as_pulses(np.full((1, 4), np.nan), grid, 1)


def test_hamiltonian_family_validation():
    fam = HamiltonianFamily(drift=SIGMA_Z, controls=(SIGMA_X,))
    assert fam.dim == 2 and fam.n_controls == 1
    with pytest.raises(ValueError):
        HamiltonianFamily(drift=np.array([[0.0, 1.0], [0.0, 0.0]]), controls=(SIGMA_X,))
    with pytest.raises(ValueError):
        HamiltonianFamily(drift=SIGMA_Z, controls=())
    with pytest.raises(ValueError):
        HamiltonianFamily(drift=SIGMA_Z, controls=(np.eye(3),))
    with pytest.raises(NumericalError, match="drift Hamiltonian has non-finite entries"):
        HamiltonianFamily(drift=np.diag([np.inf, -1.0]), controls=(SIGMA_X,))


def test_hamiltonian_family_stack():
    fam = HamiltonianFamily(drift=SIGMA_Z, controls=(SIGMA_X,))
    pulses = np.array([[0.0, 1.0, -2.0]])
    h = hamiltonian_stack(fam, pulses)
    assert np.allclose(h[0], SIGMA_Z)
    assert np.allclose(h[1], SIGMA_Z + SIGMA_X)
    assert np.allclose(h[2], SIGMA_Z - 2 * SIGMA_X)
    assert np.allclose(hamiltonian_at(fam, [1.0]), SIGMA_Z + SIGMA_X)


def test_gaussian_kernel_values():
    # the kernel's tables at known lags: c0 at lag 0, c0 / e at lag t_corr,
    # c0 exp(-1/4) at lag t_corr / 2 and c0 exp(-9/4) at lag 3 t_corr / 2
    grid = TimeGrid(T=4.0, n_steps=2)
    cov = CorrelationKernel.gaussian(0.5, 2.0).covariance(grid)
    assert np.array_equal(np.diag(cov), [0.5, 0.5])
    assert cov[0, 1] == cov[1, 0] == pytest.approx(0.5 / np.e, rel=1e-14)
    table = CorrelationKernel.gaussian(0.5, 2.0).weight_table(grid)[0, :, 0]
    assert table[1, 0] == table[2, 1] == pytest.approx(0.5 * np.exp(-0.25), rel=1e-14)
    assert table[2, 0] == pytest.approx(0.5 * np.exp(-2.25), rel=1e-14)
    assert not np.any(CorrelationKernel.gaussian(0.0, 3.0).covariance(grid))


def test_blackman_window_values():
    # each ramp is half a Blackman window over twice its duration, against
    # the window's formula, with a zero ramp on either side and a ramp
    # over all of [0, T]; the rest of the shape is exactly 1
    grid = TimeGrid(T=10.0, n_steps=100)
    t = grid.midpoints
    for t_on, t_off in ((2.0, 2.0), (2.0, 0.0), (0.0, 2.0), (10.0, 0.0), (0.0, 10.0)):
        s = update_shape(grid, t_on, t_off)
        rising, falling = t < t_on, t > grid.T - t_off
        want = np.ones(grid.n_steps)
        want[rising] = blackman_window(t[rising], 0.0, 2.0 * t_on)
        want[falling] = blackman_window(t[falling], grid.T - 2.0 * t_off, grid.T)
        assert np.max(np.abs(s - want)) <= 1e-15, (t_on, t_off)
        assert np.all(s[~(rising | falling)] == 1.0)
        assert np.all(s[rising] < 1.0) and np.all(s[falling] < 1.0)


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
    bound = blackman_window(grid.dt / 2.0, 0.0, 4.0)
    assert s[0] <= bound + 1e-15
    assert s[-1] <= blackman_window(10.0 - grid.dt / 2.0, 6.0, 10.0) + 1e-15


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


def _future(grid):
    """(N+1, N) mask of the midpoints at or after each node, l >= j."""
    return np.arange(grid.n_steps)[None, :] >= np.arange(grid.n_steps + 1)[:, None]


def test_kernel_weight_table_shapes_and_symmetry():
    grid = TimeGrid(T=10.0, n_steps=50)
    kern = CorrelationKernel.gaussian(0.01, 100.0)
    w = kern.weight_table(grid)
    assert w.shape == (1, 51, 1, 50)
    assert np.all(w[0, :, 0][_future(grid)] == 0.0)
    assert np.all(w[0, :, 0][~_future(grid)] > 0.0)
    cov = kern.covariance(grid)
    assert np.array_equal(cov, cov.T)
    # kernels with no weight in any node's past give no table
    for none in (
        CorrelationKernel.zero(),
        CorrelationKernel.zero(n_controls=2),
        CorrelationKernel.white_noise(0.2),
        CorrelationKernel.gaussian(0.0, 1.0),
        CorrelationKernel.gaussian(0.1, 1e-4, n_controls=2),
    ):
        assert none.weight_table(grid) is None


@pytest.mark.parametrize("n", [1, 2, 7, 100, 400])
def test_gaussian_weight_table_matches_elementwise_kernel(n):
    # the table filled from the kernel on the 2 N lags against the kernel
    # evaluated at every (node, midpoint) pair of the grid, over final times
    # and correlation times from 0.05 T to 1e3 T, on two controls: the past
    # entries within 1e-14 c0, the others exactly zero
    for big_t in (0.3, 1.0, 10.0, 137.0):
        grid = TimeGrid(T=big_t, n_steps=n)
        future = _future(grid)
        for ratio in (0.05, 0.2, 1.0, 5.0, 1e3):
            c0 = 0.037
            kern = CorrelationKernel.gaussian(c0, ratio * big_t, n_controls=2)
            want = gaussian_correlation(grid.nodes[:, None], grid.midpoints[None, :], c0, kern.t_corr)
            table = kern.weight_table(grid)
            assert table.shape == (2, n + 1, 2, n)
            for i in range(2):
                assert np.max(np.abs(table[i, :, i] - want)[~future]) <= 1e-14 * c0
                assert np.all(table[i, :, i][future] == 0.0)
            assert not np.any(table[0, :, 1]) and not np.any(table[1, :, 0])
            # laid out in the cache's (M, N+1, M, N) order
            assert table.flags.c_contiguous


def test_weight_table_returns_fresh_arrays():
    # callers own the table: writing to it changes neither the kernel nor
    # the next table
    grid = TimeGrid(T=2.0, n_steps=6)
    kern = CorrelationKernel.gaussian(0.1, 1.0, n_controls=2)
    first = kern.weight_table(grid)
    again = first.copy()
    first *= 0.0
    assert np.array_equal(kern.weight_table(grid), again)
    assert not np.shares_memory(kern.weight_table(grid), kern.weight_table(grid))


def test_quasistatic_weight_floor():
    # t_corr = 10 T keeps every kernel entry above C0 * exp(-0.01); the
    # table holds them in each node's past and zeros after it
    grid = TimeGrid(T=10.0, n_steps=100)
    kern = CorrelationKernel.gaussian(0.01, 100.0)
    w = kern.weight_table(grid)[0, :, 0]
    assert np.min(w[~_future(grid)]) >= 0.01 * np.exp(-0.01)
    assert np.all(w[_future(grid)] == 0.0)
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
    assert two.weight_table(grid) is None
    fam = HamiltonianFamily(drift=SIGMA_Z, controls=(SIGMA_X, SIGMA_Y))
    cache = build_cache(fam, grid, np.linspace(-1.0, 1.0, 20).reshape(2, 10), two)
    # E_p = sum_n eta_pn, kept as coefficients
    expected = np.array([0.1 * SIGMA_X, 0.1 * SIGMA_Y])
    eta = from_coherence(cache.eta)
    assert np.array_equal(eta[:, 1:], np.broadcast_to(expected[:, None], (2, 10, 2, 2)))
    assert np.count_nonzero(eta[:, 0]) == 0


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
    ref = gaussian_correlation(grid.midpoints[:, None], grid.midpoints[None, :], c0, t_corr)
    diag = np.diag(emp) / np.diag(ref)
    assert np.max(np.abs(diag - 1.0)) <= 0.05
    assert np.max(np.abs(emp - ref)) <= 0.05 * c0


def test_sampler_jitter_sets_the_null_space_floor():
    # the stock kernel's covariance is numerically near rank 5: along its
    # eigenvectors with eigenvalues below 1e-12 c0 the sets carry only the
    # Cholesky jitter, 1e-12 c0 on the diagonal, so their RMS there is
    # sqrt(1e-12 c0) = 1e-7 (a jitter of 1e-6 c0 would give 1e-4)
    grid = TimeGrid(T=10.0, n_steps=100)
    c0 = 0.01
    kern = CorrelationKernel.gaussian(c0, 100.0)
    w, v = np.linalg.eigh(kern.covariance(grid))
    null = v[:, w < 1e-12 * c0]
    assert null.shape[1] >= 90
    draws = sample_perturbations(kern, grid, 400, seed=5)[:, 0, :]
    rms = np.sqrt(np.mean((draws @ null) ** 2))
    assert 0.5 <= rms / np.sqrt(1e-12 * c0) <= 2.0


def test_sampler_rejects_indefinite_covariance():
    # amplitudes with eigenvalues 3 and -1 under a correlation time far
    # beyond T: the covariance has an eigenvalue near -2
    kern = TabulatedKernel([[1.0, 2.0], [2.0, 1.0]], 100.0)
    grid = TimeGrid(T=1.0, n_steps=2)
    with pytest.raises(NumericalError, match="eigenvalue"):
        sample_perturbations(kern, grid, 10, seed=0)


def test_sampler_rejects_bad_count():
    grid = TimeGrid(T=1.0, n_steps=2)
    with pytest.raises(ValueError):
        sample_perturbations(CorrelationKernel.zero(), grid, 0, seed=0)
