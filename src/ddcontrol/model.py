"""Time grids, control pulses, Hamiltonian families and disorder statistics.

Conventions used throughout the package:

* states live on the node grid ``t_s = s * dt`` for ``s = 0 .. n_steps``;
* pulses live on the interleaved midpoint grid ``(t_{k-1} + t_k) / 2`` and
  are stored as real arrays of shape ``(M, n_steps)``, where entry
  ``[m, k-1]`` is the value of pulse ``m`` on step ``k`` (1-based step
  labels follow the time grid, array storage is 0-based);
* correlation kernels are symmetric, ``C[m, n](t, t') == C[n, m](t', t)``;
  a kernel evaluates its own formula on the lags ``t - t'`` of the grid;
* every range is checked once, where the value enters: the kernel's
  parameters when it is constructed, the ramps in :func:`update_shape`.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import NumericalError, check_hermitian, structure_map, to_coherence

BLACKMAN_A = 0.16

KERNEL_KINDS = ("zero", "stationary-gaussian", "white-noise")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with interleaved midpoints."""

    T: float
    n_steps: int

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError(f"final time must be positive, got {self.T}")
        if self.n_steps < 1:
            raise ValueError(f"need at least one step, got {self.n_steps}")

    @property
    def dt(self):
        return self.T / self.n_steps

    @property
    def nodes(self):
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def midpoints(self):
        nodes = self.nodes
        return (nodes[:-1] + nodes[1:]) / 2.0


def as_pulses(values, grid: TimeGrid, n_controls):
    """Coerce pulse samples to a finite real (n_controls, n_steps) array."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n_controls, grid.n_steps):
        raise ValueError(
            f"pulses must have shape ({n_controls}, {grid.n_steps}), got {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise NumericalError("pulse array has non-finite entries")
    return values


@dataclass(frozen=True)
class HamiltonianFamily:
    """Drift Hamiltonian plus a list of control Hamiltonians (all Hermitian).

    The family also forms, once and read-only, the real tables that every
    :class:`~ddcontrol.propagation.PropagatorCache` on it reads (n = d^2 - 1,
    ``F`` is :func:`~ddcontrol.linalg.structure_map`):

    * ``control_stack``: (M, d, d) stack of the controls;
    * ``control_coefficients``: (M, n) coherence vectors ``h_m`` of the
      controls;
    * ``drift_map``: (n, n) map ``F(h_0)`` of the drift;
    * ``control_maps``: (M, n, n) maps ``F(h_m)`` of the controls;
    * ``memory_rows``: (M n, n^2) rows of the step generator's memory
      term: row (m, e) is ``F(h_m) F(u_e)`` flattened, for the unit vector
      ``u_e``, so ``sum_m F(h_m) F(e_m)`` is one product of the
      coefficients ``e_m``, laid out as one row, with this table.
    """

    drift: np.ndarray
    controls: tuple
    control_stack: np.ndarray = field(init=False, repr=False, compare=False)
    control_coefficients: np.ndarray = field(init=False, repr=False, compare=False)
    drift_map: np.ndarray = field(init=False, repr=False, compare=False)
    control_maps: np.ndarray = field(init=False, repr=False, compare=False)
    memory_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        drift = check_hermitian(self.drift, name="drift Hamiltonian")
        controls = tuple(
            check_hermitian(h, name=f"control Hamiltonian {m}")
            for m, h in enumerate(self.controls)
        )
        if drift.shape[0] < 2:
            raise ValueError(f"need a Hilbert space of dimension at least 2, got {drift.shape[0]}")
        if not controls:
            raise ValueError("need at least one control Hamiltonian")
        for m, h in enumerate(controls):
            if h.shape != drift.shape:
                raise ValueError(
                    f"control Hamiltonian {m} has shape {h.shape}, drift has {drift.shape}"
                )
        stack = np.stack(controls)
        coefficients = to_coherence(stack)
        m, n = coefficients.shape
        control_maps = structure_map(coefficients)
        tables = {
            "control_stack": stack,
            "control_coefficients": coefficients,
            "drift_map": structure_map(to_coherence(drift)),
            "control_maps": control_maps,
            "memory_rows": (control_maps[:, None] @ structure_map(np.eye(n))).reshape(m * n, n * n),
        }
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "controls", controls)
        for name, table in tables.items():
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    @property
    def dim(self):
        return self.drift.shape[0]

    @property
    def n_controls(self):
        return len(self.controls)


@dataclass(frozen=True)
class CorrelationKernel:
    """Second-order statistics of the pulse perturbations.

    ``kind`` is one of :data:`KERNEL_KINDS`: 'zero', 'stationary-gaussian'
    or 'white-noise', the kinds the command line builds.  ``c0`` is the
    equal-time variance scale (the white-noise rate alpha for kind
    'white-noise'); ``t_corr`` is read only by kind 'stationary-gaussian'.
    A Gaussian kernel with ``c0 = 0`` stays that kind: it has no memory
    and samples zero perturbations, as the zero kernel does.  The ranges
    (a known kind, ``c0 >= 0``, a positive ``t_corr`` for a Gaussian) are
    checked at construction, so the tables evaluate ``c0 * exp(-lag**2 /
    t_corr**2)`` on their lags without checking again.  Cross
    correlations between different controls vanish.  The propagator cache
    and the sampler read a kernel only through ``n_controls``,
    ``is_zero``, :meth:`weight_table`, :attr:`local_weights` and
    :meth:`covariance`, so the tests' cross-correlated kernel in
    ``tests/reference.py`` is a small class with those members.
    """

    kind: str
    c0: float = 0.0
    t_corr: float = 0.0
    n_controls: int = 1

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.c0 < 0.0:
            raise ValueError(f"variance scale must be nonnegative, got {self.c0}")
        if self.kind == "stationary-gaussian" and self.t_corr <= 0.0:
            raise ValueError(
                f"correlation time must be positive, got {self.t_corr}; "
                "use kind 'white-noise' instead"
            )

    @classmethod
    def zero(cls, n_controls=1):
        return cls(kind="zero", n_controls=n_controls)

    @classmethod
    def gaussian(cls, c0, t_corr, n_controls=1):
        return cls(kind="stationary-gaussian", c0=c0, t_corr=t_corr, n_controls=n_controls)

    @classmethod
    def white_noise(cls, alpha, n_controls=1):
        return cls(kind="white-noise", c0=alpha, n_controls=n_controls)

    def _gaussian(self, t, t_prime):
        """The stationary Gaussian ``c0 * exp(-(t - t')**2 / t_corr**2)``,
        broadcast.  The lags form inside, as a temporary that the square and
        the division overwrite: a lag array passed in would stay alive
        beside them, one more full-size array in :meth:`covariance`."""
        return self.c0 * np.exp(-((t - t_prime) ** 2) / self.t_corr**2)

    @property
    def is_zero(self):
        return self.kind == "zero" or self.c0 == 0.0

    def weight_table(self, grid: TimeGrid):
        """Causal Riemann-sum weights on (node, midpoint) pairs, or ``None``.

        Returns the (M, n_steps+1, M, n_steps) table ``[p, j, n, l] =
        C[p, n](t_j, mid_l)`` for the midpoints in node j's past, l < j, and
        exactly 0 for l >= j: the weights of the memory integrals' Riemann
        sums.  The table is C-contiguous and in the order
        :class:`~ddcontrol.propagation.PropagatorCache` keeps, so the cache
        holds it as it is.  Returns ``None`` when no weight in the past of
        any node is nonzero: for the zero kernel, for a delta-correlated
        kernel, which has no finite value on the grid and enters through
        :attr:`local_weights` instead, and for a Gaussian kernel whose past
        weights vanish or underflow.

        On the uniform grid a stationary kernel depends only on the lag
        ``t_j - mid_l = (j - l - 1/2) dt``, so the kernel evaluates its
        Gaussian once on the N past lags of a 2N-lag vector whose other
        half is zero, and every row of the table is a forward-strided window
        of that vector; past entries agree with the kernel evaluated at the
        grid's own nodes and midpoints to within ``1e-14 c0``.

        Every call returns a fresh array that the caller owns and may
        modify.
        """
        if self.kind != "stationary-gaussian":
            return None
        m, n = self.n_controls, grid.n_steps
        # lags[i] = (n - 1/2 - i) dt: the lags i < n are the past ones,
        # j - l - 1/2 > 0, and row j of the table reads the lags
        # n - j .. 2n - 1 - j for l = 0 .. n-1, a window of vals that
        # starts one entry earlier for each later row
        lags = ((n - 0.5) - np.arange(n)) * grid.dt
        vals = np.zeros(2 * n)
        vals[:n] = self._gaussian(lags, 0.0)
        if not vals.any():
            return None
        size = vals.itemsize
        rows = np.ndarray((n + 1, n), buffer=vals, offset=n * size, strides=(-size, size))
        # one write of every entry: a zeroed allocation would be written twice
        table = np.empty((m, n + 1, m, n))
        for i in range(m):
            table[i, :, :i] = 0.0
            table[i, :, i] = rows
            table[i, :, i + 1 :] = 0.0
        return table

    @property
    def local_weights(self):
        """(M, M) weights of the delta-correlated part of the kernel.

        A kernel ``alpha * delta_mn * delta(t - t')`` puts half of its
        delta inside the memory integral that ends at t, which adds the
        pulse-independent term ``(alpha / 2) delta_mn H_n`` to ``eta`` at
        every node after the first; the step generator then carries the
        Markovian double commutator ``-(alpha / 2) sum_m [H_m, [H_m, rho]]``
        exactly.  The weights are zero for kernels without such a part.
        """
        w = np.zeros((self.n_controls, self.n_controls))
        if self.kind == "white-noise":
            np.fill_diagonal(w, 0.5 * self.c0)
        return w

    def covariance(self, grid: TimeGrid):
        """Covariance of the stacked pulse perturbations on the midpoint grid.

        Returns an (M * n_steps, M * n_steps) matrix ordered control-major:
        index m * n_steps + k corresponds to pulse m at midpoint k.
        """
        m, n = self.n_controls, grid.n_steps
        cov = np.zeros((m * n, m * n))
        if self.kind == "stationary-gaussian":
            block = self._gaussian(grid.midpoints[:, None], grid.midpoints[None, :])
            for i in range(m):
                cov[i * n : (i + 1) * n, i * n : (i + 1) * n] = block
        elif self.kind == "white-noise":
            np.fill_diagonal(cov, self.c0 / grid.dt)
        return cov


def _blackman(t, t0, t1):
    """Blackman window on [t0, t1]; zero at both ends, one in the middle."""
    x = (t - t0) / (t1 - t0)
    a = BLACKMAN_A
    return (1.0 - a) / 2.0 - 0.5 * np.cos(2.0 * np.pi * x) + (a / 2.0) * np.cos(4.0 * np.pi * x)


def update_shape(grid: TimeGrid, t_on, t_off):
    """Pulse-update weight on the midpoint grid.

    Rises as half a Blackman window over [0, t_on], stays at 1, and falls
    over [T - t_off, T]; with t_on = t_off = 0 the shape is identically 1,
    and a zero ramp on one side leaves that side at 1.  The end weights pin
    the pulse boundary values during optimization.  The ramps are checked
    here, nonnegative and together at most T, so every midpoint a ramp
    selects lies inside its window.
    """
    if t_on < 0.0 or t_off < 0.0:
        raise ValueError("ramp durations must be nonnegative")
    if t_on + t_off > grid.T:
        raise ValueError(
            f"ramps overlap: t_on + t_off = {t_on + t_off} exceeds T = {grid.T}"
        )
    t = grid.midpoints
    s = np.ones(grid.n_steps)
    rising = t < t_on
    s[rising] = _blackman(t[rising], 0.0, 2.0 * t_on)
    falling = t > grid.T - t_off
    s[falling] = _blackman(t[falling], grid.T - 2.0 * t_off, grid.T)
    return s


def sample_perturbations(kernel: CorrelationKernel, grid: TimeGrid, count, seed):
    """Draw zero-mean Gaussian pulse perturbations with the kernel's covariance.

    Returns an array of shape (count, M, n_steps).  Sampling is
    bit-reproducible for a fixed seed.  To parallelize, split ``count`` over
    child streams spawned from ``np.random.SeedSequence(seed)`` and
    concatenate in spawn order.  The children draw other perturbations than
    ``default_rng(seed)`` does, so the split gives a different, equally
    valid sample, not this function's serial result.
    """
    if count < 1:
        raise ValueError(f"need at least one realization, got {count}")
    m, n = kernel.n_controls, grid.n_steps
    rng = np.random.default_rng(seed)
    if kernel.is_zero:
        return np.zeros((count, m, n))
    cov = kernel.covariance(grid)
    # The quasistatic kernel is numerically near rank-1: jitter before Cholesky.
    jitter = 1e-12 * max(np.max(np.diag(cov)), np.finfo(float).tiny)
    try:
        chol = np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
    except np.linalg.LinAlgError:
        smallest = float(np.min(np.linalg.eigvalsh(cov)))
        raise NumericalError(
            f"perturbation covariance is not positive semidefinite even after "
            f"jitter; smallest eigenvalue {smallest:.6e}"
        ) from None
    draws = rng.standard_normal((count, m * n))
    return (draws @ chol.T).reshape(count, m, n)
