"""Time grids, control pulses, Hamiltonian families and disorder statistics.

Conventions used throughout the package:

* states live on the node grid ``t_s = s * dt`` for ``s = 0 .. n_steps``;
* pulses live on the interleaved midpoint grid ``(t_{k-1} + t_k) / 2`` and
  are stored as real arrays of shape ``(M, n_steps)``, where entry
  ``[m, k-1]`` is the value of pulse ``m`` on step ``k`` (1-based step
  labels follow the time grid, array storage is 0-based);
* correlation kernels are symmetric, ``C[m, n](t, t') == C[n, m](t', t)``.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import NumericalError, check_hermitian

BLACKMAN_A = 0.16

KERNEL_KINDS = ("zero", "stationary-gaussian", "white-noise", "tabulated")


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


def as_pulses(values, grid: TimeGrid, n_controls=None):
    """Coerce pulse samples to a finite real (M, n_steps) array.

    A 1-D array is interpreted as a single control pulse.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[None, :]
    if values.ndim != 2 or values.shape[1] != grid.n_steps:
        raise ValueError(
            f"pulses must have shape (M, {grid.n_steps}), got {values.shape}"
        )
    if n_controls is not None and values.shape[0] != n_controls:
        raise ValueError(
            f"expected {n_controls} control pulses, got {values.shape[0]}"
        )
    if not np.all(np.isfinite(values)):
        raise NumericalError("pulse array has non-finite entries")
    return values


@dataclass(frozen=True)
class HamiltonianFamily:
    """Drift Hamiltonian plus a list of control Hamiltonians (all Hermitian)."""

    drift: np.ndarray
    controls: tuple
    # (M, d, d) read-only stack of the controls, formed once
    control_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        drift = check_hermitian(self.drift, name="drift Hamiltonian")
        controls = tuple(
            check_hermitian(h, name=f"control Hamiltonian {m}")
            for m, h in enumerate(self.controls)
        )
        if not controls:
            raise ValueError("need at least one control Hamiltonian")
        for m, h in enumerate(controls):
            if h.shape != drift.shape:
                raise ValueError(
                    f"control Hamiltonian {m} has shape {h.shape}, drift has {drift.shape}"
                )
        stack = np.stack(controls)
        stack.flags.writeable = False
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "control_stack", stack)

    @property
    def dim(self):
        return self.drift.shape[0]

    @property
    def n_controls(self):
        return len(self.controls)


def gaussian_kernel(t, t_prime, c0, t_corr):
    """Stationary Gaussian correlation c0 * exp(-(t - t')**2 / t_corr**2)."""
    if t_corr <= 0.0:
        raise ValueError(
            f"correlation time must be positive, got {t_corr}; "
            "use the white-noise kernel for the vanishing-correlation limit"
        )
    if c0 < 0.0:
        raise ValueError(f"variance scale must be nonnegative, got {c0}")
    t = np.asarray(t, dtype=float)
    t_prime = np.asarray(t_prime, dtype=float)
    return c0 * np.exp(-((t - t_prime) ** 2) / t_corr**2)


@dataclass(frozen=True)
class CorrelationKernel:
    """Second-order statistics of the pulse perturbations.

    ``kind`` is one of 'zero', 'stationary-gaussian', 'white-noise' or
    'tabulated'.  ``c0`` is the equal-time variance scale (the white-noise
    rate alpha for kind 'white-noise').  Cross correlations between
    different controls vanish for the built-in kinds; a tabulated kernel
    may supply arbitrary symmetric M x M structure.
    """

    kind: str
    c0: float = 0.0
    t_corr: float = 0.0
    n_controls: int = 1
    node_mid_table: np.ndarray = field(default=None, repr=False)
    mid_mid_table: np.ndarray = field(default=None, repr=False)

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

    @classmethod
    def tabulated(cls, node_mid_table, mid_mid_table):
        """Kernel given by explicit grid tables.

        ``node_mid_table[m, n, j, l] = C[m, n](t_j, mid_l)`` feeds the memory
        integrals; ``mid_mid_table[m, n, j, l] = C[m, n](mid_j, mid_l)`` is
        the sampling covariance.  The midpoint table must be symmetric under
        ``(m, j) <-> (n, l)``; it is symmetrized after a tolerance check.
        """
        node_mid = np.asarray(node_mid_table, dtype=float)
        mid_mid = np.asarray(mid_mid_table, dtype=float)
        if node_mid.ndim != 4 or mid_mid.ndim != 4:
            raise ValueError("tabulated kernel tables must be 4-dimensional (M, M, ., .)")
        m = node_mid.shape[0]
        if node_mid.shape[1] != m or mid_mid.shape[:2] != (m, m):
            raise ValueError("tabulated kernel tables must share the leading (M, M) axes")
        swapped = np.swapaxes(np.swapaxes(mid_mid, 0, 1), 2, 3)
        scale = max(np.max(np.abs(mid_mid)), 1.0)
        if np.max(np.abs(mid_mid - swapped)) > 1e-12 * scale:
            raise ValueError("tabulated midpoint table violates kernel symmetry")
        mid_mid = 0.5 * (mid_mid + swapped)
        return cls(
            kind="tabulated",
            n_controls=m,
            node_mid_table=node_mid,
            mid_mid_table=mid_mid,
        )

    @property
    def is_zero(self):
        return self.kind == "zero" or (self.kind != "tabulated" and self.c0 == 0.0)

    def weight_table(self, grid: TimeGrid):
        """C evaluated on (node, midpoint) pairs: shape (M, M, n_steps+1, n_steps).

        This is the table consumed by the Riemann sums of the memory
        integrals; the first time argument runs over nodes, the second over
        midpoints.  Entries with the midpoint after the node are included.
        A delta-correlated kernel has no finite value on the grid and
        enters through :attr:`local_weights` instead, so its table is zero.

        On the uniform grid a stationary kernel depends only on the lag
        ``t_j - mid_l = (j - l - 1/2) dt``, so the Gaussian kernel is
        evaluated once on the 2 N lags and the table filled from a strided
        view of them; entries agree with the kernel evaluated at the grid's
        own nodes and midpoints to within ``1e-14 c0``.

        Every call returns a fresh array that the caller owns and may
        modify; :class:`~ddcontrol.propagation.PropagatorCache` masks its
        future entries in place.
        """
        m, n = self.n_controls, grid.n_steps
        table = np.zeros((m, m, n + 1, n))
        if self.kind in ("zero", "white-noise"):
            return table
        if self.kind == "stationary-gaussian":
            # lags[i] = (i - n + 1/2) dt runs over j - l - 1/2 = -(n - 1/2) .. n - 1/2,
            # and row j of the table reads lags j + n - 1 - l for l = 0 .. n-1
            lags = (np.arange(2 * n) - (n - 0.5)) * grid.dt
            vals = gaussian_kernel(lags, 0.0, self.c0, self.t_corr)
            diag = np.lib.stride_tricks.sliding_window_view(vals, n)[:, ::-1]
            for i in range(m):
                table[i, i] = diag
            return table
        table = np.array(self.node_mid_table, dtype=float)
        if table.shape != (m, m, n + 1, n):
            raise ValueError(
                f"tabulated node/midpoint table has shape {table.shape}, "
                f"expected {(m, m, n + 1, n)}"
            )
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
        if self.kind == "zero":
            return cov
        if self.kind == "stationary-gaussian":
            block = gaussian_kernel(
                grid.midpoints[:, None], grid.midpoints[None, :], self.c0, self.t_corr
            )
            for i in range(m):
                cov[i * n : (i + 1) * n, i * n : (i + 1) * n] = block
            return cov
        if self.kind == "white-noise":
            np.fill_diagonal(cov, self.c0 / grid.dt)
            return cov
        table = np.asarray(self.mid_mid_table, dtype=float)
        if table.shape != (m, m, n, n):
            raise ValueError(
                f"tabulated midpoint table has shape {table.shape}, expected {(m, m, n, n)}"
            )
        return table.transpose(0, 2, 1, 3).reshape(m * n, m * n)


def blackman(t, t0, t1):
    """Blackman window on [t0, t1]; zero at both ends, one in the middle."""
    if t0 >= t1:
        raise ValueError(f"window must satisfy t0 < t1, got [{t0}, {t1}]")
    t = np.asarray(t, dtype=float)
    if np.any(t < t0) or np.any(t > t1):
        raise ValueError(f"time {t} outside the window [{t0}, {t1}]")
    x = (t - t0) / (t1 - t0)
    a = BLACKMAN_A
    out = (1.0 - a) / 2.0 - 0.5 * np.cos(2.0 * np.pi * x) + (a / 2.0) * np.cos(4.0 * np.pi * x)
    return out if out.ndim else float(out)


def update_shape(grid: TimeGrid, t_on, t_off):
    """Pulse-update weight on the midpoint grid.

    Rises as half a Blackman window over [0, t_on], stays at 1, and falls
    over [T - t_off, T]; with t_on = t_off = 0 the shape is identically 1.
    The end weights pin the pulse boundary values during optimization.
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
    if np.any(rising):
        s[rising] = blackman(t[rising], 0.0, 2.0 * t_on)
    falling = t > grid.T - t_off
    if np.any(falling):
        s[falling] = blackman(t[falling], grid.T - 2.0 * t_off, grid.T)
    return s


def sample_perturbations(kernel: CorrelationKernel, grid: TimeGrid, count, seed):
    """Draw zero-mean Gaussian pulse perturbations with the kernel's covariance.

    Returns an array of shape (count, M, n_steps).  Sampling is
    bit-reproducible for a fixed seed; to parallelize, split `count` over
    child streams spawned from ``np.random.SeedSequence(seed)`` and
    concatenate in spawn order.
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
