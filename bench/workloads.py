"""The benchmark's three workloads: their set-up, operations and checks.

Every workload calls ``ddcontrol`` through module attributes
(``krotov.ddme_krotov``, ``propagation.ddme_propagate``, ...), the names the
traced run wraps.  An operation is one call into the program; its outputs
are checked outside the timed region against ``oracle`` or against a
property the method must have.
"""

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ddcontrol import cli, krotov, model, propagation

import oracle

INPUTS = Path(__file__).resolve().parent / "inputs"
TASKS = ("z-gate", "x-gate", "hadamard")

# tcorr-sweep: the crossover needs at least 4 iterations (at 2 the T and
# 1.4T points are still out of order).
SWEEP_ITERATIONS = 4
SWEEP_TCORR_FACTORS = cli.SWEEP_TCORR_FACTORS
# ensemble-validate: the realization count of the paper's validation.
ENSEMBLE_COUNT = 4000
TRACE_DISTANCE_LIMIT = 0.01
ROBUST_FIDELITY = 0.999
# Independent Monte-Carlo estimates agree within this many standard errors.
MC_SIGMAS = 5.0
ORACLE_COUNT = 4000

TRACE_TOL = 1e-10
HERMITIAN_TOL = 1e-10
EIGVAL_FLOOR = -1e-9
UNITARY_TOL = 1e-10
PURITY_SLACK = 1e-12


@dataclass
class Op:
    """One timed call into the program plus the checks on its output.

    ``check`` returns a list of ``(check_name, message)`` failures.
    ``known_fault`` names the one check that is expected to fail on this
    operation because of a documented program fault.
    """

    name: str
    work: int
    run: Callable[[], object]
    check: Callable[[object], list]
    known_fault: Optional[str] = None
    meta: dict = field(default_factory=dict)


def seeds_for(seed):
    """Program ensemble seed, oracle seed and problem seed from --seed."""
    ss = np.random.SeedSequence(seed)
    ens, orc, prob = (int(s.generate_state(1)[0]) for s in ss.spawn(3))
    return {"ensemble": ens, "oracle": orc, "problem": prob}


def load_stock(task):
    """Resolved stock experiment and its stored closed/robust input pulses."""
    exp = cli.load_experiment(task=task)
    m = exp.problem.n_controls
    pulses = {
        which: cli.read_pulse_file(INPUTS / task / f"pulse_{which}.csv", exp.grid, m)
        for which in ("se", "ddme")
    }
    return exp, pulses


def state_checks(states, floor=None):
    """Trace, Hermiticity and (optionally) eigenvalue floor of a state stack."""
    fails = []
    tr = np.einsum("sii->s", states)
    dev = float(np.max(np.abs(tr - 1.0)))
    if dev > TRACE_TOL:
        fails.append(("trace", f"max |Tr rho - 1| = {dev:.3e}"))
    herm = float(np.max(np.abs(states - np.conj(np.swapaxes(states, -1, -2)))))
    if herm > HERMITIAN_TOL:
        fails.append(("hermitian", f"max |rho - rho^dag| = {herm:.3e}"))
    if floor is not None:
        lam = float(np.min(np.linalg.eigvalsh(states)))
        if lam < floor:
            fails.append(("eigenvalue", f"smallest eigenvalue {lam:.3e} < {floor:.0e}"))
    return fails


def perturbation_covariance(kernel, grid):
    """The oracle's own covariance for a single-control stock kernel."""
    if kernel.kind == "stationary-gaussian":
        return oracle.gaussian_covariance(grid.midpoints, kernel.c0, kernel.t_corr)
    if kernel.kind == "white-noise":
        return np.eye(grid.n_steps) * (kernel.c0 / grid.dt)
    raise ValueError(f"no oracle covariance for kernel kind {kernel.kind!r}")


class Workload:
    name = ""
    unit = ""

    def __init__(self, seed):
        self.seeds = seeds_for(seed)
        self.ops = []
        self._references = {}

    def setup(self):
        raise NotImplementedError

    def reference(self, key, build):
        """An oracle result, computed on first use and kept for the run."""
        if key not in self._references:
            self._references[key] = build()
        return self._references[key]

    def round_checks(self, outputs):
        """Checks across the operations of one round: list of messages."""
        return []


class TcorrSweep(Workload):
    """Fixed-iteration disorder-aware Krotov runs on z-gate across kernels."""

    name = "tcorr-sweep"
    unit = "Krotov iterations"

    def setup(self):
        exp = cli.load_experiment(task="z-gate")
        problem = exp.problem
        m = problem.n_controls
        # the closed-system stage, as `ddcontrol sweep` runs it
        se_problem = replace(problem, kernel=model.CorrelationKernel.zero(m))
        start = krotov.se_krotov(se_problem, exp.guess, exp.se_config).pulses
        cfg = replace(exp.ddme_config, j_tol=None, i_max=SWEEP_ITERATIONS)
        c0, big_t = problem.kernel.c0, exp.grid.T
        kernels = [
            (f"gaussian-{f:g}T", model.CorrelationKernel.gaussian(c0, f * big_t, m))
            for f in SWEEP_TCORR_FACTORS
        ]
        kernels.append(("white-noise", model.CorrelationKernel.white_noise(c0, m)))
        self.grid = exp.grid
        for label, kernel in kernels:
            p = replace(problem, kernel=kernel)
            self.ops.append(
                Op(
                    name=label,
                    work=SWEEP_ITERATIONS,
                    run=lambda p=p: krotov.ddme_krotov(p, start, cfg),
                    check=lambda out, p=p, label=label: self._check(p, label, out),
                    # ddme_krotov follows the weight-table dynamics, while
                    # ddme_propagate evaluates the Markov generator
                    known_fault="repropagation" if kernel.kind == "white-noise" else None,
                    meta={"kernel": kernel},
                )
            )
        self.start_pulses = start

    def _check(self, problem, label, trace):
        fails = []
        j = np.asarray(trace.j_values)
        if j.shape != (SWEEP_ITERATIONS + 1,):
            fails.append(("iterations", f"{j.size - 1} iterations, expected {SWEEP_ITERATIONS}"))
        if not np.all(np.isfinite(j)) or np.any(j < 0.0) or np.any(j > 1.0):
            fails.append(("cost-range", f"costs outside [0, 1]: {j.tolist()}"))
        again = krotov.cost_JT(problem, trace.pulses)
        if abs(again - j[-1]) > 1e-10:
            fails.append(
                ("repropagation", f"reported J_T {j[-1]:.6f}, repropagated {again:.6f}")
            )
        ref = self.reference(label, lambda: oracle.stock_brute_force(
            self.start_pulses, self.grid.dt, problem.rho0, problem.rho_targ,
            perturbation_covariance(problem.kernel, self.grid),
            ORACLE_COUNT, self.seeds["oracle"],
        ))
        tol = TRACE_DISTANCE_LIMIT + MC_SIGMAS * ref["infidelity_err"]
        if abs(j[0] - ref["infidelity"]) > tol:
            fails.append(
                ("oracle", f"initial J_T {j[0]:.5f}, brute force "
                 f"{ref['infidelity']:.5f} +- {ref['infidelity_err']:.5f}")
            )
        return fails

    def round_checks(self, outputs):
        finals = [
            float(outputs[op.name].j_values[-1])
            for op in self.ops
            if op.meta["kernel"].kind == "stationary-gaussian"
        ]
        if all(a > b for a, b in zip(finals, finals[1:])):
            return []
        return [f"final J_T does not fall strictly with t_corr: {finals}"]


class EnsembleValidate(Workload):
    """Master equation against brute-force averaging for the stock pulses."""

    name = "ensemble-validate"
    unit = "realizations"

    def setup(self):
        for task in TASKS:
            exp, pulses = load_stock(task)
            for which in ("se", "ddme"):
                f = pulses[which]
                label = f"{task}/{which}"
                self.ops.append(
                    Op(
                        name=label,
                        work=ENSEMBLE_COUNT,
                        run=lambda p=exp.problem, f=f: self._evaluate(p, f),
                        check=lambda out, p=exp.problem, f=f, label=label: self._check(
                            p, f, label, out
                        ),
                        meta={"task": task, "which": which},
                    )
                )

    def _evaluate(self, problem, pulses):
        ens = propagation.ensemble_average(
            problem, pulses, ENSEMBLE_COUNT, self.seeds["ensemble"]
        )
        master = propagation.ddme_propagate(problem, pulses)
        return master, ens

    def _check(self, problem, pulses, label, out):
        master, ens = out
        fails = state_checks(ens.states) + state_checks(master.states)
        ref = self.reference(label, lambda: oracle.stock_brute_force(
            pulses, problem.grid.dt, problem.rho0, problem.rho_targ,
            perturbation_covariance(problem.kernel, problem.grid),
            ORACLE_COUNT, self.seeds["oracle"],
        ))
        # Monte-Carlo error of the program's ensemble on every node, as the
        # root-mean-square length of its Bloch-vector noise
        ens_err = ref["bloch_err"] * np.sqrt(ORACLE_COUNT / ENSEMBLE_COUNT)
        ens_rms = np.linalg.norm(ens_err, axis=1)
        r_ens = oracle.bloch(ens.states)
        # trace distance of qubit states is half the Bloch-vector distance
        td = 0.5 * np.linalg.norm(oracle.bloch(master.states) - r_ens, axis=1)
        limit = TRACE_DISTANCE_LIMIT + MC_SIGMAS * 0.5 * ens_rms
        worst = int(np.argmax(td - limit))
        if td[worst] > limit[worst]:
            fails.append(
                ("trace-distance", f"master vs ensemble {td[worst]:.5f} at node {worst} "
                 f"> {TRACE_DISTANCE_LIMIT} + {MC_SIGMAS:g} x {0.5 * ens_rms[worst]:.5f}")
            )
        # two independent estimates: their difference has both errors
        rms = np.linalg.norm(np.hypot(ens_err, ref["bloch_err"]), axis=1)
        rms = np.maximum(rms, 1e-12)  # node 0: every realization starts in rho0
        dev = np.linalg.norm(r_ens - ref["bloch"], axis=1) / rms
        worst = int(np.argmax(dev))
        if dev[worst] > MC_SIGMAS:
            fails.append(
                ("oracle", f"ensemble vs brute force at node {worst}: "
                 f"{dev[worst]:.2f} standard errors apart")
            )
        return fails

    def round_checks(self, outputs):
        msgs = []
        for task in TASKS:
            closed = outputs[f"{task}/se"][0].final_fidelity
            robust = outputs[f"{task}/ddme"][0].final_fidelity
            if not (robust >= ROBUST_FIDELITY and robust > closed):
                msgs.append(
                    f"{task}: robust master fidelity {robust:.5f}, closed-system {closed:.5f}"
                )
        return msgs


def random_problem(seed, n_steps=100, big_t=10.0, d=4, m=2):
    """A seeded d-level, two-control problem: unit-norm Hermitian drift and
    controls, smooth pulses, a full-rank initial state and a pure target."""
    rng = np.random.default_rng(seed)

    def herm():
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = 0.5 * (a + a.conj().T)
        return h / np.linalg.norm(h, 2)

    drift = herm()
    controls = tuple(herm() for _ in range(m))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho0 = a @ a.conj().T + d * np.eye(d)
    rho0 = rho0 / np.trace(rho0)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi = psi / np.linalg.norm(psi)
    grid = model.TimeGrid(T=big_t, n_steps=n_steps)
    t = grid.midpoints / big_t
    freq = rng.uniform(0.5, 3.0, size=(m, 3))
    amp = rng.uniform(-1.0, 1.0, size=(m, 3))
    pulses = np.einsum("mi,mik->mk", amp, np.sin(np.pi * freq[:, :, None] * t[None, None, :]))
    fam = model.HamiltonianFamily(drift=drift, controls=controls)
    return fam, grid, rho0, np.outer(psi, psi.conj()), pulses


class MasterScan(Workload):
    """One-shot master-equation propagations over a grid of kernels."""

    name = "master-scan"
    unit = "propagations"

    # (label, kind, C0, t_corr / T)
    KERNELS = (
        ("zero", "zero", 0.0, None),
        ("white-0.001", "white-noise", 1e-3, None),
        ("white-0.01", "white-noise", 1e-2, None),
        ("gauss-0.001-0.05T", "stationary-gaussian", 1e-3, 0.05),
        ("gauss-0.001-0.5T", "stationary-gaussian", 1e-3, 0.5),
        ("gauss-0.001-5T", "stationary-gaussian", 1e-3, 5.0),
        ("gauss-0.01-0.05T", "stationary-gaussian", 1e-2, 0.05),
        ("gauss-0.01-0.5T", "stationary-gaussian", 1e-2, 0.5),
        ("gauss-0.01-5T", "stationary-gaussian", 1e-2, 5.0),
        ("quasi-static", "stationary-gaussian", 1e-4, 1e3),
    )

    def setup(self):
        inputs = []
        for task in TASKS:
            exp, pulses = load_stock(task)
            fine = model.TimeGrid(T=exp.grid.T, n_steps=4 * exp.grid.n_steps)
            for which in ("se", "ddme"):
                f = pulses[which]
                inputs.append((f"{task}/{which}", exp.problem, f))
                inputs.append(
                    (f"{task}/{which}/x4", replace(exp.problem, grid=fine), np.repeat(f, 4, axis=1))
                )
        fam, grid, rho0, targ, f = random_problem(self.seeds["problem"])
        base = krotov.ControlProblem(
            rho0=rho0, rho_targ=targ, h_family=fam, grid=grid,
            kernel=model.CorrelationKernel.zero(fam.n_controls),
        )
        inputs.append(("d4m2", base, f))
        for label, kind, c0, tc in self.KERNELS:
            for name, problem, pulses in inputs:
                kernel = self._kernel(kind, c0, tc, problem)
                p = replace(problem, kernel=kernel)
                self.ops.append(
                    Op(
                        name=f"{name}@{label}",
                        work=1,
                        run=lambda p=p, f=pulses: propagation.ddme_propagate(p, f),
                        check=lambda out, p=p, f=pulses, name=name, label=label: self._check(
                            p, f, name, label, out
                        ),
                    )
                )

    @staticmethod
    def _kernel(kind, c0, tc, problem):
        m = problem.n_controls
        if kind == "zero":
            return model.CorrelationKernel.zero(m)
        if kind == "white-noise":
            return model.CorrelationKernel.white_noise(c0, m)
        return model.CorrelationKernel.gaussian(c0, tc * problem.grid.T, m)

    def _check(self, problem, pulses, name, label, traj):
        kernel = problem.kernel
        fam, grid = problem.h_family, problem.grid
        # Zero and white-noise kernels generate completely positive maps, so
        # their states must respect the documented eigenvalue floor.
        cp = kernel.kind in ("zero", "white-noise")
        fails = state_checks(traj.states, EIGVAL_FLOOR if cp else None)
        if kernel.kind == "white-noise":
            rise = float(np.max(np.diff(traj.purity)))
            if rise > PURITY_SLACK:
                fails.append(("purity", f"purity rises by {rise:.3e} under white noise"))
        if kernel.kind == "zero":
            ref = self.reference(
                name,
                lambda: oracle.unitary_states(fam.drift, fam.controls, pulses, grid.dt, problem.rho0),
            )
            dev = float(np.max(np.abs(traj.states - ref)))
            if dev > UNITARY_TOL:
                fails.append(("unitary", f"zero kernel deviates from unitary by {dev:.3e}"))
        if label == "quasi-static":
            ref = self.reference(
                name + "@gh",
                lambda: oracle.static_disorder_average(
                    fam.drift, fam.controls, pulses, grid.dt, problem.rho0, kernel.c0
                ),
            )
            diff = traj.states - ref
            td = 0.5 * float(np.max(np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)))
            tol = quasi_static_tolerance(kernel.c0, grid)
            if td > tol:
                fails.append(("gauss-hermite", f"trace distance {td:.3e} > {tol:.3e}"))
        return fails


def quasi_static_tolerance(c0, grid):
    """Allowed trace distance between the master equation and the exact
    static-disorder average (unit-norm controls).

    The memory integrals are first-order Riemann sums and each step applies
    one exponential, so the master equation's C0 term carries an O(C0 T dt)
    error; truncating the disorder expansion at second order leaves
    O((C0 T^2)^2).  The factor 3 on the first term covers the stock pulses'
    measured worst case (1.45 C0 T dt on hadamard at N_T = 100).
    """
    big_t = grid.T
    return 3.0 * c0 * big_t * grid.dt + (c0 * big_t**2) ** 2


WORKLOADS = {w.name: w for w in (TcorrSweep, EnsembleValidate, MasterScan)}
