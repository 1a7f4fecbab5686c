"""Acceptance suite: reproduces the stock single-qubit experiments end to end.

Each criterion prints one ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s``).  The three task pipelines and the correlation-time sweep run
once as session fixtures with the package defaults; the property checks at
the end are independent of any reported numbers.

Pinned thresholds (see the assertions for the authoritative values):

* disorder-aware fidelity >= 0.999 per task; perturbation-ignorant fidelity
  inside [0.95, 0.99] / [0.95, 0.99] / [0.90, 0.96];
* purity revival: dip below 0.995 somewhere, final recovery >= 0.994
  (= 1 - 2 * J_tol: the optimizer stops at the first cost <= 0.003, which
  bounds how close to unity the final purity can get), gap >= 0.01;
* master-vs-ensemble trace distance <= 0.01 (4000 realizations, seed 7);
* strict infidelity ordering across correlation times, with the
  near-Markovian series retaining >= 90% of its initial infidelity;
* convergence in < 30 iterations per task.
"""

import csv
import time

import numpy as np
import pytest

from conftest import WHITE_NOISE_PATHS, default_grid, default_h_family, random_hermitian, task_states
from reference import ddme_backward_step, ddme_step, se_krotov_reference, unitary_steps
from ddcontrol import cli
from ddcontrol.linalg import SIGMA_X, SIGMA_Z, dag, expm, expm_hermitian, projector, to_coherence
from ddcontrol.model import CorrelationKernel, HamiltonianFamily, TimeGrid, sample_perturbations
from ddcontrol.krotov import (
    ControlProblem,
    KrotovConfig,
    ddme_gradient_D,
    ddme_krotov,
    run_correlation_sweep,
    se_krotov,
)
from ddcontrol.propagation import (
    build_cache,
    ddme_propagate,
    ensemble_average,
)
from ddcontrol.tasks import TASK_PRESETS, guess_pulses

TASKS = ("z-gate", "x-gate", "hadamard")
SE_FIDELITY_BANDS = {"z-gate": (0.95, 0.99), "x-gate": (0.95, 0.99), "hadamard": (0.90, 0.96)}
PURITY_DIP = 0.995
PURITY_RECOVERY = 0.994  # 1 - 2 * J_tol
PURITY_GAP = 0.01
_PROPERTY_TIMES = {}


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def ensemble_fidelity(res):
    """The robust pulse's final fidelity over the task's ensemble (4000 sets
    by default): the last row of its ensemble trajectory.  Reported beside
    the master equation's, which criteria 1 and 2 check."""
    with open(res["out"] / "trajectory_ddme_ensemble.csv", newline="") as fh:
        return float(list(csv.DictReader(fh))[-1]["fidelity"])


@pytest.fixture(scope="session")
def task_results(tmp_path_factory):
    results = {}
    for task in TASKS:
        out = tmp_path_factory.mktemp(f"task_{task.replace('-', '_')}")
        exp = cli.load_experiment(task=task, out=out)
        start = time.perf_counter()
        code, summary = cli.run_task(exp)
        elapsed = time.perf_counter() - start
        results[task] = {"code": code, "summary": summary, "out": out, "seconds": elapsed}
    return results


@pytest.fixture(scope="session")
def sweep_series():
    grid = default_grid()
    fam = default_h_family()
    preset = TASK_PRESETS["z-gate"]
    kro = preset["krotov"]
    rho0, targ = task_states("z-gate")
    problem = ControlProblem(
        rho0=rho0,
        rho_targ=targ,
        h_family=fam,
        grid=grid,
        kernel=CorrelationKernel.gaussian(0.01, 100.0),
    )
    se_problem = ControlProblem(
        rho0=rho0, rho_targ=targ, h_family=fam, grid=grid, kernel=CorrelationKernel.zero()
    )
    cfg_se = KrotovConfig.with_blackman_ramps(
        grid, kro["se_lambda"], kro["t_on"], kro["t_off"], j_tol=1e-4, i_max=1000
    )
    f_se = se_krotov(se_problem, guess_pulses(preset["guess"]["kind"], grid), cfg_se).pulses
    cfg = KrotovConfig.with_blackman_ramps(
        grid, kro["lambda"], kro["t_on"], kro["t_off"], j_tol=kro["J_tol"], i_max=50
    )
    tcorr = [f * grid.T for f in (0.05, 0.2, 0.6, 1.0, 1.4)]
    return tcorr, run_correlation_sweep(problem, f_se, cfg, tcorr, iterations=30)


def test_criterion_1_task1_fidelities(task_results):
    res = task_results["z-gate"]
    s = res["summary"]
    lo, hi = SE_FIDELITY_BANDS["z-gate"]
    ok = (
        s["final_fidelity_ddme"] >= 0.999
        and lo <= s["final_fidelity_se"] <= hi
        and res["seconds"] < 300.0
    )
    report(
        1,
        ok,
        f"task 1 disorder-aware fidelity {s['final_fidelity_ddme']:.5f} (>= 0.999; "
        f"ensemble {ensemble_fidelity(res):.5f}), "
        f"perturbation-ignorant {s['final_fidelity_se']:.5f} (in [{lo}, {hi}]), "
        f"{res['seconds']:.0f}s",
    )


def test_criterion_2_task2_and_task3_fidelities(task_results):
    details = []
    ok = True
    for task in ("x-gate", "hadamard"):
        s = task_results[task]["summary"]
        lo, hi = SE_FIDELITY_BANDS[task]
        ok = ok and s["final_fidelity_ddme"] >= 0.999 and lo <= s["final_fidelity_se"] <= hi
        details.append(
            f"{task}: {s['final_fidelity_ddme']:.5f}/{s['final_fidelity_se']:.5f} "
            f"(ensemble {ensemble_fidelity(task_results[task]):.5f})"
        )
    report(2, ok, "; ".join(details))


def test_criterion_3_purity_revival(task_results):
    details = []
    ok = True
    for task in TASKS:
        s = task_results[task]["summary"]
        dip = s["min_purity_ddme"]
        recovery = s["final_purity_ddme"]
        gap = s["final_purity_ddme"] - s["final_purity_se"]
        ok = ok and dip < PURITY_DIP and recovery >= PURITY_RECOVERY and gap >= PURITY_GAP
        details.append(f"{task}: dip {dip:.4f}, final {recovery:.4f}, gap {gap:.3f}")
    report(3, ok, "; ".join(details))


def test_criterion_4_master_vs_ensemble_agreement(task_results):
    details = []
    ok = True
    for task in TASKS:
        s = task_results[task]["summary"]
        td = s["max_trace_distance_master_vs_ensemble"]
        ok = ok and td <= 0.01
        details.append(f"{task}: {td:.4f}")
    report(4, ok, "max trace distance (<= 0.01): " + "; ".join(details))


def test_criterion_5_correlation_time_crossover(sweep_series):
    tcorr, series = sweep_series
    finals = [s[-1] for s in series]
    full_length = len(series) == 5 and all(len(s) == 31 for s in series)
    strictly_ordered = all(finals[i] > finals[i + 1] for i in range(len(finals) - 1))
    near_markovian_flat = finals[0] >= 0.9 * series[0][0]
    ok = full_length and strictly_ordered and near_markovian_flat
    report(
        5,
        ok,
        "final infidelities "
        + ", ".join(f"{tc:g}: {f:.4f}" for tc, f in zip(tcorr, finals))
        + f"; near-Markovian retains {finals[0] / series[0][0]:.1%} of initial",
    )


def test_criterion_6_convergence_budget(task_results):
    details = []
    ok = True
    for task in TASKS:
        s = task_results[task]["summary"]
        ok = ok and s["converged"] and s["iterations"] < 30
        details.append(f"{task}: {s['iterations']} iterations")
    report(6, ok, "; ".join(details))


def _timed(name):
    class Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc):
            _PROPERTY_TIMES[name] = time.perf_counter() - self.start

    return Timer()


def test_criterion_7a_expm_oracle(rng):
    with _timed("expm"):
        worst = 0.0
        for d in (2, 3, 4):
            h = random_hermitian(rng, d)
            taylor = expm(h, scale=-1j * 0.61)
            eig = expm_hermitian(h, scale=-1j * 0.61)
            worst = max(worst, float(np.max(np.abs(taylor - eig))))
    report("7a", worst <= 1e-10, f"expm vs eigendecomposition, max deviation {worst:.2e}")


def test_criterion_7b_unitarity(rng):
    with _timed("unitarity"):
        grid = default_grid()
        cache = build_cache(
            default_h_family(),
            grid,
            guess_pulses("gaussian", grid),
            CorrelationKernel.gaussian(0.01, 100.0),
        )
        worst = max(
            float(np.max(np.abs(dag(u) @ u - np.eye(2))))
            for u in unitary_steps(cache.h_family, cache.pulses, grid.dt)
        )
        # cumulative propagators through their adjoint representations
        worst = max(worst, max(float(np.max(np.abs(o.T @ o - np.eye(3)))) for o in cache.o))
    report("7b", worst <= 1e-10, f"step/cumulative propagator unitarity {worst:.2e}")


def test_criterion_7c_trace_and_hermiticity(task_results):
    with _timed("trace"):
        grid = default_grid()
        rho0, targ = task_states("z-gate")
        problem = ControlProblem(
            rho0=rho0,
            rho_targ=targ,
            h_family=default_h_family(),
            grid=grid,
            kernel=CorrelationKernel.gaussian(0.01, 100.0),
        )
        traj = ddme_propagate(problem, guess_pulses("gaussian", grid))
        worst_tr = max(abs(np.trace(rho) - 1.0) for rho in traj.states)
        worst_h = max(float(np.max(np.abs(rho - dag(rho)))) for rho in traj.states)
    report(
        "7c",
        worst_tr <= 1e-10 and worst_h <= 1e-10,
        f"trace deviation {worst_tr:.2e}, Hermiticity deviation {worst_h:.2e}",
    )


def test_criterion_7d_adjoint_consistency(rng):
    with _timed("adjoint"):
        grid = TimeGrid(T=5.0, n_steps=50)
        cache = build_cache(
            default_h_family(),
            grid,
            rng.standard_normal((1, 50)) * 0.5,
            CorrelationKernel.gaussian(0.05, 3.0),
        )
        worst = 0.0
        for k in (1, 17, 50):
            chi = random_hermitian(rng, 2)
            rho = random_hermitian(rng, 2)
            lhs = np.trace(dag(ddme_backward_step(cache, k, chi)) @ rho)
            rhs = np.trace(dag(chi) @ ddme_step(cache, k, rho))
            worst = max(worst, abs(lhs - rhs))
    report("7d", worst <= 1e-10, f"adjoint inner-product mismatch {worst:.2e}")


@pytest.mark.parametrize("path", sorted(WHITE_NOISE_PATHS))
def test_criterion_7e_white_noise_purity_monotone(rng, path):
    with _timed(f"white-noise ({path})"):
        grid = TimeGrid(T=4.0, n_steps=40)
        rho0, targ = task_states("z-gate")
        problem = ControlProblem(
            rho0=rho0,
            rho_targ=targ,
            h_family=default_h_family(),
            grid=grid,
            kernel=CorrelationKernel.white_noise(0.2),
        )
        traj = WHITE_NOISE_PATHS[path](problem, rng.standard_normal((1, 40)))
        worst = float(np.max(np.diff(traj.purity)))
    report("7e", worst <= 1e-10, f"largest purity increase {worst:.2e}")


def test_criterion_7f_zero_kernel_update_equivalence():
    with _timed("reduction"):
        grid = TimeGrid(T=10.0, n_steps=50)
        rho0, targ = task_states("z-gate")
        problem = ControlProblem(
            rho0=rho0,
            rho_targ=targ,
            h_family=default_h_family(),
            grid=grid,
            kernel=CorrelationKernel.zero(),
        )
        guess = guess_pulses("gaussian", grid)
        cfg = KrotovConfig.with_blackman_ramps(grid, 1.25, 2.0, 2.0, j_tol=None, i_max=2)
        tr_ref = se_krotov_reference(problem, guess, cfg)
        worst = max(
            float(np.max(np.abs(tr_ref.pulses - tr.pulses)))
            for tr in (se_krotov(problem, guess, cfg), ddme_krotov(problem, guess, cfg))
        )
    report("7f", worst <= 1e-12, f"update sequences differ by {worst:.2e}")


def test_criterion_7g_frozen_gradient_finite_difference():
    with _timed("gradient"):
        n = 1280
        grid = TimeGrid(T=0.4, n_steps=n)
        fam = HamiltonianFamily(drift=0.3 * SIGMA_Z, controls=(0.3 * SIGMA_X,))
        kernel = CorrelationKernel.gaussian(2.0, 0.3)
        problem = ControlProblem(
            rho0=projector("0"), rho_targ=projector("+"), h_family=fam, grid=grid, kernel=kernel
        )
        pulses = (0.8 * np.sin(np.pi * grid.midpoints / grid.T) + 0.3)[None, :]
        cache = build_cache(fam, grid, pulses, kernel)
        phi = np.empty((n + 1, 2, 2), complex)
        chi = np.empty((n + 1, 2, 2), complex)
        phi[0] = problem.rho0
        for j in range(1, n + 1):
            phi[j] = ddme_step(cache, j, phi[j - 1])
        chi[n] = problem.rho_targ
        for j in range(n - 1, -1, -1):
            chi[j] = ddme_backward_step(cache, j + 1, chi[j + 1])
        phi, chi = to_coherence(phi), to_coherence(chi)

        def overlap(p):
            return float(np.real(np.trace(problem.rho_targ @ ddme_propagate(problem, p).final_state)))

        worst = 0.0
        eps = 1e-5
        for k in (n // 4, n // 2):
            analytic = grid.dt * ddme_gradient_D(cache, phi, chi, k)[0]
            plus = pulses.copy()
            plus[0, k - 1] += eps
            minus = pulses.copy()
            minus[0, k - 1] -= eps
            fd = (overlap(plus) - overlap(minus)) / (2 * eps)
            worst = max(worst, abs(analytic - fd) / abs(fd))
    report("7g", worst <= 1e-3, f"gradient vs central differences, relative error {worst:.2e}")


def test_criterion_7h_fixed_seed_reproducibility():
    with _timed("seed"):
        grid = default_grid()
        kernel = CorrelationKernel.gaussian(0.01, 100.0)
        a = sample_perturbations(kernel, grid, 500, seed=7)
        b = sample_perturbations(kernel, grid, 500, seed=7)
        rho0, targ = task_states("z-gate")
        problem = ControlProblem(
            rho0=rho0, rho_targ=targ, h_family=default_h_family(), grid=grid, kernel=kernel
        )
        pulses = guess_pulses("gaussian", grid)
        ea = ensemble_average(problem, pulses, 300, seed=7)
        eb = ensemble_average(problem, pulses, 300, seed=7)
        ok = np.array_equal(a, b) and np.array_equal(ea.states, eb.states)
    report("7h", ok, "sampler and ensemble are bit-reproducible for a fixed seed")


def test_criterion_7_runtime_budget():
    total = sum(_PROPERTY_TIMES.values())
    report(
        "7 runtime",
        total < 60.0,
        f"property suite took {total:.1f}s (< 60s): "
        + ", ".join(f"{k} {v:.1f}s" for k, v in _PROPERTY_TIMES.items()),
    )
