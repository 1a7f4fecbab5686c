"""Run the test suite against named source mutations.

Every entry of ``MUTATIONS`` replaces one exact piece of text, its anchor,
in one file of the repository.  For each mutation the script copies the
repository (without ``.git`` and caches) to a temporary directory, applies
the mutation there and runs ``pytest -x -q`` in the copy, without
``tests/test_acceptance.py`` and without ``test_mutation_anchors_occur_once``,
which fails in every mutated copy since the mutation removes its anchor.
The tests must run in the copy: the ``pythonpath = ["src"]`` of
``pyproject.toml`` puts the checkout's own ``src`` first, so a
``PYTHONPATH`` pointing at a mutated tree elsewhere would be shadowed.  A
mutation that fails a test is killed; one that passes them all survived.
The unmutated copy runs first and must pass.

    python tools/mutants.py

prints one line per mutation and exits 1 if any survived.  Each run takes
about as long as the suite without the acceptance tests (10 to 20 s on
2 cores), so the script is not part of the tests.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# name: (file relative to the repository, anchor, replacement)
MUTATIONS = {
    # the frame rotation from the transpose of O_k, which feeds O's own
    # deviation from orthogonality back in
    "frame-rotation-by-transpose": (
        "src/ddcontrol/propagation.py",
        "rot = np.linalg.solve(self.o[k0], o_u @ self.o[k0 - 1])",
        "rot = self.o[k0].T @ o_u @ self.o[k0 - 1]",
    ),
    # a negative overlap read as a positive fidelity
    "fidelity-from-abs-overlap": (
        "src/ddcontrol/propagation.py",
        "fidelity=np.sqrt(np.maximum(overlap, 0.0))",
        "fidelity=np.sqrt(np.abs(overlap))",
    ),
    # the eta update leaves node k at its old value
    "eta-update-skips-node-k": (
        "src/ddcontrol/propagation.py",
        "        past = past - past @ rotation\n",
        "        past = past - past @ rotation\n        past[:, 0] = 0.0\n",
    ),
    # an update that rebuilds the cache although no pulse value changed
    "unchanged-update-rebuilds": (
        "src/ddcontrol/krotov.py",
        "if (new != cache.pulses[:, k - 1]).any():",
        "if True:",
    ),
    # the ensemble drops small eigenvalues of rho0 that lie above roundoff
    "looser-kept-eigenvalue": (
        "src/ddcontrol/propagation.py",
        "keep = np.abs(w) > d * np.finfo(float).eps",
        "keep = np.abs(w) > 1e3 * d * np.finfo(float).eps",
    ),
    # the optimizer sweeps once per iteration, as if no kernel had memory
    "sweep-once-per-iteration": (
        "src/ddcontrol/krotov.py",
        "if rebuilt > k:",
        "if k == 1:",
    ),
    # the optimizer also sweeps when only step k's own map changed
    "sweep-at-rebuilt-step": (
        "src/ddcontrol/krotov.py",
        "if rebuilt > k:",
        "if rebuilt >= k:",
    ),
    # an update that the sweep rule never hears of
    "update-without-rebuilt": (
        "src/ddcontrol/krotov.py",
        "rebuilt = max(rebuilt, cache.update_step(k, new))",
        "cache.update_step(k, new)",
    ),
    # the ensemble's step-norm bound computed with overflow warnings on
    "bound-overflow-warns": (
        "src/ddcontrol/propagation.py",
        'with np.errstate(over="ignore"):',
        "if True:",
    ),
    # the gradient's memory term reads the running table one node late
    "gradient-past-sums-shifted": (
        "src/ddcontrol/krotov.py",
        "s = cache.past_sums(k)[:, k:]",
        "s = cache.past_sums(k + 1)[:, k:]",
    ),
    # the costates pulled back by the step maps, not their transposes
    "backward-maps-untransposed": (
        "src/ddcontrol/krotov.py",
        "backward = v_steps[::-1].swapaxes(1, 2)",
        "backward = v_steps[::-1]",
    ),
    # an expm plan one squaring short: the Taylor bound no longer covers
    # the scaled norm
    "expm-one-squaring-short": (
        "src/ddcontrol/linalg.py",
        "return plan, squarings + extra",
        "return plan, max(squarings + extra - 1, 0)",
    ),
    # the magnitude rule refuses its upper edge
    "magnitude-rule-open-above": (
        "src/ddcontrol/cli.py",
        "abs(value) <= MAX_MAGNITUDE",
        "abs(value) < MAX_MAGNITUDE",
    ),
    # node k+1's Gram product read from the stack the last Horner term read,
    # which holds the kets one term back
    "gram-from-destination": (
        "src/ddcontrol/propagation.py",
        "gram_at(k + 1, src[0])",
        "gram_at(k + 1, dst[0])",
    ),
    # node k+1's Gram product stored at node k
    "gram-stored-one-node-early": (
        "src/ddcontrol/propagation.py",
        "gram_at(k + 1, src[0])",
        "gram_at(k, src[0])",
    ),
    # the step-norm bound taken over every block of sets but the last, when
    # there is more than one
    "bound-skips-last-block": (
        "src/ddcontrol/propagation.py",
        "for c in range(0, count, _BOUND_BLOCK)",
        "for c in range(0, max(count - _BOUND_BLOCK, 1), _BOUND_BLOCK)",
    ),
    # the Horner plan takes the last degree on a tie of products
    "horner-tie-takes-last-degree": (
        "src/ddcontrol/linalg.py",
        "best = int(np.argmin(_TAYLOR_DEGREES * substeps))",
        "best = len(substeps) - 1 - int(np.argmin((_TAYLOR_DEGREES * substeps)[::-1]))",
    ),
    # the size rule refuses a run whose largest array is exactly its budget
    "size-rule-refuses-edge": (
        "src/ddcontrol/cli.py",
        "if need > MAX_ARRAY_BYTES:",
        "if need >= MAX_ARRAY_BYTES:",
    ),
    # the pulse gradient's coherent term with its sign flipped
    "gradient-coherent-sign": (
        "src/ddcontrol/krotov.py",
        "grad = 2.0 * (costates[k] @ cache.f_controls) @ states[k]",
        "grad = -2.0 * (costates[k] @ cache.f_controls) @ states[k]",
    ),
    # the pulse gradient's memory term with its sign flipped
    "gradient-memory-sign": (
        "src/ddcontrol/krotov.py",
        "return grad - 2.0 * dt * dt * (f_kappa @ g.ravel())",
        "return grad + 2.0 * dt * dt * (f_kappa @ g.ravel())",
    ),
    # the step generator's memory term with its sign flipped
    "generator-memory-sign": (
        "src/ddcontrol/propagation.py",
        "gen += self.f_steps[first - 1 : last]",
        "gen = self.f_steps[first - 1 : last] - gen",
    ),
    # update_step writes the step's pulse values before it checks the step
    "update-step-checks-after-write": (
        "src/ddcontrol/propagation.py",
        """        if not 1 <= k <= self.n_steps:
            raise ValueError(f"step {k} outside 1..{self.n_steps}")
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if not np.isfinite(values).all():
            raise NumericalError(f"non-finite pulse update at step {k}")
        self.pulses[:, k - 1] = values
""",
        """        values = np.atleast_1d(np.asarray(values, dtype=float))
        if not np.isfinite(values).all():
            raise NumericalError(f"non-finite pulse update at step {k}")
        self.pulses[:, k - 1] = values
        if not 1 <= k <= self.n_steps:
            raise ValueError(f"step {k} outside 1..{self.n_steps}")
""",
    ),
}

# it checks the anchors of the unmutated source, so it would kill every mutant
ANCHOR_TEST = "tests/test_tooling.py::test_mutation_anchors_occur_once"

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


def mutate(root, name):
    """Apply mutation ``name`` to the copy of the repository at ``root``."""
    path, anchor, replacement = MUTATIONS[name]
    target = Path(root) / path
    text = target.read_text()
    if text.count(anchor) != 1:
        raise SystemExit(f"{name}: anchor occurs {text.count(anchor)} times in {path}")
    target.write_text(text.replace(anchor, replacement))


def run_tests(name=None):
    """(passed, first failing test or the last output line, seconds) of the
    suite in a fresh copy, with mutation ``name`` applied if given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=IGNORED)
        if name is not None:
            mutate(copy, name)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore=tests/test_acceptance.py", f"--deselect={ANCHOR_TEST}"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
    lines = done.stdout.splitlines() or [""]
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return done.returncode == 0, (failed or lines[-1:])[0], seconds


def main():
    passed, detail, seconds = run_tests()
    if not passed:
        raise SystemExit(f"the unmutated copy fails: {detail}")
    print(f"unmutated  passes ({seconds:.0f} s)", flush=True)
    survivors = []
    for name in MUTATIONS:
        passed, detail, seconds = run_tests(name)
        if passed:
            survivors.append(name)
            print(f"SURVIVED   {name} ({seconds:.0f} s)", flush=True)
        else:
            print(f"killed     {name} ({seconds:.0f} s): {detail}", flush=True)
    killed = len(MUTATIONS) - len(survivors)
    print(f"{killed} of {len(MUTATIONS)} killed; survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
