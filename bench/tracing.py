"""Spans and per-layer metrics for the benchmark's traced run.

The traced run replaces the package's public functions, at the module or
class attributes their callers look them up by, with wrappers that record a
span (name, start, end, parent) and the work each call was handed.  Nothing
inside the package changes, and the untraced run installs no wrapper.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from ddcontrol import cli, krotov, model, propagation

MIB = 2.0**20


def _matrices(a):
    """Number of matrices in a (..., n, n) stack."""
    shape = np.shape(a)
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _refresh_steps(cache, start_step, *rest):
    return cache.n_steps - start_step + 1


def _ensemble_bytes(problem, pulses, count, *rest, **kw):
    d = problem.h_family.dim
    return count * problem.grid.n_steps * d * d * np.dtype(complex).itemsize


# (owner, attribute, span name, work counter or None).  A function imported
# into several modules is wrapped under each name its callers use.
TARGETS = (
    (cli, "load_experiment", "cli.load_experiment", None),
    (krotov, "se_krotov", "krotov.se_krotov", None),
    (krotov, "ddme_krotov", "krotov.ddme_krotov", None),
    (krotov, "ddme_gradient_D", "krotov.gradient", None),
    (krotov, "build_cache", "propagation.build_cache", None),
    (krotov, "ddme_propagate", "propagation.ddme_propagate", None),
    (propagation, "build_cache", "propagation.build_cache", None),
    (propagation, "ddme_propagate", "propagation.ddme_propagate", None),
    (propagation, "build_eta_table", "propagation.eta", None),
    (propagation, "white_noise_propagate", "propagation.white_noise", None),
    (propagation, "ensemble_average", "propagation.ensemble", _ensemble_bytes),
    (propagation, "expm", "linalg.expm", lambda a, *r, **k: _matrices(a)),
    (propagation, "expm_hermitian", "linalg.expm_hermitian", lambda h, *r, **k: _matrices(h)),
    (propagation, "sample_perturbations", "model.sample", lambda k, g, count, *r: count),
    (propagation.PropagatorCache, "update_step", "propagation.update_step", None),
    (propagation.PropagatorCache, "refresh", "propagation.refresh", _refresh_steps),
    (propagation.Trajectory, "from_states", "propagation.trajectory", None),
    (model.CorrelationKernel, "weight_table", "model.weight_table", None),
)

OP_SPAN = "bench.op"


class Tracer:
    """Records spans while a phase is open; keeps them in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, phase]
        self.work = defaultdict(list)  # (phase, name) -> per-call work
        self._stack = []
        self._phase = None
        self._saved = []

    def install(self):
        for owner, attr, name, counter in TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__, counter, skip=1))
            else:
                replacement = self._wrap(name, original, counter)
            setattr(owner, attr, replacement)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def phase(self, label):
        """Record spans opened inside the block under ``label``."""
        self._phase = label
        try:
            yield
        finally:
            self._phase = None

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._phase])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter, skip=0):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._phase is None:
                return fn(*args, **kwargs)
            if counter is not None:
                self.work[(self._phase, name)].append(counter(*args[skip:], **kwargs))
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def totals(self, phase):
        """Per span name: calls, inclusive seconds and self seconds."""
        child = defaultdict(float)
        for name, start, end, parent, ph in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, excl = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, (name, start, end, parent, ph) in enumerate(self.spans):
            if ph != phase:
                continue
            calls[name] += 1
            incl[name] += end - start
            excl[name] += end - start - child[i]
        return calls, incl, excl

    def layer_metrics(self, rounds, ref_kernel_s, host_slowdown):
        """The per-layer metrics: operation-phase figures per round of
        operations, set-up figures for the one set-up of the run."""
        calls, incl, excl = self.totals("op")
        _, s_incl, _ = self.totals("setup")
        work = {key: sum(v) for key, v in self.work.items()}
        ens_bytes = max(self.work.get(("op", "propagation.ensemble"), [0]))

        def per_round(x):
            return x / rounds

        seconds = {
            "krotov.ddme_krotov_s": per_round(incl["krotov.ddme_krotov"]),
            "krotov.ddme_krotov_self_s": per_round(excl["krotov.ddme_krotov"]),
            "krotov.gradient_s": per_round(incl["krotov.gradient"]),
            "krotov.se_krotov_s": s_incl["krotov.se_krotov"],
            "propagation.refresh_s": per_round(incl["propagation.refresh"]),
            "propagation.eta_s": per_round(incl["propagation.eta"]),
            "propagation.build_cache_s": per_round(incl["propagation.build_cache"]),
            "propagation.ddme_propagate_s": per_round(incl["propagation.ddme_propagate"]),
            "propagation.trajectory_s": per_round(incl["propagation.trajectory"]),
            "propagation.white_noise_s": per_round(incl["propagation.white_noise"]),
            "propagation.ensemble_s": per_round(incl["propagation.ensemble"]),
            "propagation.ensemble_self_s": per_round(excl["propagation.ensemble"]),
            "linalg.expm_s": per_round(incl["linalg.expm"]),
            "linalg.expm_hermitian_s": per_round(incl["linalg.expm_hermitian"]),
            "model.sample_s": per_round(incl["model.sample"]),
            "model.weight_table_s": per_round(incl["model.weight_table"]),
            "cli.load_experiment_s": s_incl["cli.load_experiment"],
            "host.ref_kernel_s": ref_kernel_s,
            "bench.op_s": per_round(incl[OP_SPAN]),
            "bench.op_self_s": per_round(excl[OP_SPAN]),
        }
        counts = {
            "krotov.gradient_calls": per_round(calls["krotov.gradient"]),
            "propagation.update_step_calls": per_round(calls["propagation.update_step"]),
            "propagation.refresh_steps_rebuilt": per_round(
                work.get(("op", "propagation.refresh"), 0)
            ),
            "propagation.build_cache_calls": per_round(calls["propagation.build_cache"]),
            "linalg.expm_calls": per_round(calls["linalg.expm"]),
            "linalg.expm_matrices": per_round(work.get(("op", "linalg.expm"), 0)),
            "linalg.expm_hermitian_matrices": per_round(
                work.get(("op", "linalg.expm_hermitian"), 0)
            ),
            "model.samples": per_round(work.get(("op", "model.sample"), 0)),
        }
        metrics = {k: {"value": v, "unit": "s"} for k, v in seconds.items()}
        metrics.update({k: {"value": v, "unit": "count"} for k, v in counts.items()})
        metrics["propagation.ensemble_unitaries_mb"] = {"value": ens_bytes / MIB, "unit": "MB"}
        metrics["host.slowdown"] = {"value": host_slowdown, "unit": "ratio"}
        return metrics
