from pathlib import Path

import numpy as np

from ddcontrol import krotov, propagation
from ddcontrol.krotov import ControlProblem, KrotovConfig
from ddcontrol.linalg import SIGMA_X, SIGMA_Z, projector
from ddcontrol.model import CorrelationKernel, HamiltonianFamily, TimeGrid

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_targets_resolve(monkeypatch):
    # the traced benchmark run wraps these names; renaming or removing one
    # in the package must fail here, not only in a traced run
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    for owner, attr, name, _ in tracing.TARGETS:
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert found is not None, f"{name}: {owner.__name__}.{attr} does not exist"
        assert callable(getattr(owner, attr)), f"{name}: {owner.__name__}.{attr} is not callable"


def test_tracer_counts_the_krotov_layers(monkeypatch):
    # the traced run attributes time to the layers under ddme_krotov only if
    # the package still calls them through the names the tracer wraps
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    grid = TimeGrid(T=1.0, n_steps=8)
    problem = ControlProblem(
        rho0=projector("0"),
        rho_targ=projector("1"),
        h_family=HamiltonianFamily(drift=0.5 * SIGMA_Z, controls=(SIGMA_X,)),
        grid=grid,
        kernel=CorrelationKernel.gaussian(0.05, 0.5),
    )
    config = KrotovConfig(lambdas=[2.0], shapes=np.ones((1, 8)), j_tol=None, i_max=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.phase("op"):
            krotov.ddme_krotov(problem, np.full((1, 8), 0.5), config)
    finally:
        tracer.uninstall()
    calls = tracer.totals("op")[0]
    for name in (
        "krotov.gradient",
        "propagation.update_step",
        "propagation.refresh",
        "propagation.eta",
        "linalg.expm",
    ):
        assert calls[name] > 0, name
    # a qubit's coherent step maps are rotations in closed form, so the
    # module-level expm runs once on the built cache's step generators and
    # once per refresh on the suffix's
    assert calls["propagation.build_cache"] == 1
    assert calls["linalg.expm"] == 1 + calls["propagation.refresh"]


def test_tracer_counts_the_propagation_layers(monkeypatch):
    # a one-shot propagation attributes time to the weight table and the
    # trajectory readout only if the cache builds its table through
    # CorrelationKernel.weight_table and the readout goes through
    # Trajectory.from_states, the names the tracer wraps
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    grid = TimeGrid(T=1.0, n_steps=8)
    problem = ControlProblem(
        rho0=projector("0"),
        rho_targ=projector("1"),
        h_family=HamiltonianFamily(drift=0.5 * SIGMA_Z, controls=(SIGMA_X,)),
        grid=grid,
        kernel=CorrelationKernel.gaussian(0.05, 0.5),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.phase("op"):
            propagation.ddme_propagate(problem, np.full((1, 8), 0.5))
    finally:
        tracer.uninstall()
    calls = tracer.totals("op")[0]
    for name in ("propagation.ddme_propagate", "model.weight_table", "propagation.trajectory"):
        assert calls[name] > 0, name
