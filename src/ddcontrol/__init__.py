"""Robust quantum control through disorder-dressed evolution.

The package propagates the disorder-averaged state of a pulse-driven
quantum system under weak pulse perturbations, validates that evolution
against brute-force ensemble averaging, and optimizes control pulses with
a sequential Krotov scheme that is aware of the disorder statistics.

The top level exports what the README's library example uses; everything
else is imported from the submodules (``linalg``, ``model``,
``propagation``, ``krotov``, ``tasks``, ``cli``).
"""

from .linalg import SIGMA_X, SIGMA_Z, projector
from .model import CorrelationKernel, HamiltonianFamily, TimeGrid
from .propagation import ddme_propagate, ensemble_average
from .krotov import ControlProblem, KrotovConfig, ddme_krotov, se_krotov

__all__ = [
    "SIGMA_X",
    "SIGMA_Z",
    "projector",
    "CorrelationKernel",
    "HamiltonianFamily",
    "TimeGrid",
    "ddme_propagate",
    "ensemble_average",
    "ControlProblem",
    "KrotovConfig",
    "ddme_krotov",
    "se_krotov",
]

__version__ = "0.1.0"
