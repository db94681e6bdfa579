"""Trotterized simulation of driven-qubit open-system dynamics.

The package simulates Markovian master-equation evolution of a driven qubit,
realizes the elementary dephasing, damping, and rotation steps as Kraus
channels or ancilla-dilation circuits, composes them into first- and
second-order Trotter schedules, fits coherence parameters from simulated
tomography curves, and extrapolates scaled-noise measurements to the
zero-noise limit.  The `trottersim` command line (module `cli`) drives the
same machinery from YAML configs.
"""

from . import channels, dilation, liouvillian, mitigation, tomography, trotter
from .channels import *  # noqa: F403
from .dilation import *  # noqa: F403
from .liouvillian import *  # noqa: F403
from .mitigation import *  # noqa: F403
from .tomography import *  # noqa: F403
from .trotter import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ declares its public names; the package re-exports them.
__all__ = [
    name
    for module in (channels, dilation, liouvillian, mitigation, tomography, trotter)
    for name in module.__all__
]
