"""One dilation circuit at a raw angle, through the package's own PTM chain: for tests that need
an angle no finite rate gives (theta = pi/2, a negative angle) or one circuit's exact bits."""

import numpy as np

from trottersim.dilation import CIRCUIT_GATES, _circuit_ptms


def circuit_ptm(kind, theta, noise=None):
    """The (4, 4) data Pauli-transfer matrix of circuit CIRCUIT_GATES[kind] at angle theta, as a
    one-angle _circuit_ptms call."""
    return _circuit_ptms([(CIRCUIT_GATES[kind], np.array([theta]))], noise)[0, 0]
