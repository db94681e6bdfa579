"""The tests' exact oracle, independent of the package: the canonical qubit master equation
of trottersim.liouvillian's docstring as a column-stacking generator, exponentiated by scipy.
"""

import numpy as np
import scipy.linalg

EYE = np.eye(2)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1, -1]).astype(complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|, |0> the +1 state of sigma_z


def generator(gamma1=0.0, gamma_phi=0.0, omega=0.0):
    """The (4, 4) S with S vec(rho) = vec(-i[H, rho] + sum_L (2 L rho L^dag - {L^dag L, rho})),
    vec stacking columns, for H = pi omega sigma_x, L = sqrt(gamma1/2) sigma_minus and
    L = (sqrt(gamma_phi)/2) sigma_z."""
    h = np.pi * omega * SIGMA_X
    s = -1j * (np.kron(EYE, h) - np.kron(h.T, EYE))
    for op in (np.sqrt(gamma1 / 2) * SIGMA_MINUS, np.sqrt(gamma_phi) / 2 * SIGMA_Z):
        pos = op.conj().T @ op
        s += 2 * np.kron(op.conj(), op) - np.kron(EYE, pos) - np.kron(pos.T, EYE)
    return s


def propagator(gamma1, gamma_phi, omega, t):
    """The exact channel expm(S t) of :func:`generator`, as a column-stacking superoperator."""
    return scipy.linalg.expm(generator(gamma1, gamma_phi, omega) * t)
