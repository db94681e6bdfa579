"""The elementary qubit channels, as the Pauli-transfer matrices every backend steps with.

A channel E acts on Bloch rows c = (Tr rho, <sx>, <sy>, <sz>) through its real Pauli-transfer
matrix (PTM) R_ij = Tr(s_i E(s_j))/2, with s = (I, sigma_x, sigma_y, sigma_z). The PTM is the
column-stacking superoperator S in the Pauli basis, R = Re(P^dag S P)/2 with P^dag = BLOCH_ROWS;
P/sqrt(2) is unitary, so the Frobenius distance of two PTMs is that of their superoperators, and
of their Choi matrices, which only move the superoperators' entries.

Rate conventions follow the canonical form documented in
:mod:`trottersim.liouvillian`: the dephasing channel multiplies off-diagonals
by e^{-gamma_phi*tau} and the damping channel decays the |1> population as
e^{-gamma1*tau} (off-diagonals by e^{-gamma1*tau/2}). An equivalent textbook
variant writes the dephasing factor as e^{-gamma*tau/2} with gamma twice our
gamma_phi; only the canonical form keeps 1/T2 = gamma1/2 + gamma_phi exact.
"""

from __future__ import annotations

import numpy as np

from .dilation import (NoiseParams, _induced_channels, damping_circuit, dephasing_circuit,
                       rates_to_angles, rotation_circuit)
from .liouvillian import BLOCH_ROWS, CanonicalRates

__all__ = ["elementary_ptms"]


def elementary_ptms(
    rates: CanonicalRates, durations: list[float], backend: str, noise: NoiseParams | None
) -> np.ndarray:
    """The (D, 3, 4, 4) real Pauli-transfer matrices R_ij = Tr(s_i E(s_j))/2 of the three
    generators over each of D durations dt, in the label order (dephasing, damping, rotation)
    of trotter.ALL_LABELS.

    The kraus closed forms: dephasing diag(1, mu, mu, 1), mu = e^(-gamma_phi dt); damping
    diag(1, nu, nu, nu^2) plus R_z0 = 1 - nu^2, nu = e^(-gamma1 dt/2); rx(theta) turns
    (<sy>, <sz>) by [[cos, -sin], [sin, cos]], theta = 2 pi omega dt. The dilation backends take
    the angles once per duration, contract each circuit kind over the D angles at once and
    convert all 3D superoperators S as Re(P^dag S P)/2, with P^dag = BLOCH_ROWS.
    """
    if backend != "kraus":
        angles = [rates_to_angles(rates, dt) for dt in durations]
        circuits = ([dephasing_circuit(a.theta1) for a in angles],
                    [damping_circuit(a.theta2) for a in angles],
                    [rotation_circuit(a.theta3) for a in angles])
        supers = np.array([_induced_channels(kind, noise) for kind in circuits]).swapaxes(0, 1)
        return np.real(BLOCH_ROWS @ supers @ BLOCH_ROWS.conj().T) / 2
    dt = np.array(durations)
    with np.errstate(over="ignore"):  # a rate that overflows decays to 0; the angle is checked
        mu, nu = np.exp(-rates.gamma_phi * dt), np.exp(-rates.gamma1 * dt / 2)
        theta = 2 * np.pi * rates.omega * dt
    if not np.isfinite(theta).all():  # the longest duration's angle overflows whenever one does
        raise ValueError(f"drive angle 2 pi omega dt overflows: omega={rates.omega}, dt={dt.max()}")
    ptms = np.zeros((len(dt), 3, 4, 4)) + np.eye(4)
    ptms[:, 0, 1, 1] = ptms[:, 0, 2, 2] = mu
    ptms[:, 1, 1, 1] = ptms[:, 1, 2, 2] = nu
    ptms[:, 1, 3, 3], ptms[:, 1, 3, 0] = nu * nu, 1 - nu * nu
    ptms[:, 2, 2, 2] = ptms[:, 2, 3, 3] = np.cos(theta)
    ptms[:, 2, 2, 3], ptms[:, 2, 3, 2] = -np.sin(theta), np.sin(theta)
    return ptms
