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

from .dilation import _CIRCUIT_GATES, NoiseParams, _circuit_ptms, _rx_rows, rates_to_angles
from .liouvillian import CanonicalRates

__all__ = ["elementary_ptms"]

def elementary_ptms(
    rates: CanonicalRates, durations: list[float], backend: str, noise: NoiseParams | None
) -> np.ndarray:
    """The (D, 3, 4, 4) real Pauli-transfer matrices R_ij = Tr(s_i E(s_j))/2 of the three
    generators over each of D durations dt, in the label order (dephasing, damping, rotation)
    of trotter.ALL_LABELS. Each dt must be nonnegative and finite.

    The kraus closed forms: dephasing diag(1, mu, mu, 1), mu = e^(-gamma_phi dt); damping
    diag(1, nu, nu, nu^2) plus R_z0 = 1 - nu^2, nu = e^(-gamma1 dt/2); rx(theta) turns
    (<sy>, <sz>) by [[cos, -sin], [sin, cos]], theta = 2 pi omega dt. The dilation backends
    chain the real PTMs of each circuit's gate table on ancilla (x) data at rates_to_angles'
    angles, for all D durations at once, and read off the data qubit's PTMs.
    """
    for dt in filter(lambda dt: not 0 <= dt < np.inf, durations):  # NaN too; 0 is the identity
        raise ValueError(f"dt must be nonnegative and finite, got {dt}")
    if backend != "kraus":
        angles = [rates_to_angles(rates, dt) for dt in durations]
        thetas = zip(*[(a.theta1, a.theta2, a.theta3) for a in angles])
        return _circuit_ptms(list(zip(_CIRCUIT_GATES.values(), thetas)), noise).swapaxes(0, 1)
    dt = [float(d) for d in durations]  # Python floats: an overflowing rate x dt is inf, silently
    if not abs(2 * np.pi * rates.omega * max(dt, default=0.0)) < np.inf:  # the longest's angle
        raise ValueError("drive angle 2 pi omega dt overflows: "
                         f"omega={rates.omega}, dt={max(durations)}")
    exponents = [[-rates.gamma_phi * d for d in dt], [-rates.gamma1 * d / 2 for d in dt]]
    mu, nu = np.exp(exponents).tolist()
    theta = np.array([2 * np.pi * rates.omega * d for d in dt])
    cos, sin = np.cos(theta).tolist(), np.sin(theta).tolist()
    return np.array([x for m, n, c, s in zip(mu, nu, cos, sin) for x in (  # each R row by row
        1, 0, 0, 0,  0, m, 0, 0,  0, 0, m, 0,  0, 0, 0, 1,              # dephasing
        1, 0, 0, 0,  0, n, 0, 0,  0, 0, n, 0,  1 - n * n, 0, 0, n * n,  # damping
        *_rx_rows(c, s),                                                # rotation
    )], float).reshape(-1, 3, 4, 4)
