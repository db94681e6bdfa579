"""The elementary qubit channels, as the Pauli-transfer matrices every backend steps with.

A channel E acts on Bloch rows c = (Tr rho, <sx>, <sy>, <sz>) through its real Pauli-transfer
matrix (PTM) R_ij = Tr(s_i E(s_j))/2, with s = (I, sigma_x, sigma_y, sigma_z). The PTM is the
column-stacking superoperator S in the Pauli basis, R = Re(P^dag S P)/2, P's columns the s_j each
stacked by columns; P/sqrt(2) is unitary, so the Frobenius distance of two PTMs is that of their
superoperators, and of their Choi matrices, which only move the superoperators' entries. The
package builds no superoperator: every PTM here is a closed form or a literal table.

Rate conventions follow the canonical form documented in
:mod:`trottersim.liouvillian`: the dephasing channel multiplies off-diagonals
by e^{-gamma_phi*tau} and the damping channel decays the |1> population as
e^{-gamma1*tau} (off-diagonals by e^{-gamma1*tau/2}). An equivalent textbook
variant writes the dephasing factor as e^{-gamma*tau/2} with gamma twice our
gamma_phi; only the canonical form keeps 1/T2 = gamma1/2 + gamma_phi exact.

The dilation circuits' PTMs, their gates listed and chained only in :mod:`trottersim.dilation`,
reach the Trotter layer through elementary_ptms, as its backends "dilation" and "dilation+noise".
"""

from __future__ import annotations

import math

import numpy as np

from .dilation import NoiseParams, _rx_rows, induced_ptms
from .liouvillian import CanonicalRates

__all__ = ["BACKENDS", "elementary_ptms"]

BACKENDS = ("kraus", "dilation", "dilation+noise")


def _check_backend(backend: str, noise: NoiseParams | None) -> None:
    """TrotterSchedule's and elementary_ptms' backend rule: noise exactly with dilation+noise."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend == "dilation+noise" and noise is None:
        raise ValueError("backend 'dilation+noise' requires noise parameters")
    if backend != "dilation+noise" and noise is not None:
        raise ValueError(f"backend {backend!r} does not accept noise parameters")


def elementary_ptms(
    rates: CanonicalRates, durations: list[float], backend: str, noise: NoiseParams | None
) -> np.ndarray:
    """The (D, 3, 4, 4) real Pauli-transfer matrices R_ij = Tr(s_i E(s_j))/2 of the three
    generators over each of D durations dt, in the label order (dephasing, damping, rotation)
    of trotter.ALL_LABELS; no durations give a (0, 3, 4, 4) block. The backend follows
    TrotterSchedule's rule, each dt must be nonnegative and finite, and the drive angle
    2 pi omega dt of the longest must not overflow; on every backend a zero dt gives a channel
    of no duration, the identity without injected noise.

    The kraus closed forms, in Python floats: dephasing diag(1, mu, mu, 1), mu = e^(-gamma_phi
    dt); damping diag(1, nu, nu, nu^2) plus R_z0 = 1 - nu^2, nu = e^(-gamma1 dt/2); the x
    rotation by theta = 2 pi omega dt turns (<sy>, <sz>) by [[cos, -sin], [sin, cos]]. The
    dilation backends take the circuits' PTMs from :mod:`trottersim.dilation`, at the angles
    rates_to_angles gives each dt, for all D durations at once.
    """
    _check_backend(backend, noise)
    for dt in filter(lambda dt: not 0 <= dt < np.inf, durations):  # NaN too; 0 is allowed
        raise ValueError(f"dt must be nonnegative and finite, got {dt}")
    if not durations:
        return np.empty((0, 3, 4, 4))
    dt = [float(d) for d in durations]  # Python floats: an overflowing rate x dt is inf, silently
    if not abs(2 * math.pi * rates.omega * max(dt)) < math.inf:  # the longest's angle
        raise ValueError("drive angle 2 pi omega dt overflows: "
                         f"omega={rates.omega}, dt={max(durations)}")
    if backend != "kraus":
        return induced_ptms(rates, dt, noise)
    entries = []  # each R row by row
    for d in dt:
        m, n = math.exp(-rates.gamma_phi * d), math.exp(-rates.gamma1 * d / 2)
        theta = 2 * math.pi * rates.omega * d
        entries += (1, 0, 0, 0,  0, m, 0, 0,  0, 0, m, 0,  0, 0, 0, 1,              # dephasing
                    1, 0, 0, 0,  0, n, 0, 0,  0, 0, n, 0,  1 - n * n, 0, 0, n * n,  # damping
                    *_rx_rows(math.cos(theta), math.sin(theta)))                   # rotation
    return np.fromiter(entries, float, len(entries)).reshape(-1, 3, 4, 4)
