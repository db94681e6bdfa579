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

The dilation circuits' channels, their gates listed once in dilation.CIRCUIT_GATES, come only
from elementary_ptms, as its backends "dilation" and "dilation+noise".
"""

from __future__ import annotations

import math

import numpy as np

from .dilation import CIRCUIT_GATES, NoiseParams, rates_to_angles
from .liouvillian import BLOCH_ROWS, CanonicalRates

__all__ = ["elementary_ptms"]


# The fixed gates' PTMs Re(V^dag (U (x) U*) V)/4, V^dag's rows the row-major ravels of s_a (x) s_d,
# index 4a + d (BLOCH_ROWS holds each Pauli s as s.ravel()). The data rows load with ancilla |g>,
# at a = I and a = Z.
_PAULIS2 = np.einsum("aij,dkl->adikjl", *[BLOCH_ROWS.reshape(4, 2, 2)] * 2).reshape(16, 16)
# CZ, and the CNOT: X on the data where the ancilla is |e>.
_GATES2 = np.stack([np.diag([1.0, 1.0, 1.0, -1.0]), np.eye(4)[[0, 1, 3, 2]]]).astype(complex)
_CZ, _CNOT = np.real(_PAULIS2.conj() @ np.einsum("gik,gjl->gijkl", _GATES2, _GATES2.conj())
                     .reshape(2, 16, 16) @ _PAULIS2.T) / 4
_FIXED = {"cz": _CZ, "cnot_ancilla_ctrl": _CNOT}
_LOAD = np.eye(16, 4) + np.eye(16, 4, -12)


def _rx_rows(c: float, s: float) -> tuple:
    """An x rotation's PTM row by row, c = cos theta, s = sin theta: [[c, -s], [s, c]] on y, z."""
    return 1, 0, 0, 0,  0, 1, 0, 0,  0, 0, c, -s,  0, 0, s, c


def _circuit_ptms(circuits, noise: NoiseParams | None) -> np.ndarray:
    """The (C, B, 4, 4) real Pauli-transfer matrices (PTMs) of the data channels C circuits induce,
    each its CIRCUIT_GATES pairs and B angles, a gate turning by multiple times angle. Each gate
    multiplies the (B, 16, 4) ancilla (x) data rows once: by an x rotation's PTM on its qubit's
    axis, or by a fixed gate's PTM and then the ancilla decay's on the ancilla axis. The reset
    keeps the rows of ancilla I; one depolarization event shrinks the data's Bloch rows."""
    p, p_grape = (0.0, 0.0) if noise is None else (noise.p_ancilla_decay, noise.p_grape)
    decay = np.diag([1, *[math.sqrt(1 - p)] * 2, 1 - p]) + p * np.eye(4, k=-3) if p else None
    angles = [m * t for gates, theta in circuits for kind, m in gates if kind not in _FIXED
              for t in theta]  # the x rotations' angles, B per gate, in gate order
    turns = iter(np.array([v for x in angles for v in _rx_rows(math.cos(x), math.sin(x))],
                          float).reshape(-1, len(circuits[0][1]), 4, 4))
    ptms = []
    for gates, _ in circuits:
        rows = _LOAD[None]
        for kind, _ in gates:
            if kind in _FIXED:
                rows = _FIXED[kind] @ rows
                if decay is not None:
                    rows = (decay @ rows.reshape(-1, 4, 16)).reshape(-1, 16, 4)
            elif kind == "ancilla_rx":
                rows = (next(turns) @ rows.reshape(-1, 4, 16)).reshape(-1, 16, 4)
            else:  # data_x, on the data axis of the rows (a, d)
                rows = (next(turns)[:, None] @ rows.reshape(-1, 4, 4, 4)).reshape(-1, 16, 4)
        ptms.append(rows[:, :4])  # the reset keeps the rows of a = I
    return np.array(ptms) * ([[1.0]] + [[1 - p_grape]] * 3)  # depolarizing: Bloch rows shrink


def elementary_ptms(
    rates: CanonicalRates, durations: list[float], backend: str, noise: NoiseParams | None
) -> np.ndarray:
    """The (D, 3, 4, 4) real Pauli-transfer matrices R_ij = Tr(s_i E(s_j))/2 of the three
    generators over each of D durations dt, in the label order (dephasing, damping, rotation)
    of trotter.ALL_LABELS. Each dt must be nonnegative and finite.

    The kraus closed forms: dephasing diag(1, mu, mu, 1), mu = e^(-gamma_phi dt); damping
    diag(1, nu, nu, nu^2) plus R_z0 = 1 - nu^2, nu = e^(-gamma1 dt/2); the x rotation by
    theta = 2 pi omega dt turns (<sy>, <sz>) by [[cos, -sin], [sin, cos]]. The dilation backends
    chain the real PTMs of each circuit's CIRCUIT_GATES on ancilla (x) data at rates_to_angles'
    angles, for all D durations at once, and read off the data qubit's PTMs.
    """
    for dt in filter(lambda dt: not 0 <= dt < np.inf, durations):  # NaN too; 0 is the identity
        raise ValueError(f"dt must be nonnegative and finite, got {dt}")
    if backend != "kraus":
        angles = [rates_to_angles(rates, dt) for dt in durations]
        thetas = zip(*[(a.theta1, a.theta2, a.theta3) for a in angles])
        return _circuit_ptms(list(zip(CIRCUIT_GATES.values(), thetas)), noise).swapaxes(0, 1)
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
