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

__all__ = ["BACKENDS", "elementary_ptms"]

BACKENDS = ("kraus", "dilation", "dilation+noise")


# The fixed gates' PTMs Re(V^dag (U (x) U*) V)/4, V^dag's rows the row-major ravels of s_a (x) s_d,
# index 4a + d (BLOCH_ROWS holds each Pauli s as s.ravel()). The data rows load with ancilla |g>,
# at a = I and a = Z.
_PAULIS2 = np.einsum("aij,dkl->adikjl", *[BLOCH_ROWS.reshape(4, 2, 2)] * 2).reshape(16, 16)
# CZ, and the CNOT: X on the data where the ancilla is |e>.
_GATES2 = np.stack([np.diag([1.0, 1.0, 1.0, -1.0]), np.eye(4)[[0, 1, 3, 2]]]).astype(complex)
_CZ, _CNOT = np.real(_PAULIS2.conj() @ np.einsum("gik,gjl->gijkl", _GATES2, _GATES2.conj())
                     .reshape(2, 16, 16) @ _PAULIS2.T) / 4
_FIXED = {"cz": _CZ, "cnot_ancilla_ctrl": _CNOT}
_FIXED_ROWS = np.array([_CZ, _CNOT]).reshape(2, 4, 64)  # rows by ancilla index a
_LOAD = np.eye(16, 4) + np.eye(16, 4, -12)


def _rx_rows(c: float, s: float) -> tuple:
    """An x rotation's PTM row by row, c = cos theta, s = sin theta: [[c, -s], [s, c]] on y, z."""
    return 1.0, 0.0, 0.0, 0.0,  0.0, 1.0, 0.0, 0.0,  0.0, 0.0, c, -s,  0.0, 0.0, s, c


def _circuit_ptms(circuits, noise: NoiseParams | None) -> np.ndarray:
    """The (C, B, 4, 4) real Pauli-transfer matrices (PTMs) of the data channels C circuits induce,
    each its CIRCUIT_GATES pairs and B angles, a gate turning by multiple times angle. Each gate
    multiplies the (B, 16, 4) ancilla (x) data rows once: by an x rotation's PTM on its qubit's
    axis, or by a fixed gate's PTM, into which one (4, 4) @ (2, 4, 64) product per call folds the
    ancilla decay's PTM on the ancilla axis. The reset keeps the rows of ancilla I; one
    depolarization event shrinks the data's Bloch rows."""
    p, p_grape = (0.0, 0.0) if noise is None else (noise.p_ancilla_decay, noise.p_grape)
    fixed = _FIXED
    if p:  # the ancilla decay's PTM after each fixed gate, folded into the gates' rows (a, d x j)
        decay = np.diag([1, *[math.sqrt(1 - p)] * 2, 1 - p]) + p * np.eye(4, k=-3)
        fixed = dict(zip(_FIXED, (decay @ _FIXED_ROWS).reshape(2, 16, 16)))
    entries = []
    for x in [m * t for gates, theta in circuits for kind, m in gates if kind not in _FIXED
              for t in theta]:  # the x rotations' angles, B per gate, in gate order
        entries += _rx_rows(math.cos(x), math.sin(x))
    turns = iter(np.fromiter(entries, float, len(entries)).reshape(-1, len(circuits[0][1]), 4, 4))
    ptms = np.empty((len(circuits), len(circuits[0][1]), 4, 4))
    for ptm, (gates, _) in zip(ptms, circuits):
        rows = _LOAD[None]
        for kind, _ in gates:
            if kind in fixed:
                rows = fixed[kind] @ rows
            elif kind == "ancilla_rx":
                rows = (next(turns) @ rows.reshape(-1, 4, 16)).reshape(-1, 16, 4)
            else:  # data_x, on the data axis of the rows (a, d)
                rows = (next(turns)[:, None] @ rows.reshape(-1, 4, 4, 4)).reshape(-1, 16, 4)
        ptm[:] = rows[:, :4]  # the reset keeps the rows of a = I
    ptms[..., 1:, :] *= 1 - p_grape  # depolarizing: the Bloch rows shrink
    return ptms


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
    TrotterSchedule's rule, and each dt must be nonnegative and finite.

    The kraus closed forms, in Python floats: dephasing diag(1, mu, mu, 1), mu = e^(-gamma_phi
    dt); damping diag(1, nu, nu, nu^2) plus R_z0 = 1 - nu^2, nu = e^(-gamma1 dt/2); the x
    rotation by theta = 2 pi omega dt turns (<sy>, <sz>) by [[cos, -sin], [sin, cos]]. The
    dilation backends chain the real PTMs of each circuit's CIRCUIT_GATES on ancilla (x) data at
    rates_to_angles' angles, for all D durations at once, and read off the data qubit's PTMs.
    """
    _check_backend(backend, noise)
    for dt in filter(lambda dt: not 0 <= dt < np.inf, durations):  # NaN too; 0 is the identity
        raise ValueError(f"dt must be nonnegative and finite, got {dt}")
    if not durations:
        return np.empty((0, 3, 4, 4))
    if backend != "kraus":
        angles = [rates_to_angles(rates, dt) for dt in durations]
        thetas = zip(*[(a.theta1, a.theta2, a.theta3) for a in angles])
        return _circuit_ptms(list(zip(CIRCUIT_GATES.values(), thetas)), noise).swapaxes(0, 1)
    dt = [float(d) for d in durations]  # Python floats: an overflowing rate x dt is inf, silently
    if not abs(2 * math.pi * rates.omega * max(dt)) < math.inf:  # the longest's angle
        raise ValueError("drive angle 2 pi omega dt overflows: "
                         f"omega={rates.omega}, dt={max(durations)}")
    entries = []  # each R row by row
    for d in dt:
        m, n = math.exp(-rates.gamma_phi * d), math.exp(-rates.gamma1 * d / 2)
        theta = 2 * math.pi * rates.omega * d
        entries += (1, 0, 0, 0,  0, m, 0, 0,  0, 0, m, 0,  0, 0, 0, 1,              # dephasing
                    1, 0, 0, 0,  0, n, 0, 0,  0, 0, n, 0,  1 - n * n, 0, 0, n * n,  # damping
                    *_rx_rows(math.cos(theta), math.sin(theta)))                   # rotation
    return np.fromiter(entries, float, len(entries)).reshape(-1, 3, 4, 4)
