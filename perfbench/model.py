"""Independent reference physics for the benchmark's output checks.

Nothing here imports trottersim. The driven lossy qubit follows the paper's
master equation in the textbook form

    d(rho)/dt = -i[H, rho] + sum_k (L_k rho L_k^dag - 1/2 {L_k^dag L_k, rho})

with H = (Omega/2) sigma_x, Omega = 2 pi omega, L_1 = sqrt(gamma1) |0><1| and
L_phi = sqrt(gamma_phi / 2) sigma_z, so that populations relax as
e^{-gamma1 t} and coherences decay as e^{-(gamma1/2 + gamma_phi) t}.
States are vectorized row by row (vec(A X B) = (A kron B^T) vec(X)), a
different convention from the package's column stacking, and every
propagator comes from scipy.linalg.expm.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|, |0> has <sigma_z> = +1

LABELS = ("dephasing", "damping", "rotation")


def rates_from_angles(theta1_deg, theta2_deg, theta3_deg, tau0):
    """(gamma1, gamma_phi, omega) of a dilation cycle, as given in the paper."""
    t1, t2 = math.radians(theta1_deg), math.radians(theta2_deg)
    return (
        -math.log(math.cos(t2) ** 2) / tau0,
        -math.log(math.cos(t1)) / tau0,
        theta3_deg / (360.0 * tau0),
    )


def _dissipator(c):
    cdc = c.conj().T @ c
    return np.kron(c, c.conj()) - 0.5 * np.kron(cdc, I2) - 0.5 * np.kron(I2, cdc.T)


def generator(gamma1=0.0, gamma_phi=0.0, omega=0.0):
    """4x4 Lindbladian acting on row-stacked density matrices."""
    h = math.pi * omega * SX
    gen = -1j * (np.kron(h, I2) - np.kron(I2, h.T))
    gen = gen + _dissipator(math.sqrt(gamma1) * LOWER)
    return gen + _dissipator(math.sqrt(gamma_phi / 2) * SZ)


def bloch_state(r):
    """Row-stacked density matrix with Bloch vector r."""
    rho = (I2 + r[0] * SX + r[1] * SY + r[2] * SZ) / 2
    return rho.reshape(-1)


def _observe(vecs):
    """(len, 3) Bloch vectors of a sequence of row-stacked states."""
    rho = np.asarray(vecs).reshape(-1, 2, 2)
    return np.stack(
        [np.einsum("ij,nji->n", s, rho).real for s in (SX, SY, SZ)], axis=1
    )


def stepped(step, r0, n_steps):
    """(n_steps+1, 3) Bloch vectors of r0 under n_steps applications of step."""
    v = bloch_state(r0)
    out = np.empty((n_steps + 1, 4), dtype=complex)
    out[0] = v
    for j in range(n_steps):
        v = step @ v
        out[j + 1] = v
    return _observe(out)


def exact_step(rates, dt):
    return expm(generator(*rates) * dt)


def trotter_step(rates, dt, order, permutation):
    """One product-formula step from exact sub-generator exponentials.

    The first label acts first; second order runs the half-duration
    sequence forward, then reversed.
    """
    gamma1, gamma_phi, omega = rates
    parts = {
        "dephasing": generator(gamma_phi=gamma_phi),
        "damping": generator(gamma1=gamma1),
        "rotation": generator(omega=omega),
    }
    if order == 1:
        seq = [(label, dt) for label in permutation]
    else:
        seq = [(label, dt / 2) for label in permutation]
        seq += [(label, dt / 2) for label in reversed(permutation)]
    step = np.eye(4, dtype=complex)
    for label, tau in seq:
        step = expm(parts[label] * tau) @ step
    return step


def undriven_closed_form(rates, r0, times):
    """Bloch vectors of the undriven qubit: z relaxes to +1, x and y decay."""
    gamma1, gamma_phi, _ = rates
    t = np.asarray(times, dtype=float)
    coh = np.exp(-(gamma1 / 2 + gamma_phi) * t)
    z = 1.0 + (r0[2] - 1.0) * np.exp(-gamma1 * t)
    return np.stack([r0[0] * coh, r0[1] * coh, z], axis=1)


def accuracy(bloch, reference):
    """sqrt(sum over j >= 1 and x, y, z of squared deviations / N)."""
    diff = np.asarray(bloch)[1:] - np.asarray(reference)[1:]
    return float(np.sqrt((diff**2).sum() / (len(bloch) - 1)))


def tomography_curves(step, n_steps):
    """(12, n_steps+1) curves for |0>, |+>, |+i>, |1> times x, y, z."""
    rows = []
    for r0 in ((0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, -1)):
        rows.extend(stepped(step, r0, n_steps).T)
    return np.array(rows)


def rms(curves, data):
    return float(np.sqrt(((np.asarray(curves) - np.asarray(data)) ** 2).mean()))


def lagrange_at_zero(cs):
    """Weights w_i with sum_i w_i p(c_i) = p(0) for every polynomial of degree < len(cs)."""
    weights = []
    for i, ci in enumerate(cs):
        w = 1.0
        for j, cj in enumerate(cs):
            if j != i:
                w *= cj / (cj - ci)
        weights.append(w)
    return weights
