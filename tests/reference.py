"""The tests' exact oracles, independent of the package: the Pauli matrices, the kets |0> and
|1>, density matrices, column-stacking vec and the Pauli basis that turns a superoperator into
its Pauli-transfer matrix; the canonical qubit master equation of trottersim.liouvillian's
docstring as a column-stacking generator, exponentiated by scipy; the dephasing and damping
Kraus pairs of trottersim.channels' rate conventions; the Kraus sum as a superoperator; the
dilation gates' own unitaries and Kraus operators, and the circuits composed from them gate by
gate as Kraus families; the Choi matrix and CPTP check that channels are compared and judged
by; the Bloch-row check written out one row at a time; and a Trotter step composed one label at
a time.
"""

import math

import numpy as np
import scipy.linalg

EYE = np.eye(2)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.diag([1, -1]).astype(complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|, |0> the +1 state of sigma_z
KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)


def vec(m):
    """Column-stacking vectorization: vec(|i><j|) = e_j (x) e_i, so the superoperator of
    A @ rho @ B is np.kron(B.T, A)."""
    return np.asarray(m).reshape(-1, order="F")


def density(ket):
    """Rank-one density matrix |psi><psi| of a nonzero ket, normalized first."""
    ket = np.asarray(ket, dtype=complex).ravel()
    ket = ket / np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


# Columns vec(I), vec(sx), vec(sy), vec(sz): the P of a PTM's superoperator P R P^dag / 2. Its
# conjugate transpose P^dag, rows conj(vec(s)), turns a superoperator S into Re(P^dag S P)/2.
PAULI_COLUMNS = np.stack([vec(m) for m in (EYE, SIGMA_X, SIGMA_Y, SIGMA_Z)], 1)
BLOCH_ROWS = PAULI_COLUMNS.conj().T


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


def dephasing_kraus(gamma_phi, tau):
    """Kraus pair diag(1, mu), diag(0, sqrt(1 - mu^2)), mu = e^(-gamma_phi tau): off-diagonals
    shrink by mu, populations stay."""
    mu = np.exp(-gamma_phi * tau)
    return np.array([np.diag([1.0, mu]), np.diag([0.0, np.sqrt(1.0 - mu * mu)])], dtype=complex)


def damping_kraus(gamma1, tau):
    """Kraus pair diag(1, nu), sqrt(1 - nu^2) |0><1|, nu = e^(-gamma1 tau/2): the |1> population
    decays by nu^2, off-diagonals by nu."""
    nu = np.exp(-gamma1 * tau / 2)
    return np.array([np.diag([1.0, nu]), np.sqrt(1.0 - nu * nu) * SIGMA_MINUS], dtype=complex)


def kraus_superop(ops):
    """Column-stacking superoperator sum_k conj(E_k) (x) E_k of each (k, d, d) Kraus stack E."""
    *batch, _, _, d = np.shape(ops)
    return np.einsum("...kac,...kbd->...abcd", np.conj(ops), ops).reshape(*batch, d * d, d * d)


def rx(theta):
    """exp(-i theta sigma_x / 2)."""
    return np.cos(theta / 2) * EYE - 1j * np.sin(theta / 2) * SIGMA_X


def gate_kraus(kind, theta, adaptive):
    """The Kraus operators of one dilation gate on ancilla (x) data, the ancilla the first factor:
    one unitary, or the feedforward pair |g><g| (x) I, |e><e| (x) X (an ancilla z measurement
    with a conditional data X) for the CNOT when adaptive is "feedforward"."""
    proj_g, proj_e = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return {"ancilla_rx": [np.kron(rx(theta), EYE)], "data_x": [np.kron(EYE, rx(theta))],
            "cz": [np.diag([1.0, 1.0, 1.0, -1.0])],
            "cnot_ancilla_ctrl": [np.kron(proj_g, EYE), np.kron(proj_e, SIGMA_X)]
            if adaptive == "feedforward" else [np.kron(proj_g, EYE) + np.kron(proj_e, SIGMA_X)]}[kind]


def circuit_channel(gates, p_grape=0.0, p_decay=0.0, adaptive="coherent"):
    """Column-stacking superoperator of the data channel a dilation circuit induces, for its
    (kind, theta) gates before the reset: the gates' Kraus operators compose gate by gate into
    one family E_k on ancilla (x) data, with the ancilla decay pair diag(1, sqrt(1 - p_decay)),
    sqrt(p_decay) |g><e| on the ancilla after each two-qubit gate; the data Kraus operators are
    <a|E_k|g> for a = g, e; one depolarization event then mixes in p_grape Tr(rho) I/2."""
    decay = [np.kron(np.diag([1.0, np.sqrt(1.0 - p_decay)]), EYE),
             np.kron(np.sqrt(p_decay) * SIGMA_MINUS, EYE)]
    family = [np.eye(4)]
    for kind, theta in gates:
        family = [g @ e for g in gate_kraus(kind, theta, adaptive) for e in family]
        if kind in ("cz", "cnot_ancilla_ctrl"):
            family = [d @ e for d in decay for e in family]
    s = kraus_superop(np.array([e[2 * a: 2 * a + 2, :2] for e in family for a in (0, 1)]))
    mixer = np.outer(EYE.ravel(), EYE.ravel()) / 2  # X -> Tr(X) I/2, vec(I) = I.ravel()
    return (1 - p_grape) * s + p_grape * mixer @ s


def unvec(v):
    """Inverse of column-stacking vec for square matrices."""
    v = np.asarray(v).ravel()
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((d, d), order="F")


def superop_of(ptm):
    """The superoperator P R P^dag / 2 of a (4, 4) Pauli-transfer matrix R, with P the columns
    vec(I), vec(sx), vec(sy), vec(sz)."""
    return PAULI_COLUMNS @ ptm @ PAULI_COLUMNS.conj().T / 2


def choi(superop):
    """Choi matrix sum_ij |i><j| (x) E(|i><j|) of a (4, 4) column-stacking superoperator, a
    reshuffle of its entries; Tr J = 2."""
    return np.asarray(superop).reshape(2, 2, 2, 2).transpose(3, 1, 2, 0).reshape(4, 4)


def choi_distance(a, b):
    """Frobenius norm of the difference of two superoperators' Choi matrices."""
    return float(np.linalg.norm(choi(a) - choi(b)))


def partial_trace(m, dims, keep):
    """Trace out one factor of a (dA dB, dA dB) operator, A the leftmost Kronecker factor,
    keeping factor keep (0 for A, 1 for B)."""
    m = np.asarray(m)
    da, db = dims
    if m.shape != (da * db, da * db):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    return np.einsum(("ikjk->ij", "kikj->ij")[keep], m.reshape(da, db, da, db))


def is_cptp(superop):
    """Whether the Choi matrix J is Hermitian within 1e-10, has eigenvalues >= -1e-8 (CP) and a
    partial trace over the output factor within 1e-8 of the identity (TP)."""
    j = choi(superop)
    if np.abs(j - j.conj().T).max() > 1e-10:
        return False
    if np.linalg.eigvalsh((j + j.conj().T) / 2).min() < -1e-8:
        return False
    return bool(np.abs(partial_trace(j, (2, 2), keep=0) - EYE).max() <= 1e-8)


def check_bloch_rows(rows, name):
    """trottersim.linalg.check_bloch_rows one row at a time, in Python floats: walk the
    (..., 4) rows in C order and raise, for the first row that fails, its first violated check
    with the package's message (finite entries, |c0 - 1| <= 1e-10, then (c0 - |r|)/2 >= -1e-10
    with |r| = sqrt(x^2 + y^2 + z^2), reported with |r| by math.hypot); return rows."""
    for index in np.ndindex(np.shape(rows)[:-1]):
        c0, x, y, z = map(float, rows[index])
        if not all(map(math.isfinite, (c0, x, y, z))):
            raise ValueError(f"{name(index)} contains non-finite entries")
        if not abs(c0 - 1) <= 1e-10:
            raise ValueError(f"{name(index)} trace deviates from 1 by {abs(c0 - 1):.3e}")
        if not (c0 - math.sqrt(x * x + y * y + z * z)) / 2 >= -1e-10:
            w = (c0 - math.hypot(x, y, z)) / 2
            raise ValueError(f"{name(index)} has negative eigenvalue {w:.3e}")
    return rows


def trotter_step(ptms, labels, order):
    """One Trotter step composed one label at a time from the (2, 3, 4, 4) elementary
    Pauli-transfer matrices at dt and at dt / 2, labels the permutation's indices into their
    second axis: order 1 applies them at dt, the first label first; order 2 applies them at
    dt / 2 forward, then reversed. Each product is label @ (the step so far)."""
    sequence = list(labels) if order == 1 else list(labels) + list(labels)[::-1]
    step = ptms[order - 1][sequence[0]]
    for label in sequence[1:]:
        step = ptms[order - 1][label] @ step
    return step


def damped_solve(a, g, free, lam):
    """The Levenberg-Marquardt step du of (A + lam diag(A)) du = -g over the free coordinates:
    g zeroed and the matrix's rows and columns made the identity's where free is False, then
    one np.linalg.solve."""
    a, free = np.asarray(a, dtype=float), np.asarray(free, dtype=bool)
    eye = np.eye(len(a))
    matrix = np.where(free & free[:, None], a + lam * (a * eye), eye)
    return np.linalg.solve(matrix, -np.asarray(g, dtype=float) * free)
