"""Kraus-channel calculus: construction, application, and representation changes.

Channel equality is always decided on Choi matrices (Kraus decompositions are
non-unique). The Choi matrix convention matches the global column-stacking
vectorization: J = sum_k vec(E_k) vec(E_k)^dag = sum_{ij} |i><j| (x) E(|i><j|),
so Tr J = d and the partial trace over the output (second) factor is I for a
trace-preserving channel.

Rate conventions follow the canonical form documented in
:mod:`trottersim.liouvillian`: the dephasing channel multiplies off-diagonals
by e^{-gamma_phi*tau} and the damping channel decays the |1> population as
e^{-gamma1*tau} (off-diagonals by e^{-gamma1*tau/2}). An equivalent textbook
variant writes the dephasing factor as e^{-gamma*tau/2} with gamma twice our
gamma_phi; only the canonical form keeps 1/T2 = gamma1/2 + gamma_phi exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    I2, SIGMA_X, SIGMA_Y, SIGMA_Z, dag, kraus_superop, partial_trace, unvec, vec,
)

__all__ = [
    "KrausChannel",
    "dephasing_channel",
    "damping_channel",
    "unitary_channel",
    "identity_channel",
    "depolarizing_channel",
    "apply_channel",
    "compose_channels",
    "to_superop",
    "to_choi",
    "choi_to_kraus",
    "channel_distance",
    "is_cptp",
]


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving quantum channel as a tuple of Kraus operators.

    Invariant (checked on construction): sum_k E_k^dag E_k = I within 1e-10,
    which no operator with a non-finite entry meets.
    """

    kraus: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self):
        ops = tuple(np.asarray(e, dtype=complex) for e in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for e in ops:
            if e.shape != (d, d):
                raise ValueError(f"Kraus operators must all be {d}x{d}, got {e.shape}")
        comp = sum(dag(e) @ e for e in ops)
        err = np.abs(comp - np.eye(d)).max()
        if not err <= 1e-10:  # also true for NaN
            raise ValueError(f"Kraus completeness violated by {err:.3e}")
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


def _check_rate_and_time(name: str, rate: float, tau: float) -> None:
    if not (0 <= rate < np.inf and 0 <= tau < np.inf):  # also false for NaN
        raise ValueError(f"{name} and tau must be finite and nonnegative, got {rate} and {tau}")


def dephasing_channel(gamma_phi: float, tau: float) -> KrausChannel:
    """Pure-dephasing channel over a time step.

    Kraus pair E0 = diag(1, mu), E1 = diag(0, sqrt(1 - mu^2)) with
    mu = e^{-gamma_phi * tau}: off-diagonals shrink by mu, populations are
    untouched.

    Args:
        gamma_phi: Pure-dephasing rate in 1/us, finite and >= 0.
        tau: Step duration in us, finite and >= 0.

    Raises:
        ValueError: On negative or non-finite inputs.
    """
    _check_rate_and_time("gamma_phi", gamma_phi, tau)
    mu = np.exp(-gamma_phi * tau)
    e0 = np.diag([1.0, mu]).astype(complex)
    e1 = np.diag([0.0, np.sqrt(max(0.0, 1.0 - mu * mu))]).astype(complex)
    return KrausChannel((e0, e1), label="dephasing")


def damping_channel(gamma1: float, tau: float) -> KrausChannel:
    """Amplitude-damping channel over a time step.

    Kraus pair E0 = diag(1, e^{-gamma1*tau/2}),
    E1 = [[0, sqrt(1 - e^{-gamma1*tau})], [0, 0]]: the |1> population decays
    by e^{-gamma1*tau}, off-diagonals by e^{-gamma1*tau/2}.

    Args:
        gamma1: Population decay rate in 1/us, finite and >= 0.
        tau: Step duration in us, finite and >= 0.

    Raises:
        ValueError: On negative or non-finite inputs.
    """
    _check_rate_and_time("gamma1", gamma1, tau)
    nu = np.exp(-gamma1 * tau / 2)
    e0 = np.diag([1.0, nu]).astype(complex)
    e1 = np.zeros((2, 2), dtype=complex)
    e1[0, 1] = np.sqrt(max(0.0, 1.0 - nu * nu))
    return KrausChannel((e0, e1), label="damping")


def unitary_channel(u: np.ndarray, label: str = "unitary") -> KrausChannel:
    """Single-Kraus channel rho -> U rho U^dag for unitary U (within 1e-10)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got {u.shape}")
    err = np.abs(dag(u) @ u - np.eye(u.shape[0])).max()
    if not err <= 1e-10:  # also true for NaN
        raise ValueError(f"matrix is not unitary: deviation {err:.3e}")
    return KrausChannel((u,), label=label)


def identity_channel(dim: int = 2) -> KrausChannel:
    """The do-nothing channel on a dim-dimensional system."""
    return unitary_channel(np.eye(dim), label="identity")


def depolarizing_channel(p: float) -> KrausChannel:
    """Qubit depolarization rho -> (1-p) rho + p I/2 for 0 <= p <= 1."""
    if not 0 <= p <= 1:
        raise ValueError(f"depolarization probability must be in [0, 1], got {p}")
    ops = (
        np.sqrt(1 - 3 * p / 4) * I2,
        np.sqrt(p / 4) * SIGMA_X,
        np.sqrt(p / 4) * SIGMA_Y,
        np.sqrt(p / 4) * SIGMA_Z,
    )
    return KrausChannel(ops, label="depolarizing")


def apply_channel(ch: KrausChannel | np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply a channel given as KrausChannel or superoperator: sum_k E_k rho E_k^dag.

    rho may be any d x d operator; the map is linear.
    """
    s = _superop(ch)
    rho = np.asarray(rho, dtype=complex)
    d = int(round(np.sqrt(s.shape[0])))
    if s.shape != (d * d, d * d) or rho.shape != (d, d):
        raise ValueError(f"operator shape {rho.shape} does not fit a channel of shape {s.shape}")
    return unvec(s @ vec(rho))


def compose_channels(first: KrausChannel, then: KrausChannel) -> KrausChannel:
    """Sequential composition: the returned channel applies `first`, then `then`."""
    if first.dim != then.dim:
        raise ValueError("channel dimensions differ")
    ops = tuple(f @ e for f in then.kraus for e in first.kraus)
    return KrausChannel(ops, label=f"{then.label}*{first.label}")


def to_superop(ch: KrausChannel) -> np.ndarray:
    """Column-stacking superoperator sum_k conj(E_k) (x) E_k of rho -> sum_k E_k rho E_k^dag."""
    return kraus_superop(ch.kraus)


def _superop(ch: KrausChannel | np.ndarray) -> np.ndarray:
    return to_superop(ch) if isinstance(ch, KrausChannel) else np.asarray(ch, dtype=complex)


def _superop_to_choi(s: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(s.shape[0])))
    if s.shape != (d * d, d * d):
        raise ValueError(f"superoperator shape {s.shape} is not (d^2, d^2)")
    # The same index swap converts either direction (it is an involution).
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def to_choi(ch: KrausChannel | np.ndarray) -> np.ndarray:
    """Choi matrix of a channel given as KrausChannel or superoperator.

    Normalization: J = sum_{ij} |i><j| (x) E(|i><j|), so Tr J = d.
    """
    return _superop_to_choi(_superop(ch))


def choi_to_kraus(choi: np.ndarray) -> KrausChannel:
    """Extract a canonical Kraus decomposition from a Choi matrix.

    Eigenvectors with eigenvalue > 1e-12 are kept, scaled by the eigenvalue's
    square root; the cutoff suppresses numerical rank inflation.

    Args:
        choi: d^2 x d^2 Choi matrix, Hermitian within 1e-10 and PSD
            within -1e-8.

    Raises:
        ValueError: If the Choi matrix fails Hermiticity or positivity.
    """
    choi = np.asarray(choi, dtype=complex)
    d = int(round(np.sqrt(choi.shape[0])))
    if choi.shape != (d * d, d * d):
        raise ValueError(f"Choi shape {choi.shape} is not (d^2, d^2)")
    herm_err = np.abs(choi - dag(choi)).max()
    if not herm_err <= 1e-10:
        raise ValueError(f"Choi matrix is not Hermitian: max deviation {herm_err:.3e}")
    w, v = np.linalg.eigh((choi + dag(choi)) / 2)
    if w.min() < -1e-8:
        raise ValueError(f"Choi matrix is not PSD: eigenvalue {w.min():.3e}")
    ops = []
    for k in range(w.size):
        if w[k] > 1e-12:
            ops.append(np.sqrt(w[k]) * v[:, k].reshape(d, d, order="F"))
    return KrausChannel(tuple(ops), label="from-choi")


def channel_distance(a: KrausChannel | np.ndarray, b: KrausChannel | np.ndarray) -> float:
    """Frobenius norm of the Choi-matrix difference; 0 iff the channels agree."""
    ja, jb = to_choi(a), to_choi(b)
    if ja.shape != jb.shape:
        raise ValueError(f"channel dimensions differ: {ja.shape} vs {jb.shape}")
    return float(np.linalg.norm(ja - jb))


def is_cptp(ch: KrausChannel | np.ndarray) -> bool:
    """Whether the Choi matrix J is Hermitian within 1e-10, has eigenvalues >= -1e-8 (CP) and a
    partial trace over the output factor within 1e-8 of the identity (TP)."""
    j = to_choi(ch)
    d = int(round(np.sqrt(j.shape[0])))
    if np.abs(j - dag(j)).max() > 1e-10:
        return False
    if np.linalg.eigvalsh((j + dag(j)) / 2).min() < -1e-8:
        return False
    reduced = partial_trace(j, (d, d), keep=0)
    return bool(np.abs(reduced - np.eye(d)).max() <= 1e-8)
