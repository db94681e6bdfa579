"""Dense complex linear algebra kernel for small (dim <= 16) matrices.

Everything downstream (superoperators, channels, dilation circuits) is built
on plain complex ndarrays plus the checks in this module. The vectorization
convention is fixed once here and used everywhere: ``vec`` stacks columns,
so the superoperator acting as ``A @ rho @ B`` on a vectorized state is
``np.kron(B.T, A)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "I2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_MINUS",
    "KET_0",
    "KET_1",
    "dag",
    "vec",
    "unvec",
    "rx",
    "partial_trace",
    "expm",
    "validate_density_matrix",
    "check_count",
    "density",
]

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# Lowering operator |0><1| in the sigma_z eigenbasis with |0> the +1 state.
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a (..., d, d) stack."""
    return np.conj(np.asarray(m)).swapaxes(-2, -1)


def density(ket: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi| from a (not necessarily normalized) ket."""
    ket = np.asarray(ket, dtype=complex).ravel()
    norm = np.linalg.norm(ket)
    if norm == 0:
        raise ValueError("cannot build a density matrix from the zero vector")
    ket = ket / norm
    return np.outer(ket, ket.conj())


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(|i><j|) = e_j (x) e_i."""
    return np.asarray(m).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(v).ravel()
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a vectorized square matrix")
    return v.reshape((d, d), order="F")


def rx(theta: float) -> np.ndarray:
    """x rotation exp(-i theta sigma_x / 2) = cos(theta/2) I - i sin(theta/2) sigma_x."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    Args:
        m: Square matrix on the composite space, shape (dA*dB, dA*dB),
            with subsystem A the slower (leftmost) Kronecker factor.
        dims: Subsystem dimensions (dA, dB).
        keep: Index of the subsystem to keep, 0 for A or 1 for B.

    Returns:
        The reduced operator on the kept subsystem. Its trace equals Tr(m).

    Raises:
        ValueError: If the shape does not match dims or keep is not 0/1.
    """
    m = np.asarray(m)
    da, db = dims
    if m.shape != (da * db, da * db):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    r = m.reshape(da, db, da, db)
    if keep == 0:
        return np.einsum("ikjk->ij", r)
    if keep == 1:
        return np.einsum("kikj->ij", r)
    raise ValueError(f"keep must be 0 or 1, got {keep}")


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scipy's scaling-and-squaring Pade algorithm.

    Args:
        m: Square matrix, or a stack of them with shape (..., d, d).

    Returns:
        exp(m) as a complex array of the same shape, one exponential per
        trailing (d, d) block.

    Raises:
        ValueError: If the trailing two dimensions are not square.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expm requires a square matrix, got shape {m.shape}")
    import scipy.linalg  # here, so that importing the package loads no scipy module
    return scipy.linalg.expm(m)


def check_count(name: str, value) -> None:
    """Reject a bool, a non-integer or a value < 1 for a count, naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _qubit_invariants(rho: np.ndarray) -> tuple[np.ndarray, ...]:
    """Finite mask and the closed-form checks of validate_density_matrix on a (..., 2, 2) stack."""
    finite = np.isfinite(rho).all(axis=(-2, -1))
    safe = rho if finite.all() else np.where(finite[..., None, None], rho, 0)
    a, c, b, d = np.moveaxis(safe.reshape(*rho.shape[:-2], 4), -1, 0)  # rho00, rho01, rho10, rho11
    herm_err = np.maximum(2 * np.maximum(np.abs(a.imag), np.abs(d.imag)), np.abs(b - c.conj()))
    w_min = (a.real + d.real) / 2 - np.hypot((a.real - d.real) / 2, np.abs(b))
    return finite, herm_err, np.abs(a + d - 1.0), w_min


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Check the qubit density-matrix contract and return rho unchanged.

    Checks qubits only: one (2, 2) matrix or every matrix of a (..., 2, 2)
    stack at once. In a = rho00, b = rho10, c = rho01 and d = rho11 it
    enforces, in closed form with no LAPACK call: finite entries;
    Hermiticity, max(|a - a*|, |d - d*|, |b - c*|) <= 1e-12; unit trace,
    |a + d - 1| <= 1e-10; and a smallest eigenvalue
    (Re a + Re d)/2 - sqrt(((Re a - Re d)/2)^2 + |b|^2) >= -1e-10, read from
    the lower triangle as eigvalsh does (the Hermiticity check bounds the
    other). For a stack, name is a template whose ``{}`` receives the index
    of the first failing matrix, e.g. "step {} state".

    Raises:
        ValueError: On another shape or the first violated invariant of the first failing matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {rho.shape}")
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"{name} must be a 2x2 qubit state, got shape {rho.shape}")
    finite, herm_err, tr_err, w_min = _qubit_invariants(rho)
    bad = ~finite | (herm_err > 1e-12) | (tr_err > 1e-10) | (w_min < -1e-10)
    if not bad.any():
        return rho
    first = np.unravel_index(np.argmax(bad), bad.shape)  # () for a single matrix
    name = name.format(*first) if first else name
    if not finite[first]:
        raise ValueError(f"{name} contains non-finite entries")
    if herm_err[first] > 1e-12:
        raise ValueError(f"{name} is not Hermitian: max deviation {herm_err[first]:.3e}")
    if tr_err[first] > 1e-10:
        raise ValueError(f"{name} trace deviates from 1 by {tr_err[first]:.3e}")
    raise ValueError(f"{name} has negative eigenvalue {w_min[first]:.3e}")
