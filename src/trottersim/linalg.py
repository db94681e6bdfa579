"""Dense complex linear algebra kernel for small (dim <= 16) matrices.

Everything downstream (superoperators, channels, dilation circuits) is built
on plain complex ndarrays plus the checks in this module. The vectorization
convention is fixed once here and used everywhere: ``vec`` stacks columns,
so the superoperator acting as ``A @ rho @ B`` on a vectorized state is
``kron(B.T, A)``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "I2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_MINUS",
    "KET_0",
    "KET_1",
    "dag",
    "kron",
    "vec",
    "unvec",
    "kraus_superop",
    "partial_trace",
    "expm",
    "eigh",
    "is_hermitian",
    "validate_density_matrix",
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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (dims multiply)."""
    return np.kron(np.asarray(a), np.asarray(b))


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


def kraus_superop(*kraus: np.ndarray) -> np.ndarray:
    """Superoperator sum_k conj(E_k) (x) E_k of rho -> sum_k E_k rho E_k^dag.

    The operators may be rectangular (maps between spaces of different size).
    """
    return sum(kron(np.conj(e), e) for e in kraus)


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
    return scipy.linalg.expm(m)


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    """True when max |m_ij - conj(m_ji)| <= tol."""
    m = np.asarray(m)
    return bool(np.abs(m - dag(m)).max() <= tol)


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Args:
        m: Matrix, Hermitian within 1e-10.

    Returns:
        (w, v) with real eigenvalues w ascending and unitary v such that
        v @ diag(w) @ v.conj().T reconstructs m within 1e-10.

    Raises:
        ValueError: If m is not Hermitian within 1e-10.
    """
    m = np.asarray(m)
    if not is_hermitian(m, tol=1e-10):
        raise ValueError("eigh requires a Hermitian matrix (within 1e-10)")
    w, v = np.linalg.eigh((m + dag(m)) / 2)
    return w, v


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Check the density-matrix contract and return rho unchanged.

    Enforces finite entries, Hermiticity within 1e-12, unit trace within
    1e-10, and eigenvalues >= -1e-10, on one matrix or on every matrix of a
    (..., d, d) stack at once. For a stack, name is a template whose ``{}``
    receives the index of the first failing matrix, e.g. "step {} state".

    Raises:
        ValueError: On the first violated invariant of the first failing matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {rho.shape}")
    finite = np.isfinite(rho).all(axis=(-2, -1))
    safe = rho if finite.all() else np.where(finite[..., None, None], rho, 0)  # for eigvalsh
    herm_err = np.abs(safe - dag(safe)).max(axis=(-2, -1))
    tr_err = np.abs(np.trace(safe, axis1=-2, axis2=-1) - 1.0)
    w_min = np.linalg.eigvalsh(safe).min(axis=-1)  # one triangle; herm_err bounds the other
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
