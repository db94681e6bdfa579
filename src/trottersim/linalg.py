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
    "kraus_superop",
    "rx",
    "partial_trace",
    "expm",
    "check_bloch_rows",
    "validate_density_matrix",
    "check_count",
    "check_positive",
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


def kraus_superop(ops: np.ndarray) -> np.ndarray:
    """Column-stacking superoperator sum_k conj(E_k) (x) E_k of a (k, d, d) Kraus stack E."""
    d = np.shape(ops)[-1]
    return np.einsum("kac,kbd->abcd", np.conj(ops), ops).reshape(d * d, d * d)


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


def check_positive(name: str, value) -> None:
    """Reject a value that is not positive and finite (NaN included), naming it."""
    if not 0 < value < np.inf:  # also true for NaN
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_bloch_rows(rows: np.ndarray, name) -> np.ndarray:
    """Check that each Bloch row c = (Tr rho, <sx>, <sy>, <sz>) of a real (..., 4) array is a
    qubit state and return rows unchanged: finite entries, |c0 - 1| <= 1e-10 and smallest
    eigenvalue (c0 - |(c1, c2, c3)|)/2 >= -1e-10, so each Bloch norm is <= 1 + 3e-10.

    Raises:
        ValueError: On the first violated check of the first failing row in C order, named
            by name(index) with the row's index tuple.
    """
    c0, x, y, z = np.moveaxis(rows, -1, 0)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite row fails both checks
        tr_err, w_min = np.abs(c0 - 1), (c0 - np.sqrt(x * x + y * y + z * z)) / 2
    bad = ~((tr_err <= 1e-10) & (w_min >= -1e-10))
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)  # () for a single row
        if not np.isfinite(rows[first]).all():
            raise ValueError(f"{name(first)} contains non-finite entries")
        _raise_row_failure(rows[first], name(first))
    return rows


def _raise_row_failure(row, label):
    """Raise the trace or else the eigenvalue failure of one row, |r| by overflow-safe hypot."""
    c0, r = row[0], np.hypot(np.hypot(row[1], row[2]), row[3])
    if abs(c0 - 1) > 1e-10:
        raise ValueError(f"{label} trace deviates from 1 by {abs(c0 - 1):.3e}")
    raise ValueError(f"{label} has negative eigenvalue {(c0 - r) / 2:.3e}")


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Check that one (2, 2) matrix is a qubit state and return its Bloch row.

    In a = rho00, b = rho10, c = rho01 and d = rho11: finite entries, Hermiticity
    max(|a - a*|, |d - d*|, |b - c*|) <= 1e-12, then :func:`check_bloch_rows` on the row
    (Re a + Re d, 2 Re b, 2 Im b, Re a - Re d), read from the lower triangle as eigvalsh does.
    That checked row c = (Tr rho, <sx>, <sy>, <sz>) is the one read-out of a state in the package.

    Raises:
        ValueError: On another shape or the first violated check.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {rho.shape}")
    if rho.shape != (2, 2):
        raise ValueError(f"{name} must be a 2x2 qubit state, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError(f"{name} contains non-finite entries")
    (a, c), (b, d) = rho
    herm_err = max(2 * max(abs(a.imag), abs(d.imag)), abs(b - c.conjugate()))
    if herm_err > 1e-12:
        raise ValueError(f"{name} is not Hermitian: max deviation {herm_err:.3e}")
    with np.errstate(over="ignore"):  # from finite entries, an overflow fails trace or eigenvalue
        row = np.array([a.real + d.real, 2 * b.real, 2 * b.imag, a.real - d.real])
    if not np.isfinite(row).all():
        _raise_row_failure(row, name)
    return check_bloch_rows(row, lambda _: name)
