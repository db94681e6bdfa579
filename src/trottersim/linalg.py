"""Dense complex linear algebra kernel for small (dim <= 16) matrices.

Everything downstream (superoperators, dilation circuits, Pauli-transfer
matrices) is built on plain complex ndarrays plus the checks in this module.
The vectorization convention is fixed once here and used everywhere: ``vec``
stacks columns, so the superoperator acting as ``A @ rho @ B`` on a vectorized
state is ``np.kron(B.T, A)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "I2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SIGMA_MINUS",
    "KET_0",
    "KET_1",
    "vec",
    "rx",
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
_MAX, _MIN = np.maximum.reduce, np.minimum.reduce

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)


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


def rx(theta: float | np.ndarray) -> np.ndarray:
    """x rotation exp(-i theta sigma_x / 2) = cos(theta/2) I - i sin(theta/2) sigma_x, per angle."""
    out = np.empty(np.shape(theta) + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = np.cos(theta / 2)
    out[..., 0, 1] = out[..., 1, 0] = -1j * np.sin(theta / 2)
    return out


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
    eigenvalue (c0 - |r|)/2 >= -1e-10, |r| = sqrt(x*x + y*y + z*z), so each Bloch norm is <=
    1 + 3e-10. As rounding is monotone, max and min c0 bound every |c0 - 1| and (min c0 - sqrt(max
    |r|^2))/2 every eigenvalue; only where those bounds fail does the exact per-row pass run.

    Raises:
        ValueError: On the first violated check of the first failing row in C order, named
            by name(index) with the row's index tuple.
    """
    c0, x, y, z = rows.T  # (..., 4) -> four components, their axes reversed
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite row fails every check
        r2 = x * x  # |r|^2 = x*x + y*y + z*z, added in that order in place
        r2 += y * y
        r2 += z * z
        lo = _MIN(c0, None, initial=np.inf)  # the initial values pass an empty array
        if (_MAX(c0, None, initial=1) - 1 <= 1e-10 and 1 - lo <= 1e-10
                and (lo - math.sqrt(_MAX(r2, None, initial=0))) / 2 >= -1e-10):
            return rows
        bad = ~((np.abs(c0 - 1) <= 1e-10) & ((c0 - np.sqrt(r2)) / 2 >= -1e-10)).T
    if not bad.any():
        return rows
    first = np.unravel_index(np.argmax(bad), bad.shape)  # () for a single row
    if not np.isfinite(rows[first]).all():
        raise ValueError(f"{name(first)} contains non-finite entries")
    _raise_row_failure(rows[first], name(first))


def _raise_row_failure(row, label):
    """Raise the trace or else the eigenvalue failure of one row, |r| by math.hypot, which
    returns inf on overflow where np.hypot warns."""
    c0, r = row[0], math.hypot(row[1], row[2], row[3])
    if abs(c0 - 1) > 1e-10:
        raise ValueError(f"{label} trace deviates from 1 by {abs(c0 - 1):.3e}")
    raise ValueError(f"{label} has negative eigenvalue {(c0 - r) / 2:.3e}")


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Check that one (2, 2) matrix is a qubit state and return its Bloch row.

    In a = rho00, b = rho10, c = rho01 and d = rho11: finite entries, Hermiticity
    max(|a - a*|, |d - d*|, |b - c*|) <= 1e-12, then :func:`check_bloch_rows`'s checks in Python
    floats on the row (Re a + Re d, 2 Re b, 2 Im b, Re a - Re d), read from the lower triangle as
    eigvalsh does. That checked row c = (Tr rho, <sx>, <sy>, <sz>) is the package's state read-out.

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
    (a, c), (b, d) = rho.tolist()  # Python complex numbers: an overflow is inf, rejected
    herm_err = max(2 * max(abs(a.imag), abs(d.imag)), math.hypot(b.real - c.real, b.imag + c.imag))
    if herm_err > 1e-12:
        raise ValueError(f"{name} is not Hermitian: max deviation {herm_err:.3e}")
    row = c0, x, y, z = a.real + d.real, 2 * b.real, 2 * b.imag, a.real - d.real
    if not (abs(c0 - 1) <= 1e-10 and (c0 - math.sqrt(x * x + y * y + z * z)) / 2 >= -1e-10):
        _raise_row_failure(row, name)
    return np.array(row)
