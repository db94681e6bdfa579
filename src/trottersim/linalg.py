"""The package's input checks, each a ValueError naming its input.

``check_count``, ``check_positive``, ``check_span``, ``check_samples`` and ``check_grid`` check
counts, durations, each grid t = j*dt's span, records on it and two steps, ``check_bloch_rows``
Bloch rows, and ``validate_density_matrix`` one 2x2 state, read out as its checked Bloch row.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["check_bloch_rows", "validate_density_matrix", "check_count", "check_positive",
           "check_span", "check_samples", "check_grid"]

_MAX, _MIN = np.maximum.reduce, np.minimum.reduce
_SPAN, _SPAN_TEXT = 1.34e154, "1.34e154"  # a grid's last time t, where t^2 stays finite


def check_count(name: str, value, lo: int = 1) -> None:
    """Reject a bool, a non-integer or a value < lo for a count, naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")


def check_positive(name: str, value) -> None:
    """Reject a value that is not one positive finite number (NaN, an array included), naming it."""
    if not (getattr(value, "ndim", 0) == 0 and 0 < value < np.inf):  # also true for NaN
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_span(n, dt, n_name: str, dt_name: str) -> None:
    """Reject a grid t = j*dt, j = 0..n, unless dt > 0 is finite and n*dt < 1.34e154, by name."""
    check_positive(dt_name, dt)
    if not float(n) * float(dt) < _SPAN:  # inf fails too
        raise ValueError(f"{n_name} * {dt_name} must be below {_SPAN_TEXT}, got {n} * {dt}")


def check_samples(dt, block: np.ndarray, name: str, axis: int) -> tuple[float, np.ndarray]:
    """float(dt) and a read-only float view of a real block sampled at t = j*dt, j = 0..N, on axis;
    a complex block or a grid that :func:`check_span` rejects, named N and dt, is a ValueError."""
    check_span(block.shape[axis] - 1, dt, "N", "dt")
    if block.dtype.kind == "c":  # a float conversion would drop the imaginary part
        raise ValueError(f"{name} must be real, got dtype {block.dtype}")
    dt, view = float(dt), np.asarray(block, dtype=float).view()
    view.flags.writeable = False  # the view's flag alone: the caller's array stays writable
    return dt, view


def check_grid(dt, dt0, message: str) -> None:
    """Raise ValueError(message) unless step dt is dt0 to rounding: |dt - dt0| <= 4 eps dt0."""
    if not abs(dt - dt0) <= 4 * math.ulp(1.0) * dt0:  # one rounding apart is <= 2 eps dt0
        raise ValueError(message)


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
