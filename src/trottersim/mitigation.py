"""Zero-noise Richardson extrapolation over scaled noise intensities.

A quantity measured at noise intensity lambda admits a Taylor expansion
E(lambda) = E* + sum_k a_k lambda^k around the noiseless value E*.  Measuring
E at several scaled intensities lambda_i = c_i * lambda (c_0 = 1) and solving
the resulting linear system eliminates the first n Taylor coefficients, giving
the order-n estimate E*_n = sum_i gamma_i E(lambda_i) with error O(lambda^(n+1)).

A study checks its factors (check_scale_factors) before it measures one
NoisePoint per factor; one extrapolate call then returns every order its N
factors allow, 0 to N - 1.  The coefficients gamma_i come from a Lagrange
product formula rather than generic elimination, and each order records the
condition number of its Vandermonde system, which says how much the weights
amplify the noise.  The CLI's simulated study fits T2* with the damping rate
scaled by c, and at zero damping T2* is the pure dephasing time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_positive

__all__ = [
    "NoisePoint",
    "ExtrapolationResult",
    "check_scale_factors",
    "extrapolate",
]

_MOMENT_TOL = 1e-8


@dataclass(frozen=True)
class NoisePoint:
    """One measurement at a scaled noise intensity.

    Attributes:
        c: Dimensionless noise scale factor, > 0.  The reference measurement
            has c = 1 and comes first in any sequence fed to extrapolate.
        value: Measured expectation value at this intensity.
        sigma: Optional standard deviation of value, >= 0.
    """

    c: float
    value: float
    sigma: float | None = None

    def __post_init__(self):
        check_positive("c", self.c)
        for name in ("value", "sigma"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.sigma is not None and self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class ExtrapolationResult:
    """Order-n Richardson estimate of the zero-noise value.

    Attributes:
        order: Extrapolation order n (0 means no mitigation).
        gammas: Combination coefficients, one per noise point used.
        estimate: Zero-noise estimate sum_i gammas[i] * value_i.
        condition: 2-norm condition number, >= 1, of the transposed Vandermonde
            matrix c_i^k (k, i = 0..n): how much the weights can amplify noise.
        sigma_est: Propagated standard deviation sqrt(sum gammas^2 sigma^2),
            or None when any input sigma was missing.
    """

    order: int
    gammas: tuple[float, ...]
    estimate: float
    condition: float
    sigma_est: float | None = None

    def __post_init__(self):
        if self.order < 0 or len(self.gammas) != self.order + 1:
            raise ValueError("need exactly order + 1 coefficients")
        for name in ("estimate", "gammas", "sigma_est"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v).all():
                raise ValueError(f"{name} must be finite, got {v}")
        if self.sigma_est is not None and self.sigma_est < 0:
            raise ValueError(f"sigma_est must be nonnegative, got {self.sigma_est}")
        if not self.condition >= 1:  # also true for NaN
            raise ValueError(f"condition must be at least 1, got {self.condition}")
        total = sum(self.gammas)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"coefficients must sum to 1, got {total}")


def check_scale_factors(cs, source):
    """The one scale-factor rule, in order: all positive and finite, the first 1, all distinct.
    A study runs it before it measures anything, and extrapolate runs it on its points' factors;
    source names the factors in its messages."""
    cs = list(cs)
    if not all(0 < c < np.inf for c in cs):  # also false for NaN
        raise ValueError(f"{source} scale factors must be positive and finite, got {cs}")
    if not cs or abs(cs[0] - 1.0) > 1e-12:
        got = cs[0] if cs else "nothing"
        raise ValueError(f"{source} must start with the unscaled factor 1, got {got}")
    if len(set(cs)) < len(cs):
        raise ValueError(f"{source} repeats a scale factor among the {len(cs)} used: {cs}")


def _weights(cs):
    """The Lagrange weights gamma_i = prod_{j != i} c_j / (c_j - c_i) of the factors cs, an
    array that passed check_scale_factors, and the condition number of the transposed
    Vandermonde matrix.  The weights meet the moment conditions sum_i gamma_i c_i^k =
    delta_{k0} for k < len(cs), or a ValueError says they do not; an overflowing power always
    misses them, so the matrix is finite where its condition number is taken."""
    diffs = cs[None, :] - cs[:, None]  # diffs[i, j] = c_j - c_i
    np.fill_diagonal(diffs, 1.0)
    gammas = np.prod(cs[None, :] / diffs, axis=1) / cs
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf or NaN below
        powers = cs[None, :] ** np.arange(cs.size)[:, None]  # the transposed Vandermonde matrix
        residual = powers @ gammas - np.eye(cs.size)[0]
    if not np.abs(residual).max() <= _MOMENT_TOL:  # also true for NaN
        raise ValueError("moment conditions not met; scale factors too ill-conditioned")
    return gammas, float(np.linalg.cond(powers))


def extrapolate(points):
    """Combines measured noise points into a zero-noise estimate at every order they allow.

    Args:
        points: Sequence of N NoisePoint whose factors pass check_scale_factors.

    Returns:
        Tuple of N ExtrapolationResult, order n from the first n + 1 points.  Each carries
        its system's condition number and, when every point it uses carries a sigma, the
        propagated standard deviation.

    Raises:
        ValueError: If the factors break the rule, or an order's weights miss their moment
            conditions: its system is too ill-conditioned.
    """
    points = list(points)
    cs = np.array([p.c for p in points], dtype=float)
    check_scale_factors(cs.tolist(), "points")
    values = np.array([p.value for p in points], dtype=float)
    sigmas = [p.sigma for p in points]
    results = []
    for n in range(len(points)):
        gammas, condition = _weights(cs[: n + 1])
        used = sigmas[: n + 1]
        with np.errstate(over="ignore"):  # an overflow reads as inf, which the result rejects
            estimate = float(gammas @ values[: n + 1])
            sigma_est = None if None in used else float(np.sqrt(gammas**2 @ np.square(used)))
        results.append(ExtrapolationResult(
            order=n, gammas=tuple(float(g) for g in gammas), estimate=estimate,
            condition=condition, sigma_est=sigma_est,
        ))
    return tuple(results)
