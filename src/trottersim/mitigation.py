"""Zero-noise Richardson extrapolation over scaled noise intensities.

A quantity measured at noise intensity lambda admits a Taylor expansion
E(lambda) = E* + sum_k a_k lambda^k around the noiseless value E*.  Measuring
E at several scaled intensities lambda_i = c_i * lambda (c_0 = 1) and solving
the resulting linear system eliminates the first n Taylor coefficients, giving
the order-n estimate E*_n = sum_i gamma_i E(lambda_i) with error O(lambda^(n+1)).

The coefficients gamma_i are computed with a Lagrange product formula rather
than generic elimination, which makes the conditioning of the underlying
Vandermonde system easy to diagnose; poorly separated scale factors emit a
warning.  A study checks its factors (check_scale_factors) before it measures
one NoisePoint per factor, then extrapolates at every order its N factors
allow, 0 to N - 1; the CLI's simulated study fits T2* with the damping rate
scaled by c, and at zero damping T2* is the pure dephasing time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import check_positive

__all__ = [
    "NoisePoint",
    "ExtrapolationResult",
    "check_scale_factors",
    "richardson_coeffs",
    "extrapolate",
]

_CONDITION_WARN_THRESHOLD = 1e8
_MOMENT_TOL = 1e-8


@dataclass(frozen=True)
class NoisePoint:
    """One measurement at a scaled noise intensity.

    Attributes:
        c: Dimensionless noise scale factor, > 0.  The reference measurement
            has c = 1 and must come first in any sequence fed to extrapolate.
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
        sigma_est: Propagated standard deviation sqrt(sum gammas^2 sigma^2),
            or None when any input sigma was missing.
    """

    order: int
    gammas: tuple[float, ...]
    estimate: float
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
        total = sum(self.gammas)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"coefficients must sum to 1, got {total}")


def check_scale_factors(cs, source):
    """The one scale-factor rule, in order: all positive and finite, the first 1, all distinct.
    A study runs it before it measures anything and extrapolates at every order 0..len(cs) - 1;
    source names the factors in its messages."""
    cs = list(cs)
    if not all(0 < c < np.inf for c in cs):  # also false for NaN
        raise ValueError(f"{source} scale factors must be positive and finite, got {cs}")
    if not cs or abs(cs[0] - 1.0) > 1e-12:
        got = cs[0] if cs else "nothing"
        raise ValueError(f"{source} must start with the unscaled factor 1, got {got}")
    if len(set(cs)) < len(cs):
        raise ValueError(f"{source} repeats a scale factor among the {len(cs)} used: {cs}")


def richardson_coeffs(c, n):
    """Solves for the extrapolation coefficients at order n.

    The coefficients satisfy the moment conditions sum_i gamma_i c_i^k =
    delta_{k0} for k = 0..n, so that the linear combination cancels every
    noise term up to order n.  They are evaluated in closed form as
    gamma_i = prod_{j != i} c_j / (c_j - c_i), the Lagrange basis polynomials
    of the c grid evaluated at zero.

    Args:
        c: Sequence of at least n + 1 distinct positive, finite scale factors; only
            the first n + 1 are used.
        n: Extrapolation order, >= 0.

    Returns:
        Array of n + 1 coefficients.

    Raises:
        ValueError: If n is negative, fewer than n + 1 factors are given,
            a factor is not positive and finite, or two factors coincide (the
            system is singular).
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    cs = np.asarray(c, dtype=float).ravel()[: n + 1]
    if cs.size != n + 1:
        raise ValueError(f"order {n} needs {n + 1} scale factors, got {cs.size}")
    if not np.all((cs > 0) & (cs < np.inf)):  # also false for NaN
        raise ValueError(f"scale factors must be positive and finite, got {cs.tolist()}")
    diffs = cs[None, :] - cs[:, None]  # diffs[i, j] = c_j - c_i
    np.fill_diagonal(diffs, 1.0)
    if np.any(diffs == 0):
        raise ValueError("duplicate scale factors make the system singular")
    gammas = np.prod(cs[None, :] / diffs, axis=1) / cs
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf or NaN below
        powers = cs[None, :] ** np.arange(n + 1)[:, None]  # the transposed Vandermonde matrix
        residual = powers @ gammas - np.eye(n + 1)[0]
    condition = np.linalg.cond(powers) if np.isfinite(powers).all() else np.inf
    if condition > _CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"extrapolation system condition estimate {condition:.2e}; "
            "coefficients may amplify noise severely",
            stacklevel=2,
        )
    if not np.abs(residual).max() <= _MOMENT_TOL:  # also true for NaN
        raise ValueError("moment conditions not met; scale factors too ill-conditioned")
    return gammas


def extrapolate(points, n):
    """Combines measured noise points into an order-n zero-noise estimate.

    Args:
        points: Sequence of NoisePoint; the first must have c = 1 and at
            least n + 1 points are required.  Only the first n + 1 are used.
        n: Extrapolation order.

    Returns:
        ExtrapolationResult with the estimate and, when every point used
        carries a sigma, the propagated standard deviation.

    Raises:
        ValueError: If there are fewer than n + 1 points or the first scale
            factor is not 1.
    """
    points = list(points)
    if len(points) < n + 1:
        raise ValueError(f"order {n} needs {n + 1} points, got {len(points)}")
    if abs(points[0].c - 1.0) > 1e-12:
        raise ValueError(f"first noise point must have c = 1, got {points[0].c}")
    used = points[: n + 1]
    gammas = richardson_coeffs([p.c for p in used], n)
    sigmas = [p.sigma for p in used]
    with np.errstate(over="ignore"):  # an overflow reads as inf, which ExtrapolationResult rejects
        estimate = float(gammas @ [p.value for p in used])
        sigma_est = None if None in sigmas else float(np.sqrt(gammas**2 @ np.square(sigmas)))
    return ExtrapolationResult(
        order=n, gammas=tuple(float(g) for g in gammas), estimate=estimate,
        sigma_est=sigma_est,
    )

