"""Twelve-curve tomography generation and global (T1, T2, Omega) fitting.

Four initial states (|0>, |+>, |+i>, |1>) times three Pauli observables give
twelve evolution curves on a shared time grid. The global fit minimizes the
unweighted sum of squared deviations between those curves and the exact
master-equation model, parameterized internally by the rates
(1/T1, pure dephasing, Omega) so the physicality constraint T2 <= 2*T1 holds
by construction. The model is the closed-form (Torrey) Bloch solution: one
call scores a grid of starts, and the best row starts one bounded trust-region
least-squares run on the 12*(N+1) residuals with an exact complex-step Jacobian.
Optional sampling noise replaces each expectation x by 2k/s - 1 with
k ~ Binomial(s, (1+x)/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import KET_0, KET_1, density
from .liouvillian import CanonicalRates, EvolutionTrace, pauli_expectations, target_trace

__all__ = [
    "STATE_LABELS",
    "OBS_LABELS",
    "INITIAL_STATES",
    "TomographySet",
    "FitResult",
    "generate_tomography",
    "global_fit",
    "dephasing_time",
]

STATE_LABELS = ("0", "+", "+i", "1")
OBS_LABELS = ("x", "y", "z")

INITIAL_STATES = {
    "0": KET_0,
    "+": (KET_0 + KET_1) / np.sqrt(2),
    "+i": (KET_0 + 1j * KET_1) / np.sqrt(2),
    "1": KET_1,
}

_RATE_FLOOR = 1e-6  # 1/us lower bound keeping infinite-coherence limits stable
_RATE_CEIL = 2.0


@dataclass(frozen=True, eq=False)
class TomographySet:
    """Twelve evolution curves keyed by (initial state, observable).

    data maps (state label, observable label) to an expectation array on the
    shared times grid; shots records the sampling depth (None = noiseless).
    """

    times: np.ndarray
    data: dict[tuple[str, str], np.ndarray]
    shots: int | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if not (np.isfinite(times).all() and np.all(np.diff(times) > 0)):
            raise ValueError(f"times must be finite and strictly increasing, got {times}")
        object.__setattr__(self, "times", times)
        keys = {(s, o) for s in STATE_LABELS for o in OBS_LABELS}
        if set(self.data) != keys:
            raise ValueError("tomography set must hold exactly the 12 state/observable curves")
        eps = 3.0 / np.sqrt(self.shots) if self.shots else 1e-8
        clean = {}
        for key, values in self.data.items():
            arr = np.asarray(values, dtype=float)
            if arr.shape != times.shape:
                raise ValueError(f"curve {key} length {arr.shape} != times {times.shape}")
            if not np.all(np.abs(arr) <= 1 + eps):  # also false for NaN
                raise ValueError(f"curve {key} is not finite within the expectation range [-1, 1]")
            clean[key] = arr
        object.__setattr__(self, "data", clean)

    def curve(self, state: str, obs: str) -> np.ndarray:
        return self.data[(state, obs)]

    def as_matrix(self) -> np.ndarray:
        """(12, npoints) array, rows in (state-major, observable-minor) order."""
        return np.stack([self.data[(s, o)] for s in STATE_LABELS for o in OBS_LABELS])


def generate_tomography(
    rates: CanonicalRates,
    tau0: float = 3.56,
    n_steps: int = 13,
    shots: int | None = None,
    seed: int | None = None,
    evolve: Callable[[np.ndarray], EvolutionTrace] | None = None,
) -> TomographySet:
    """Simulate the twelve tomography curves.

    Args:
        rates: Canonical rates of the generating dynamics.
        tau0: Sample spacing in us.
        n_steps: Number of steps (n_steps + 1 samples per curve).
        shots: Per-point sampling depth; None for exact expectations.
        seed: Seed for the binomial sampler (fixed seed gives identical output).
        evolve: Optional replacement dynamics, called per initial state as
            evolve(rho0) -> EvolutionTrace on the same grid (e.g. a
            Trotterized engine run); defaults to the exact master-equation
            trace at `rates`.

    Returns:
        TomographySet on the grid t = j*tau0.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if evolve is None:
        evolve = lambda rho0: target_trace(rates, rho0, tau0, n_steps)
    times = np.arange(n_steps + 1) * tau0
    rng = np.random.default_rng(seed)
    data: dict[tuple[str, str], np.ndarray] = {}
    for state in STATE_LABELS:
        tr = evolve(density(INITIAL_STATES[state]))
        if len(tr) != n_steps + 1 or np.abs(tr.times - times).max() > 1e-9:
            raise ValueError("evolve returned a trace on a different time grid")
        for obs, values in zip(OBS_LABELS, (tr.sx, tr.sy, tr.sz)):
            if shots is None:
                data[(state, obs)] = np.asarray(values, dtype=float)
            else:
                p = np.clip((1.0 + values) / 2.0, 0.0, 1.0)
                k = rng.binomial(shots, p)
                data[(state, obs)] = 2.0 * k / shots - 1.0
    return TomographySet(times, data, shots=shots)


@dataclass(frozen=True)
class FitResult:
    """Globally fitted coherence parameters.

    Attributes:
        t1: Relaxation time in us.
        t2: Coherence time in us (t2 <= 2*t1 by construction).
        omega: Rabi rate in MHz.
        residual: Root-mean-square deviation over all 12*(N+1) points.
        converged: Whether the least-squares run stopped on a tolerance
            rather than its evaluation cap (not a goodness of fit).
    """

    t1: float
    t2: float
    omega: float
    residual: float
    converged: bool

    def __post_init__(self):
        if self.t2 > 2 * self.t1 * (1 + 1e-6):
            raise ValueError(f"unphysical fit: T2={self.t2} exceeds 2*T1={2 * self.t1}")


_BLOCH0 = np.array([pauli_expectations(density(INITIAL_STATES[s])) for s in STATE_LABELS])
_SERIES_BELOW = 1e-5  # |st|^2 below which cosh(st) and sinh(st)/(st) take their series
_COMPLEX_STEP = 1e-20


def _bloch_model(u: np.ndarray, tau0: float, npoints: int) -> np.ndarray:
    """(K, 12, npoints) model expectations for a (K, 3) block u of rows (r1, rphi, omega).

    Torrey's solution at t = j*tau0, with G1 = r1, G2 = r1/2 + rphi, w = 2 pi omega:
    <x> = x0 e^{-G2 t}, (<y>, <z>) = v_ss + e^{Mt} (v0 - v_ss), M = [[-G2, -w], [w, -G1]],
    v_ss = -M^{-1} (0, G1), e^{Mt} = e^{mt} (cosh(st) I + sinh(st)/s (M - mI)) with
    m = -(G1 + G2)/2, s^2 = ((G1 - G2)/2)^2 - w^2. Real for real u, analytic in u.
    """
    g1, rphi, omega = np.asarray(u).T[:, :, None]
    g2, w = g1 / 2 + rphi, 2 * np.pi * omega
    m, a, det = -(g1 + g2) / 2, (g1 - g2) / 2, g1 * g2 + w * w
    t = np.arange(npoints) * tau0
    q, emt = a * a - w * w, np.exp(m * t)  # q = s^2: s is real for q > 0, else imaginary
    z, hyp = q * t * t, q.real > 0
    small = np.abs(z) < _SERIES_BELOW  # t = 0, and near s = 0 (the exceptional point a = +-w)
    x = np.where(small, 1.0, np.sqrt(np.where(hyp, q, -q)) * t)  # |st|
    # For real s, e^{(m+s)t} (m + s = det/(m - s) cancels nothing) and expm1(-2st) stay in [-1, 1].
    e, d = np.exp(det * t * t / (m * t - x)), np.expm1(-2 * x)
    cosh = np.where(small, emt * (1 + z / 2 + z * z / 24),  # e^{mt} cosh(st)
                    np.where(hyp, e * (1 + d / 2), emt * np.cos(x)))
    sinh = t * np.where(small, emt * (1 + z / 6 + z * z / 120),  # e^{mt} sinh(st)/s
                        np.where(hyp, -e * d / (2 * x), emt * np.sin(x) / x))
    vss = np.concatenate([-w * g1, g1 * g2], axis=1)[:, None] / det[:, None]  # (K, 1, 2)
    dv = _BLOCH0[:, 1:] - vss  # v0 - v_ss, (K, state, 2)
    mv = dv @ np.concatenate([a, w, -w, -a], axis=1).reshape(-1, 2, 2)  # (M - mI)(v0 - v_ss)
    yz = vss[..., None] + dv[..., None] * cosh[:, None, None] + mv[..., None] * sinh[:, None, None]
    xs = _BLOCH0[:, :1, None] * np.exp(-g2 * t)[:, None, None]
    return np.concatenate([xs, yz], axis=2).reshape(len(g1), 12, npoints)


def _bloch_jacobian(u: np.ndarray, tau0: float, npoints: int) -> np.ndarray:
    """(12*npoints, 3) derivatives at one row u: stepping parameter k by i*h puts h times
    its derivative in the imaginary part, exact to round-off as nothing is subtracted."""
    rows = np.asarray(u) + 1j * _COMPLEX_STEP * np.eye(3)
    return _bloch_model(rows, tau0, npoints).imag.reshape(3, -1).T / _COMPLEX_STEP


def _estimate_t2_rate(ts: TomographySet) -> float | None:
    """1/T2 seed from the drive-invariant <sigma_x> decay of the |+> state."""
    x = ts.curve("+", "x")
    mask = x > 0.05
    if mask.sum() >= 3:
        slope = np.polyfit(ts.times[mask], np.log(x[mask]), 1)[0]
        return float(np.clip(-slope, _RATE_FLOOR, _RATE_CEIL))
    return None


def _estimate_omega(ts: TomographySet) -> float:
    """Rabi seed from the initial <sigma_y> slope of the |1> state."""
    sy = ts.curve("1", "y")
    return float(abs(sy[1] - sy[0]) / (2 * np.pi * ts.times[1]))


def _candidate_starts(ts: TomographySet) -> list[list[float]]:
    tau0 = ts.times[1] - ts.times[0]
    nyquist = 0.5 / tau0
    om_est = min(_estimate_omega(ts), nyquist)
    omegas = sorted(
        {0.0, om_est, 0.5 * om_est, 1.5 * om_est}
        | set(np.linspace(0.0, nyquist, 8).tolist())
    )
    r1s = np.geomspace(1e-4, 0.5, 10)
    r2_est = _estimate_t2_rate(ts)
    cands = []
    for r1 in r1s:
        rphis = np.geomspace(1e-4, 0.5, 6) if r2_est is None else [max(0.0, r2_est - r1 / 2)]
        cands += [[r1, rphi, om] for rphi in rphis for om in omegas]
    return cands


def global_fit(ts: TomographySet) -> FitResult:
    """Fit (T1, T2, Omega) to all twelve curves by least squares.

    Bounded trust-region reflective least squares over the internal
    parameters (1/T1, pure-dephasing rate, Omega) with the closed-form model's
    complex-step Jacobian, run once from the best row of a start grid that
    one model call scores.

    Args:
        ts: Tomography curves on a uniform time grid with >= 6 points.

    Returns:
        FitResult of that run; `converged` is True when it ended on one of
        its tolerances rather than its evaluation cap.
    """
    npoints = ts.times.size
    if npoints < 6:
        raise ValueError("global fit needs at least 6 time points per curve")
    steps = np.diff(ts.times)
    if np.abs(steps - steps[0]).max() > 1e-9:
        raise ValueError("global fit requires a uniform time grid")
    tau0 = float(steps[0])
    data = ts.as_matrix()
    # Imported here: scipy.optimize adds about half again to the package's cold
    # import, which every CLI command would pay whether or not it fits.
    from scipy.optimize import least_squares

    def residuals(u: np.ndarray) -> np.ndarray:
        return (_bloch_model(u[None], tau0, npoints)[0] - data).ravel()

    lo = np.array([_RATE_FLOOR, 0.0, 0.0])
    hi = np.array([_RATE_CEIL, _RATE_CEIL, 0.5 / tau0])
    cands = np.clip(_candidate_starts(ts), lo, hi)
    scores = ((_bloch_model(cands, tau0, npoints) - data) ** 2).sum(axis=(1, 2))
    res = least_squares(  # from the best row; argmin takes the first of tied rows
        residuals, cands[np.argmin(scores)], jac=lambda u: _bloch_jacobian(u, tau0, npoints),
        bounds=(lo, hi), method="trf", x_scale="jac", ftol=1e-14, xtol=1e-14, gtol=1e-14,
    )
    r1, rphi, omega = res.x  # least_squares keeps r1 >= _RATE_FLOOR > 0
    return FitResult(
        t1=1.0 / r1,
        t2=1.0 / (r1 / 2 + rphi),
        omega=float(omega),
        residual=float(np.sqrt(np.mean(res.fun**2))),
        converged=bool(res.status > 0),
    )


def dephasing_time(t1: float, t2: float) -> float:
    """Pure-dephasing time from 1/T_phi = 1/T2 - 1/(2*T1).

    Args:
        t1: Relaxation time in us, > 0.
        t2: Coherence time in us, 0 < t2 <= 2*t1.

    Returns:
        T_phi in us; infinite when T2 = 2*T1 (no pure dephasing).

    Raises:
        ValueError: When T2 > 2*T1 (the implied rate would be negative).
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("coherence times must be positive")
    if t2 > 2 * t1 * (1 + 1e-12):
        raise ValueError(f"T2={t2} exceeds the physical bound 2*T1={2 * t1}")
    inv = 1.0 / t2 - 1.0 / (2.0 * t1)
    return np.inf if inv <= 0 else 1.0 / inv
