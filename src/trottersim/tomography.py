"""Twelve-curve tomography generation and global (T1, T2, Omega) fitting.

Four initial states (|0>, |+>, |+i>, |1>) times three Pauli observables give
twelve evolution curves on a shared time grid. The global fit minimizes the
unweighted sum of squared deviations between those curves and the exact
master-equation model, parameterized internally by the rates
(1/T1, pure dephasing, Omega) so the physicality constraint T2 <= 2*T1 holds
by construction. One stacked matrix exponential scores a grid of starts at
once; the best starts then seed bounded trust-region least squares on the
12*(N+1) residuals. Optional sampling noise replaces each expectation x by
2k/s - 1 with k ~ Binomial(s, (1+x)/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import KET_0, KET_1, density, expm, vec
from .liouvillian import (
    PAULI_ROWS,
    CanonicalRates,
    EvolutionTrace,
    lindblad_superop,
    propagate,
    qubit_generators,
    target_trace,
)

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
_MAX_STARTS = 5  # least-squares starts from the best-scored grid rows


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
        converged: Whether the lowest-cost least-squares run stopped on a
            tolerance rather than its evaluation cap (not a goodness of fit).
    """

    t1: float
    t2: float
    omega: float
    residual: float
    converged: bool

    def __post_init__(self):
        if self.t2 > 2 * self.t1 * (1 + 1e-6):
            raise ValueError(f"unphysical fit: T2={self.t2} exceeds 2*T1={2 * self.t1}")


# Vectorized initial states as columns, shared by every model evaluation.
_STATE_COLS = np.stack(
    [vec(density(INITIAL_STATES[lbl])) for lbl in STATE_LABELS], axis=1
)

# The Lindblad generator is linear in each canonical rate, so the model
# superoperator is assembled from unit-rate templates built by the same
# lindblad_superop the simulator uses.
_GEN_R1 = lindblad_superop(qubit_generators(CanonicalRates(gamma1=1.0)))
_GEN_RPHI = lindblad_superop(qubit_generators(CanonicalRates(gamma_phi=1.0)))
_GEN_OMEGA = lindblad_superop(qubit_generators(CanonicalRates(omega=1.0)))


def _model_batch(u: np.ndarray, tau0: float, npoints: int) -> np.ndarray:
    """(K, 12, npoints) model expectations for a (K, 3) block u of rows (r1, rphi, omega).

    One stacked expm builds the K step superoperators; all states of all rows step together.
    """
    r1, rphi, omega = np.asarray(u, dtype=float).T[:, :, None, None]
    steps = expm((r1 * _GEN_R1 + rphi * _GEN_RPHI + omega * _GEN_OMEGA) * tau0)
    states = propagate(steps, _STATE_COLS, npoints - 1)
    expect = np.real(np.tensordot(PAULI_ROWS, states, axes=(1, -2)))
    # (obs, point, K, state) -> (K, state, obs, point), rows in state-major order.
    return expect.transpose(2, 3, 0, 1).reshape(len(steps), 12, npoints)


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


def _candidate_starts(ts: TomographySet, init_guess) -> list[list[float]]:
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
    if init_guess is not None:
        t1, t2, omega = init_guess
        r1 = np.clip(1.0 / t1, _RATE_FLOOR, _RATE_CEIL)
        rphi = max(0.0, 1.0 / t2 - r1 / 2)
        cands.append([r1, rphi, float(omega)])
    return cands


def global_fit(ts: TomographySet, init_guess=None) -> FitResult:
    """Fit (T1, T2, Omega) to all twelve curves by least squares.

    Bounded trust-region reflective least squares over the internal
    parameters (1/T1, pure-dephasing rate, Omega), restarted from the best
    coarse-grid candidates, in score order, until the cost stops improving.

    Args:
        ts: Tomography curves on a uniform time grid with >= 6 points.
        init_guess: Optional (T1, T2, Omega) starting point.

    Returns:
        FitResult at the lowest-cost start; `converged` is True when that
        start ended on one of its tolerances rather than its evaluation cap.
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
        return (_model_batch(u[None], tau0, npoints)[0] - data).ravel()

    lo = np.array([_RATE_FLOOR, 0.0, 0.0])
    hi = np.array([_RATE_CEIL, _RATE_CEIL, 0.5 / tau0])
    cands = np.clip(_candidate_starts(ts, init_guess), lo, hi)
    scores = ((_model_batch(cands, tau0, npoints) - data) ** 2).sum(axis=(1, 2))
    best = None
    for x0 in cands[np.argsort(scores, kind="stable")][:_MAX_STARTS]:
        res = least_squares(
            residuals, x0, bounds=(lo, hi), method="trf", x_scale="jac",
            ftol=1e-14, xtol=1e-14, gtol=1e-14,
        )
        prev_cost = None if best is None else best.cost
        if best is None or res.cost < best.cost:
            best = res
        if best.cost < 1e-16:
            break
        # Stop once a fresh start brings no meaningful improvement.
        if prev_cost is not None and prev_cost - best.cost <= 1e-9 * prev_cost:
            break
    r1, rphi, omega = best.x  # least_squares keeps r1 >= _RATE_FLOOR > 0
    return FitResult(
        t1=1.0 / r1,
        t2=1.0 / (r1 / 2 + rphi),
        omega=float(omega),
        residual=float(np.sqrt(np.mean(best.fun**2))),
        converged=bool(best.status > 0),
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
