"""Twelve-curve tomography generation and global (T1, T2, Omega) fitting.

Four initial states (|0>, |+>, |+i>, |1>) times three Pauli observables give twelve
evolution curves, read on the grid t = j*tau0 from the prepared state. The global fit minimizes the
unweighted sum of squared deviations between those curves and the exact
master-equation model, parameterized internally by the rates
(1/T1, pure dephasing, Omega) so the physicality constraint T2 <= 2*T1 holds
by construction. The model is liouvillian's one closed-form (Torrey) kernel,
which also writes the exact curves, called on the set's grid with the
four states' map built once at import. The fit starts from the curves' own
step: one linear least-squares solve recovers it from the four states' affine
Bloch rows, and its invariants give the rates (exact for canonical curves and
for Trotter products). From there one projected Levenberg-Marquardt run (one real kernel
of the curves and their forward-mode derivatives, reduced to the 4x4 Gram matrix
of the Jacobian and the 12*(N+1) residuals, per evaluation; Python floats for its
3x3 algebra) stops once its next step is under 1e-4 standard errors; a run that
ends with 1/T1 or Omega on a face of the box is repeated once from the start's
drive mirrored in sign, and the lower cost is kept. The covariance at the kept
point, from the same 3x3 solve, gives the standard errors of T1, T2 and Omega.
Optional sampling noise replaces each expectation x by 2k/s - 1 with
k ~ Binomial(s, (1+x)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import check_count, check_grid, check_samples, check_span, validate_density_matrix
from .liouvillian import CanonicalRates, EvolutionTrace, _bloch_jacobian, _chain_terms

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

_KEYS = tuple((s, o) for s in STATE_LABELS for o in OBS_LABELS)  # the curves' row order

INITIAL_STATES = {  # the density matrices |0><0|, |+><+|, |+i><+i| and |1><1|, in exact halves
    "0": np.array([[1, 0], [0, 0]], dtype=complex),
    "+": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "+i": np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
    "1": np.array([[0, 0], [0, 1]], dtype=complex),
}
for _rho in INITIAL_STATES.values():  # read-only: a write would part cli._rho0's from _BLOCH0
    _rho.flags.writeable = False

_RATE_FLOOR = 1e-6  # 1/us lower bound keeping infinite-coherence limits stable
_RATE_CEIL = 2.0


@dataclass(frozen=True, eq=False)
class TomographySet:
    """Twelve evolution curves sampled at t = j*dt, j = 0..N, from the prepared state: curves is
    the real (12, N+1) array of expectations, one row per (state label, observable label) in
    state-major, observable-minor order, kept as a read-only copy, and times is that grid. shots
    records the sampling depth (None = noiseless)."""

    dt: float
    curves: np.ndarray
    shots: int | None = None

    def __post_init__(self):
        curves = np.array(self.curves)  # a copy: a write to the caller's array cannot reach it
        if curves.ndim != 2 or curves.shape[0] != 12 or not curves.shape[1]:
            raise ValueError(f"curves must be a (12, N+1) block, got shape {curves.shape}")
        dt, curves = check_samples(self.dt, curves, "curves", axis=1)
        if self.shots is not None:
            check_count("shots", self.shots)
        hi = 1 + (3.0 / np.sqrt(self.shots) if self.shots else 1e-8)
        if not (curves.max() <= hi and curves.min() >= -hi):  # NaN propagates, and fails
            bad = ~(np.abs(curves) <= hi).all(axis=1)  # the first row that fails the same test
            raise ValueError(f"curve {_KEYS[np.argmax(bad)]} is not finite within the "
                             "expectation range [-1, 1]")
        self.__dict__.update(dt=dt, curves=curves)

    times = property(lambda self: np.arange(self.curves.shape[1], dtype=float) * self.dt)

    def curve(self, state: str, obs: str) -> np.ndarray:
        return self.curves[_KEYS.index((state, obs))]


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
        tau0: Sample spacing in us, positive, with n_steps * tau0 < 1.34e154 (linalg.check_span).
        n_steps: Number of steps, an integer >= 1 (n_steps + 1 samples per curve).
        shots: Per-point sampling depth, an integer >= 1; None for exact expectations.
        seed: Seed for the binomial sampler, None or an integer >= 0 (fixed seed gives
            identical output).
        evolve: Optional replacement dynamics, called per initial state as evolve(rho0) ->
            EvolutionTrace (e.g. a Trotterized engine run), whose constructor checked its dt
            and its finite (N+1, 4) Bloch rows; n_steps + 1 rows, dt within 4 eps of tau0,
            give the curves. Defaults to the closed form at `rates`, the model global_fit fits.

    Returns:
        TomographySet on the grid t = j*tau0.
    """
    check_count("n_steps", n_steps)
    if shots is not None:
        check_count("shots", shots)
    if seed is not None:
        check_count("seed", seed, lo=0)
    check_span(n_steps, tau0, "n_steps", "tau0")  # before the grid: 13 * 1e308 would warn
    times = np.arange(n_steps + 1) * tau0
    if evolve is None:  # the fit's own model
        row = rates.gamma1, rates.gamma_phi, rates.omega
        curves = _bloch_jacobian(row, _CHAIN_TERMS, times, float(times[-1]), derivatives=False)
    else:
        traces = [evolve(INITIAL_STATES[s]) for s in STATE_LABELS]
        for tr in traces:  # a trace of another length fails as a NaN step
            check_grid(tr.dt if len(tr) == n_steps + 1 else np.nan, tau0,
                       "evolve returned a trace on a different time grid")
        curves = np.concatenate([tr.rows[:, 1:].T for tr in traces])
    if shots is not None:
        p = np.clip((1.0 + curves) / 2.0, 0.0, 1.0)
        curves = 2.0 * np.random.default_rng(seed).binomial(shots, p) / shots - 1.0
    return TomographySet(tau0, curves, shots=shots)


@dataclass(frozen=True)
class FitResult:
    """Globally fitted coherence parameters.

    Attributes:
        t1: Relaxation time in us.
        t2: Coherence time in us (t2 <= 2*t1 by construction).
        omega: Rabi rate in MHz, signed and within the Nyquist band
            [-1/(2 tau0), 1/(2 tau0)]: a faster drive shows as its alias.
        residual: Root-mean-square deviation over all 12*(N+1) points.
        converged: Whether the kept Levenberg-Marquardt run stopped on one of its
            tolerances rather than its iteration cap (not a goodness of fit).
        evaluations: Residual-and-Jacobian evaluations over the fit's
            Levenberg-Marquardt runs, the mirrored retry included.
        at_bound: The rates, of ("gamma1", "gamma_phi", "omega"), that end on
            a face of the fit's box: a gamma1 on its 1e-6/us floor reads as
            T1 = 1e6 us, a bound rather than a measurement.
        stderr: Standard errors of (t1, t2, omega), in us, us and MHz, from the
            covariance s^2 (J^T J)^-1 at the fit, s^2 = r.r/(M - 3) over its M
            residuals; None for a value that depends on a rate in at_bound
            (t1 on gamma1, t2 on gamma1 and gamma_phi, omega on omega) or
            whose variance is not finite.
    """

    t1: float
    t2: float
    omega: float
    residual: float
    converged: bool
    evaluations: int = 0
    at_bound: tuple[str, ...] = ()
    stderr: tuple[float | None, float | None, float | None] = (None, None, None)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t1, self.t2, self.omega, self.residual))):
            raise ValueError(f"fit values must be finite, got {self}")
        if len(self.stderr) != 3 or not all(e is None or 0 <= e < math.inf for e in self.stderr):
            raise ValueError(f"standard errors must be None or finite and >= 0, got {self.stderr}")
        if self.t2 > 2 * self.t1 * (1 + 1e-6):
            raise ValueError(f"unphysical fit: T2={self.t2} exceeds 2*T1={2 * self.t1}")


_BLOCH0 = np.array([validate_density_matrix(INITIAL_STATES[s])[1:] for s in STATE_LABELS])
_CHAIN_TERMS = _chain_terms(_BLOCH0)


def _step_start(curves: np.ndarray, tau0: float) -> tuple[float, float, float]:
    """The row (r1, rphi, omega) read from the (12, T) curves' own step.

    One least-squares solve over C_{j+1} = R C_j, on the four states' affine Bloch rows
    (1, x, y, z), gives the step R. A canonical step of length tau0, and every Trotter product
    of the three channels, has R_xx = e^{-G2 tau0} and det B = e^{-(G1 + G2) tau0} for its y-z
    block B: they give G2 and G1. Write B = e^{m tau0} (c I + [[e, f - d], [f + d, -e]]), so
    e^{m tau0} = sqrt(det B). When c > 1, s is real: c = cosh(s tau0) and d = w sinh(s tau0)/s.
    Else c = cos(|s| tau0), read with sin^2 = 1 - c^2 = d^2 - e^2 - f^2 so that it stays exact
    near 0 and pi, and w^2 = a^2 + |s|^2 with a = (G1 - G2)/2 and the sign of d. Each log and
    root argument is clipped into its domain; the box clips the row.
    """
    affine = np.empty((curves.shape[1], 4, 4))  # (point, state, (1, x, y, z))
    affine[..., 0], affine[..., 1:] = 1.0, curves.reshape(4, 3, -1).transpose(2, 0, 1)
    step = np.linalg.lstsq(affine[:-1].reshape(-1, 4), affine[1:].reshape(-1, 4), rcond=None)[0].T
    (byy, byz), (bzy, bzz) = step[2:, 2:].tolist()
    g2 = -math.log(max(1e-300, step[1, 1])) / tau0
    det = max(1e-300, byy * bzz - byz * bzy)
    g1 = -math.log(det) / tau0 - g2
    scale = 2 * math.sqrt(det)
    c, d = (byy + bzz) / scale, (bzy - byz) / scale
    if c > 1:
        x = math.acosh(c)  # s tau0
        w = d * x / (tau0 * math.sinh(x))
    else:
        e, f = (byy - bzz) / scale, (byz + bzy) / scale
        x = math.atan2(math.sqrt(max(0.0, d * d - e * e - f * f)), c)  # |s| tau0
        w = math.copysign(math.hypot((g1 - g2) / 2, x / tau0), d)
    return g1, g2 - g1 / 2, w / (2 * math.pi)


_LM_MAX_ITER = 100
_STOP_SE = 1e-4  # a run stops once the rest of its way is under this many standard errors


def _solve3(a, free, y):
    """x = adj(M) y / det M for the symmetric 3x3 M of upper triangle a, with row and column k
    the identity's where free[k] is False (x_k = y_k there); np.linalg.LinAlgError if singular."""
    (a00, a01, a02, a11, a12, a22), (f0, f1, f2), (y0, y1, y2) = a, free, y
    a00, a11, a22 = a00 if f0 else 1.0, a11 if f1 else 1.0, a22 if f2 else 1.0
    a01, a02, a12 = a01 * (f0 and f1), a02 * (f0 and f2), a12 * (f1 and f2)
    c00, c01, c02 = a11 * a22 - a12 * a12, a02 * a12 - a01 * a22, a01 * a12 - a02 * a11
    c11, c12, c22 = a00 * a22 - a02 * a02, a01 * a02 - a00 * a12, a00 * a11 - a01 * a01
    det = a00 * c00 + a01 * c01 + a02 * c02
    if det == 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return ((c00 * y0 + c01 * y1 + c02 * y2) / det, (c01 * y0 + c11 * y1 + c12 * y2) / det,
            (c02 * y0 + c12 * y1 + c22 * y2) / det)


def _levenberg_marquardt(fun, u, lo, hi, m):
    """Projected Levenberg-Marquardt (More, LNM 630 (1978)) from u in the box [lo, hi].

    u, lo and hi hold three floats each; fun(u) gives the Gram matrix [[A, g], [g^T, r.r]] of
    [J | r] as four lists of four floats, for m residuals r and their m x 3 Jacobian J. A step
    solves (A + lam diag(A)) du = -g on the coordinates not on a bound that -g points through,
    and is clipped into the box; lam is multiplied by 4 if the cost r.r/2 rose, else divided
    by 3. Before each trial is evaluated the run stops at u on the first of: 1 free gradient
    <= 1e-15 cost; 2 Gauss-Newton decrement g^T A^-1 g <= (_STOP_SE s)^2 with s^2 = r.r/(m - 3),
    so the Gauss-Newton step is under _STOP_SE standard errors in the fit's covariance s^2 A^-1
    (Madsen, Nielsen & Tingleff, "Methods for non-linear least squares problems" (2004)); 3
    step <= 1e-14 |u|. Returns the last accepted u, its Gram matrix, and the rule that stopped
    the run, 0 for the iteration cap.
    """
    gram = fun(u)
    cost, lam = gram[3][3] / 2, 1e-3
    decrement_tol = 2 * _STOP_SE**2 / (m - 3)  # times the cost: (_STOP_SE s)^2
    for _ in range(_LM_MAX_ITER):
        (a00, a01, a02, g0), (_, a11, a12, g1), (_, _, a22, g2), _ = gram
        free = [not (v <= l and d > 0 or v >= h and d < 0)
                for v, l, h, d in zip(u, lo, hi, (g0, g1, g2))]
        g = g0 * free[0], g1 * free[1], g2 * free[2]
        if math.hypot(*g) <= 1e-15 * cost:
            return u, gram, 1
        x = _solve3((a00, a01, a02, a11, a12, a22), free, g)  # the Gauss-Newton step is -x
        if g[0] * x[0] + g[1] * x[1] + g[2] * x[2] <= decrement_tol * cost:
            return u, gram, 2
        x = _solve3((a00 + lam * a00, a01, a02, a11 + lam * a11, a12, a22 + lam * a22), free, g)
        trial = tuple(min(max(v - d, l), h) for v, d, l, h in zip(u, x, lo, hi))
        if math.dist(trial, u) <= 1e-14 * math.hypot(*u):
            return u, gram, 3
        gram_trial = fun(trial)
        cost_trial = gram_trial[3][3] / 2
        if cost_trial <= cost:
            u, gram, cost, lam = trial, gram_trial, cost_trial, lam / 3
        else:
            lam *= 4
    return u, gram, 0


_RATE_NAMES = ("gamma1", "gamma_phi", "omega")


def global_fit(ts: TomographySet) -> FitResult:
    """Fit (T1, T2, Omega) to all twelve curves by least squares.

    Projected Levenberg-Marquardt over the internal parameters (1/T1,
    pure-dephasing rate, Omega) with the closed-form model's forward-mode
    Jacobian, each evaluation reduced to the 4x4 Gram matrix of [J | r], run
    from the row read from the curves' own step: a linear
    least-squares fit of C_{j+1} = R C_j over the four states' affine Bloch
    rows, whose invariants give the rates exactly for canonical curves and
    for Trotter products.
    Omega is signed within the Nyquist band [-1/(2 tau0), 1/(2 tau0)], so a
    faster drive fits as its alias. Near the band's edge a Trotter step can
    read the other sign, and a start in the wrong basin can pin 1/T1 to its
    floor with Omega still inside the band (exact curves of a drive just past
    the edge do), so a run that ends with 1/T1 or Omega on a face of the box
    is repeated from the start with its drive mirrored, and the run with the
    lower cost is kept.

    Each run stops once its Gauss-Newton step is under 1e-4 standard errors,
    or on a vanishing gradient or step (see _levenberg_marquardt).

    Args:
        ts: Tomography curves with >= 6 points, fitted on their grid t = j*ts.dt.

    Returns:
        FitResult of the kept run; `converged` is True when it ended on one of
        its tolerances rather than its iteration cap, `evaluations` counts
        the model-and-Jacobian calls of both runs, `at_bound` names the
        rates that end on a face of the box, and `stderr` holds the standard
        errors of (t1, t2, omega) from the covariance at the kept point.
    """
    t, tau0, data, m = ts.times, ts.dt, ts.curves.ravel(), ts.curves.size  # read once
    if len(t) < 6:
        raise ValueError("global fit needs at least 6 time points per curve")
    tmax = float(t[-1])
    lo, hi = (_RATE_FLOOR, 0.0, -0.5 / tau0), (_RATE_CEIL, _RATE_CEIL, 0.5 / tau0)
    evaluated = []  # the rows of the model calls

    def fun(u):
        evaluated.append(u)
        block = _bloch_jacobian(u, _CHAIN_TERMS, t, tmax)
        block[3] -= data  # the residuals
        return (block @ block.T).tolist()

    start = tuple(min(max(x, l), h) for x, l, h in zip(_step_start(ts.curves, tau0), lo, hi))
    runs = [_levenberg_marquardt(fun, start, lo, hi, m)]
    # Both faces count: exact curves at theta = (9.5, 57, 223.9) deg end the first run on the
    # 1/T1 floor with omega inside the band, and only the mirrored run reaches the edge. The
    # box is symmetric in omega, so the mirror needs no clip.
    if runs[0][0][0] in (lo[0], hi[0]) or runs[0][0][2] in (lo[2], hi[2]):
        runs.append(_levenberg_marquardt(fun, (start[0], start[1], -start[2]), lo, hi, m))
    u, gram, status = min(runs, key=lambda run: run[1][3][3])  # the first of a tie
    r1, rphi, omega = u  # the box keeps r1 >= _RATE_FLOOR > 0
    t1, t2 = 1.0 / r1, 1.0 / (r1 / 2 + rphi)
    on_face = [x == l or x == h for x, l, h in zip(u, lo, hi)]
    # s^2 (J^T J)^-1 over the rates off the box's faces (a rate on one keeps an identity
    # row and column), carried to T1 = 1/r1 and T2 = 1/(r1/2 + rphi) by the delta method
    (a00, a01, a02, _), (_, a11, a12, _), (_, _, a22, _), (_, _, _, rr) = gram
    s2 = rr / (m - 3)
    (c11, c12, _), (_, c22, _), (_, _, c33) = (  # s^2 A^-1 column by column
        _solve3((a00, a01, a02, a11, a12, a22), [not face for face in on_face], col)
        for col in ((s2, 0.0, 0.0), (0.0, s2, 0.0), (0.0, 0.0, s2)))
    var = (t1**4 * c11, t2**4 * (c11 / 4 + c12 + c22), c33)
    face1, face_phi, face_omega = on_face
    stderr = tuple(None if face or not 0 <= v < math.inf else math.sqrt(v)
                   for face, v in zip((face1, face1 or face_phi, face_omega), var))
    return FitResult(t1=t1, t2=t2, omega=omega, residual=math.sqrt(rr / m),
                     converged=status > 0, evaluations=len(evaluated),
                     at_bound=tuple(n for n, on in zip(_RATE_NAMES, on_face) if on),
                     stderr=stderr)


def dephasing_time(t1: float, t2: float) -> float:
    """Pure-dephasing time from 1/T_phi = 1/T2 - 1/(2*T1).

    Args:
        t1: Relaxation time in us, > 0 (inf allowed).
        t2: Coherence time in us, 0 < t2 <= 2*t1 (inf allowed).

    Returns:
        T_phi in us; infinite when T2 = 2*T1 (no pure dephasing).

    Raises:
        ValueError: When a time is NaN or <= 0, or T2 > 2*T1 (negative implied rate).
    """
    if not (t1 > 0 and t2 > 0):  # also true for NaN
        raise ValueError(f"coherence times must be positive, got T1={t1}, T2={t2}")
    if t2 > 2 * t1 * (1 + 1e-12):
        raise ValueError(f"T2={t2} exceeds the physical bound 2*T1={2 * t1}")
    inv = 1.0 / t2 - 1.0 / (2.0 * t1)
    return np.inf if inv <= 0 else 1.0 / inv
