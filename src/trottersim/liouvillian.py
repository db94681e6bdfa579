"""Exact evolution of a driven lossy qubit: conventions, stepping kernel, closed form, exact step.

Conventions fixed here and used across the package:

* Master equation: d(rho)/dt = -i[H, rho] + sum_k (2 L_k rho L_k^dag
  - {L_k^dag L_k, rho}). Note the dissipator carries a factor 2 on the
  sandwich term and no 1/2 on the anticommutator.
* Canonical rates: ``gamma1`` is the population decay rate of |1> (its
  occupation falls as e^{-gamma1 t}), ``gamma_phi`` the pure-dephasing rate.
  Off-diagonals then decay as e^{-(gamma1/2 + gamma_phi) t}, i.e.
  1/T1 = gamma1 and 1/T2 = gamma1/2 + gamma_phi. The jump operators
  L = sqrt(gamma1/2) sigma_minus and L = (sqrt(gamma_phi)/2) sigma_z give these rates.
* Drive Hamiltonian H = pi * omega * sigma_x with ``omega`` a full-cycle
  Rabi frequency in MHz: a step of duration tau rotates by 2*pi*omega*tau.
* Basis |0>, |1> with <sigma_z>(|0>) = +1.
* States are real Bloch rows c = (Tr rho, <sx>, <sy>, <sz>), read from a 2x2 density matrix by
  linalg.validate_density_matrix, and channels act on them as real 4x4 Pauli-transfer matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (_MAX, _MIN, check_bloch_rows, check_count, check_positive,
                     validate_density_matrix)

__all__ = [
    "CanonicalRates",
    "EvolutionTrace",
    "propagate",
    "bloch_solution",
    "target_trace",
]


@dataclass(frozen=True)
class CanonicalRates:
    """Physical rates of the driven lossy qubit in canonical convention.

    Attributes:
        gamma1: Population decay rate of |1> in 1/us; P(1) ~ e^{-gamma1 t}.
        gamma_phi: Pure-dephasing rate in 1/us; off-diagonals pick up
            e^{-gamma_phi t} on top of the gamma1/2 decay.
        omega: Rabi rate in MHz (full cycles per us) about the x axis.
    """

    gamma1: float = 0.0
    gamma_phi: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        for name in ("gamma1", "gamma_phi", "omega"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if self.gamma1 < 0 or self.gamma_phi < 0:
            raise ValueError("rates must be nonnegative")

    @property
    def t1(self) -> float:
        """Population relaxation time 1/gamma1 (inf when undamped)."""
        return np.inf if self.gamma1 == 0 else 1.0 / self.gamma1

    @property
    def t2(self) -> float:
        """Coherence time 1/(gamma1/2 + gamma_phi) (inf when lossless)."""
        total = self.gamma1 / 2 + self.gamma_phi
        return np.inf if total == 0 else 1.0 / total


def propagate(step: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """The states step^j @ cols for j = 0..n, as an (n+1, ..., d, m) array.

    step is a (d, d) map (a superoperator or a real Pauli-transfer matrix) or a (..., d, d)
    stack of them; cols is a (d, m) block of states, or a stack broadcasting against step.
    The result keeps their common dtype, so real inputs stay real. By doubling: the first j
    states advanced by step^j give the next j, then step^j is squared. Held component-major in
    a (..., d, (n+1)*m) buffer that the result views, they take about log2(n) step^j @ (d, j*m)
    products per stack entry and no eigendecomposition, so defective steps take the same path.
    """
    step, cols = np.asarray(step), np.asarray(cols)
    if n < 0 or cols.ndim < 2 or not step.shape[-1] == step.shape[-2] == cols.shape[-2]:
        raise ValueError(f"cannot step {cols.shape} states {n} times by {step.shape}")
    batch, (d, m) = np.broadcast(step[..., :1, :1], cols[..., :1, :1]).shape[:-2], cols.shape[-2:]
    states = np.empty(batch + (d, (n + 1) * m), dtype=np.result_type(step, cols))
    states[..., :m] = cols
    for r in range(int(n).bit_length()):  # rounds j = 2^r <= n, power = step^j
        j, power = 1 << r, power @ power if r else step
        k = min(j, n + 1 - j)
        np.matmul(power, states[..., : k * m], out=states[..., j * m : (j + k) * m])
    return states.reshape(*batch, d, n + 1, m).transpose(-2, *range(len(batch) + 1), -1)


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Bloch-vector record of a stepped qubit evolution.

    times holds N+1 sample instants (t=0 included); sx, sy, sz are the
    matching Pauli expectation values.
    """

    times: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    label: str = ""

    def __post_init__(self):
        for name in ("times", "sx", "sy", "sz"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if any(getattr(self, k).size != self.times.size for k in ("sx", "sy", "sz")):
            raise ValueError("trace component lengths differ")

    def __len__(self) -> int:
        return int(self.times.size)

    def as_matrix(self) -> np.ndarray:
        """(N+1, 3) array with columns sx, sy, sz."""
        return np.column_stack([self.sx, self.sy, self.sz])

    def bloch_norms(self) -> np.ndarray:
        """Euclidean Bloch-vector norms, one per sample; <= 1 for physical states."""
        return np.sqrt(self.sx**2 + self.sy**2 + self.sz**2)


def _bloch_terms(bloch0) -> np.ndarray:
    """The (9, 12 S) map from a rate row's monomials (1, a, w) x (1, v_y, v_z) to the
    coefficients of the basis (1, C, S, E) in the three components of each of S starts."""
    bloch0 = np.asarray(bloch0, dtype=float)
    terms = np.zeros((3, 3, len(bloch0), 3, 4))  # (1, a, w), (1, v_y, v_z), start, component, basis
    terms[0, 0, :, 0, 3], terms[0, 1, :, 1, 0], terms[0, 2, :, 2, 0] = bloch0[:, 0], 1, 1
    d = terms[0, :, :, 1:, 1]  # x0 on E and v_ss on 1 above; d = (y0, z0) - v_ss on C
    d[0], d[1, :, 0], d[2, :, 1] = bloch0[:, 1:], -1, -1
    terms[1, :, :, 1:, 2] = d * [1, -1]  # (M - mI) d = a (d_y, -d_z) + w (-d_z, d_y) on S
    terms[2, :, :, 1, 2], terms[2, :, :, 2, 2] = -d[..., 1], d[..., 0]
    return terms.reshape(9, -1)


def _rate_constants(g1, rphi, omega, tmax: float, sqrt=math.sqrt):
    """One rate row's constants in :func:`bloch_solution` for times up to tmax: a, w, v_ss, the case
    (0 series, 1 s real, 2 s imaginary) and (c0, -G2, s), c0 = m + s if s is real, else m. A tmax
    past 1.34e154 or rates whose det M or q overflows are a ValueError."""
    if not tmax < 1.34e154:  # where tmax ** 2 would raise OverflowError
        raise ValueError(f"times must be below 1.34e154, where t^2 overflows, got {tmax}")
    g2, w = g1 / 2 + rphi, 2 * math.pi * omega
    m, a, det = -(g1 + g2) / 2, (g1 - g2) / 2, g1 * g2 + w * w
    q = a * a - w * w
    if not abs(det) + abs(q) < math.inf:  # NaN fails too
        raise ValueError(f"the closed form overflows at rates gamma1={g1}, gamma_phi={rphi}, "
                         f"omega={omega} (t up to {tmax})")
    vy, vz = (-w * g1 / det, g1 * g2 / det) if det else (0.0, 0.0)
    case = 0 if abs(q) * tmax**2 < 1e-5 else 1 if q.real > 0 else 2  # series, s real, imaginary
    s = q if case == 0 else sqrt(q if case == 1 else -q)
    return a, w, vy, vz, case, (det / (m - s) if case == 1 else m, -g2, s)  # m + s = det/(m - s)


def _cosh_sinh(case: int, e, s, t, lib=math):
    """e^{mt} cosh(st) and e^{mt} sinh(st)/s of a case from e = e^{c0 t}, by lib (math or numpy)."""
    x = s * t
    if case == 0:  # the series in z = (st)^2 = q t^2, |z| < 1e-5
        z = x * t
        return e * (1 + z / 2 + z * z / 24), e * t * (1 + z / 6 + z * z / 120)
    if case == 1:  # e^{(m+s)t} and expm1(-2st) stay in [-1, 1]
        d = lib.expm1(-2 * x)
        return e * (1 + d / 2), e * d / (-2 * s)
    return e * lib.cos(x), e * lib.sin(x) / s


def _bloch_curves(rows: list, terms: np.ndarray, t: np.ndarray, tmax: float) -> np.ndarray:
    """:func:`bloch_solution` as (K, 3 S, T) curves for terms = _bloch_terms(bloch0), t checked
    with largest time tmax, and rows a list of K rate triples, all Python floats or all complex."""
    sqrt = cmath.sqrt if isinstance(rows[0][0], complex) else math.sqrt
    rc = [_rate_constants(*row, tmax, sqrt) for row in rows]
    monos = [[p * v for p in (1, a, w) for v in (1, vy, vz)] for a, w, vy, vz, _, _ in rc]
    cases, c = [r[4] for r in rc], np.array([r[5] for r in rc])
    basis = np.empty((len(c), 4, t.size), c.dtype)  # 1, C, S, E; S is e^{c0 t} until its case
    basis[:, 0] = 1
    np.exp(np.multiply(c[:, :2, None], t, out=basis[:, 2:]), out=basis[:, 2:])
    for case in set(cases):
        k = np.equal(cases, case) if len(set(cases)) > 1 else slice(None)
        basis[k, 1], basis[k, 2] = _cosh_sinh(case, basis[k, 2], c[k, 2:], t, np)
    return (np.array(monos)[:, None] @ terms).reshape(len(c), -1, 4) @ basis  # row by row


def bloch_solution(rows: np.ndarray, bloch0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact Bloch vectors of the canonical model, as a (K, S, 3, T) array.

    Torrey's closed form for K rate rows (gamma1, gamma_phi, omega), S initial Bloch
    vectors and T times t >= 0. With G1 = gamma1, G2 = gamma1/2 + gamma_phi, w = 2 pi omega:
    <x> = x0 e^{-G2 t}, (<y>, <z>) = v_ss + e^{Mt} (v0 - v_ss), M = [[-G2, -w], [w, -G1]],
    v_ss = -M^{-1} (0, G1), taken as 0 where det M = 0 (G1 = w = 0, where (0, G1) is 0 too),
    e^{Mt} = e^{mt} (cosh(st) I + sinh(st)/s (M - mI)), m = -(G1 + G2)/2, s^2 = q = a^2 - w^2
    and a = (G1 - G2)/2. So a curve is the basis (1, e^{mt} cosh(st), e^{mt} sinh(st)/s,
    e^{-G2 t}) times the monomials (1, a, w) x (1, v_ss) by a map of the start. A row takes
    one case: the series in q t^2 where |q| t_max^2 < 1e-5 (t = 0 alone, or s near 0), else
    s real or imaginary. Real for real rows and analytic: a complex step gives a derivative.

    Raises:
        ValueError: On a negative or non-finite time, rows not (K, 3) or bloch0 not (S, 3), K
            or S zero, a start outside the Bloch ball or not finite (check_bloch_rows on
            (1, x, y, z)), a rate row not finite, or rates whose closed form overflows.
    """
    t = np.asarray(times, dtype=float)
    tmax = float(_MAX(t, None, initial=0.0))
    if not (_MIN(t, None, initial=np.inf) >= 0 and tmax < np.inf):  # NaN fails
        raise ValueError(f"times must be finite and nonnegative, got {t}")
    rows, bloch0 = np.asarray(rows), np.asarray(bloch0, dtype=float)
    for name, a, n in (("rows", rows, "K"), ("bloch0", bloch0, "S")):
        if a.ndim != 2 or a.shape[1] != 3 or not len(a):
            raise ValueError(f"{name} must have shape ({n}, 3) with {n} >= 1, got {a.shape}")
    check_bloch_rows(np.insert(bloch0, 0, 1.0, axis=-1), lambda j: f"bloch0[{j[0]}]")
    finite = np.isfinite(rows).all(axis=-1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"rate row {k} is not finite: {rows[k].tolist()}")
    curves = _bloch_curves(rows.tolist(), _bloch_terms(bloch0), t, tmax)
    return curves.reshape(len(rows), len(bloch0), 3, -1)


def _exact_step(rates: CanonicalRates, tau: float) -> np.ndarray:
    """The exact one-step PTM E(tau) from the closed form's constants, in Python floats: <x> decays
    by e^{-G2 tau}, (<y>, <z>) maps to B (y, z) + (I - B) v_ss, B = e^{M tau} = C I + S [[a, -w],
    [w, -a]], with C = e^{m tau} cosh(s tau) and S = e^{m tau} sinh(s tau)/s."""
    a, w, vy, vz, case, (c0, c1, s) = _rate_constants(*vars(rates).values(), tau)
    c, sn = _cosh_sinh(case, math.exp(c0 * tau), s, tau)
    b = (c + sn * a, -sn * w), (sn * w, c - sn * a)
    return np.array([[1.0, 0.0, 0.0, 0.0], [0.0, math.exp(c1 * tau), 0.0, 0.0]] + [  # C order
        [v - by * vy - bz * vz, 0.0, by, bz] for v, (by, bz) in zip((vy, vz), b)])


def target_trace(rates: CanonicalRates, rho0: np.ndarray, tau0: float,
                 n_steps: int) -> EvolutionTrace:
    """Exact evolution of rho0 at t = j*tau0, j = 0..n_steps: the Bloch row validate_density_matrix
    checks and returns, stepped by :func:`propagate` with the exact step E(tau0) of the closed form.

    Raises:
        ValueError: When n_steps is not an integer >= 1, tau0 is not positive and finite (or
            not below 1.34e154), or rho0 fails validate_density_matrix.
    """
    check_count("n_steps", n_steps)
    check_positive("tau0", tau0)
    row0 = validate_density_matrix(rho0, "rho0")
    rows = propagate(_exact_step(rates, tau0), row0[:, None], n_steps)[:, 1:, 0]
    return EvolutionTrace(np.arange(n_steps + 1.0) * tau0, *rows.T, label="target")
