"""Exact evolution of a driven lossy qubit: conventions, stepping kernel and closed form.

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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (_MAX, _MIN, SIGMA_X, SIGMA_Y, SIGMA_Z, check_count, check_positive,
                     validate_density_matrix, vec)

__all__ = [
    "CanonicalRates",
    "EvolutionTrace",
    "BLOCH_ROWS",
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


# Rows conj(vec(s)) for s = I, sigma_x, sigma_y, sigma_z: the P^dag that turns a superoperator S
# into its Pauli-transfer matrix Re(P^dag S P)/2. States are read by validate_density_matrix.
BLOCH_ROWS = np.stack([vec(m).conj() for m in (np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z)])


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
    power, j = step, 1
    while j <= n:
        k = min(j, n + 1 - j)
        np.matmul(power, states[..., : k * m], out=states[..., j * m : (j + k) * m])
        j += k
        if j <= n:
            power = power @ power
    return np.rollaxis(states.reshape(batch + (d, n + 1, m)), -2)  # moveaxis(-2, 0), cheaper


@dataclass(frozen=True)
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
        n = self.times.size
        if any(getattr(self, k).size != n for k in ("sx", "sy", "sz")):
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


def _bloch_curves(rows, terms: np.ndarray, t: np.ndarray) -> np.ndarray:
    """:func:`bloch_solution` as (K, 3 S, T) curves for terms = _bloch_terms(bloch0), t checked."""
    sqrt = cmath.sqrt if np.iscomplexobj(rows) else math.sqrt
    tmax2, monos, consts, cases = float(t.max(initial=0.0)) ** 2, [], [], []
    for g1, rphi, omega in np.asarray(rows).tolist():
        g2, w = g1 / 2 + rphi, 2 * math.pi * omega
        m, a, det = -(g1 + g2) / 2, (g1 - g2) / 2, g1 * g2 + w * w
        q = a * a - w * w
        vy, vz = (-w * g1 / det, g1 * g2 / det) if det else (0.0, 0.0)
        monos.append([p * v for p in (1, a, w) for v in (1, vy, vz)])
        case = 0 if abs(q) * tmax2 < 1e-5 else 1 if q.real > 0 else 2  # series, s real, imaginary
        s = q if case == 0 else sqrt(q if case == 1 else -q)
        consts.append((det / (m - s) if case == 1 else m, -g2, s))  # m + s = det/(m - s)
        cases.append(case)
    c = np.array(consts)
    basis = np.empty((len(c), 4, t.size), c.dtype)  # 1, C, S, E; S is e^{c0 t} until its case
    basis[:, 0], ct = 1, c[:, 2:] * t
    np.exp(np.multiply(c[:, :2, None], t, out=basis[:, 2:]), out=basis[:, 2:])
    for case in set(cases):
        k = np.equal(cases, case) if len(set(cases)) > 1 else slice(None)
        e, x, s = basis[k, 2], ct[k], c[k, 2:]  # e = e^{mt}, or e^{(m+s)t} where s is real
        if case == 0:  # the series in z = (st)^2 = q t^2, |z| < 1e-5
            z = x * t
            cs = e * (1 + z / 2 + z * z / 24), e * t * (1 + z / 6 + z * z / 120)
        elif case == 1:  # e^{(m+s)t} and expm1(-2st) stay in [-1, 1]
            d = np.expm1(-2 * x)
            cs = e * (1 + d / 2), e * d / (-2 * s)
        else:
            cs = e * np.cos(x), e * np.sin(x) / s
        basis[k, 1], basis[k, 2] = cs
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
    """
    t = np.asarray(times, dtype=float)
    if not (_MIN(t, None, initial=np.inf) >= 0 and _MAX(t, None, initial=0) < np.inf):  # NaN fails
        raise ValueError(f"times must be finite and nonnegative, got {t}")
    return _bloch_curves(rows, _bloch_terms(bloch0), t).reshape(len(rows), len(bloch0), 3, -1)


def target_trace(rates: CanonicalRates, rho0: np.ndarray, tau0: float,
                 n_steps: int) -> EvolutionTrace:
    """Exact evolution of rho0 by :func:`bloch_solution` at t = j*tau0, j = 0..n_steps, from
    the Bloch row that validate_density_matrix checks and returns.

    Raises:
        ValueError: When n_steps is not an integer >= 1, tau0 is not positive and finite, or rho0
            fails validate_density_matrix (Hermiticity, then check_bloch_rows on its Bloch row).
    """
    check_count("n_steps", n_steps)
    check_positive("tau0", tau0)
    v0 = validate_density_matrix(rho0, "rho0")[1:]
    times = np.arange(n_steps + 1) * tau0
    sx, sy, sz = bloch_solution([[rates.gamma1, rates.gamma_phi, rates.omega]], [v0], times)[0, 0]
    return EvolutionTrace(times, sx, sy, sz, label="target")
