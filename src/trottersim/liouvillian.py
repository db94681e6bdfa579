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


_CHAIN = np.zeros((4, 4, 8))  # the chain rule's map: row of monomials, (1, C, S, E), basis
_CHAIN[0, range(4), range(4)] = _CHAIN[1, (1, 2), (4, 5)] = 1.0
_CHAIN[2, 3, 6], _CHAIN[3, (1, 2), (5, 7)] = -1.0, (0.5, 1.0)


def _chain_terms(bloch0) -> np.ndarray:
    """The (36, 24 S) map from the kernel's four rows of the monomials (1, a, w) x (1, v_y, v_z)
    to coefficients on the basis (1, C, S, E, tC, tS, tE, dS/dq) in the three components of each
    of S starts. A start's terms take the first row onto (1, C, S, E); by the chain rule the
    second (times dm) puts C's coefficient on tC and S's on tS, the third (times dG2) E's on -tE,
    and the fourth (times dq) C's on tS/2 = dC/dq and S's on dS/dq."""
    bloch0 = np.asarray(bloch0, dtype=float)
    terms = np.zeros((3, 3, len(bloch0), 3, 4))  # (1, a, w), (1, v_y, v_z), start, component, basis
    terms[0, 0, :, 0, 3], terms[0, 1, :, 1, 0], terms[0, 2, :, 2, 0] = bloch0[:, 0], 1, 1
    d = terms[0, :, :, 1:, 1]  # x0 on E and v_ss on 1 above; d = (y0, z0) - v_ss on C
    d[0], d[1, :, 0], d[2, :, 1] = bloch0[:, 1:], -1, -1
    terms[1, :, :, 1:, 2] = d * [1, -1]  # (M - mI) d = a (d_y, -d_z) + w (-d_z, d_y) on S
    terms[2, :, :, 1, 2], terms[2, :, :, 2, 2] = -d[..., 1], d[..., 0]
    return (terms.reshape(-1, 4) @ _CHAIN).reshape(36, -1)  # one nonzero term per entry


def _rate_constants(g1, rphi, omega, tmax: float):
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
    case = 0 if abs(q) * tmax**2 < 1e-5 else 1 if q > 0 else 2  # series, s real, imaginary
    s = q if case == 0 else math.sqrt(abs(q))
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


def _bloch_jacobian(u, chain_terms: np.ndarray, t: np.ndarray, tmax: float,
                    derivatives: bool = True) -> np.ndarray:
    """The (4, 3 S len(t)) block of the closed form's derivatives in r1 = gamma1, rphi = gamma_phi
    and omega, then its curves, at the row u of three rates, for chain_terms = _chain_terms(bloch0)
    of S starts and checked times t with largest time tmax. Each row runs over the starts' three
    components, and over t within each. With derivatives False, only the curves, as (3 S, len(t)).

    Forward mode (Griewank & Walther, "Evaluating Derivatives" (2008)): the derivatives of m,
    a, w, det, q, v_ss and the monomials (1, a, w) x (1, vy, vz) are Python floats, and one
    product by chain_terms gives the rows' coefficients on one real basis, with dS/dq =
    (tC - S)/(2q), or e^{mt} t^3 (1/6 + z/60 + z^2/1680), z = q t^2, in the series case. The
    derivatives divide by det M, so they need det M > 0 (the fit's r1 >= 1e-6 keeps it); the
    curves alone read only (1, C, S, E), which stay finite wherever the closed form does.
    """
    r1, rphi, omega = map(float, u)
    a, w, vy, vz, case, (c0, c1, s) = _rate_constants(r1, rphi, omega, tmax)
    monos = [1.0, vy, vz, a, a * vy, a * vz, w, w * vy, w * vz]
    basis = np.empty((8, t.size))  # 1, C, S, E, tC, tS, tE, dS/dq; S is e^{c0 t} until its case
    basis[0] = 1.0
    np.exp(np.multiply([[c0], [c1]], t, out=basis[2:4]), out=basis[2:4])
    if case == 0 and derivatives:
        z = s * t * t  # s is q in the series case
        basis[7] = basis[2] * t**3 * (1 / 6 + z / 60 + z * z / 1680)
    basis[1], basis[2] = _cosh_sinh(case, basis[2], s, t, np)
    if not derivatives:
        return (np.array(monos) @ chain_terms[:9]).reshape(-1, 8)[:, :4] @ basis[:4]
    g2, tw = r1 / 2 + rphi, 4 * math.pi * w  # tw = d(w^2)/d(omega)
    det, q, dd = r1 * g2 + w * w, a * a - w * w, g2 + r1 / 2  # dd = d(det)/d(r1)
    dvy = (-w - vy * dd) / det, -vy * r1 / det, (-2 * math.pi * r1 - vy * tw) / det
    dvz = (1 - vz) * dd / det, (1 - vz) * r1 / det, -vz * tw / det
    # rows r1, rphi, omega: d(monos), then monos times dm, dG2 and dq; the curves: monos
    left = np.multiply.outer([[0.0, -0.75, 0.5, a / 2], [0.0, -0.5, 1.0, -a],
                              [0.0, 0.0, 0.0, -tw], [1.0, 0.0, 0.0, 0.0]], monos)
    left[:3, 0] = [[0.0, y, z, da, da * vy + a * y, da * vz + a * z, dw, dw * vy + w * y,
                    dw * vz + w * z]  # da and dw are d(a, w) in the row's rate
                   for y, z, da, dw in zip(dvy, dvz, (0.25, -0.5, 0.0), (0.0, 0.0, 2 * math.pi))]
    np.multiply(basis[1:4], t, out=basis[4:7])
    if case:
        np.subtract(basis[4], basis[2], out=basis[7])
        basis[7] /= 2 * q
    return ((left.reshape(4, 36) @ chain_terms).reshape(4, -1, 8) @ basis).reshape(4, -1)


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
    s real or imaginary. Each row is one call of the kernel _bloch_jacobian, for the curves
    alone, with the starts' map built once.

    Raises:
        ValueError: On a negative or non-finite time, rows not (K, 3) and real or bloch0 not
            (S, 3), K or S zero, a start outside the Bloch ball or not finite (check_bloch_rows on
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
    if np.iscomplexobj(rows):
        raise ValueError(f"rows must be real rate rows, got dtype {rows.dtype}")
    check_bloch_rows(np.insert(bloch0, 0, 1.0, axis=-1), lambda j: f"bloch0[{j[0]}]")
    finite = np.isfinite(rows).all(axis=-1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"rate row {k} is not finite: {rows[k].tolist()}")
    terms = _chain_terms(bloch0)
    curves = [_bloch_jacobian(row, terms, t, tmax, derivatives=False) for row in rows.tolist()]
    return np.reshape(curves, (len(rows), len(bloch0), 3, -1))


def _exact_step(rates: CanonicalRates, tau: float) -> np.ndarray:
    """The exact one-step PTM E(tau) from _bloch_jacobian's constants and terms, in Python floats:
    <x> decays by e^{-G2 tau}, (<y>, <z>) maps to B (y, z) + (I - B) v_ss, B = e^{M tau} = C I +
    S [[a, -w], [w, -a]], with C = e^{m tau} cosh(s tau) and S = e^{m tau} sinh(s tau)/s."""
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
