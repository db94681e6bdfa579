"""Lindblad superoperators and exact reference evolution of a driven lossy qubit.

Conventions fixed here and used across the package:

* Master equation: d(rho)/dt = sum_j -i[H_j, rho] + sum_k (2 L_k rho L_k^dag
  - {L_k^dag L_k, rho}). Note the dissipator carries a factor 2 on the
  sandwich term and no 1/2 on the anticommutator.
* Canonical rates: ``gamma1`` is the population decay rate of |1> (its
  occupation falls as e^{-gamma1 t}), ``gamma_phi`` the pure-dephasing rate.
  Off-diagonals then decay as e^{-(gamma1/2 + gamma_phi) t}, i.e.
  1/T1 = gamma1 and 1/T2 = gamma1/2 + gamma_phi.
* Drive Hamiltonian H = pi * omega * sigma_x with ``omega`` a full-cycle
  Rabi frequency in MHz: a step of duration tau rotates by 2*pi*omega*tau.
* Basis |0>, |1> with <sigma_z>(|0>) = +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (SIGMA_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z, check_count, check_positive, dag,
                     expm, validate_density_matrix, vec)

__all__ = [
    "GeneratorSpec",
    "CanonicalRates",
    "EvolutionTrace",
    "coherent",
    "jump",
    "dephasing_generator",
    "damping_generator",
    "drive_generator",
    "qubit_generators",
    "lindblad_superop",
    "propagator",
    "BLOCH_ROWS",
    "propagate",
    "bloch_solution",
    "target_trace",
]


@dataclass(frozen=True)
class GeneratorSpec:
    """One additive term of a Lindblad generator.

    kind is "coherent" (matrix = Hamiltonian H, contributes -i[H, rho]) or
    "jump" (matrix = jump operator L, contributes 2 L rho L^dag -
    {L^dag L, rho}).
    """

    kind: str
    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"generator matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("generator matrix contains non-finite entries")
        if self.kind == "coherent":
            if np.abs(m - dag(m)).max() > 1e-12:
                raise ValueError("coherent generator requires a Hermitian matrix")
        elif self.kind != "jump":
            raise ValueError(f"unknown generator kind {self.kind!r}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def coherent(h: np.ndarray, label: str = "") -> GeneratorSpec:
    """Coherent term -i[H, rho] from a Hermitian H."""
    return GeneratorSpec("coherent", h, label)


def jump(l: np.ndarray, label: str = "") -> GeneratorSpec:
    """Dissipative term 2 L rho L^dag - {L^dag L, rho}."""
    return GeneratorSpec("jump", l, label)


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


def dephasing_generator(gamma_phi: float) -> GeneratorSpec:
    """Jump term L = (sqrt(gamma_phi)/2) sigma_z giving e^{-gamma_phi t} coherence decay."""
    return jump(np.sqrt(gamma_phi) / 2 * SIGMA_Z, label="dephasing")


def damping_generator(gamma1: float) -> GeneratorSpec:
    """Jump term L = sqrt(gamma1/2) sigma_minus giving e^{-gamma1 t} population decay."""
    return jump(np.sqrt(gamma1 / 2) * SIGMA_MINUS, label="damping")


def drive_generator(omega: float) -> GeneratorSpec:
    """Coherent term H = pi*omega*sigma_x (omega in MHz, full-cycle Rabi rate)."""
    return coherent(np.pi * omega * SIGMA_X, label="rotation")


def qubit_generators(rates: CanonicalRates) -> list[GeneratorSpec]:
    """The three generator terms (dephasing, damping, drive) for given rates."""
    return [
        dephasing_generator(rates.gamma_phi),
        damping_generator(rates.gamma1),
        drive_generator(rates.omega),
    ]


def lindblad_superop(generators: list[GeneratorSpec], dim: int = 2) -> np.ndarray:
    """Assemble the d^2 x d^2 Lindblad superoperator in column-stacking form.

    Args:
        generators: Additive coherent/jump terms of consistent dimension.
        dim: Hilbert-space dimension used when generators is empty.

    Returns:
        S with S @ vec(rho) = vec(sum_j -i[H_j,rho]
        + sum_k (2 L_k rho L_k^dag - {L_k^dag L_k, rho})).

    Raises:
        ValueError: On mixed generator dimensions.
    """
    if generators:
        dim = generators[0].dim
    eye = np.eye(dim, dtype=complex)
    s = np.zeros((dim * dim, dim * dim), dtype=complex)
    for g in generators:
        if g.dim != dim:
            raise ValueError(f"generator dimension {g.dim} does not match {dim}")
        m = g.matrix
        if g.kind == "coherent":
            s += -1j * (np.kron(eye, m) - np.kron(m.T, eye))
        else:
            mm = dag(m) @ m
            s += 2 * np.kron(np.conj(m), m) - np.kron(eye, mm) - np.kron(mm.T, eye)
    return s


def propagator(superop: np.ndarray, t: float) -> np.ndarray:
    """Exact channel superoperator expm(S*t) for evolution time t >= 0."""
    if t < 0:
        raise ValueError(f"propagation time must be nonnegative, got {t}")
    return expm(np.asarray(superop, dtype=complex) * t)


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
    batch, (d, m) = np.broadcast_shapes(step.shape[:-2], cols.shape[:-2]), cols.shape[-2:]
    states = np.empty(batch + (d, (n + 1) * m), dtype=np.result_type(step, cols))
    states[..., :m] = cols
    power, j = step, 1
    while j <= n:
        k = min(j, n + 1 - j)
        np.matmul(power, states[..., : k * m], out=states[..., j * m : (j + k) * m])
        j += k
        if j <= n:
            power = power @ power
    return np.moveaxis(states.reshape(batch + (d, n + 1, m)), -2, 0)


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


def _cosh_sinh(m, det, q, t):
    """e^{mt} cosh(st) and t e^{mt} sinh(st)/(st) for (K, 1) rows, each in its case of s^2 = q."""
    hyp = q.real[:, 0] > 0  # s is real for q > 0, else imaginary
    if 0 < hyp.sum() < len(hyp):  # rows of both cases: one call per case
        out = np.empty((2, len(q), t.size), np.result_type(q, t))
        out[:, hyp], out[:, ~hyp] = (_cosh_sinh(m[k], det[k], q[k], t) for k in (hyp, ~hyp))
        return out
    real, z, emt = hyp.all(), q * t * t, np.exp(m * t)
    small = np.abs(z) < 1e-5  # |st|^2 < 1e-5: t = 0, and near s = 0 (exceptional point a = +-w)
    x = np.where(small, 1.0, np.sqrt(q if real else -q) * t)  # |st|
    if real:  # e^{(m+s)t} (m + s = det/(m - s) cancels nothing) and expm1(-2st) stay in [-1, 1]
        e, d = np.exp(det * t * t / (m * t - x)), np.expm1(-2 * x)
        cosh, sinh = e * (1 + d / 2), -e * d / (2 * x)
    else:
        cosh, sinh = emt * np.cos(x), emt * np.sin(x) / x
    zs, es = z[small], emt[small]  # the series in (st)^2, on the small samples alone
    cosh[small], sinh[small] = es * (1 + zs / 2 + zs * zs / 24), es * (1 + zs / 6 + zs * zs / 120)
    return cosh, t * sinh


def bloch_solution(rows: np.ndarray, bloch0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact Bloch vectors of the canonical model, as a (K, S, 3, T) array.

    Torrey's closed form for K rate rows (gamma1, gamma_phi, omega), S initial Bloch
    vectors and T times t >= 0. With G1 = gamma1, G2 = gamma1/2 + gamma_phi, w = 2 pi omega:
    <x> = x0 e^{-G2 t}, (<y>, <z>) = v_ss + e^{Mt} (v0 - v_ss), M = [[-G2, -w], [w, -G1]],
    v_ss = -M^{-1} (0, G1), taken as 0 where det M = 0 (G1 = w = 0, where (0, G1) is 0 too),
    e^{Mt} = e^{mt} (cosh(st) I + sinh(st)/s (M - mI)), m = -(G1 + G2)/2 and
    s^2 = ((G1 - G2)/2)^2 - w^2. Real for real rows; analytic in them, so a complex step
    in a rate gives its derivative. Each row takes only its own case (s real or imaginary).
    """
    t = np.asarray(times, dtype=float)
    if not np.all((t >= 0) & (t < np.inf)):  # also false for NaN
        raise ValueError(f"times must be finite and nonnegative, got {t}")
    g1, rphi, omega = np.asarray(rows).T[:, :, None]
    g2, w = g1 / 2 + rphi, 2 * np.pi * omega
    m, a, det = -(g1 + g2) / 2, (g1 - g2) / 2, g1 * g2 + w * w
    cosh, sinh = _cosh_sinh(m, det, a * a - w * w, t)
    vss = np.concatenate([-w * g1, g1 * g2], axis=1) / np.where(det == 0, 1, det)  # (K, 2)
    v0 = np.asarray(bloch0, dtype=float)
    dv = v0[:, 1:] - vss[:, None]  # v0 - v_ss, (K, S, 2)
    mv = dv @ np.concatenate([a, w, -w, -a], axis=1).reshape(-1, 2, 2)  # (M - mI)(v0 - v_ss)
    yz = (vss[:, None, :, None] + dv[..., None] * cosh[:, None, None]
          + mv[..., None] * sinh[:, None, None])
    xs = v0[:, 0, None] * np.exp(-g2 * t)[:, None]  # (K, S, T)
    return np.concatenate([xs[:, :, None], yz], axis=2)


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
