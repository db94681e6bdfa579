"""Ancilla-assisted gate realizations of the qubit channels.

Each step's circuit acts on the 4-dimensional composite space ancilla (x) data (ancilla the
first Kronecker factor), from ancilla |g> to an ancilla reset (trace out, reload |g>).
CIRCUIT_GATES is the circuits' one description, read only here: induced_ptms chains its gates'
real Pauli-transfer matrices (PTMs) into the data-qubit channels that channels.elementary_ptms
returns for the backends "dilation" and "dilation+noise", at the angles of the mappings

    gamma_phi = -ln(2 cos^2(theta1/2) - 1) / tau0 = log1p(tan^2(theta1)) / (2 tau0)
    gamma1    = -ln(cos^2(theta2)) / tau0         = log1p(tan^2(theta2)) / tau0
    omega     = theta3 / (2 pi tau0)      (theta3 in radians)

taken in their log1p forms and inverted by atan2, which keep every digit at small angles.

The angles are three numbers in radians: angle_to_rates(theta1, theta2, theta3, tau0) evaluates
the mappings and is the one check of their domain (finite, theta1 and theta2 in [0, pi/2)), and
rates_to_angles returns the (theta1, theta2, theta3) tuple that inverts them.

Optional injected noise models imperfect hardware: ancilla amplitude decay
with some probability after every two-qubit gate, plus one data-qubit
depolarization event per composite unitary (per circuit application).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import check_positive
from .liouvillian import CanonicalRates

__all__ = [
    "NoiseParams",
    "CIRCUIT_GATES",
    "angle_to_rates",
    "rates_to_angles",
    "depolarization_equivalent_time",
]


@dataclass(frozen=True)
class NoiseParams:
    """Injected imperfections: data depolarization probability per composite
    unitary (p_grape) and ancilla decay probability per two-qubit gate."""

    p_grape: float = 0.0
    p_ancilla_decay: float = 0.0

    def __post_init__(self):
        for name in ("p_grape", "p_ancilla_decay"):
            v = float(getattr(self, name))
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must be a probability in [0, 1], got {v}")
            object.__setattr__(self, name, v)


# Each circuit's gates before the reset, in the label order, as (gate kind, multiple of the
# circuit's angle theta): ancilla_rx and data_x turn their qubit about x, while cz and
# cnot_ancilla_ctrl (X on the data where the ancilla is |e>) take no angle. Dephasing flips the
# data's phase with probability sin^2(theta/2); damping relaxes |1> to |0> with probability
# sin^2(theta), its coherent CNOT inducing the channel of a measured correction (an ancilla z
# measurement, then a conditional data X); rotation turns the data about x by theta.
CIRCUIT_GATES = {
    "dephasing": (("ancilla_rx", 1), ("cz", 0)),
    "damping": (("ancilla_rx", 1), ("cz", 0), ("ancilla_rx", -1), ("cnot_ancilla_ctrl", 0)),
    "rotation": (("data_x", 1),),
}


# The fixed gates' PTMs Re(V^dag (U (x) U*) V)/4, V's columns the Paulis s_a (x) s_d at index
# 4a + d. CZ and CNOT are Clifford gates, so each maps every Pauli to one signed Pauli: row 4a + d
# holds one +-1, in that Pauli's column. CZ, and the CNOT: X on the data where the ancilla is |e>.
# The data rows load with ancilla |g>, at a = I and a = Z.
_CZ, _CNOT = np.zeros((2, 16, 16))
_CZ[range(16), [0, 13, 14, 3, 7, 10, 9, 4, 11, 6, 5, 8, 12, 1, 2, 15]] = [
    1, 1, 1, 1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, 1, 1]
_CNOT[range(16), [0, 1, 14, 15, 5, 4, 11, 10, 9, 8, 7, 6, 12, 13, 2, 3]] = [
    1, 1, 1, 1, 1, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, 1]
_FIXED = {"cz": _CZ, "cnot_ancilla_ctrl": _CNOT}
_FIXED_ROWS = np.array([_CZ, _CNOT]).reshape(2, 4, 64)  # rows by ancilla index a
_LOAD = np.eye(16, 4) + np.eye(16, 4, -12)


def _rx_rows(c: float, s: float) -> tuple:
    """An x rotation's PTM row by row, c = cos theta, s = sin theta: [[c, -s], [s, c]] on y, z."""
    return 1.0, 0.0, 0.0, 0.0,  0.0, 1.0, 0.0, 0.0,  0.0, 0.0, c, -s,  0.0, 0.0, s, c


def _circuit_ptms(circuits, noise: NoiseParams | None) -> np.ndarray:
    """The (C, B, 4, 4) real Pauli-transfer matrices (PTMs) of the data channels C circuits induce,
    each its CIRCUIT_GATES pairs and B angles, a gate turning by multiple times angle. Each gate
    multiplies the (B, 16, 4) ancilla (x) data rows once: by an x rotation's PTM on its qubit's
    axis, or by a fixed gate's PTM, into which one (4, 4) @ (2, 4, 64) product per call folds the
    ancilla decay's PTM on the ancilla axis. The reset keeps the rows of ancilla I; one
    depolarization event shrinks the data's Bloch rows."""
    p, p_grape = (0.0, 0.0) if noise is None else (noise.p_ancilla_decay, noise.p_grape)
    fixed = _FIXED
    if p:  # the ancilla decay's PTM after each fixed gate, folded into the gates' rows (a, d x j)
        decay = np.diag([1, *[math.sqrt(1 - p)] * 2, 1 - p]) + p * np.eye(4, k=-3)
        fixed = dict(zip(_FIXED, (decay @ _FIXED_ROWS).reshape(2, 16, 16)))
    entries = []
    for x in [m * t for gates, theta in circuits for kind, m in gates if kind not in _FIXED
              for t in theta]:  # the x rotations' angles, B per gate, in gate order
        entries += _rx_rows(math.cos(x), math.sin(x))
    turns = iter(np.fromiter(entries, float, len(entries)).reshape(-1, len(circuits[0][1]), 4, 4))
    ptms = np.empty((len(circuits), len(circuits[0][1]), 4, 4))
    for ptm, (gates, _) in zip(ptms, circuits):
        rows = _LOAD[None]
        for kind, _ in gates:
            if kind in fixed:
                rows = fixed[kind] @ rows
            elif kind == "ancilla_rx":
                rows = (next(turns) @ rows.reshape(-1, 4, 16)).reshape(-1, 16, 4)
            else:  # data_x, on the data axis of the rows (a, d)
                rows = (next(turns)[:, None] @ rows.reshape(-1, 4, 4, 4)).reshape(-1, 16, 4)
        ptm[:] = rows[:, :4]  # the reset keeps the rows of a = I
    ptms[..., 1:, :] *= 1 - p_grape  # depolarizing: the Bloch rows shrink
    return ptms


def _angles(rates: CanonicalRates, tau0: float) -> tuple[float, float, float]:
    """The angles (theta1, theta2, theta3) realizing the rates over tau0 >= 0, in Python floats,
    unchecked: tau0 = 0 gives (0, 0, 0)."""
    theta1, theta2 = (math.atan2(math.sqrt(-math.expm1(-2 * x)), math.exp(-x))  # cos = e^{-x}
                      for x in (rates.gamma_phi * tau0, rates.gamma1 * tau0 / 2))
    return theta1, theta2, 2 * math.pi * rates.omega * tau0


def induced_ptms(rates: CanonicalRates, durations: list[float],
                 noise: NoiseParams | None) -> np.ndarray:
    """The (D, 3, 4, 4) data PTMs the three circuits induce, in CIRCUIT_GATES order, at the
    angles of each of D nonnegative durations, all D at once: the dilation backends of
    channels.elementary_ptms, which checks the durations and the drive angle."""
    thetas = zip(*[_angles(rates, dt) for dt in durations])
    return _circuit_ptms(list(zip(CIRCUIT_GATES.values(), thetas)), noise).swapaxes(0, 1)


def angle_to_rates(theta1: float, theta2: float, theta3: float, tau0: float = 3.56,
                   t1_intrinsic: float = np.inf, t2_intrinsic: float = np.inf) -> CanonicalRates:
    """The canonical rates the circuits realize at the per-step angles (radians) over the step
    period tau0 (us), by the log1p forms above, plus intrinsic hardware decay: gamma1 gains
    1/T1_intrinsic and gamma_phi the intrinsic pure dephasing 1/T2_intrinsic - 1/(2 T1_intrinsic),
    so that 1/T2 gains 1/T2_intrinsic. An infinite time means no intrinsic decay of that kind:
    t2_intrinsic = inf leaves T2 limited by T1_intrinsic alone. A zero decay rate is +0.0.

    Raises:
        ValueError: Naming the argument: an angle that is not finite; theta1 or theta2 outside
            [0, pi/2) (at pi/2 no finite rate reproduces the step); tau0 not positive and finite,
            or so small that a rate overflows; an intrinsic time not positive or with an
            overflowing inverse, or a finite t2_intrinsic above 2*t1_intrinsic.
    """
    for name, theta in (("theta1", theta1), ("theta2", theta2), ("theta3", theta3)):
        if not -np.inf < theta < np.inf:  # also true for NaN
            raise ValueError(f"{name} must be finite, got {theta}")
    check_positive("tau0", tau0)
    # The thresholds guard the logarithm domain against rounding at pi/2.
    arg_phi = 2 * np.cos(theta1 / 2) ** 2 - 1
    if not (0 <= theta1 < np.pi / 2 and arg_phi > 1e-12):
        raise ValueError(f"theta1 must lie in [0, pi/2) for a finite dephasing rate, got {theta1}")
    arg_damp = np.cos(theta2) ** 2
    if not (0 <= theta2 < np.pi / 2 and arg_damp > 1e-12):
        raise ValueError(f"theta2 must lie in [0, pi/2) for a finite damping rate, got {theta2}")
    for name, t in (("t1_intrinsic", t1_intrinsic), ("t2_intrinsic", t2_intrinsic)):
        if not (t > 0 and 1.0 / float(t) < np.inf):
            raise ValueError(f"{name} must be positive with a finite inverse (inf for none), "
                             f"got {t}")
    if np.isfinite(t2_intrinsic) and t2_intrinsic > 2 * t1_intrinsic * (1 + 1e-9):
        raise ValueError(f"t2_intrinsic={t2_intrinsic} exceeds 2*t1_intrinsic={2 * t1_intrinsic}")
    with np.errstate(over="ignore"):  # reported below as a tau0 error
        gamma1 = np.log1p(np.tan(theta2) ** 2) / tau0
        gamma_phi = np.log1p(np.tan(theta1) ** 2) / (2 * tau0)
        omega = theta3 / (2 * np.pi * tau0)
    if not np.isfinite([gamma1, gamma_phi, omega]).all():
        raise ValueError(f"tau0 is too small for finite rates, got {tau0}")
    inv_t1, inv_t2 = 1.0 / t1_intrinsic, 1.0 / t2_intrinsic  # 0.0 for an infinite time
    return CanonicalRates(gamma1=gamma1 + inv_t1,
                          gamma_phi=gamma_phi + max(0.0, inv_t2 - inv_t1 / 2), omega=omega)


def rates_to_angles(rates: CanonicalRates, tau0: float = 3.56) -> tuple[float, float, float]:
    """Inverse of :func:`angle_to_rates` without intrinsic decay: the angles (theta1, theta2,
    theta3) for tau0, rejecting a drive angle that overflows."""
    check_positive("tau0", tau0)
    angles = _angles(rates, tau0)
    if not math.isfinite(angles[2]):
        raise ValueError(f"theta3 must be finite, got {angles[2]}")
    return angles


def depolarization_equivalent_time(p_grape: float, tau0: float = 3.56) -> float:
    """Coherence-limit equivalent of one depolarization event per step.

    A per-step depolarization probability p shrinks Bloch components by
    (1 - p) each tau0, i.e. a decay time tau0 / (-ln(1 - p)).
    """
    if not 0 <= p_grape < 1:
        raise ValueError(f"p_grape must be in [0, 1), got {p_grape}")
    check_positive("tau0", tau0)
    if p_grape == 0:
        return np.inf
    return tau0 / (-np.log1p(-p_grape))
