"""Ancilla-assisted gate realizations of the qubit channels.

Each step's circuit acts on the 4-dimensional composite space ancilla (x) data (ancilla the
first Kronecker factor), from ancilla |g> to an ancilla reset (trace out, reload |g>).
CIRCUIT_GATES is the circuits' one description; channels.elementary_ptms builds the data-qubit
channels they induce (backends "dilation" and "dilation+noise") at the angles of the mappings

    gamma_phi = -ln(2 cos^2(theta1/2) - 1) / tau0
    gamma1    = -ln(cos^2(theta2)) / tau0
    omega     = theta3 / (2 pi tau0)      (theta3 in radians)

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
    "AngleParams",
    "NoiseParams",
    "CIRCUIT_GATES",
    "angle_to_rates",
    "rates_to_angles",
    "effective_rates",
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


@dataclass(frozen=True)
class AngleParams:
    """Per-step circuit angles (radians) and the step period tau0 (us).

    theta1 steers dephasing, theta2 damping, theta3 the x rotation;
    theta1 and theta2 live in [0, pi/2].
    """

    theta1: float = 0.0
    theta2: float = 0.0
    theta3: float = 0.0
    tau0: float = 3.56

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3"):
            v = float(getattr(self, name))
            if not -np.inf < v < np.inf:  # also true for NaN
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("theta1", "theta2"):
            v = float(getattr(self, name))
            if not 0 <= v <= np.pi / 2:
                raise ValueError(f"{name} must lie in [0, pi/2], got {v}")
        check_positive("tau0", float(self.tau0))

    @classmethod
    def from_degrees(
        cls, theta1: float, theta2: float, theta3: float, tau0: float = 3.56
    ) -> "AngleParams":
        return cls(np.radians(theta1), np.radians(theta2), np.radians(theta3), tau0)


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

def angle_to_rates(params: AngleParams) -> CanonicalRates:
    """Map per-step circuit angles to canonical rates.

    gamma_phi = -ln(2cos^2(theta1/2) - 1)/tau0, gamma1 = -ln(cos^2 theta2)/tau0,
    omega = theta3/(2 pi tau0).

    Raises:
        ValueError: When theta1 >= pi/2 or theta2 = pi/2 (the logarithm
            argument hits zero; no finite rate reproduces the step), or when
            tau0 is so small that a rate overflows.
    """
    # The thresholds guard the logarithm domain against rounding at pi/2.
    arg_phi = 2 * np.cos(params.theta1 / 2) ** 2 - 1
    if arg_phi <= 1e-12:
        raise ValueError(
            f"theta1 must be below pi/2 for a finite dephasing rate, got {params.theta1}"
        )
    arg_damp = np.cos(params.theta2) ** 2
    if arg_damp <= 1e-12:
        raise ValueError(
            f"theta2 must be below pi/2 for a finite damping rate, got {params.theta2}"
        )
    with np.errstate(over="ignore"):  # reported below as a tau0 error
        gamma1 = -np.log(arg_damp) / params.tau0
        gamma_phi = -np.log(arg_phi) / params.tau0
        omega = params.theta3 / (2 * np.pi * params.tau0)
    if not np.isfinite([gamma1, gamma_phi, omega]).all():
        raise ValueError(f"tau0 is too small for finite rates, got {params.tau0}")
    return CanonicalRates(gamma1=gamma1, gamma_phi=gamma_phi, omega=omega)


def rates_to_angles(rates: CanonicalRates, tau0: float = 3.56) -> AngleParams:
    """Inverse of :func:`angle_to_rates`: per-step angles realizing the rates over tau0."""
    check_positive("tau0", tau0)
    theta1 = math.acos(min(1.0, math.exp(-rates.gamma_phi * tau0)))  # in Python floats
    theta2 = math.acos(min(1.0, math.exp(-rates.gamma1 * tau0 / 2)))
    theta3 = 2 * math.pi * rates.omega * tau0
    return AngleParams(theta1, theta2, theta3, tau0)


def effective_rates(
    params: AngleParams,
    t1_intrinsic: float = np.inf,
    t2_intrinsic: float = np.inf,
) -> CanonicalRates:
    """Rates the circuits realize plus intrinsic hardware decay.

    gamma1 gains 1/T1_intrinsic and gamma_phi gains the intrinsic pure
    dephasing 1/T2_intrinsic - 1/(2 T1_intrinsic), so that 1/T2 gains
    1/T2_intrinsic. An infinite time means no intrinsic decay of that kind:
    t2_intrinsic = inf leaves T2 limited by T1_intrinsic alone.

    Raises:
        ValueError: When an intrinsic time is not positive, or when a finite
            t2_intrinsic exceeds 2*t1_intrinsic (negative pure dephasing).
    """
    if not (t1_intrinsic > 0 and t2_intrinsic > 0):
        raise ValueError("intrinsic times must be positive (np.inf for ideal)")
    if np.isfinite(t2_intrinsic) and t2_intrinsic > 2 * t1_intrinsic * (1 + 1e-9):
        raise ValueError(f"t2_intrinsic={t2_intrinsic} exceeds 2*t1_intrinsic={2 * t1_intrinsic}")
    chan = angle_to_rates(params)
    inv_t1 = 0.0 if np.isinf(t1_intrinsic) else 1.0 / t1_intrinsic
    inv_t2 = 0.0 if np.isinf(t2_intrinsic) else 1.0 / t2_intrinsic
    return CanonicalRates(
        gamma1=chan.gamma1 + inv_t1,
        gamma_phi=chan.gamma_phi + max(0.0, inv_t2 - inv_t1 / 2),
        omega=chan.omega,
    )


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
