"""Ancilla-assisted gate realizations of the qubit channels.

A dilation circuit acts on the 4-dimensional composite space ancilla (x) data
(ancilla is the first Kronecker factor), starting from ancilla |g> and ending
with an ancilla reset (trace out, reload |g>). Tracing the ancilla yields the
induced data-qubit channel; the circuits below reproduce the dephasing and
damping channels exactly, with angle-to-rate mappings

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
from .liouvillian import BLOCH_ROWS, CanonicalRates

__all__ = [
    "Gate",
    "DilationCircuit",
    "AngleParams",
    "NoiseParams",
    "dephasing_circuit",
    "damping_circuit",
    "rotation_circuit",
    "induced_channel",
    "angle_to_rates",
    "rates_to_angles",
    "effective_rates",
    "depolarization_equivalent_time",
]

_KINDS = ("ancilla_rx", "cz", "cnot_ancilla_ctrl", "data_x", "reset_ancilla")


@dataclass(frozen=True)
class Gate:
    """One circuit element on the ancilla (x) data composite space.

    kind is one of ancilla_rx (x rotation by theta on the ancilla), cz,
    cnot_ancilla_ctrl (ancilla-controlled X on the data), data_x (x rotation
    by theta on the data), or reset_ancilla (trace out and reload |g>).
    """

    kind: str
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not np.isfinite(self.theta):
            raise ValueError("gate angle must be finite")


@dataclass(frozen=True)
class DilationCircuit:
    """Ordered gate list with exactly one ancilla reset, placed last."""

    gates: tuple[Gate, ...]
    label: str = ""

    def __post_init__(self):
        gates = tuple(self.gates)
        resets = [i for i, g in enumerate(gates) if g.kind == "reset_ancilla"]
        if len(resets) != 1 or resets[0] != len(gates) - 1:
            raise ValueError("circuit must contain exactly one reset_ancilla, last")
        object.__setattr__(self, "gates", gates)


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


# Each circuit's gates before the reset, in the label order and written once as (gate kind,
# multiple of the circuit's angle): the builders below and the dilation backends read them.
_CIRCUIT_GATES = {
    "dephasing": (("ancilla_rx", 1), ("cz", 0)),
    "damping": (("ancilla_rx", 1), ("cz", 0), ("ancilla_rx", -1), ("cnot_ancilla_ctrl", 0)),
    "rotation": (("data_x", 1),),
}


def _circuit(label: str, theta: float) -> DilationCircuit:
    gates = tuple(Gate(kind, m * theta if m else 0.0) for kind, m in _CIRCUIT_GATES[label])
    return DilationCircuit(gates + (Gate("reset_ancilla"),), label=label)


def dephasing_circuit(theta1: float) -> DilationCircuit:
    """Ancilla rotation by theta1, CZ, reset: dephases the data qubit.

    The circuit applies sigma_z to the data with probability sin^2(theta1/2),
    shrinking off-diagonals by cos(theta1) = 2 cos^2(theta1/2) - 1.
    """
    return _circuit("dephasing", theta1)


def damping_circuit(theta2: float) -> DilationCircuit:
    """Rotation, CZ, counter-rotation, adaptive CNOT, reset: amplitude damping.

    Induces the damping channel with E0 = diag(1, cos(theta2)) and
    E1 proportional to [[0, sin(theta2)], [0, 0]]: the data qubit relaxes
    from |1> to |0> with probability sin^2(theta2).
    """
    return _circuit("damping", theta2)


def rotation_circuit(theta3: float) -> DilationCircuit:
    """Plain data-qubit x rotation by theta3 (ancilla untouched)."""
    return _circuit("rotation", theta3)


# The fixed gates' PTMs Re(V^dag (U (x) U*) V)/4, V^dag's rows the row-major ravels of s_a (x) s_d,
# index 4a + d (BLOCH_ROWS holds each Pauli s as s.ravel()). The data rows load with ancilla |g>,
# at a = I and a = Z; measuring the ancilla after the CNOT (the feedforward pair) keeps those rows.
_PAULIS2 = np.einsum("aij,dkl->adikjl", *[BLOCH_ROWS.reshape(4, 2, 2)] * 2).reshape(16, 16)
# CZ, and the CNOT: X on the data where the ancilla is |e>.
_GATES2 = np.stack([np.diag([1.0, 1.0, 1.0, -1.0]), np.eye(4)[[0, 1, 3, 2]]]).astype(complex)
_CZ, _CNOT = np.real(_PAULIS2.conj() @ np.einsum("gik,gjl->gijkl", _GATES2, _GATES2.conj())
                     .reshape(2, 16, 16) @ _PAULIS2.T) / 4
_LOAD = np.eye(16, 4) + np.eye(16, 4, -12)
_FEEDFORWARD = _CNOT * _LOAD.sum(1, keepdims=True)


def _rx_rows(c: float, s: float) -> tuple:
    """An x rotation's PTM row by row, c = cos theta, s = sin theta: [[c, -s], [s, c]] on y, z."""
    return 1, 0, 0, 0,  0, 1, 0, 0,  0, 0, c, -s,  0, 0, s, c


def induced_channel(
    circuit: DilationCircuit,
    noise: NoiseParams | None = None,
    adaptive: str = "coherent",
) -> np.ndarray:
    """Column-stacking superoperator of the data-qubit channel the circuit induces.

    The gates compose on ancilla (x) data between the load of ancilla |g> and the reset as a
    chain of real Pauli-transfer matrices (PTMs); the reset keeps the ancilla's identity rows,
    the data channel's PTM R, whose superoperator is P R P^dag / 2 with P^dag = BLOCH_ROWS.
    This is the one-circuit case of the batched chain that builds the dilation backends' steps.

    Args:
        circuit: Gate sequence ending in the ancilla reset.
        noise: Optional injected imperfections; ancilla decay fires after
            every two-qubit gate, one depolarization event fires on the data
            after the whole composite unitary.
        adaptive: "coherent" keeps the CNOT unitary; "feedforward" replaces
            it by an ancilla z measurement with a conditional data X (the
            induced channel is identical).
    """
    gates = [(g.kind, g.theta) for g in circuit.gates[:-1]]  # each its own angle at 1; no reset
    ptm = _circuit_ptms([(gates, np.ones(1))], noise, adaptive)[0, 0]
    return BLOCH_ROWS.conj().T @ ptm @ BLOCH_ROWS / 2


def _circuit_ptms(circuits, noise: NoiseParams | None, adaptive: str = "coherent") -> np.ndarray:
    """The (C, B, 4, 4) data PTMs of :func:`induced_channel` for C kinds, each its (gate kind,
    multiple) pairs before the reset and B angles, a gate turning by multiple times angle. Each
    gate multiplies the (B, 16, 4) ancilla (x) data rows once: by an x rotation's PTM on its
    qubit's axis, or by a fixed gate's PTM and then the ancilla decay's on the ancilla axis."""
    if adaptive not in ("coherent", "feedforward"):
        raise ValueError(f"adaptive must be 'coherent' or 'feedforward', got {adaptive!r}")
    p, p_grape = (0.0, 0.0) if noise is None else (noise.p_ancilla_decay, noise.p_grape)
    decay = np.diag([1, *[math.sqrt(1 - p)] * 2, 1 - p]) + p * np.eye(4, k=-3) if p else None
    fixed = {"cz": _CZ, "cnot_ancilla_ctrl": _FEEDFORWARD if adaptive == "feedforward" else _CNOT}
    angles = [m * t for gates, theta in circuits for kind, m in gates if kind not in fixed
              for t in theta]  # the x rotations' angles, B per gate, in gate order
    turns = iter(np.array([v for x in angles for v in _rx_rows(math.cos(x), math.sin(x))],
                          float).reshape(-1, len(circuits[0][1]), 4, 4))
    ptms = []
    for gates, _ in circuits:
        rows = _LOAD[None]
        for kind, _ in gates:
            if kind in fixed:
                rows = fixed[kind] @ rows
                if decay is not None:
                    rows = (decay @ rows.reshape(-1, 4, 16)).reshape(-1, 16, 4)
            elif kind == "ancilla_rx":
                rows = (next(turns) @ rows.reshape(-1, 4, 16)).reshape(-1, 16, 4)
            else:  # data_x, on the data axis of the rows (a, d)
                rows = (next(turns)[:, None] @ rows.reshape(-1, 4, 4, 4)).reshape(-1, 16, 4)
        ptms.append(rows[:, :4])  # the reset keeps the rows of a = I
    return np.array(ptms) * ([[1.0]] + [[1 - p_grape]] * 3)  # depolarizing: Bloch rows shrink


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
    theta1 = np.arccos(min(1.0, np.exp(-rates.gamma_phi * tau0)))
    theta2 = np.arccos(min(1.0, np.exp(-rates.gamma1 * tau0 / 2)))
    theta3 = 2 * np.pi * rates.omega * tau0
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
