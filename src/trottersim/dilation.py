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

from dataclasses import dataclass

import numpy as np

from .linalg import I2, KET_0, SIGMA_MINUS, SIGMA_X, check_positive, kraus_superop, rx, vec
from .liouvillian import CanonicalRates

__all__ = [
    "Gate",
    "DilationCircuit",
    "AngleParams",
    "NoiseParams",
    "gate_unitary",
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
# Ancilla z measurement and conditional data X; its Kraus pair sums to the CNOT.
_FEEDFORWARD = np.stack([np.kron(np.diag([1.0, 0.0]), I2), np.kron(np.diag([0.0, 1.0]), SIGMA_X)])


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


def gate_unitary(gate: Gate) -> np.ndarray:
    """4x4 unitary of a non-reset gate in ancilla (x) data ordering."""
    if gate.kind == "ancilla_rx":
        return np.kron(rx(gate.theta), I2)
    if gate.kind == "data_x":
        return np.kron(I2, rx(gate.theta))
    if gate.kind == "cz":
        return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    if gate.kind == "cnot_ancilla_ctrl":
        return _FEEDFORWARD.sum(axis=0)
    raise ValueError(f"gate {gate.kind!r} has no unitary realization")


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
            if not np.isfinite(v):
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


def dephasing_circuit(theta1: float) -> DilationCircuit:
    """Ancilla rotation by theta1, CZ, reset: dephases the data qubit.

    The circuit applies sigma_z to the data with probability sin^2(theta1/2),
    shrinking off-diagonals by cos(theta1) = 2 cos^2(theta1/2) - 1.
    """
    return DilationCircuit(
        (Gate("ancilla_rx", theta1), Gate("cz"), Gate("reset_ancilla")),
        label="dephasing",
    )


def damping_circuit(theta2: float) -> DilationCircuit:
    """Rotation, CZ, counter-rotation, adaptive CNOT, reset: amplitude damping.

    Induces the damping channel with E0 = diag(1, cos(theta2)) and
    E1 proportional to [[0, sin(theta2)], [0, 0]]: the data qubit relaxes
    from |1> to |0> with probability sin^2(theta2).
    """
    return DilationCircuit(
        (
            Gate("ancilla_rx", theta2),
            Gate("cz"),
            Gate("ancilla_rx", -theta2),
            Gate("cnot_ancilla_ctrl"),
            Gate("reset_ancilla"),
        ),
        label="damping",
    )


def rotation_circuit(theta3: float) -> DilationCircuit:
    """Plain data-qubit x rotation by theta3 (ancilla untouched)."""
    return DilationCircuit(
        (Gate("data_x", theta3), Gate("reset_ancilla")), label="rotation"
    )


# Kraus stacks (m, 4, 4) of the two-qubit gates; the load of ancilla |g> is |g> (x) I.
_LOAD_G = np.kron(KET_0[:, None], I2)
_CZ, _CNOT = (gate_unitary(Gate(kind))[None] for kind in ("cz", "cnot_ancilla_ctrl"))


def induced_channel(
    circuit: DilationCircuit,
    noise: NoiseParams | None = None,
    adaptive: str = "coherent",
) -> np.ndarray:
    """Column-stacking superoperator of the data-qubit channel the circuit induces.

    The gates compose on ancilla (x) data between the load of ancilla |g> and
    the reset, so the data channel has the Kraus operators <a|E_k|g> of the
    composite family E_k. The family is carried as the (k, 4, 2) stack E_k|g>;
    a gate with m Kraus operators multiplies k by m, and a one-qubit gate acts
    on its qubit's axis alone. This is the one-circuit case of the batched
    contraction that builds the dilation backends' steps.

    Args:
        circuit: Gate sequence ending in the ancilla reset.
        noise: Optional injected imperfections; ancilla decay fires after
            every two-qubit gate, one depolarization event fires on the data
            after the whole composite unitary.
        adaptive: "coherent" keeps the CNOT unitary; "feedforward" replaces
            it by an ancilla z measurement with a conditional data X (the
            induced channel is identical).
    """
    return _induced_channels([circuit], noise, adaptive)[0]


def _induced_channels(
    circuits: list[DilationCircuit], noise: NoiseParams | None, adaptive: str = "coherent"
) -> np.ndarray:
    """The (B, 4, 4) :func:`induced_channel` of B circuits with the first one's gate kinds, as one
    (B, k, 4, 2) family; the noise Kraus pair and the fixed gate maps are built once per call."""
    if adaptive not in ("coherent", "feedforward"):
        raise ValueError(f"adaptive must be 'coherent' or 'feedforward', got {adaptive!r}")
    p = 0.0 if noise is None else noise.p_ancilla_decay
    decay = np.array([np.diag([1.0, np.sqrt(1.0 - p)]), np.sqrt(p) * SIGMA_MINUS]) if p else None
    fixed = {"cz": _CZ, "cnot_ancilla_ctrl": _FEEDFORWARD if adaptive == "feedforward" else _CNOT}
    b = len(circuits)
    family = _LOAD_G[None, None].repeat(b, axis=0)  # per circuit, rows (a, i) of E_k|g>
    for j, gate in enumerate(circuits[0].gates[:-1]):  # the last gate is the reset
        if gate.kind in fixed:
            family = (fixed[gate.kind][:, None] @ family[:, None]).reshape(b, -1, 4, 2)
            if decay is not None:  # acts on the ancilla rows a
                family = (decay[:, None] @ family.reshape(b, 1, -1, 2, 4)).reshape(b, -1, 4, 2)
        else:  # an x rotation of the ancilla (rows a) or of the data (rows i)
            shape = (2, 4) if gate.kind == "ancilla_rx" else (2, 2)
            turn = rx(np.array([c.gates[j].theta for c in circuits]))[:, None]
            family = (turn @ family.reshape(b, -1, *shape)).reshape(b, -1, 4, 2)
    s = kraus_superop(family.reshape(b, -1, 2, 2))  # A = <a|E_k|g>: rows 2a, 2a + 1 of E_k|g>
    if noise is not None and noise.p_grape > 0:
        # (1 - p) rho + p Tr(rho) I/2; rows 0 and 3 of s read the diagonal.
        s = (1 - noise.p_grape) * s + noise.p_grape * (vec(I2)[:, None] * (s[:, :1] + s[:, 3:])) / 2
    return s


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
