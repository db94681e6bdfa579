"""Trotterized evolution of the driven lossy qubit.

A schedule applies the three elementary generators (dephasing, damping,
rotation) in a chosen permutation. First order applies each full-duration
channel once per step; second order applies the half-duration sequence
forward and then reversed, suppressing the step error from O(1/N) to
O(1/N^2). Elementary channels come either from exact Kraus constructions
("kraus" backend) or from the ancilla dilation circuits ("dilation",
"dilation+noise").

The accuracy of a run against the exact master-equation trace is
A = sqrt(sum over steps j=1..N and the three Pauli observables of the
squared deviation) / sqrt(N); the starting point j=0 is excluded since both
traces share it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .channels import damping_channel, dephasing_channel, to_superop, unitary_channel
from .dilation import (
    NoiseParams,
    damping_circuit,
    dephasing_circuit,
    induced_channel,
    rates_to_angles,
    rotation_circuit,
)
from .linalg import KET_1, SIGMA_X, dag, density, expm, validate_density_matrix, vec
from .liouvillian import PAULI_ROWS, CanonicalRates, EvolutionTrace, propagate, target_trace

__all__ = [
    "DEPHASING",
    "DAMPING",
    "ROTATION",
    "ALL_LABELS",
    "ALL_PERMUTATIONS",
    "BACKENDS",
    "TrotterSchedule",
    "AccuracyReport",
    "ConvergenceResult",
    "run_schedule",
    "accuracy",
    "convergence_order",
    "permutation_scan",
    "compare_orders",
]

DEPHASING = "dephasing"
DAMPING = "damping"
ROTATION = "rotation"
ALL_LABELS = (DEPHASING, DAMPING, ROTATION)
ALL_PERMUTATIONS = tuple(itertools.permutations(ALL_LABELS))
BACKENDS = ("kraus", "dilation", "dilation+noise")

RHO_EXCITED = density(KET_1)


@dataclass(frozen=True)
class TrotterSchedule:
    """One Trotterized run plan.

    Attributes:
        permutation: Application order of the three generator labels; the
            first label acts first within a step.
        order: 1 (full-duration sequence) or 2 (half-duration forward then
            reversed).
        n_steps: Number of Trotter steps N >= 1.
        dt: Step duration in us (tau0 for experiment replicas, t/N for
            convergence studies).
        backend: "kraus", "dilation", or "dilation+noise".
        noise: Injected imperfections; required exactly when the backend is
            "dilation+noise".
    """

    permutation: tuple[str, str, str] = ALL_LABELS
    order: int = 1
    n_steps: int = 13
    dt: float = 3.56
    backend: str = "kraus"
    noise: NoiseParams | None = None

    def __post_init__(self):
        perm = tuple(self.permutation)
        if sorted(perm) != sorted(ALL_LABELS):
            raise ValueError(
                f"permutation must contain each of {ALL_LABELS} exactly once, got {perm}"
            )
        object.__setattr__(self, "permutation", perm)
        for name in ("order", "n_steps"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.backend == "dilation+noise" and self.noise is None:
            raise ValueError("backend 'dilation+noise' requires noise parameters")
        if self.backend != "dilation+noise" and self.noise is not None:
            raise ValueError(f"backend {self.backend!r} does not accept noise parameters")


def _elementary_superop(
    label: str, rates: CanonicalRates, dt: float, backend: str, noise: NoiseParams | None
) -> np.ndarray:
    """Superoperator of one generator applied for duration dt."""
    if backend == "kraus":
        if label == DEPHASING:
            return to_superop(dephasing_channel(rates.gamma_phi, dt))
        if label == DAMPING:
            return to_superop(damping_channel(rates.gamma1, dt))
        u = expm(-1j * (2 * np.pi * rates.omega * dt) / 2 * SIGMA_X)
        return to_superop(unitary_channel(u))
    angles = rates_to_angles(rates, dt)
    if label == DEPHASING:
        return induced_channel(dephasing_circuit(angles.theta1), noise)
    if label == DAMPING:
        return induced_channel(damping_circuit(angles.theta2), noise)
    return induced_channel(rotation_circuit(angles.theta3), noise)


def _step_superop(schedule: TrotterSchedule, rates: CanonicalRates) -> np.ndarray:
    """The 4x4 superoperator of one full Trotter step."""
    dt = schedule.dt / schedule.order
    ops = {
        label: _elementary_superop(label, rates, dt, schedule.backend, schedule.noise)
        for label in schedule.permutation
    }
    sequence = schedule.permutation
    if schedule.order == 2:  # half-duration sequence forward, then reversed
        sequence = sequence + sequence[::-1]
    step = np.eye(4, dtype=complex)
    for label in sequence:
        step = ops[label] @ step
    return step


def run_schedule(
    schedule: TrotterSchedule,
    rates: CanonicalRates,
    rho0: np.ndarray | None = None,
) -> EvolutionTrace:
    """Execute a Trotter schedule and record the Bloch trace.

    Args:
        schedule: Run plan (permutation, order, steps, backend).
        rates: Canonical qubit rates realized by the elementary channels.
        rho0: Initial state; defaults to |1><1|.

    Returns:
        EvolutionTrace with n_steps+1 samples at t = j*dt. Every recorded
        state is validated as a physical density matrix, in one batched check.
    """
    rho0 = RHO_EXCITED if rho0 is None else np.asarray(rho0, dtype=complex)
    validate_density_matrix(rho0, "rho0")
    n = schedule.n_steps
    states = propagate(_step_superop(schedule, rates), vec(rho0)[:, None], n)
    rhos = states.reshape(n + 1, 2, 2).swapaxes(1, 2)  # undo the column-stacking vec
    rhos = rhos + dag(rhos)
    rhos /= 2  # the Hermitian part sheds accumulated rounding asymmetry
    validate_density_matrix(rhos, "step {} state")
    sx, sy, sz = np.real(states[..., 0] @ PAULI_ROWS.T).T
    label = f"trotter-o{schedule.order}-{'-'.join(schedule.permutation)}"
    trace = EvolutionTrace(np.arange(n + 1) * schedule.dt, sx, sy, sz, label=label)
    if trace.bloch_norms().max() > 1 + 1e-8:
        raise ValueError("unphysical Bloch vector recorded (norm above 1)")
    return trace


@dataclass(frozen=True)
class AccuracyReport:
    """Accuracy A of a trace against the exact target, with per-step residuals."""

    a: float
    residuals: np.ndarray
    descriptor: str = ""

    def __post_init__(self):
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))
        if self.a < 0:
            raise ValueError("accuracy metric must be nonnegative")


def accuracy(trace: EvolutionTrace, target: EvolutionTrace) -> AccuracyReport:
    """Accuracy metric A = sqrt(sum_{x,j>=1} (x_j - x_j^0)^2) / sqrt(N).

    Args:
        trace: Trotterized evolution.
        target: Exact reference on identical time samples.

    Returns:
        AccuracyReport with per-step Euclidean residuals (j = 1..N).

    Raises:
        ValueError: On length or time-grid mismatch.
    """
    if len(trace) != len(target):
        raise ValueError(f"trace lengths differ: {len(trace)} vs {len(target)}")
    if np.abs(trace.times - target.times).max() > 1e-9:
        raise ValueError("trace time grids differ")
    diff = trace.as_matrix()[1:] - target.as_matrix()[1:]
    residuals = np.sqrt((diff**2).sum(axis=1))
    n = len(trace) - 1
    a = float(np.sqrt((diff**2).sum() / n))
    return AccuracyReport(a, residuals, descriptor=trace.label)


@dataclass(frozen=True)
class ConvergenceResult:
    """Log-log slope of A vs N, or a saturation flag when A is at the floor."""

    n_values: tuple[int, ...]
    accuracies: tuple[float, ...]
    slope: float | None
    saturated: bool


def convergence_order(
    template: TrotterSchedule,
    rates: CanonicalRates,
    rho0: np.ndarray | None = None,
    n_list: tuple[int, ...] = (4, 8, 16, 32, 64, 128),
    t_total: float = 13 * 3.56,
) -> ConvergenceResult:
    """Estimate the empirical convergence order of a schedule family.

    Runs the template at each N with dt = t_total/N, computes A against the
    exact trace, and fits log A vs log N by least squares.

    Args:
        template: Schedule whose n_steps/dt are overridden per N.
        rates: Canonical rates.
        rho0: Initial state, default |1><1|.
        n_list: At least 4 increasing step counts (geometric spacing
            intended).
        t_total: Fixed total evolution time in us.

    Returns:
        ConvergenceResult; when every A sits below 1e-13 the runs are at the
        floating-point floor, the slope is meaningless, and only the
        saturated flag is set.
    """
    if len(n_list) < 4:
        raise ValueError("n_list needs at least 4 entries for a slope fit")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    rho0 = RHO_EXCITED if rho0 is None else rho0
    accs = []
    for n in n_list:
        sched = replace(template, n_steps=int(n), dt=t_total / n)
        tr = run_schedule(sched, rates, rho0)
        tgt = target_trace(rates, rho0, tau0=t_total / n, n_steps=int(n))
        accs.append(accuracy(tr, tgt).a)
    accs_arr = np.array(accs)
    if accs_arr.max() < 1e-13:
        return ConvergenceResult(tuple(int(n) for n in n_list), tuple(accs), None, True)
    slope = float(np.polyfit(np.log(np.asarray(n_list, float)), np.log(accs_arr), 1)[0])
    return ConvergenceResult(tuple(int(n) for n in n_list), tuple(accs), slope, False)


def permutation_scan(
    rates: CanonicalRates,
    n_steps: int = 13,
    dt: float = 3.56,
    rho0: np.ndarray | None = None,
    orders: tuple[int, ...] = (1, 2),
    backend: str = "kraus",
    noise: NoiseParams | None = None,
) -> dict[tuple[int, tuple[str, str, str]], AccuracyReport]:
    """Accuracy of every generator permutation at the given orders.

    Returns:
        Mapping (order, permutation) -> AccuracyReport, keys in deterministic
        (order, permutation) sort order.
    """
    rho0 = RHO_EXCITED if rho0 is None else rho0
    target = target_trace(rates, rho0, tau0=dt, n_steps=n_steps)
    out: dict[tuple[int, tuple[str, str, str]], AccuracyReport] = {}
    for order in sorted(orders):
        for perm in ALL_PERMUTATIONS:
            sched = TrotterSchedule(
                permutation=perm,
                order=order,
                n_steps=n_steps,
                dt=dt,
                backend=backend,
                noise=noise,
            )
            out[(order, perm)] = accuracy(run_schedule(sched, rates, rho0), target)
    return out


def compare_orders(
    rates: CanonicalRates,
    n_steps: int = 13,
    dt: float = 3.56,
    rho0: np.ndarray | None = None,
    permutation: tuple[str, str, str] = ALL_LABELS,
    backend: str = "kraus",
    noise: NoiseParams | None = None,
    mode: str = "fixed_steps",
) -> dict[int, AccuracyReport]:
    """First- versus second-order accuracy at matched cost.

    mode "fixed_steps" runs both orders with n_steps steps of dt (the
    experiment-replica comparison). mode "fixed_budget" matches the number
    and duration of elementary channel applications instead: first order
    runs 2*n_steps steps of dt/2 against second order's n_steps steps of dt.

    Returns:
        {1: AccuracyReport, 2: AccuracyReport}.
    """
    if mode not in ("fixed_steps", "fixed_budget"):
        raise ValueError(f"mode must be 'fixed_steps' or 'fixed_budget', got {mode!r}")
    rho0 = RHO_EXCITED if rho0 is None else rho0
    out: dict[int, AccuracyReport] = {}
    for order in (1, 2):
        n, step_dt = n_steps, dt
        if mode == "fixed_budget" and order == 1:
            n, step_dt = 2 * n_steps, dt / 2
        sched = TrotterSchedule(
            permutation=permutation,
            order=order,
            n_steps=n,
            dt=step_dt,
            backend=backend,
            noise=noise,
        )
        tgt = target_trace(rates, rho0, tau0=step_dt, n_steps=n)
        out[order] = accuracy(run_schedule(sched, rates, rho0), tgt)
    return out
