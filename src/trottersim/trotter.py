"""Trotterized evolution of the driven lossy qubit.

A schedule applies the three elementary generators (dephasing, damping,
rotation) in a chosen permutation. First order applies each full-duration
channel once per step; second order applies the half-duration sequence
forward and then reversed, suppressing the step error from O(1/N) to
O(1/N^2). The elementary channels are :func:`trottersim.channels.elementary_ptms`: the
closed-form Pauli-transfer matrices ("kraus" backend) or those of the ancilla dilation
circuits ("dilation", "dilation+noise").

The accuracy of a run against the exact master-equation trace is
A = sqrt(sum over steps j=1..N and the three Pauli observables of the
squared deviation) / sqrt(N); the starting point j=0 is excluded since both
traces share it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .channels import _check_backend, elementary_ptms
from .dilation import NoiseParams
from .linalg import (check_bloch_rows, check_count, check_grid, check_positive, check_span,
                     validate_density_matrix)
from .liouvillian import CanonicalRates, EvolutionTrace, _exact_step, propagate

__all__ = [
    "DEPHASING",
    "DAMPING",
    "ROTATION",
    "ALL_LABELS",
    "ALL_PERMUTATIONS",
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
_ROW_EXCITED = np.array([1.0, 0.0, 0.0, -1.0])  # the default start |1><1|, as its Bloch row


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
            convergence studies); n_steps * dt < 1.34e154 (linalg.check_span).
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
            check_count(name, getattr(self, name))
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order}")
        check_span(self.n_steps, self.dt, "n_steps", "dt")
        _check_backend(self.backend, self.noise)


# The twelve (order, permutation) schedules of a scan, order 1 first, and their labels; each
# permutation's labels as indices into ALL_LABELS, in order of application.
_SCAN = tuple((order, perm) for order in (1, 2) for perm in ALL_PERMUTATIONS)
_SCAN_LABELS = tuple(f"trotter-o{order}-{'-'.join(perm)}" for order, perm in _SCAN)
_SCAN_KEYS = list(range(len(_SCAN)))
_PERMS = np.array([[ALL_LABELS.index(label) for label in perm] for perm in ALL_PERMUTATIONS]).T


def _step_stack(schedule: TrotterSchedule, rates: CanonicalRates, keys: list[int]) -> np.ndarray:
    """The (K, 4, 4) one-step Pauli-transfer matrices of the K scan rows keys over the
    schedule's dt, backend and noise. One :func:`elementary_ptms` call builds the three labels
    at dt and at dt / 2; two batched products over the (2, 6) stack form the six permutations'
    first-order steps third @ (second @ first) at both durations, and order 2 continues the dt / 2
    one with its labels reversed, three products over six, written over the dt / 2 block. A full
    scan takes the twelve as they are; other keys pick their rows."""
    ptms = elementary_ptms(rates, [schedule.dt, schedule.dt / 2], schedule.backend, schedule.noise)
    labels = ptms.take(_PERMS, 1)  # (2, 3, 6, 4, 4): duration, slot, permutation
    first, second, third = labels[:, 0], labels[:, 1], labels[:, 2]
    steps = third @ (second @ first)
    np.matmul(first[1], second[1] @ (third[1] @ steps[1]), out=steps[1])
    steps = steps.reshape(-1, 4, 4)  # the _SCAN order: order 1, then order 2
    return steps if keys == _SCAN_KEYS else steps[keys]


def _initial_row(rho0: np.ndarray | None) -> np.ndarray:
    """The Bloch row of rho0 (|1><1| when None) that validate_density_matrix checks and returns."""
    return _ROW_EXCITED if rho0 is None else validate_density_matrix(rho0, "rho0")


def _run_schedules(schedule: TrotterSchedule, rates: CanonicalRates, row0: np.ndarray,
                   keys: list[int] | None = None,
                   extra=np.empty((0, 4, 4))) -> tuple[np.ndarray, list[str]]:
    """Checked (K, n+1, 4) Bloch rows c = (Tr rho, <sx>, <sy>, <sz>) of the scan rows keys (default
    the schedule's own), then unchecked rows of the extra (4, 4) steps, stepped from row0 as one
    stack; and the labels."""
    keys = [_SCAN.index((schedule.order, schedule.permutation))] if keys is None else keys
    steps = np.concatenate([_step_stack(schedule, rates, keys), extra])
    rows = propagate(steps, row0[:, None], schedule.n_steps)[..., 0].swapaxes(0, 1)
    labels = [_SCAN_LABELS[k] for k in keys]
    check_bloch_rows(rows[: len(keys)], lambda kj: f"step {kj[1]} state of {labels[kj[0]]}")
    return rows, labels


def run_schedule(
    schedule: TrotterSchedule,
    rates: CanonicalRates,
    rho0: np.ndarray | None = None,
) -> EvolutionTrace:
    """Execute a Trotter schedule and record the Bloch trace.

    Args:
        schedule: Run plan (permutation, order, steps, backend).
        rates: Canonical qubit rates realized by the elementary channels.
        rho0: Initial state, default |1><1|; its checked Bloch row is what gets stepped.

    Returns:
        EvolutionTrace with n_steps+1 samples at t = j*dt, every recorded Bloch
        row checked by :func:`~trottersim.linalg.check_bloch_rows`.
    """
    rows, labels = _run_schedules(schedule, rates, _initial_row(rho0))
    return EvolutionTrace(schedule.dt, rows[0], label=labels[0])


@dataclass(frozen=True, eq=False)
class AccuracyReport:
    """Accuracy A of a trace against the exact target, with per-step residuals."""

    a: float
    residuals: np.ndarray
    descriptor: str = ""

    def __post_init__(self):
        object.__setattr__(self, "residuals", np.asarray(self.residuals, dtype=float))
        if not (0 <= self.a < np.inf and np.isfinite(self.residuals).all()):  # NaN fails too
            raise ValueError(f"accuracy values must be finite and nonnegative, got {self}")

    @classmethod
    def _checked(cls, a: float, residuals: np.ndarray, descriptor: str):  # caller-checked values
        report = object.__new__(cls)
        report.__dict__.update(a=a, residuals=residuals, descriptor=descriptor)
        return report


def _scores(diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A and the per-step residuals of (..., N, 3) deviations from the target at j = 1..N."""
    sq = diff**2
    return np.sqrt(sq.reshape(*sq.shape[:-2], -1).sum(-1) / diff.shape[-2]), np.sqrt(sq.sum(-1))


def accuracy(trace: EvolutionTrace, target: EvolutionTrace) -> AccuracyReport:
    """Accuracy metric A = sqrt(sum_{x,j>=1} (x_j - x_j^0)^2) / sqrt(N).

    Args:
        trace: Trotterized evolution.
        target: Exact reference on identical time samples.

    Returns:
        AccuracyReport with per-step Euclidean residuals (j = 1..N).

    Raises:
        ValueError: On length or step mismatch (check_grid, relative to the target's step).
    """
    if len(trace) != len(target):
        raise ValueError(f"trace lengths differ: {len(trace)} vs {len(target)}")
    check_grid(trace.dt, target.dt, "trace time grids differ")
    a, residuals = _scores(trace.rows[1:, 1:] - target.rows[1:, 1:])
    return AccuracyReport(float(a), residuals, descriptor=trace.label)


def _accuracies(schedule: TrotterSchedule, rates: CanonicalRates, row0: np.ndarray,
                keys: list[int] | None = None) -> list[AccuracyReport]:
    """Accuracy of the runs of :func:`_run_schedules` from row0 against E(dt)'s run stacked last."""
    rows, labels = _run_schedules(schedule, rates, row0, keys, [_exact_step(rates, schedule.dt)])
    a, residuals = _scores(rows[:-1, 1:, 1:] - rows[-1, 1:, 1:])
    if not (np.isfinite(a).all() and np.isfinite(residuals).all()):  # once for all K reports
        return list(map(AccuracyReport, a.tolist(), residuals, labels))  # the first failure raises
    return list(map(AccuracyReport._checked, a.tolist(), residuals, labels))


@dataclass(frozen=True)
class ConvergenceResult:
    """Log-log slope of A vs N, None when A is at the floor (saturated)."""

    n_values: tuple[int, ...]
    accuracies: tuple[float, ...]
    slope: float | None

    def __post_init__(self):
        if not np.isfinite([*self.accuracies, 0.0 if self.slope is None else self.slope]).all():
            raise ValueError(f"convergence values must be finite, got {self}")


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
        t_total: Fixed total evolution time in us, run as n steps of t_total / n (check_span).

    Returns:
        ConvergenceResult; the slope fits only the runs with A >= max(1e-13, 4 N eps),
        above the floating-point floor of N steps, and when fewer than four are
        left it is None: the family is saturated.
    """
    check_positive("t_total", t_total)
    if len(n_list) < 4:
        raise ValueError("n_list needs at least 4 entries for a slope fit")
    for i, n in enumerate(n_list):  # each run's grid, n steps of t_total / n, named as given
        check_count(f"n_list[{i}]", n)
        check_span(n, t_total / n, f"n_list[{i}]", f"t_total / n_list[{i}]")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    schedules = [replace(template, n_steps=int(n), dt=t_total / n) for n in n_list]
    row0 = _initial_row(rho0)
    accs = [_accuracies(s, rates, row0)[0].a for s in schedules]
    kept = [(n, a) for n, a in zip(n_list, accs) if a >= max(1e-13, 4 * n * np.finfo(float).eps)]
    slope = None if len(kept) < 4 else float(np.polyfit(*np.log(kept).T, 1)[0])
    return ConvergenceResult(tuple(int(n) for n in n_list), tuple(accs), slope)


def permutation_scan(
    rates: CanonicalRates,
    n_steps: int = 13,
    dt: float = 3.56,
    rho0: np.ndarray | None = None,
    backend: str = "kraus",
    noise: NoiseParams | None = None,
) -> dict[tuple[int, tuple[str, str, str]], AccuracyReport]:
    """Accuracy of every generator permutation at both orders.

    One schedule checks the arguments; its six elementary channels (three labels
    at dt and at dt/2) are built as one block, and the twelve steps are composed
    from the products the permutations share, stepped as one stack and scored as
    one array.

    Returns:
        Mapping (order, permutation) -> AccuracyReport, keys in deterministic
        (order, permutation) sort order.
    """
    schedule = TrotterSchedule(n_steps=n_steps, dt=dt, backend=backend, noise=noise)
    reports = _accuracies(schedule, rates, _initial_row(rho0), list(range(len(_SCAN))))
    return dict(zip(_SCAN, reports))


def compare_orders(
    rates: CanonicalRates,
    n_steps: int = 13,
    dt: float = 3.56,
    rho0: np.ndarray | None = None,
    permutation: tuple[str, str, str] = ALL_LABELS,
    backend: str = "kraus",
    noise: NoiseParams | None = None,
) -> dict[int, AccuracyReport]:
    """First- versus second-order accuracy at a matched budget of channel applications.

    Second order runs n_steps steps of dt; first order runs 2*n_steps steps
    of dt/2, so both apply each generator for the same number and duration
    of elementary channels. (Both orders at n_steps steps of dt is
    :func:`permutation_scan`.)

    Returns:
        {1: AccuracyReport, 2: AccuracyReport}.
    """
    second = TrotterSchedule(permutation, 2, n_steps, dt, backend, noise)  # checks the arguments
    first, row0 = replace(second, order=1, n_steps=2 * n_steps, dt=dt / 2), _initial_row(rho0)
    return {s.order: _accuracies(s, rates, row0)[0] for s in (first, second)}
