"""Tests for the Trotterized evolution engine and accuracy metrics."""

import numpy as np
import pytest

from trottersim import trotter
from trottersim.dilation import AngleParams, NoiseParams, angle_to_rates
from trottersim.linalg import KET_0, KET_1, density
from trottersim.liouvillian import CanonicalRates, EvolutionTrace, target_trace
from trottersim.trotter import (
    ALL_LABELS,
    ALL_PERMUTATIONS,
    DAMPING,
    DEPHASING,
    ROTATION,
    AccuracyReport,
    TrotterSchedule,
    accuracy,
    compare_orders,
    convergence_order,
    permutation_scan,
    run_schedule,
)

TAU0 = 3.56
FIG4_ANGLES = AngleParams.from_degrees(20, 30, 25.7, TAU0)
FIG4_RATES = angle_to_rates(FIG4_ANGLES)


# -------------------------------------------------------------- schedules


def test_schedule_validation():
    with pytest.raises(ValueError, match="permutation"):
        TrotterSchedule(permutation=(DEPHASING, DEPHASING, ROTATION))
    with pytest.raises(ValueError, match="order"):
        TrotterSchedule(order=3)
    with pytest.raises(ValueError, match="n_steps"):
        TrotterSchedule(n_steps=0)
    with pytest.raises(ValueError, match="dt"):
        TrotterSchedule(dt=0.0)
    with pytest.raises(ValueError, match="backend"):
        TrotterSchedule(backend="exact")
    with pytest.raises(ValueError, match="noise"):
        TrotterSchedule(backend="dilation+noise")
    with pytest.raises(ValueError, match="noise"):
        TrotterSchedule(backend="kraus", noise=NoiseParams(0.01, 0.01))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_schedule_rejects_non_finite_dt(bad):
    with pytest.raises(ValueError, match="dt"):
        TrotterSchedule(dt=bad)


@pytest.mark.parametrize(
    "field, bad",
    [("order", True), ("order", 2.0), ("order", np.bool_(True)), ("order", "1"),
     ("n_steps", True), ("n_steps", 13.0), ("n_steps", "13")],
)
def test_schedule_rejects_non_integer_counts(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TrotterSchedule(**{field: bad})


def test_schedule_accepts_numpy_integer_counts():
    sched = TrotterSchedule(order=np.int64(2), n_steps=np.int32(5))
    assert (sched.order, sched.n_steps) == (2, 5)


def test_all_permutations_enumerated():
    assert len(ALL_PERMUTATIONS) == 6
    assert all(sorted(p) == sorted(ALL_LABELS) for p in ALL_PERMUTATIONS)


# ------------------------------------------------------------ run_schedule


def test_commuting_schedule_matches_target_exactly():
    rates = CanonicalRates(gamma1=0.02, gamma_phi=0.01, omega=0.0)
    sched = TrotterSchedule(order=1, n_steps=13, dt=TAU0)
    tr = run_schedule(sched, rates)
    tgt = target_trace(rates, density(KET_1), TAU0, 13)
    assert np.abs(tr.as_matrix() - tgt.as_matrix()).max() < 1e-12


def test_commuting_pair_permutations_coincide():
    kwargs = dict(order=1, n_steps=13, dt=TAU0)
    tr_a = run_schedule(
        TrotterSchedule(permutation=(DEPHASING, DAMPING, ROTATION), **kwargs), FIG4_RATES
    )
    tr_b = run_schedule(
        TrotterSchedule(permutation=(DAMPING, DEPHASING, ROTATION), **kwargs), FIG4_RATES
    )
    assert np.abs(tr_a.as_matrix() - tr_b.as_matrix()).max() < 1e-12


def test_second_order_beats_first_order_at_every_step():
    tgt = target_trace(FIG4_RATES, density(KET_1), TAU0, 13)
    r1 = accuracy(run_schedule(TrotterSchedule(order=1), FIG4_RATES), tgt)
    r2 = accuracy(run_schedule(TrotterSchedule(order=2), FIG4_RATES), tgt)
    assert np.all(r2.residuals < r1.residuals)
    assert r2.a < r1.a


def test_trotter_states_stay_physical_all_backends():
    for backend, noise in (
        ("kraus", None),
        ("dilation", None),
        ("dilation+noise", NoiseParams(0.01, 0.01)),
    ):
        sched = TrotterSchedule(order=2, n_steps=20, dt=TAU0, backend=backend, noise=noise)
        tr = run_schedule(sched, FIG4_RATES, density(KET_0 + 1j * KET_1))
        assert tr.bloch_norms().max() <= 1 + 1e-8


def test_dilation_backend_matches_kraus_backend():
    for order in (1, 2):
        tr_k = run_schedule(TrotterSchedule(order=order, backend="kraus"), FIG4_RATES)
        tr_d = run_schedule(TrotterSchedule(order=order, backend="dilation"), FIG4_RATES)
        assert np.abs(tr_k.as_matrix() - tr_d.as_matrix()).max() < 1e-10


def test_noise_backend_degrades_accuracy():
    tgt = target_trace(FIG4_RATES, density(KET_1), TAU0, 13)
    clean = accuracy(run_schedule(TrotterSchedule(order=2), FIG4_RATES), tgt)
    noisy = accuracy(
        run_schedule(
            TrotterSchedule(order=2, backend="dilation+noise", noise=NoiseParams(0.02, 0.01)),
            FIG4_RATES,
        ),
        tgt,
    )
    assert noisy.a > clean.a


def test_run_schedule_rejects_unphysical_initial_state():
    with pytest.raises(ValueError):
        run_schedule(TrotterSchedule(), FIG4_RATES, np.diag([2.0, -1.0]))


def test_driven_long_run_stays_physical():
    # A rotation unitary off unitarity by 1e-14 lets the trace drift past the
    # 1e-10 state check within a few thousand steps.
    rates = angle_to_rates(AngleParams.from_degrees(25.705, 25.717, 87.840))
    sched = TrotterSchedule(order=1, n_steps=10_000, dt=TAU0 / 4)
    tr = run_schedule(sched, rates, density(KET_1))
    assert len(tr) == 10_001
    assert tr.bloch_norms().max() <= 1 + 1e-8


def test_run_schedule_names_first_unphysical_step(monkeypatch):
    # A step that gains 3e-11 of trace per application leaves the 1e-10
    # trace tolerance at step 4; every recorded state is checked.
    monkeypatch.setattr(trotter, "_step_superop", lambda *_: (1 + 3e-11) * np.eye(4))
    with pytest.raises(ValueError, match=r"^step 4 state trace deviates"):
        run_schedule(TrotterSchedule(n_steps=50), FIG4_RATES)


# ---------------------------------------------------------------- accuracy


def test_accuracy_zero_for_identical_traces():
    tgt = target_trace(FIG4_RATES, density(KET_1), TAU0, 13)
    rep = accuracy(tgt, tgt)
    assert rep.a == 0.0
    np.testing.assert_array_equal(rep.residuals, np.zeros(13))


def test_accuracy_offset_algebra():
    times = np.arange(6) * 1.0
    zeros = np.zeros(6)
    base = EvolutionTrace(times, zeros, zeros, zeros)
    delta = 0.01
    shift = np.full(6, delta)
    shift[0] = 0.0  # j=0 is shared by construction
    one_obs = EvolutionTrace(times, shift, zeros, zeros)
    assert accuracy(one_obs, base).a == pytest.approx(delta, rel=1e-12)
    all_obs = EvolutionTrace(times, shift, shift, shift)
    assert accuracy(all_obs, base).a == pytest.approx(np.sqrt(3) * delta, rel=1e-12)


def test_accuracy_excludes_initial_point():
    times = np.arange(4) * 1.0
    zeros = np.zeros(4)
    base = EvolutionTrace(times, zeros, zeros, zeros)
    sx = np.array([0.5, 0.0, 0.0, 0.0])  # offset only at j=0
    assert accuracy(EvolutionTrace(times, sx, zeros, zeros), base).a == 0.0


def test_accuracy_rejects_mismatched_traces():
    t1 = target_trace(FIG4_RATES, density(KET_1), TAU0, 13)
    t2 = target_trace(FIG4_RATES, density(KET_1), TAU0, 12)
    with pytest.raises(ValueError, match="lengths"):
        accuracy(t1, t2)
    t3 = target_trace(FIG4_RATES, density(KET_1), 2.0, 13)
    with pytest.raises(ValueError, match="time"):
        accuracy(t1, t3)


def test_accuracy_report_validation():
    with pytest.raises(ValueError):
        AccuracyReport(-1.0, np.zeros(3))


# ------------------------------------------------------------- convergence


def test_first_order_slope():
    res = convergence_order(TrotterSchedule(order=1), FIG4_RATES, t_total=13 * TAU0)
    assert not res.saturated
    assert res.slope == pytest.approx(-1.0, abs=0.3)


def test_second_order_slope():
    res = convergence_order(TrotterSchedule(order=2), FIG4_RATES, t_total=13 * TAU0)
    assert not res.saturated
    assert res.slope == pytest.approx(-2.0, abs=0.3)


def test_commuting_schedule_saturates():
    rates = CanonicalRates(gamma1=0.02, gamma_phi=0.01, omega=0.0)
    res = convergence_order(TrotterSchedule(order=1), rates, t_total=13 * TAU0)
    assert res.saturated
    assert res.slope is None
    assert max(res.accuracies) < 1e-13


def test_accuracy_decreases_monotonically_with_n():
    res = convergence_order(TrotterSchedule(order=1), FIG4_RATES, t_total=13 * TAU0)
    accs = np.array(res.accuracies)
    assert np.all(accs[1:] < accs[:-1] * 1.05)


def test_convergence_input_validation():
    with pytest.raises(ValueError, match="at least 4"):
        convergence_order(TrotterSchedule(), FIG4_RATES, n_list=(4, 8, 16))
    with pytest.raises(ValueError, match="increasing"):
        convergence_order(TrotterSchedule(), FIG4_RATES, n_list=(4, 8, 8, 16))


# -------------------------------------------------------- permutation scan


def test_permutation_scan_structure():
    scan = permutation_scan(FIG4_RATES, n_steps=13, dt=TAU0)
    assert len(scan) == 12  # 6 permutations x 2 orders
    # Commuting-pair coincidences.
    assert scan[(1, (DEPHASING, DAMPING, ROTATION))].a == pytest.approx(
        scan[(1, (DAMPING, DEPHASING, ROTATION))].a, abs=1e-12
    )
    assert scan[(2, (ROTATION, DEPHASING, DAMPING))].a == pytest.approx(
        scan[(2, (ROTATION, DAMPING, DEPHASING))].a, abs=1e-12
    )
    o1 = [rep.a for (order, _), rep in scan.items() if order == 1]
    o2 = [rep.a for (order, _), rep in scan.items() if order == 2]
    assert max(o2) < min(o1)


def test_permutation_scan_all_commuting_point():
    rates = CanonicalRates(gamma1=0.03, gamma_phi=0.02, omega=0.0)
    scan = permutation_scan(rates, n_steps=13, dt=TAU0, orders=(1,))
    accs = [rep.a for rep in scan.values()]
    assert max(accs) < 1e-12
    assert max(accs) - min(accs) < 1e-13


# ------------------------------------------------------------ order compare


def test_compare_orders_fixed_steps_and_budget():
    for mode in ("fixed_steps", "fixed_budget"):
        out = compare_orders(FIG4_RATES, mode=mode)
        assert out[2].a < out[1].a


def test_compare_orders_budget_doubles_first_order_steps():
    out = compare_orders(FIG4_RATES, n_steps=13, dt=TAU0, mode="fixed_budget")
    assert out[1].residuals.size == 26
    assert out[2].residuals.size == 13


def test_compare_orders_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        compare_orders(FIG4_RATES, mode="matched")
