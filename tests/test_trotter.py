"""Tests for the Trotterized evolution engine and accuracy metrics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trottersim import liouvillian, trotter
from circuits import circuit_ptm
from trottersim.dilation import AngleParams, NoiseParams, angle_to_rates, rates_to_angles
from trottersim.tomography import FitResult
from reference import (BLOCH_ROWS, EYE, KET_0, KET_1, SIGMA_X, SIGMA_Y, SIGMA_Z, choi,
                       damping_kraus, density, dephasing_kraus, kraus_superop, rx, superop_of,
                       trotter_step, vec)
from trottersim.channels import BACKENDS, elementary_ptms
from trottersim.liouvillian import CanonicalRates, EvolutionTrace, propagate, target_trace
from trottersim.trotter import (
    ALL_LABELS,
    ALL_PERMUTATIONS,
    DAMPING,
    DEPHASING,
    ROTATION,
    AccuracyReport,
    ConvergenceResult,
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


@pytest.mark.parametrize("n_steps, dt",
                         [(2, 1e154), (13, 1e308), (np.int64(13), np.float64(1e308))])
def test_schedule_rejects_a_grid_whose_last_time_squares_past_the_largest_float(n_steps, dt):
    # The grid ends at n_steps * dt, whose square overflows from 1.34e154 on; 13 * 1e308 is inf.
    TrotterSchedule(n_steps=1, dt=1.3e154)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^n_steps \* dt must be below 1.34e154, got "):
            TrotterSchedule(n_steps=n_steps, dt=dt)


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
    monkeypatch.setattr(trotter, "_step_stack", lambda *_: (1 + 3e-11) * np.eye(4)[None])
    with pytest.raises(ValueError, match=r"^step 4 state of trotter-o1-dephasing-damping-rotation "
                                         r"trace deviates"):
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


def test_accuracy_grid_rule_is_relative_to_the_grid():
    # 1e-11 and 3e-11 us grids differ by whole steps, though by less than an absolute 1e-9 us.
    fine = target_trace(FIG4_RATES, density(KET_1), 1e-11, 13)
    coarse = target_trace(FIG4_RATES, density(KET_1), 3e-11, 13)
    with pytest.raises(ValueError, match="^trace time grids differ$"):
        accuracy(fine, coarse)
    # 1e150 us grids built two ways differ by rounding alone, by far more than 1e-9 us.
    huge = target_trace(FIG4_RATES, density(KET_1), 1e150, 13)
    rounded = EvolutionTrace(np.linspace(0, 13e150, 14), huge.sx, huge.sy, huge.sz)
    assert np.abs(rounded.times - huge.times).max() > 1e-9
    assert accuracy(rounded, huge).a == 0.0


def test_accuracy_rejects_a_nan_time():
    target = target_trace(FIG4_RATES, density(KET_1), TAU0, 3)
    times = target.times.copy()
    times[1] = np.nan
    trace = EvolutionTrace(times, target.sx, target.sy, target.sz)
    with pytest.raises(ValueError, match="trace time grids differ"):
        accuracy(trace, target)


def test_accuracy_report_validation():
    with pytest.raises(ValueError):
        AccuracyReport(-1.0, np.zeros(3))


@pytest.mark.parametrize("build", [
    lambda: AccuracyReport(np.nan, np.zeros(3)),
    lambda: AccuracyReport(np.inf, np.zeros(3)),
    lambda: AccuracyReport(0.1, [np.nan]),
    lambda: AccuracyReport(0.1, [0.0, np.inf]),
    lambda: ConvergenceResult((4, 8, 16, 32), (1e-2, np.nan, 1e-3, 1e-4), -1.0, False),
    lambda: ConvergenceResult((4, 8, 16, 32), (1e-2, 1e-3, 1e-3, np.inf), None, False),
    lambda: ConvergenceResult((4, 8, 16, 32), (1e-2, 1e-3, 1e-3, 1e-4), np.nan, False),
    lambda: ConvergenceResult((4, 8, 16, 32), (1e-2, 1e-3, 1e-3, 1e-4), -np.inf, False),
    lambda: FitResult(np.nan, 10.0, 0.0, 0.0, True),
    lambda: FitResult(np.inf, 10.0, 0.0, 0.0, True),
    lambda: FitResult(10.0, np.nan, 0.0, 0.0, True),
    lambda: FitResult(10.0, 10.0, np.inf, 0.0, True),
    lambda: FitResult(10.0, 10.0, 0.0, np.nan, True),
], ids=["a-nan", "a-inf", "residual-nan", "residual-inf", "accuracy-nan", "accuracy-inf",
        "slope-nan", "slope-inf", "t1-nan", "t1-inf", "t2-nan", "omega-inf", "fit-residual-nan"])
def test_result_records_reject_non_finite_values(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_accuracy_reports_compare_by_identity():
    # A report holds an array, whose field-wise == has no truth value: reports compare by identity.
    report = AccuracyReport(0.1, [0.1, 0.2])
    assert (report == report) is True
    assert (report == AccuracyReport(0.1, [0.1, 0.2])) is False


def test_result_records_accept_finite_values_and_a_missing_slope():
    assert AccuracyReport(0.0, [0.0, 0.1]).a == 0.0
    assert ConvergenceResult((4, 8, 16, 32), (0.0,) * 4, None, True).slope is None
    assert FitResult(10.0, 20.0, -0.1, 0.0, False).t2 == 20.0


def test_scan_checks_its_scores_once_and_names_the_first_bad_report(monkeypatch):
    # The scan checks its twelve scores as one array before it builds the reports; a
    # non-finite score fails with the message of the first report AccuracyReport rejects.
    scores = trotter._scores

    def spoiled(diff):
        a, residuals = scores(diff)
        residuals[4, 2], a[7] = np.nan, np.inf
        return a, residuals

    monkeypatch.setattr(trotter, "_scores", spoiled)
    with pytest.raises(ValueError) as excinfo:
        permutation_scan(FIG4_RATES, n_steps=13, dt=TAU0)
    message = str(excinfo.value)
    assert message.startswith("accuracy values must be finite and nonnegative, got AccuracyReport(")
    assert message.endswith(f"descriptor='trotter-o1-{'-'.join(ALL_PERMUTATIONS[4])}')")


def test_overflowing_drive_angle_is_rejected_without_warnings():
    # 2 pi omega dt overflows to inf; cos and sin of it would warn and yield NaN.
    rates = CanonicalRates(0.01, 0.01, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = r"^drive angle 2 pi omega dt overflows: omega=1e\+308, dt=3\.56$"
        with pytest.raises(ValueError, match=message):
            run_schedule(TrotterSchedule(dt=TAU0), rates)
        with pytest.raises(ValueError, match="theta3 must be finite"):
            run_schedule(TrotterSchedule(dt=TAU0, backend="dilation"), rates)


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


def test_slope_skips_runs_at_the_rounding_floor():
    # Weak second-order families whose longer runs reach A < 1e-13, where A is rounding:
    # a fit through those runs flattened the slope to -1.76, and a family with fewer than
    # four runs above the floor read a slope of -1.70 instead of saturating.
    weak = lambda s: CanonicalRates(gamma1=s, gamma_phi=s / 2, omega=s)
    res = convergence_order(TrotterSchedule(order=2), weak(2.5e-5),
                            n_list=(4, 8, 16, 32, 64, 128, 256, 512))
    assert min(res.accuracies) < 1e-13 and not res.saturated
    assert res.slope == pytest.approx(-2.0, abs=0.1)
    res = convergence_order(TrotterSchedule(order=2), weak(4.6e-6))
    assert max(res.accuracies) > 1e-12 and sum(a >= 1e-13 for a in res.accuracies) == 2
    assert res.saturated and res.slope is None


def test_slope_floor_grows_with_the_step_count():
    # The rounding of N steps grows past 1e-13 at large N: this family reads A = 5.3e-14 at
    # N = 256 but 1.15e-13 at N = 512, all rounding, and a fixed 1e-13 floor kept N = 512 and
    # read slope -1.28. The floor max(1e-13, 4 N eps) drops it; the five runs above it
    # (N = 4..64) give the order 2.
    rates = CanonicalRates(gamma1=1.5e-5, gamma_phi=7.5e-6, omega=1.5e-5)
    res = convergence_order(TrotterSchedule(order=2), rates,
                            n_list=(4, 8, 16, 32, 64, 128, 256, 512))
    assert res.accuracies[-1] > 1e-13 > res.accuracies[-2]
    assert not res.saturated
    assert res.slope == pytest.approx(-2.0, abs=0.1)


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
    scan = permutation_scan(rates, n_steps=13, dt=TAU0)
    accs = [rep.a for (order, _), rep in scan.items() if order == 1]
    assert max(accs) < 1e-12
    assert max(accs) - min(accs) < 1e-13


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    backend=st.sampled_from(BACKENDS),
    rates=st.tuples(st.floats(0, 0.1), st.floats(0, 0.1), st.floats(-0.2, 0.2)),
    noise=st.tuples(st.floats(0, 0.05), st.floats(0, 0.05)),
    n_steps=st.integers(1, 30),
    dt=st.floats(0.1, 5.0),
    bloch0=st.tuples(*[st.floats(-1, 1)] * 3),
)
def test_permutation_scan_equals_single_runs_bit_for_bit(
    backend, rates, noise, n_steps, dt, bloch0
):
    # The scan steps its twelve schedules as one stack and scores them as one
    # array; each entry must be exactly what accuracy(run_schedule(...)) gives
    # for that schedule alone, and the scan builds its six elementary channels
    # (three labels at dt and at dt/2) in one block.
    r = np.array(bloch0) / max(1.0, np.linalg.norm(bloch0))
    rho0 = (EYE + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z) / 2
    rates = CanonicalRates(*rates)
    noise = NoiseParams(*noise) if backend == "dilation+noise" else None
    builds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trotter, "elementary_ptms",
                   lambda *args: builds.append(args) or elementary_ptms(*args))
        scan = permutation_scan(rates, n_steps, dt, rho0, backend, noise)
    assert builds == [(rates, [dt, dt / 2], backend, noise)]
    target = target_trace(rates, rho0, dt, n_steps)
    assert list(scan) == [(order, perm) for order in (1, 2) for perm in ALL_PERMUTATIONS]
    for (order, perm), report in scan.items():
        schedule = TrotterSchedule(perm, order, n_steps, dt, backend, noise)
        single = accuracy(run_schedule(schedule, rates, rho0), target)
        assert report.a == single.a
        np.testing.assert_array_equal(report.residuals, single.residuals)
        assert report.descriptor == single.descriptor


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    backend=st.sampled_from(BACKENDS),
    rates=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(-1, 1)),
    bloch0=st.tuples(*[st.floats(-1, 1)] * 3),
    noise=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    order=st.sampled_from((1, 2)),
    permutation=st.sampled_from(ALL_PERMUTATIONS),
    n_steps=st.integers(1, 400),
    dt=st.floats(0.01, 5.0),
)
def test_run_schedule_keeps_the_bloch_bound_under_every_backend(
    backend, rates, bloch0, noise, order, permutation, n_steps, dt
):
    # Every recorded state passes the density-matrix check, which bounds its
    # Bloch norm by 1 + 3e-10 (eigenvalues >= -1e-10, trace within 1e-10).
    r = np.array(bloch0) / max(1.0, np.linalg.norm(bloch0))
    rho0 = (EYE + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z) / 2
    noise = NoiseParams(*noise) if backend == "dilation+noise" else None
    schedule = TrotterSchedule(permutation, order, n_steps, dt, backend, noise)
    trace = run_schedule(schedule, CanonicalRates(*rates), rho0)
    assert trace.bloch_norms().max() <= 1 + 3e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    backend=st.sampled_from(BACKENDS),
    rates=st.tuples(st.floats(0, 0.1), st.floats(0, 0.1), st.floats(-0.2, 0.2)),
    bloch0=st.tuples(*[st.floats(-1, 1)] * 3),
    order=st.sampled_from((1, 2)),
    permutation=st.sampled_from(ALL_PERMUTATIONS),
    n_steps=st.integers(1, 300),
    more=st.integers(1, 300),
    dt=st.floats(0.01, 5.0),
)
def test_a_longer_run_starts_with_the_shorter_run(
    backend, rates, bloch0, order, permutation, n_steps, more, dt
):
    # Prefix relation: the first N + 1 samples of an (N + M)-step run are the N-step run, for
    # Trotter runs and the exact target. Not bit for bit: the last doubling round's width
    # depends on the length, and BLAS may round a product of another width in another way
    # (seen up to 1.4e-17). Kills a last doubling round that advances the block of states just
    # before it instead of the first one.
    r = np.array(bloch0) / max(1.0, np.linalg.norm(bloch0))
    rho0 = (EYE + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z) / 2
    rates = CanonicalRates(*rates)
    noise = NoiseParams(0.01, 0.02) if backend == "dilation+noise" else None
    runs = [run_schedule(TrotterSchedule(permutation, order, n, dt, backend, noise), rates, rho0)
            for n in (n_steps, n_steps + more)]
    targets = [target_trace(rates, rho0, dt, n) for n in (n_steps, n_steps + more)]
    for short, long in (runs, targets):
        np.testing.assert_array_equal(long.times[: n_steps + 1], short.times)
        np.testing.assert_allclose(long.as_matrix()[: n_steps + 1], short.as_matrix(), rtol=0,
                                   atol=1e-13)


def complex_reference_run(schedule, rates, rho0):
    """(N+1, 3) Bloch vectors by the complex path: propagate vec(rho0) by the superoperator
    of the step, take each state's Hermitian part and read BLOCH_ROWS[1:]."""
    key = [trotter._SCAN.index((schedule.order, schedule.permutation))]
    step = superop_of(trotter._step_stack(schedule, rates, key)[0])
    vecs = propagate(step, vec(rho0)[:, None], schedule.n_steps)[..., 0]
    rhos = vecs.reshape(-1, 2, 2).swapaxes(-2, -1)  # undo the column-stacking vec
    herm = ((rhos + rhos.conj().swapaxes(-2, -1)) / 2).swapaxes(-2, -1).reshape(-1, 4)
    return np.real(herm @ BLOCH_ROWS[1:].T)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    backend=st.sampled_from(BACKENDS),
    rates=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(-1, 1)),
    noise=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    order=st.sampled_from((1, 2)),
    permutation=st.sampled_from(ALL_PERMUTATIONS),
    n_steps=st.integers(1, 400),
    dt=st.floats(0.01, 5.0),
    seed=st.integers(0, 2**16),
)
def test_run_schedule_matches_the_complex_superoperator_path(
    backend, rates, noise, order, permutation, n_steps, dt, seed
):
    # Stepping real Bloch rows by the Pauli-transfer matrix must give what
    # stepping the complex superoperator gives, read out after the fact.
    rng = np.random.default_rng(seed)
    kets = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    weight = rng.random()
    rho0 = weight * density(kets[0]) + (1 - weight) * density(kets[1])
    noise = NoiseParams(*noise) if backend == "dilation+noise" else None
    schedule = TrotterSchedule(permutation, order, n_steps, dt, backend, noise)
    rates = CanonicalRates(*rates)
    trace = run_schedule(schedule, rates, rho0)
    reference = complex_reference_run(schedule, rates, rho0)
    assert np.abs(trace.as_matrix() - reference).max() <= 1e-13


def test_run_schedule_names_a_step_that_inflates_the_bloch_vector(monkeypatch):
    # A trace-preserving step that stretches the Bloch vector by 1 + 8e-11 takes
    # |1><1| to lambda_min = -1.2e-10 at step 3, past the -1e-10 tolerance.
    ptm = np.diag([1.0] + [1 + 8e-11] * 3)
    monkeypatch.setattr(trotter, "_step_stack", lambda *_: ptm[None])
    with pytest.raises(ValueError, match=r"^step 3 state of trotter-o1-dephasing-damping-rotation "
                                         r"has negative eigenvalue -1\.2"):
        run_schedule(TrotterSchedule(n_steps=50), FIG4_RATES)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    gamma1=st.one_of(st.just(0.0), st.floats(0, 5)),
    gamma_phi=st.one_of(st.just(0.0), st.floats(0, 5)),
    omega=st.one_of(st.just(0.0), st.floats(-5, 5)),
    dt=st.floats(0.01, 20.0),
)
def test_closed_form_ptms_match_their_kraus_channels(gamma1, gamma_phi, omega, dt):
    # Angles 2 pi omega dt reach 200 pi, far beyond one turn.
    rates = CanonicalRates(gamma1, gamma_phi, omega)
    channels = {DEPHASING: dephasing_kraus(gamma_phi, dt), DAMPING: damping_kraus(gamma1, dt),
                ROTATION: rx(2 * np.pi * omega * dt)[None]}
    ptms = elementary_ptms(rates, [dt], "kraus", None)[0]
    for label, kraus in channels.items():
        ptm = ptms[ALL_LABELS.index(label)]
        reference = np.real(BLOCH_ROWS @ kraus_superop(kraus) @ BLOCH_ROWS.conj().T) / 2
        assert np.abs(ptm - reference).max() <= 4.5e-16
        assert ptm[0].tolist() == [1.0, 0.0, 0.0, 0.0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    backend=st.sampled_from(BACKENDS),
    label=st.sampled_from(ALL_LABELS),
    rates=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(-1, 1)),
    noise=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    dt=st.floats(0.01, 5.0),
)
def test_every_elementary_ptm_is_cptp(backend, label, rates, noise, dt):
    # The Choi matrix rebuilt from the Pauli-transfer matrix is positive semidefinite,
    # and the trace row (1, 0, 0, 0) makes the channel trace preserving.
    noise = NoiseParams(*noise) if backend == "dilation+noise" else None
    ptm = elementary_ptms(CanonicalRates(*rates), [dt], backend, noise)[0][
        ALL_LABELS.index(label)]
    assert np.linalg.eigvalsh(choi(superop_of(ptm))).min() >= -1e-12
    assert np.abs(ptm[0] - [1, 0, 0, 0]).max() <= 1e-15


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    backend=st.sampled_from(["dilation", "dilation+noise"]),
    rates=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(-1, 1)),
    noise=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    durations=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=3),
)
def test_dilation_ptms_are_the_public_circuits_bit_for_bit(backend, rates, noise, durations):
    # Each circuit's gates are written once, in CIRCUIT_GATES: the backends chain the PTMs of
    # all durations at once, and each must be exactly the PTM of its circuit chained alone at
    # the angle rates_to_angles gives its duration. Noise comes with "dilation+noise" alone.
    rates = CanonicalRates(*rates)
    noise = NoiseParams(*noise) if backend == "dilation+noise" else None
    for dt, ptms in zip(durations, elementary_ptms(rates, durations, backend, noise)):
        angles = rates_to_angles(rates, dt)
        for label, theta, ptm in zip(ALL_LABELS, (angles.theta1, angles.theta2, angles.theta3),
                                     ptms):
            assert ptm.tobytes() == circuit_ptm(label, theta, noise).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    backend=st.sampled_from(BACKENDS),
    rates=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(-1, 1)),
    noise=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    dt=st.floats(0.01, 5.0),
    key=st.integers(0, 11),
)
def test_step_stack_is_the_one_label_at_a_time_composition(backend, rates, noise, dt, key):
    # The scan's twelve steps share their products, each chain in the association of one label
    # at a time, first label first; a re-association would move bits and fail here.
    rates = CanonicalRates(*rates)
    noise = NoiseParams(*noise) if backend == "dilation+noise" else None
    schedule = TrotterSchedule(dt=dt, backend=backend, noise=noise)
    ptms = elementary_ptms(rates, [dt, dt / 2], backend, noise)
    steps = trotter._step_stack(schedule, rates, list(range(12)))
    assert steps.shape == (12, 4, 4)
    for step, (order, perm) in zip(steps, trotter._SCAN):
        oracle = trotter_step(ptms, [ALL_LABELS.index(label) for label in perm], order)
        assert step.tobytes() == oracle.tobytes()
    assert trotter._step_stack(schedule, rates, [key]).tobytes() == steps[key].tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    backend=st.sampled_from(BACKENDS),
    rates=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(-1, 1)),
    noise=st.tuples(st.floats(0, 0.05), st.floats(0, 0.05)),
    order=st.sampled_from((1, 2)),
    permutation=st.sampled_from(ALL_PERMUTATIONS),
    n_steps=st.integers(1, 40),
    dt=st.floats(0.01, 5.0),
    bloch0=st.tuples(*[st.floats(-1, 1)] * 3),
)
def test_reversing_the_drive_mirrors_the_y_component_exactly(
    backend, rates, noise, order, permutation, n_steps, dt, bloch0
):
    # omega -> -omega with y0 -> -y0 negates <sy> and keeps <sx>, <sz> exactly: the rotation
    # turns the other way, and dephasing, damping and the exact step commute with the y flip.
    # The relation is in omega, not in the angle: theta3 -> 360 deg - theta3 turns a full step
    # as -theta3 does, but an order-2 half step by 180 deg - theta3/2 rather than -theta3/2, so
    # it is no symmetry of order 2 and stays out of the order-2 properties.
    r = np.array(bloch0) / max(1.0, np.linalg.norm(bloch0))
    rho0, mirrored0 = ((EYE + r[0] * SIGMA_X + y * SIGMA_Y + r[2] * SIGMA_Z) / 2
                       for y in (r[1], -r[1]))
    rates, mirrored = CanonicalRates(*rates), CanonicalRates(*rates[:2], -rates[2])
    noise = NoiseParams(*noise) if backend == "dilation+noise" else None
    schedule = TrotterSchedule(permutation, order, n_steps, dt, backend, noise)
    for a, b in [(run_schedule(schedule, rates, rho0), run_schedule(schedule, mirrored, mirrored0)),
                 (target_trace(rates, rho0, dt, n_steps),
                  target_trace(mirrored, mirrored0, dt, n_steps))]:
        np.testing.assert_array_equal(b.as_matrix(), a.as_matrix() * [1, -1, 1])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rates=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(-1, 1)),
    permutation=st.sampled_from(ALL_PERMUTATIONS),
    n_steps=st.integers(2, 100),
    dt=st.floats(0.01, 5.0),
    bloch0=st.tuples(*[st.floats(-1, 1)] * 3),
)
def test_a_cyclic_shift_of_the_permutation_moves_one_label_across_the_run(
    rates, permutation, n_steps, dt, bloch0
):
    # (CBA)^j = CB (ACB)^(j-1) A: at order 1, step j of the permutation (A, B, C) is C.B applied
    # to step j - 1 of (B, C, A) run from A.c0, for j = 1..N, A, B and C the elementary PTMs.
    rates = CanonicalRates(*rates)
    row0 = np.array([1.0, *(np.array(bloch0) / max(1.0, np.linalg.norm(bloch0)))])
    ptms = elementary_ptms(rates, [dt], "kraus", None)[0]
    a, b, c = (ptms[ALL_LABELS.index(label)] for label in permutation)
    run, _ = trotter._run_schedules(TrotterSchedule(permutation, 1, n_steps, dt), rates, row0)
    shifted, _ = trotter._run_schedules(
        TrotterSchedule(permutation[1:] + permutation[:1], 1, n_steps - 1, dt), rates, a @ row0)
    assert np.abs(run[0, 1:] - shifted[0] @ (c @ b).T).max() <= 1e-14


def test_stacked_run_names_unphysical_step_and_schedule(monkeypatch):
    # Only the eighth schedule (order 2, second permutation) gains 3e-11 of
    # trace per step, so it alone leaves the 1e-10 tolerance, at step 4.
    build = trotter._step_stack
    gain = np.ones((12, 1, 1))
    gain[7] += 3e-11
    monkeypatch.setattr(trotter, "_step_stack", lambda *args: gain * build(*args))
    label = "trotter-o2-" + "-".join(ALL_PERMUTATIONS[1])
    with pytest.raises(ValueError, match=rf"^step 4 state of {label} trace deviates"):
        permutation_scan(FIG4_RATES, n_steps=13, dt=TAU0)


def test_stacked_run_names_the_first_failing_schedule(monkeypatch):
    # The third schedule leaves the trace tolerance at step 5 and the eighth
    # already at step 4; the error names the earlier schedule, then its step.
    build = trotter._step_stack
    gain = np.ones((12, 1, 1))
    gain[2] += 2.2e-11
    gain[7] += 3e-11
    monkeypatch.setattr(trotter, "_step_stack", lambda *args: gain * build(*args))
    label = "trotter-o1-" + "-".join(ALL_PERMUTATIONS[2])
    with pytest.raises(ValueError, match=rf"^step 5 state of {label} trace deviates"):
        permutation_scan(FIG4_RATES, n_steps=13, dt=TAU0)


@pytest.mark.parametrize("call", [
    lambda rho0: run_schedule(TrotterSchedule(), FIG4_RATES, rho0),
    lambda rho0: target_trace(FIG4_RATES, rho0, TAU0, 13),
    lambda rho0: permutation_scan(FIG4_RATES, n_steps=13, dt=TAU0, rho0=rho0),
    lambda rho0: compare_orders(FIG4_RATES, rho0=rho0),
    lambda rho0: convergence_order(TrotterSchedule(), FIG4_RATES, rho0=rho0),
], ids=["run_schedule", "target_trace", "permutation_scan", "compare_orders", "convergence_order"])
def test_public_call_checks_rho0_once(call, monkeypatch):
    # One check per call: every run and every target of the call starts from
    # the Bloch row that check returns.
    calls = []
    check = trotter.validate_density_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(trotter, "validate_density_matrix", counted)
    monkeypatch.setattr(liouvillian, "validate_density_matrix", counted)
    call(density(KET_1))
    assert len(calls) == 1
    with pytest.raises(ValueError, match="^rho0 has negative eigenvalue"):
        call(np.diag([2.0, -1.0]))
    assert len(calls) == 2


def test_stepped_and_exact_traces_start_from_the_checked_row():
    # rho01 sits 5e-13 from conj(rho10), inside the 1e-12 Hermiticity tolerance.
    # Both engines start from the row the check reads from the lower triangle.
    b = 0.2 + 0.1j
    rho0 = np.array([[0.6, np.conj(b) + 5e-13], [b, 0.4]])
    want = [2 * b.real, 2 * b.imag, 0.6 - 0.4]
    assert run_schedule(TrotterSchedule(), FIG4_RATES, rho0).as_matrix()[0].tolist() == want
    assert target_trace(FIG4_RATES, rho0, TAU0, 13).as_matrix()[0].tolist() == want


# ------------------------------------------------------------ order compare


def test_compare_orders_fixed_steps_and_budget():
    # Fixed steps: both orders at n_steps steps of dt, read from permutation_scan.
    scan = permutation_scan(FIG4_RATES, n_steps=13, dt=TAU0)
    assert scan[(2, ALL_LABELS)].a < scan[(1, ALL_LABELS)].a
    # Fixed budget: compare_orders matches the channel applications.
    out = compare_orders(FIG4_RATES)
    assert out[2].a < out[1].a


def test_compare_orders_budget_doubles_first_order_steps():
    out = compare_orders(FIG4_RATES, n_steps=13, dt=TAU0)
    assert out[1].residuals.size == 26
    assert out[2].residuals.size == 13
    assert out[2].a < out[1].a
