"""Tests for tomography-curve generation and the global coherence fit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trottersim.dilation import AngleParams, angle_to_rates, predict_coherence
from trottersim.liouvillian import CanonicalRates, target_trace
from trottersim.tomography import (
    INITIAL_STATES,
    OBS_LABELS,
    STATE_LABELS,
    FitResult,
    TomographySet,
    _candidate_starts,
    _estimate_t2_rate,
    _model_batch,
    dephasing_time,
    generate_tomography,
    global_fit,
)
from trottersim.trotter import TrotterSchedule, run_schedule
from trottersim.linalg import density

TAU0 = 3.56


def rates_from_times(t1, t2, omega):
    return CanonicalRates(
        gamma1=1.0 / t1, gamma_phi=max(0.0, 1.0 / t2 - 1.0 / (2 * t1)), omega=omega
    )


# -------------------------------------------------------------- generation


def test_zero_rates_plus_state_constant():
    ts = generate_tomography(CanonicalRates(), TAU0, 13)
    np.testing.assert_allclose(ts.curve("+", "x"), np.ones(14), atol=1e-12)
    np.testing.assert_allclose(ts.curve("+i", "y"), np.ones(14), atol=1e-12)


def test_noiseless_equals_target_trace():
    rates = rates_from_times(28.6, 19.0, 0.0401)
    ts = generate_tomography(rates, TAU0, 13)
    for state in STATE_LABELS:
        tgt = target_trace(rates, density(INITIAL_STATES[state]), TAU0, 13)
        for obs, ref in zip(OBS_LABELS, (tgt.sx, tgt.sy, tgt.sz)):
            np.testing.assert_array_equal(ts.curve(state, obs), ref)


def test_sampling_determinism():
    rates = rates_from_times(28.6, 19.0, 0.0401)
    a = generate_tomography(rates, TAU0, 13, shots=500, seed=42)
    b = generate_tomography(rates, TAU0, 13, shots=500, seed=42)
    for key in a.data:
        np.testing.assert_array_equal(a.data[key], b.data[key])
    c = generate_tomography(rates, TAU0, 13, shots=500, seed=43)
    assert any(not np.array_equal(a.data[k], c.data[k]) for k in a.data)


def test_sampled_values_are_valid_expectations():
    rates = rates_from_times(50.0, 40.0, 0.02)
    ts = generate_tomography(rates, TAU0, 13, shots=64, seed=7)
    assert ts.shots == 64
    for arr in ts.data.values():
        assert np.abs(arr).max() <= 1.0
        # 2k/s - 1 lands on the shot lattice.
        np.testing.assert_allclose((arr + 1) * 32, np.round((arr + 1) * 32), atol=1e-12)


def test_tomography_set_validation():
    times = np.arange(3.0)
    good = {(s, o): np.zeros(3) for s in STATE_LABELS for o in OBS_LABELS}
    missing = dict(good)
    missing.pop(("1", "z"))
    with pytest.raises(ValueError, match="12"):
        TomographySet(times, missing)
    bad_len = dict(good)
    bad_len[("1", "z")] = np.zeros(4)
    with pytest.raises(ValueError, match="length"):
        TomographySet(times, bad_len)
    bad_range = dict(good)
    bad_range[("1", "z")] = np.array([0.0, 2.0, 0.0])
    with pytest.raises(ValueError, match="range"):
        TomographySet(times, bad_range)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shots", [None, 500])
def test_tomography_set_rejects_non_finite_curves(value, shots):
    # A NaN passes an |x| > 1 range test; global_fit would only stop inside scipy.
    data = {(s, o): np.zeros(3) for s in STATE_LABELS for o in OBS_LABELS}
    data[("+", "y")] = np.array([0.0, value, 0.0])
    with pytest.raises(ValueError, match=r"curve \('\+', 'y'\) is not finite"):
        TomographySet(np.arange(3.0), data, shots=shots)


def test_evolve_hook_grid_must_match():
    rates = rates_from_times(30.0, 20.0, 0.02)
    wrong = lambda rho0: target_trace(rates, rho0, TAU0, 10)
    with pytest.raises(ValueError, match="grid"):
        generate_tomography(rates, TAU0, 13, evolve=wrong)


# ------------------------------------------------------------- global fit


def test_round_trip_reference_point():
    truth = (28.6, 19.0, 0.0401)
    ts = generate_tomography(rates_from_times(*truth), TAU0, 13)
    fit = global_fit(ts)
    assert fit.t1 == pytest.approx(truth[0], rel=5e-3)
    assert fit.t2 == pytest.approx(truth[1], rel=5e-3)
    assert fit.omega == pytest.approx(truth[2], rel=5e-3)
    assert fit.residual < 1e-6
    assert fit.converged


def test_round_trip_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(40):
        t1 = rng.uniform(10, 200)
        t2 = rng.uniform(5, 2 * t1)
        omega = rng.uniform(0, 0.1)
        ts = generate_tomography(rates_from_times(t1, t2, omega), TAU0, 13)
        fit = global_fit(ts)
        assert fit.t1 == pytest.approx(t1, rel=0.01)
        assert fit.t2 == pytest.approx(t2, rel=0.01)
        assert abs(fit.omega - omega) <= 0.01 * max(omega, 0.01)
        assert fit.residual < 1e-6


def test_fit_on_trotterized_dynamics():
    params = AngleParams.from_degrees(20, 20, 51.4, TAU0)
    rates = angle_to_rates(params)
    t1_pred, t2_pred = predict_coherence(params)
    sched = TrotterSchedule(order=1, n_steps=13, dt=TAU0)
    ts = generate_tomography(
        rates, TAU0, 13, evolve=lambda rho0: run_schedule(sched, rates, rho0)
    )
    fit = global_fit(ts)
    assert fit.t1 == pytest.approx(t1_pred, rel=0.10)
    assert fit.t2 == pytest.approx(t2_pred, rel=0.10)
    assert fit.omega == pytest.approx(rates.omega, rel=0.10)


@pytest.mark.parametrize("angles_deg", [(35.3, 34.9, 66.8), (4.48, 20.04, 52.39)])
def test_fit_converges_on_trotter_curves(angles_deg):
    # A simplex fit with an absolute objective tolerance below the objective's
    # round-off stopped unconverged on the first set, and near the second.
    rates = angle_to_rates(AngleParams.from_degrees(*angles_deg, TAU0))
    sched = TrotterSchedule(order=1, n_steps=13, dt=TAU0)
    ts = generate_tomography(
        rates, TAU0, 13, evolve=lambda rho0: run_schedule(sched, rates, rho0)
    )
    fit = global_fit(ts)
    assert fit.converged
    u = [1.0 / fit.t1, 1.0 / fit.t2 - 0.5 / fit.t1, fit.omega]
    model = _model_batch(np.array([u]), TAU0, 14)[0]
    rms = np.sqrt(np.mean((model - ts.as_matrix()) ** 2))
    assert fit.residual == pytest.approx(rms, rel=1e-9)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    t1=st.floats(10.0, 200.0),
    t2_share=st.floats(0.0, 1.0),
    omega=st.floats(0.005, 0.1),
)
def test_noiseless_round_trip_property(t1, t2_share, omega):
    t2 = 5.0 + t2_share * (2 * t1 - 5.0)
    fit = global_fit(generate_tomography(rates_from_times(t1, t2, omega), TAU0, 13))
    assert fit.converged
    assert fit.t2 <= 2 * fit.t1 * (1 + 1e-6)
    assert fit.t1 == pytest.approx(t1, rel=0.01)
    assert fit.t2 == pytest.approx(t2, rel=0.01)
    assert fit.omega == pytest.approx(omega, rel=0.01)


@pytest.mark.parametrize("t2", [0.5, 1.0, 2.0])
def test_fast_dephasing_fit_starts_from_the_dephasing_grid(t2):
    # With T2 below tau0, <x> of |+> drops under the 0.05 seed threshold after
    # one step, so no 1/T2 seed exists and each of the 10 r1 values spans six
    # dephasing rates instead of one.
    rates = rates_from_times(50.0, t2, 0.02)
    ts = generate_tomography(rates, TAU0, 13)
    assert _estimate_t2_rate(ts) is None
    assert len(_candidate_starts(ts, None)) == 660
    fit = global_fit(ts)
    assert fit.converged
    np.testing.assert_allclose(
        [fit.t1, fit.t2, fit.omega], [rates.t1, rates.t2, rates.omega], rtol=1e-12
    )


def test_degenerate_zero_rates_pin_at_bounds():
    ts = generate_tomography(CanonicalRates(), TAU0, 13)
    fit = global_fit(ts)
    assert fit.t1 >= 1e5  # rate pinned at the 1e-6 floor
    assert abs(fit.omega) < 1e-4
    assert fit.t2 <= 2 * fit.t1 * (1 + 1e-6)


def test_fit_with_shot_noise_ensemble():
    truth = np.array([28.6, 19.0, 0.0401])
    ests = []
    for seed in range(100):
        ts = generate_tomography(rates_from_times(*truth), TAU0, 13, shots=1000, seed=seed)
        fit = global_fit(ts)
        ests.append((fit.t1, fit.t2, fit.omega))
    ests = np.array(ests)
    std = ests.std(axis=0)
    hits = np.all(np.abs(ests - truth) <= 3 * std, axis=1)
    assert hits.sum() >= 95


def test_fit_accepts_init_guess():
    truth = (40.0, 30.0, 0.05)
    ts = generate_tomography(rates_from_times(*truth), TAU0, 13)
    fit = global_fit(ts, init_guess=truth)
    assert fit.t1 == pytest.approx(40.0, rel=1e-3)


def test_fit_input_validation():
    rates = rates_from_times(30.0, 20.0, 0.02)
    short = generate_tomography(rates, TAU0, 4)  # 5 points
    with pytest.raises(ValueError, match="6"):
        global_fit(short)
    ts = generate_tomography(rates, TAU0, 13)
    warped = {k: v.copy() for k, v in ts.data.items()}
    bad_times = ts.times.copy()
    bad_times[-1] += 1.0
    with pytest.raises(ValueError, match="uniform"):
        global_fit(TomographySet(bad_times, warped))


def test_fit_result_physicality_enforced():
    with pytest.raises(ValueError, match="unphysical"):
        FitResult(t1=10.0, t2=25.0, omega=0.0, residual=0.0, converged=True)


# ---------------------------------------------------------- dephasing time


def test_dephasing_time_limit_cases():
    assert dephasing_time(40.0, 80.0) == np.inf
    assert dephasing_time(40.0, 40.0) == pytest.approx(80.0)


def test_dephasing_time_reference_value():
    assert dephasing_time(1 / 0.0090, 35.56) == pytest.approx(42.334, abs=1e-3)


def test_dephasing_time_rejects_unphysical():
    with pytest.raises(ValueError, match="bound"):
        dephasing_time(10.0, 25.0)
    with pytest.raises(ValueError):
        dephasing_time(-1.0, 1.0)
