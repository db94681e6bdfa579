"""Tests for tomography-curve generation and the global coherence fit."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from reference import BLOCH_ROWS, generator, vec
from trottersim.dilation import angle_to_rates
from trottersim.liouvillian import (
    CanonicalRates,
    EvolutionTrace,
    _bloch_jacobian,
    bloch_solution,
    propagate,
    target_trace,
)
import trottersim.cli as cli
import trottersim.tomography as tomography
from trottersim.tomography import (
    INITIAL_STATES,
    OBS_LABELS,
    STATE_LABELS,
    FitResult,
    TomographySet,
    _levenberg_marquardt,
    _step_start,
    dephasing_time,
    generate_tomography,
    global_fit,
)
from trottersim.trotter import TrotterSchedule, run_schedule
from trottersim.dilation import NoiseParams
from trottersim.linalg import validate_density_matrix

TAU0 = 3.56

# The Lindblad generator is linear in each canonical rate: unit-rate templates
# built by tests/reference.py, one per fit parameter (gamma1, gamma_phi, omega).
_GENERATORS = np.stack([generator(*unit) for unit in np.eye(3)])
_STATE_COLS = np.stack([vec(INITIAL_STATES[s]) for s in STATE_LABELS], axis=1)


def _exact_steps(gens):
    """exp of each generator in a (K, 4, 4) stack, rounded from long double.

    A Taylor series after scaling to norm 1/2, then squared back. scipy's
    expm is good to about 1e-15 per entry, and 2000 steps add that up past
    1e-12; with this step the stepped reference stays within about 3e-13.
    That needs an 80-bit long double (x86-64 Linux); where long double is a
    double, the long-grid agreement check can fail on the reference's error.
    """
    a = np.asarray(gens, dtype=np.clongdouble)
    k = max(0, int(np.ceil(np.log2(np.abs(a).sum(axis=-1).max() + 1e-300))) + 1)
    a = a / 2**k
    term = total = np.broadcast_to(np.eye(4, dtype=a.dtype), a.shape)
    for j in range(1, 25):
        term = term @ a / j
        total = total + term
    for _ in range(k):
        total = total @ total
    return total.astype(complex)


def reference_model(u, tau0, npoints):
    """(K, 12, npoints) expectations for rows (r1, rphi, omega), stepped by propagate.

    Independent of the fit's closed form: it steps the master equation built
    by tests/reference.py and reads the Pauli rows, as the simulator does.
    """
    gens = np.tensordot(np.asarray(u, dtype=float), _GENERATORS, axes=1) * tau0
    states = propagate(_exact_steps(gens), _STATE_COLS, npoints - 1)
    expect = np.real(np.tensordot(BLOCH_ROWS[1:], states, axes=(1, -2)))
    # (obs, point, K, state) -> (K, state, obs, point), rows in state-major order.
    return expect.transpose(2, 3, 0, 1).reshape(len(gens), 12, npoints)


def rates_from_times(t1, t2, omega):
    return CanonicalRates(
        gamma1=1.0 / t1, gamma_phi=max(0.0, 1.0 / t2 - 1.0 / (2 * t1)), omega=omega
    )


# -------------------------------------------------------------- generation


@pytest.mark.parametrize("state, bloch", [("0", (0, 0, 1)), ("+", (1, 0, 0)), ("+i", (0, 1, 0)),
                                          ("1", (0, 0, -1))])
def test_initial_states_are_the_exact_density_matrices_of_their_bloch_vectors(state, bloch):
    # Each start is (I + r.sigma)/2 in exact halves, so its read-out row is exactly (1, r):
    # c0 == 1.0, with no rounding from a normalized ket.
    x, y, z = bloch
    want = (reference.EYE + x * reference.SIGMA_X + y * reference.SIGMA_Y
            + z * reference.SIGMA_Z) / 2
    assert np.array_equal(INITIAL_STATES[state], want)
    assert validate_density_matrix(INITIAL_STATES[state]).tolist() == [1.0, x, y, z]


@pytest.mark.parametrize("state", STATE_LABELS)
def test_initial_states_are_read_only(state):
    # The runners start from these arrays (cli._rho0) and the fit model from their rows, read
    # once at import (_BLOCH0): a write into one would part the two silently.
    with pytest.raises(ValueError, match="read-only"):
        INITIAL_STATES[state][:] = np.eye(2) / 2
    row = tomography._BLOCH0[STATE_LABELS.index(state)]
    assert validate_density_matrix(INITIAL_STATES[state])[1:].tolist() == row.tolist()


def test_zero_rates_plus_state_constant():
    ts = generate_tomography(CanonicalRates(), TAU0, 13)
    np.testing.assert_allclose(ts.curve("+", "x"), np.ones(14), atol=1e-12)
    np.testing.assert_allclose(ts.curve("+i", "y"), np.ones(14), atol=1e-12)


def test_noiseless_equals_target_trace():
    # The noiseless curves are the closed form bit for bit; target_trace steps the closed form's
    # exact one-step map instead of evaluating it per sample, so it agrees to rounding.
    rates = rates_from_times(28.6, 19.0, 0.0401)
    ts = generate_tomography(rates, TAU0, 13)
    row = [[rates.gamma1, rates.gamma_phi, rates.omega]]
    for state in STATE_LABELS:
        rho0 = INITIAL_STATES[state]
        exact = bloch_solution(row, [validate_density_matrix(rho0)[1:]], ts.times)[0, 0]
        tgt = target_trace(rates, rho0, TAU0, 13)
        for obs, ref, stepped in zip(OBS_LABELS, exact, (tgt.sx, tgt.sy, tgt.sz)):
            np.testing.assert_array_equal(ts.curve(state, obs), ref)
            np.testing.assert_allclose(stepped, ref, rtol=0, atol=1e-14)


def test_sampling_determinism():
    rates = rates_from_times(28.6, 19.0, 0.0401)
    a = generate_tomography(rates, TAU0, 13, shots=500, seed=42)
    b = generate_tomography(rates, TAU0, 13, shots=500, seed=42)
    np.testing.assert_array_equal(a.curves, b.curves)
    c = generate_tomography(rates, TAU0, 13, shots=500, seed=43)
    assert not np.array_equal(a.curves, c.curves)


def test_sampled_values_are_valid_expectations():
    rates = rates_from_times(50.0, 40.0, 0.02)
    ts = generate_tomography(rates, TAU0, 13, shots=64, seed=7)
    assert ts.shots == 64
    for arr in ts.curves:
        assert np.abs(arr).max() <= 1.0
        # 2k/s - 1 lands on the shot lattice.
        np.testing.assert_allclose((arr + 1) * 32, np.round((arr + 1) * 32), atol=1e-12)


def test_tomography_set_validation():
    with pytest.raises(ValueError, match="12"):
        TomographySet(1.0, np.zeros((11, 3)))  # a curve missing
    bad_range = np.zeros((12, 3))
    bad_range[11] = [0.0, 2.0, 0.0]
    with pytest.raises(ValueError, match="range"):
        TomographySet(1.0, bad_range)


def test_tomography_set_shot_range_is_three_standard_errors():
    # With 100 shots a curve may leave [-1, 1] by 3/sqrt(100) = 0.3 and no further.
    data = np.zeros((12, 3))
    data[4] = [0.0, 1.29, -1.29]  # the row of ("+", "y")
    TomographySet(1.0, data, shots=100)
    data[4] = [0.0, 1.45, 0.0]
    with pytest.raises(ValueError, match=r"curve \('\+', 'y'\) is not finite within"):
        TomographySet(1.0, data, shots=100)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shots", [None, 500])
def test_tomography_set_rejects_non_finite_curves(value, shots):
    # A NaN passes an |x| > 1 range test; global_fit would only stop inside scipy.
    data = np.zeros((12, 3))
    data[4] = [0.0, value, 0.0]  # the row of ("+", "y")
    with pytest.raises(ValueError, match=r"curve \('\+', 'y'\) is not finite"):
        TomographySet(1.0, data, shots=shots)


@pytest.mark.parametrize("shape", [(12,), (12, 0), (13, 3), (1, 12, 3)])
def test_tomography_set_rejects_curves_that_are_not_12_by_the_grid(shape):
    # The grid is the curves' own length: twelve rows of N+1 >= 1 samples.
    want = rf"^curves must be a \(12, N\+1\) block, got shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=want):
        TomographySet(1.0, np.zeros(shape))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(row=st.integers(0, 11), col=st.integers(0, 13),
       value=st.sampled_from((np.nan, np.inf, -np.inf)), shots=st.sampled_from((None, 500)))
def test_tomography_set_names_the_curve_of_a_non_finite_point(row, col, value, shots):
    # One check over the (12, T) array, naming the (state, obs) of the first bad row.
    data = np.zeros((12, 14))
    data[row, col] = value
    key = tomography._KEYS[row]
    with pytest.raises(ValueError, match=rf"^curve \('{re.escape(key[0])}', '{key[1]}'\) is "
                                         r"not finite within the expectation range \[-1, 1\]$"):
        TomographySet(1.0, data, shots=shots)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shots=st.sampled_from((None, 100, 500)), cols=st.sampled_from((1, 14)),
       points=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 13), st.sampled_from(
           ("nan", "inf", "-inf", "hi", "-hi", "above", "-above", "below", "-below"))),
           max_size=4))
def test_tomography_set_range_check_rejects_what_the_per_row_pass_rejects(shots, cols, points):
    # The set takes the whole block's max and min first and runs the per-row pass only when they
    # fail: both reject the same sets and name the same first curve, NaN included (it propagates
    # through the max), at the bound 1 + eps and one ulp either side, in any of the 12 rows.
    hi = 1 + (3.0 / np.sqrt(shots) if shots else 1e-8)
    values = {"nan": np.nan, "inf": np.inf, "hi": hi, "above": np.nextafter(hi, np.inf),
              "below": np.nextafter(hi, 0)}
    data = np.zeros((12, cols))
    for row, col, name in points:
        data[row, col % cols] = -values[name[1:]] if name[0] == "-" else values[name]
    bad = ~(np.abs(data) <= hi).all(axis=1)  # the per-row pass, applied to every set
    if not bad.any():
        TomographySet(1.0, data, shots=shots)
        return
    key = tomography._KEYS[np.argmax(bad)]
    with pytest.raises(ValueError, match=rf"^curve \('{re.escape(key[0])}', '{key[1]}'\) is "
                                         r"not finite within the expectation range \[-1, 1\]$"):
        TomographySet(1.0, data, shots=shots)


def test_tomography_set_curves_are_read_only_rows_in_key_order():
    ts = generate_tomography(rates_from_times(50.0, 40.0, 0.02), TAU0, 13, shots=64, seed=3)
    assert ts.curves.shape == (12, 14)
    for k, (state, obs) in enumerate(tomography._KEYS):
        row = ts.curve(state, obs)
        assert np.shares_memory(row, ts.curves) and np.array_equal(row, ts.curves[k])
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0
    # A write into a stored grid once doubled its spacing, and the fit returned T1 = 66.7 us for
    # curves of T1 = 33.3 us. The grid is now read from dt afresh, the curves are a copy, and
    # the caller's array stays writable.
    curves = np.zeros((12, 14))
    copy = TomographySet(1.0, curves)
    copy.times[:] = 2.0
    curves[0, 0] = 0.5
    assert copy.times.tolist() == list(range(14)) and copy.curves[0, 0] == 0.0


@pytest.mark.parametrize("bad", [-1, 1.5, True, "3"])
def test_generate_tomography_rejects_a_seed_that_is_not_a_nonnegative_integer(bad):
    # numpy named no input: -1 gave "expected non-negative integer", 1.5 a SeedSequence TypeError.
    with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {bad!r}$"):
        generate_tomography(rates_from_times(50.0, 40.0, 0.02), TAU0, 13, shots=64, seed=bad)


def test_generate_tomography_accepts_a_zero_or_numpy_integer_seed():
    rates = rates_from_times(50.0, 40.0, 0.02)
    for seed in (0, 7):
        want = generate_tomography(rates, TAU0, 13, shots=64, seed=seed).curves
        got = generate_tomography(rates, TAU0, 13, shots=64, seed=np.uint64(seed)).curves
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", ["n_steps", "shots"])
@pytest.mark.parametrize("bad", [0, -3, 2.5, 13.0, True, np.bool_(True), "13"])
def test_generate_tomography_rejects_bad_counts(name, bad):
    # shots=0 gave NaN curves, 2.5 curves off the 2k/s - 1 grid and True one shot;
    # n_steps=2.5 failed on the time grid and True ran one step.
    kwargs = {"n_steps": 13, "shots": 100, "seed": 1, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got"):
        generate_tomography(rates_from_times(50.0, 40.0, 0.02), TAU0, **kwargs)


def test_generate_tomography_accepts_numpy_integer_counts():
    ts = generate_tomography(rates_from_times(50.0, 40.0, 0.02), TAU0, np.int64(5),
                             shots=np.int32(64), seed=3)
    assert ts.times.size == 6 and ts.shots == 64


@pytest.mark.parametrize("bad", [0, -1, 2.5, True])
def test_tomography_set_rejects_bad_shots(bad):
    data = np.zeros((12, 3))
    with pytest.raises(ValueError, match="^shots must be an integer >= 1, got"):
        TomographySet(1.0, data, shots=bad)


_CURVES3 = np.zeros((12, 3))


@pytest.mark.parametrize("dt, curves, message", [
    (np.nan, _CURVES3, "dt must be positive and finite, got nan"),
    (np.inf, _CURVES3, "dt must be positive and finite, got inf"),
    (0.0, _CURVES3, "dt must be positive and finite, got 0.0"),
    (-1.0, _CURVES3, "dt must be positive and finite, got -1.0"),
    (1e308, _CURVES3, "N * dt must be below 1.34e154, got 2 * 1e+308"),
    (np.arange(3.0), _CURVES3, "dt must be positive and finite, got [0. 1. 2.]"),
    (1.0, _CURVES3 + 1e-3j, "curves must be real, got dtype complex128"),
], ids=["dt-nan", "dt-inf", "dt-zero", "dt-negative", "last-time-overflows", "dt-a-grid",
        "curves-complex"])
def test_tomography_set_rejects_what_it_cannot_represent(dt, curves, message):
    # A set is its step and its curves on t = j*dt, the trace's rules: a step that is not one
    # positive finite number gives no grid (NaN, inf, flat or backward times; a times array in
    # its place failed on numpy's ambiguous truth value), a last time past the span rule none that
    # the fit can read, and complex curves lost their imaginary part.
    with pytest.raises(ValueError) as info:
        TomographySet(dt, curves)
    assert str(info.value) == message
    TomographySet(1.3e154, _CURVES3[:, :2])  # the last time 1.3e154 is below the span bound


@pytest.mark.parametrize("tau0", [np.inf, np.nan, 0.0, -1.0])
def test_tau0_is_checked_before_the_time_grid(tau0):
    # 0 * inf in the grid would warn before any check saw tau0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^tau0 must be positive and finite, got {tau0}$"):
            generate_tomography(CanonicalRates(), tau0, 13)


@pytest.mark.parametrize("n_steps, tau0",
                         [(2, 1e154), (13, 1e308), (np.int64(13), np.float64(1e308))])
def test_a_grid_whose_last_time_squares_past_the_largest_float_is_rejected(n_steps, tau0):
    # Checked before the grid is built, so 13 * 1e308 neither warns nor reaches the evolve hook.
    generate_tomography(CanonicalRates(), 1.3e154, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^n_steps \* tau0 must be below 1.34e154, got "):
            generate_tomography(CanonicalRates(), tau0, n_steps, evolve=lambda rho0: 1 / 0)


def test_evolve_hook_grid_must_match():
    rates = rates_from_times(30.0, 20.0, 0.02)
    wrong = lambda rho0: target_trace(rates, rho0, TAU0, 10)
    with pytest.raises(ValueError, match="grid"):
        generate_tomography(rates, TAU0, 13, evolve=wrong)



def test_evolve_hook_grid_is_matched_relative_to_its_span():
    # A grid three times too coarse is rejected whatever its unit; under an absolute 1e-9 us
    # tolerance it passed at tau0 = 1e-11 us.
    rates = rates_from_times(30.0, 20.0, 0.02)
    coarse = lambda rho0: target_trace(rates, rho0, 3e-11, 13)
    with pytest.raises(ValueError, match="^evolve returned a trace on a different time grid$"):
        generate_tomography(rates, 1e-11, 13, evolve=coarse)

    for off in (np.inf, 0.0):  # a 1e150 us step one ulp off differs by rounding alone
        step = np.nextafter(1e150, off)
        rounded = lambda rho0: EvolutionTrace(step, target_trace(rates, rho0, 1e150, 13).rows)
        assert np.abs(rounded(INITIAL_STATES["0"]).times - np.arange(14) * 1e150).max() > 1e-9
        generate_tomography(rates, 1e150, 13, evolve=rounded)


def test_evolve_hook_grid_with_a_nan_time_is_rejected():
    # A hook cannot return a trace with a NaN time: the trace's constructor rejects a NaN step.
    rates = rates_from_times(30.0, 20.0, 0.02)

    def nan_time(rho0):
        return EvolutionTrace(np.nan, target_trace(rates, rho0, TAU0, 13).rows)

    with pytest.raises(ValueError, match="^dt must be positive and finite, got nan$"):
        generate_tomography(rates, TAU0, 13, evolve=nan_time)


@pytest.mark.parametrize("source", ["exact", "shots"] + [
    (backend, order) for backend in ("kraus", "dilation", "dilation+noise") for order in (1, 2)],
    ids=lambda source: source if isinstance(source, str) else "{}-order-{}".format(*source))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(tau0=st.floats(0.05, 20.0), n_steps=st.integers(5, 20), theta3=st.floats(20.0, 160.0),
       seed=st.integers(0, 2**31))
def test_every_set_carries_its_step_and_derives_its_grid(source, tau0, n_steps, theta3, seed):
    # Closed-form, shot-sampled and Trotter sets on every backend and order: the set's step is
    # tau0, its times are the grid generate_tomography once stored, np.arange(n + 1) * tau0, bit
    # for bit, its curves are read-only, and a write into a times array reaches no later fit.
    rates = angle_to_rates(*np.radians((20.0, 20.0, theta3)), tau0)
    kwargs = {"shots": 2000, "seed": seed} if source == "shots" else {}
    if isinstance(source, tuple):
        backend, order = source
        noise = NoiseParams(p_grape=0.01, p_ancilla_decay=0.01) if "noise" in backend else None
        schedule = TrotterSchedule(order=order, n_steps=n_steps, dt=tau0, backend=backend,
                                   noise=noise)
        kwargs["evolve"] = lambda rho0: run_schedule(schedule, rates, rho0)
    ts = generate_tomography(rates, tau0, n_steps, **kwargs)
    assert ts.dt == tau0 and type(ts.dt) is float
    assert ts.times.tobytes() == (np.arange(n_steps + 1) * tau0).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        ts.curves[0, 0] = 0.0
    fit = global_fit(ts)
    ts.times[:] = 2 * ts.times
    assert global_fit(ts) == fit


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
    rates = angle_to_rates(*np.radians([20, 20, 51.4]), TAU0)
    t1_pred, t2_pred = rates.t1, rates.t2
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
    rates = angle_to_rates(*np.radians(angles_deg), TAU0)
    sched = TrotterSchedule(order=1, n_steps=13, dt=TAU0)
    ts = generate_tomography(
        rates, TAU0, 13, evolve=lambda rho0: run_schedule(sched, rates, rho0)
    )
    fit = global_fit(ts)
    assert fit.converged
    u = [1.0 / fit.t1, 1.0 / fit.t2 - 0.5 / fit.t1, fit.omega]
    model = reference_model([u], TAU0, 14)[0]
    rms = np.sqrt(np.mean((model - ts.curves) ** 2))
    assert fit.residual == pytest.approx(rms, rel=1e-9)


# ------------------------------------------------------ closed-form model


def _bloch_row(r1, rphi, share, kind, tau0):
    """A fit parameter row (r1, rphi, omega) with omega set by kind.

    "free" spans omega over [-1/(2 tau0), 1/(2 tau0)], "undriven" sets 0, and
    "ep+"/"ep-" put the row on the exceptional point a = (G1 - G2)/2 = +-2 pi
    omega, where s = 0 and the (y, z) block has no eigenbasis. "ep0" is that
    point exactly: rphi = r1/2 makes G2 = G1, with no drive. "over" takes
    |2 pi omega| <= |a|, where s is real (overdamped).
    """
    if kind == "ep0":
        return [r1, r1 / 2, 0.0]
    a = (r1 / 2 - rphi) / 2
    omega = {"free": share * 0.5 / tau0, "undriven": 0.0, "over": share * a / (2 * np.pi),
             "ep+": a / (2 * np.pi), "ep-": -a / (2 * np.pi)}[kind]
    return [r1, rphi, omega]


_BOUNDARY_ROWS = [(2.733167e-4, 0.0, 0.0, "undriven"), (2.733173e-4, 0.0, 0.0, "undriven"),
                  (0.2, 0.1, 7.74295e-05, "free"), (0.2, 0.1, 7.742964e-05, "free"),
                  (0.3, 0.0, 0.0, "ep0")]
_ROW = st.tuples(
    st.floats(1e-6, 2.0), st.floats(0.0, 2.0), st.floats(-1.0, 1.0),
    st.sampled_from(("free", "undriven", "ep+", "ep-", "ep0")),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=st.lists(_ROW, min_size=1, max_size=4), tau0=st.floats(0.5, 10.0),
       npoints=st.integers(2, 2001))
# 2001 points with fast decay, where e^{mt} and cosh(st) taken apart give 0 * inf, and with
# m + s = -1e-6 from m ~ -1 and s ~ 1, where the plain sum m + s would put a 5e-12 error
# into e^{(m+s)t} by t = 2e4.
@example(
    rows=[(2.0, 2.0, 1.0, "free"), (2.0, 0.0, 0.0, "undriven"), (1.0, 0.0, 0.0, "ep0"),
          (1e-6, 2.0, 0.0, "undriven"), (1e-6, 0.0, -1.0, "free")],
    tau0=10.0, npoints=2001,
)
# Each row's case at its boundary |q| t_max^2 = 1e-5 (t_max = 13 * 3.56): just below (the
# series) and just above (s real, then s imaginary), and q = 0 exactly.
@example(rows=_BOUNDARY_ROWS, tau0=3.56, npoints=14)
def test_closed_form_matches_stepped_reference(rows, tau0, npoints):
    u = np.array([_bloch_row(*row, tau0) for row in rows])
    model = bloch_solution(u, tomography._BLOCH0, np.arange(npoints) * tau0)
    model = model.reshape(len(u), 12, npoints)
    assert model.dtype == float and np.isfinite(model).all()
    np.testing.assert_allclose(model, reference_model(u, tau0, npoints), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(row=_ROW, tau0=st.floats(0.5, 10.0), npoints=st.integers(2, 101))
@example(row=_BOUNDARY_ROWS[0], tau0=3.56, npoints=14)
@example(row=_BOUNDARY_ROWS[1], tau0=3.56, npoints=14)
@example(row=_BOUNDARY_ROWS[2], tau0=3.56, npoints=14)
@example(row=_BOUNDARY_ROWS[3], tau0=3.56, npoints=14)
@example(row=_BOUNDARY_ROWS[4], tau0=3.56, npoints=14)  # q = 0 exactly
def test_jacobian_matches_central_differences_of_reference(row, tau0, npoints):
    u = np.array(_bloch_row(*row, tau0))
    times = np.arange(npoints) * tau0
    block = _bloch_jacobian(u, tomography._CHAIN_TERMS, times, times[-1])
    model, jac = block[3], block[:3].T
    np.testing.assert_allclose(model, reference.closed_form_curves(u, tomography._BLOCH0, times)
                               .real.ravel(), rtol=0, atol=4 * np.finfo(float).eps)
    # Five-point central differences, with steps small against the curves' time
    # scale t_max (2 pi t_max for omega): truncation and round-off stay near 1e-9.
    h = 3e-3 / (tau0 * (npoints - 1)) * np.array([1.0, 1.0, 1.0 / (2 * np.pi)])
    fd = np.empty_like(jac)
    for k in range(3):
        shifted = u + np.outer([2, 1, -1, -2], h[k] * np.eye(3)[k])
        values = reference_model(shifted, tau0, npoints).reshape(4, -1)
        fd[:, k] = np.array([-1, 8, -8, 1]) @ values / (12 * h[k])
    assert np.abs(jac - fd).max() <= 1e-7 * np.abs(fd).max()


# Rows in the series case near its bound, q t_max^2 = +-0.9e-5 at t_max = 13 * 3.56, with
# a = (G1 - G2)/2 = 0.05: there the series' z terms in dS/dq show in the derivatives. As "free"
# rows, omega = share * 0.5 / tau0.
_SERIES_EDGE = [(0.2, 0.0, math.sqrt(0.05**2 - sign * 0.9e-5 / (13 * 3.56) ** 2) / math.pi * 3.56,
                 "free") for sign in (1, -1)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(row=st.tuples(st.floats(1e-4, 1.0), st.floats(0.0, 1.0), st.floats(-1.0, 1.0),
                     st.sampled_from(("free", "undriven", "over", "ep+", "ep-", "ep0"))),
       tau0=st.floats(0.5, 6.0), npoints=st.integers(2, 101))
@example(row=_BOUNDARY_ROWS[0], tau0=3.56, npoints=14)
@example(row=_BOUNDARY_ROWS[1], tau0=3.56, npoints=14)
@example(row=_BOUNDARY_ROWS[2], tau0=3.56, npoints=14)
@example(row=_BOUNDARY_ROWS[3], tau0=3.56, npoints=14)
@example(row=_BOUNDARY_ROWS[4], tau0=3.56, npoints=14)
@example(row=_SERIES_EDGE[0], tau0=3.56, npoints=14)
@example(row=_SERIES_EDGE[1], tau0=3.56, npoints=14)
def test_jacobian_block_matches_the_complex_step_of_the_closed_form(row, tau0, npoints):
    # Series, s real and s imaginary rows: the forward-mode derivatives against the complex step
    # of the closed form in complex arithmetic, and the curves against that closed form, each row
    # of the block within 1e-10 of its largest entry. Rates from 1e-4 and tau0 to 6 keep each
    # derivative well above the round-off of the curves, which both sides carry.
    u = _bloch_row(*row, tau0)
    times = np.arange(npoints) * tau0
    block = _bloch_jacobian(u, tomography._CHAIN_TERMS, times, times[-1])
    want = reference.complex_step_block(u, tomography._BLOCH0, times)
    assert block.shape == want.shape
    assert np.all(np.abs(block - want) <= 1e-10 * np.abs(want).max(axis=1, keepdims=True))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(row=_ROW, shots=st.sampled_from((None, 1000)),
       u=st.tuples(st.floats(1e-6, 2.0), st.floats(0.0, 2.0), st.floats(-1.0, 1.0)))
def test_fit_evaluation_is_the_gram_matrix_of_the_block_less_the_data(row, shots, u):
    # global_fit's evaluation, taken from its run, at a row u of the box: each entry of the four
    # lists is the explicit sum over the kernel's block with the data subtracted from its curves'
    # row, [[J^T J, J^T r], [r^T J, r.r]], within 1e-12 of the Cauchy-Schwarz bound on it.
    ts = generate_tomography(CanonicalRates(*_bloch_row(*row, TAU0)), TAU0, 13, shots=shots,
                             seed=0 if shots else None)
    runs = []

    def spy(fun, start, lo, hi, m):
        runs.append((fun, m))
        return _levenberg_marquardt(fun, start, lo, hi, m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tomography, "_levenberg_marquardt", spy)
        global_fit(ts)
    fun, m = runs[0]
    u = (u[0], u[1], u[2] * 0.5 / TAU0)
    block = _bloch_jacobian(u, tomography._CHAIN_TERMS, ts.times, ts.times[-1])
    rows = [*block[:3].tolist(), (block[3] - ts.curves.ravel()).tolist()]
    want = [[math.fsum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]
    gram = fun(u)
    assert m == len(rows[3]) == 168 and isinstance(gram, list) and len(gram) == 4
    for i in range(4):
        assert isinstance(gram[i], list) and len(gram[i]) == 4
        for j in range(4):
            assert abs(gram[i][j] - want[i][j]) <= 1e-12 * math.sqrt(want[i][i] * want[j][j])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    t1=st.floats(10.0, 200.0),
    t2_share=st.floats(0.0, 1.0),
    omega=st.floats(0.005, 0.14),
    sign=st.sampled_from((1.0, -1.0)),
)
def test_noiseless_round_trip_property(t1, t2_share, omega, sign):
    # The curves' step reads a negative drive with its sign, so the fit starts on the
    # drive's own side of the band.
    t2, omega = 5.0 + t2_share * (2 * t1 - 5.0), sign * omega
    fit = global_fit(generate_tomography(rates_from_times(t1, t2, omega), TAU0, 13))
    assert fit.converged
    assert fit.t2 <= 2 * fit.t1 * (1 + 1e-6)
    np.testing.assert_allclose([fit.t1, fit.t2, fit.omega], [t1, t2, omega], rtol=1e-6)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(r1=st.floats(0.005, 0.3), rphi=st.floats(0.001, 0.3), share=st.floats(0.01, 0.48))
def test_mirrored_drive_fits_the_same_times_and_the_opposite_omega(r1, rphi, share):
    # The mirror relation at the fit: exact canonical curves at -omega fit the same T1 and
    # T2 and the opposite omega, each within 1e-12 relative, off every face of the box.
    # |omega| is a share of the Nyquist half-band 1/(2 tau0). The step read-out takes 1/T1
    # as a difference of rates, so its round-off grows as 1/T2 over 1/T1: r1 stops at
    # 0.005/us (T1 = 200 us, beyond the record), where that round-off stays near 2e-13.
    omega = share / (2 * TAU0)
    plus, minus = (global_fit(generate_tomography(
        CanonicalRates(gamma1=r1, gamma_phi=rphi, omega=sign * omega), TAU0, 13))
        for sign in (1.0, -1.0))
    assert plus.at_bound == minus.at_bound == ()
    np.testing.assert_allclose([minus.t1, minus.t2, -minus.omega],
                               [plus.t1, plus.t2, plus.omega], rtol=1e-12, atol=0)


@pytest.mark.parametrize("t2", [0.5, 1.0, 2.0])
def test_fast_dephasing_fit_starts_from_the_step_read_out(t2):
    # With T2 below tau0, <x> of |+> falls by e^{-tau0/T2} per step, yet the curves'
    # step still reads 1/T2 exactly, and the fit from it ends on the rates.
    rates = rates_from_times(50.0, t2, 0.02)
    ts = generate_tomography(rates, TAU0, 13)
    r1, rphi, _ = _step_start(ts.curves, TAU0)
    np.testing.assert_allclose(rphi + r1 / 2, 1 / t2, rtol=1e-12)
    fit = global_fit(ts)
    assert fit.converged
    np.testing.assert_allclose(
        [fit.t1, fit.t2, fit.omega], [rates.t1, rates.t2, rates.omega], rtol=1e-12
    )


def test_fit_evaluates_the_model_at_the_data_times():
    # The curves of step tau0 read as sampled 2 tau0 apart: the fit's model runs on the set's
    # grid j*dt, so every rate halves and T1, T2 and 1/omega double.
    rates = CanonicalRates(gamma1=0.03, gamma_phi=0.02, omega=0.05)
    stretched = TomographySet(2 * TAU0, generate_tomography(rates, TAU0, 13).curves)
    fit = global_fit(stretched)
    assert fit.converged
    np.testing.assert_allclose(
        [fit.t1, fit.t2, fit.omega], [2 * rates.t1, 2 * rates.t2, rates.omega / 2], rtol=1e-9
    )
    assert fit.residual < 1e-12


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


def _trotter_set(*angles_deg, shots=None, seed=None):
    """Twelve first-order Trotter curves, 13 steps of TAU0, at the given dilation angles."""
    rates = angle_to_rates(*np.radians(angles_deg), TAU0)
    schedule = TrotterSchedule(n_steps=13, dt=TAU0)
    return generate_tomography(rates, TAU0, 13, shots=shots, seed=seed,
                               evolve=lambda rho0: run_schedule(schedule, rates, rho0))


def test_fit_runs_one_lm_from_the_best_scored_row(monkeypatch):
    # fig2's default point, Trotterized: curves the closed form cannot match exactly.
    ts = _trotter_set(20.0, 20.0, 51.4)
    calls = []

    def spy(fun, u, lo, hi, m):
        calls.append((np.array(u), lo, hi))
        return _levenberg_marquardt(fun, u, lo, hi, m)

    monkeypatch.setattr(tomography, "_levenberg_marquardt", spy)
    assert global_fit(ts).converged
    assert len(calls) == 1
    u0, lo, hi = calls[0]
    np.testing.assert_array_equal(lo, [1e-6, 0.0, -0.5 / TAU0])
    np.testing.assert_array_equal(hi, [2.0, 2.0, 0.5 / TAU0])
    # The one run starts from the row read from the curves' step, clipped into the box.
    np.testing.assert_array_equal(u0, np.clip(_step_start(ts.curves, TAU0), lo, hi))


@pytest.mark.parametrize("angles_deg", [(5.8, 36.1, 166.0), (10.0, 40.0, 170.0)])
def test_fit_near_the_nyquist_edge_tries_the_other_sign(angles_deg):
    # Strong damping turns the |1> state's first <sigma_y> step negative although
    # the drive is positive, so no sign can be read from that step alone. The
    # row read from the curves' step carries the drive's own sign, so the fit
    # starts at the optimum and needs no mirrored run.
    rates = angle_to_rates(*np.radians(angles_deg), TAU0)
    ts = generate_tomography(rates, TAU0, 13)
    sy = ts.curve("1", "y")
    assert sy[1] < sy[0] and rates.omega > 0
    fit = global_fit(ts)
    assert fit.converged and fit.evaluations <= 3
    np.testing.assert_allclose([fit.t1, fit.t2, fit.omega], [rates.t1, rates.t2, rates.omega],
                               rtol=1e-6)


def test_fit_that_ends_on_the_nyquist_edge_reruns_from_the_mirrored_rows(monkeypatch):
    # Trotter curves near theta3 = 180 deg: the run from the step's row ends on the
    # +1/(2 tau0) edge, the run from that row with its drive mirrored ends inside the
    # band with a lower cost, and its result is kept. evaluations counts the model
    # calls of both runs.
    ts = _trotter_set(24.810621805668866, 56.63397090773057, 171.99120281121148)
    runs, calls = [], []

    def spy(fun, u, lo, hi, m):
        runs.append(_levenberg_marquardt(fun, u, lo, hi, m))
        return runs[-1]

    def counted(u, terms, times, tmax):
        calls.append(u)
        return _bloch_jacobian(u, terms, times, tmax)

    monkeypatch.setattr(tomography, "_levenberg_marquardt", spy)
    monkeypatch.setattr(tomography, "_bloch_jacobian", counted)
    fit = global_fit(ts)
    assert len(runs) == 2
    (u_edge, gram_edge, _), (u_kept, gram_kept, _) = runs
    assert u_edge[2] == 0.5 / TAU0 and abs(u_kept[2]) < 0.5 / TAU0
    assert gram_kept[3][3] < gram_edge[3][3]  # r.r
    assert fit.omega == u_kept[2] and fit.converged
    assert fit.evaluations == len(calls) > 2


def test_fit_that_ends_on_the_t1_floor_reruns_from_the_mirrored_row(monkeypatch):
    # Noiseless Trotter curves whose run from the step's row pins 1/T1 to its floor (and
    # omega to the band's edge): the run from the mirrored drive ends at a lower cost and
    # is kept. A run that pins 1/T1 inside the band reruns too, and stays the fit when
    # the mirrored run ends higher.
    runs = []

    def spy(fun, u, lo, hi, m):
        runs.append(_levenberg_marquardt(fun, u, lo, hi, m))
        return runs[-1]

    def rms(gram):  # over the 12 * 14 residuals, from r.r
        return math.sqrt(gram[3][3] / 168)

    monkeypatch.setattr(tomography, "_levenberg_marquardt", spy)
    fit = global_fit(_trotter_set(18.992553886700986, 44.17248115095125, 177.5444223629221))
    assert len(runs) == 2
    (u_floor, gram_floor, _), (u_kept, gram_kept, _) = runs
    assert u_floor[0] == 1e-6 and rms(gram_floor) == pytest.approx(0.19215, abs=5e-6)
    assert fit.residual == rms(gram_kept) == pytest.approx(0.192064756942722, rel=1e-9)
    runs.clear()
    fit = global_fit(_trotter_set(6.820785868644059, 53.96476987852132, 154.78152913722073))
    assert len(runs) == 2
    (u_floor, gram_floor, _), (_, gram_other, _) = runs
    assert u_floor[0] == 1e-6 and abs(u_floor[2]) < 0.5 / TAU0
    assert rms(gram_other) > rms(gram_floor) == fit.residual and fit.at_bound == ("gamma1",)


def test_noisy_fit_whose_first_run_pins_t1_ends_off_the_floor():
    # 100-shot Trotter curves on which the best-scored row of a start grid,
    # (1e-4, 0.514, -0.120), runs to the 1/T1 floor at residual 0.2556. The one run from
    # the step's row ends inside the box, at T1 = 10.26 us and a lower residual.
    ts = _trotter_set(40.49077636075533, 47.42208442429876, 216.65376779503788,
                      shots=100, seed=731964731)
    fit = global_fit(ts)
    assert fit.t1 == pytest.approx(10.26, abs=0.005) and fit.at_bound == ()
    assert fit.residual <= 0.2546815860229208 * (1 + 1e-9)


def test_fig2_fits_cost_at_most_217_evaluations(tmp_path, monkeypatch):
    # A count, so it guards the cost of fig2's 23 Trotter fits without timing them:
    # each fit starts from its curves' step and at most reruns from the mirrored drive.
    fits = []

    def counted(curves):
        fits.append(global_fit(curves))
        return fits[-1]

    monkeypatch.setattr(cli, "global_fit", counted)
    assert cli.main(["reproduce", "--figure", "fig2", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert len(fits) == 23 and sum(fit.evaluations for fit in fits) <= 217


# ------------------------------------------------ starts from the data's step
#
# _step_start reads (G1, G2, omega) from the step that a linear least-squares
# solve recovers from the curves. Exact curves and Trotter products give it
# exactly, so an exact fit starts at its optimum.

def _step_row(r1_min):
    return st.tuples(st.floats(r1_min, 0.5), st.floats(0.0, 0.5), st.floats(-1.0, 1.0),
                     st.sampled_from(("free", "undriven", "over", "ep+", "ep-", "ep0")))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(row=_step_row(1e-4), first=st.sampled_from((0, 1)))
@example(row=(0.03, 0.02, -0.7, "free"), first=0)  # a negative drive
@example(row=(0.2, 0.0, 0.0, "undriven"), first=0)  # omega = 0, s real
@example(row=(0.2, 0.0, 0.4, "over"), first=1)  # overdamped, from t = tau0
@example(row=(0.04, 0.001, 0.0, "ep+"), first=0)
@example(row=(0.04, 0.001, 0.0, "ep-"), first=1)
@example(row=(0.03, 0.0, 0.0, "ep0"), first=0)  # G1 = G2, no drive: c = 1
@example(row=(1e-4, 0.0, 1.0, "free"), first=0)  # on the Nyquist edge, |s| tau0 = pi
def test_step_starts_recover_canonical_rates(row, first):
    # Canonical curves on the grid j*tau0, or from t = tau0 (first = 1): the row is
    # (G1, G2 - G1/2, omega) within 1e-9 relative.
    r1, rphi, omega = _bloch_row(*row, TAU0)
    ts = generate_tomography(CanonicalRates(gamma1=r1, gamma_phi=rphi, omega=omega), TAU0, 13)
    g1, rphi_read, omega_read = _step_start(ts.curves[:, first:], TAU0)
    np.testing.assert_allclose([g1, rphi_read + g1 / 2], [r1, r1 / 2 + rphi], rtol=1e-9, atol=0)
    # omega = 0 reads as round-off, small against the rates
    np.testing.assert_allclose(omega_read, omega, rtol=1e-9, atol=1e-9 * (r1 / 2 + rphi))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(theta1=st.floats(2.0, 60.0), theta2=st.floats(2.0, 60.0),
       theta3=st.floats(0.0, 360.0), order=st.sampled_from((1, 2)))
@example(theta1=48.37255180111569, theta2=14.841168224909438, theta3=169.87152881491664,
         order=2)  # a product far from exp(G tau0), whose log reads the wrong drive
def test_step_starts_recover_the_decay_rates_of_trotter_products(theta1, theta2, theta3, order):
    # A kraus Trotter step scales <x> by e^{-G2 tau0} and the y-z block's determinant
    # by e^{-(G1 + G2) tau0}, in any order of its three channels.
    rates = angle_to_rates(*np.radians([theta1, theta2, theta3]), TAU0)
    schedule = TrotterSchedule(order=order, n_steps=13, dt=TAU0)
    ts = generate_tomography(rates, TAU0, 13,
                             evolve=lambda rho0: run_schedule(schedule, rates, rho0))
    g1, rphi, _ = _step_start(ts.curves, TAU0)
    np.testing.assert_allclose([g1, g1 / 2 + rphi],
                               [rates.gamma1, rates.gamma1 / 2 + rates.gamma_phi], rtol=1e-9, atol=0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(row=_step_row(1e-3))
@example(row=(0.03, 0.0, 0.0, "ep0"))
def test_exact_curves_fit_in_at_most_three_evaluations(row):
    # The start is the optimum: one step confirms it. A count, so it guards the
    # fit's cost without timing it. T1 runs up to 1000 us, 20x the record; far
    # beyond it the curves fix 1/T1 only to about the LM's 1e-14 step rule, and a
    # few more steps at round-off can follow.
    r1, rphi, omega = _bloch_row(*row, TAU0)
    omega = float(np.clip(omega, -0.49 / TAU0, 0.49 / TAU0))  # off the edge, where a retry runs
    fit = global_fit(generate_tomography(CanonicalRates(gamma1=r1, gamma_phi=rphi, omega=omega),
                                         TAU0, 13))
    assert fit.converged and fit.evaluations <= 3
    np.testing.assert_allclose([1 / fit.t1, 1 / fit.t2], [r1, r1 / 2 + rphi], rtol=1e-6)


def _start_grid(step_row):
    """An (80, 3) start grid, r1-major, built from the step's row (r1, rphi, omega): ten r1
    values, each with the rphi that keeps the step's 1/T2 (capped at the box, floored at 0),
    and eight drives spanning the half band of the step's drive sign."""
    r1, rphi, omega = step_row
    r1s = np.geomspace(1e-4, 0.5, 10)[:, None]
    cands = np.empty((10, 8, 3))
    cands[..., 0], cands[..., 1] = r1s, np.maximum(0.0, min(rphi + r1 / 2, 2.0) - r1s / 2)
    cands[..., 2] = np.linspace(0.0, 0.5 / TAU0, 8) * (-1.0 if omega < 0 else 1.0)
    return cands.reshape(-1, 3)


def _gram_fun(ts):
    """global_fit's evaluation on ts: the Gram matrix of the kernel's block at u, as lists, with
    the data subtracted from its curves' row, so [[J^T J, J^T r], [r^T J, r.r]]."""
    data = ts.curves.ravel()

    def fun(u):
        block = _bloch_jacobian(u, tomography._CHAIN_TERMS, ts.times, ts.times[-1])
        block[3] -= data
        return (block @ block.T).tolist()

    return fun


def _grid_only_fit(ts):
    """The fit from a start grid alone, without the step's row: one run from its best row."""
    data = ts.curves
    lo, hi = np.array([1e-6, 0.0, -0.5 / TAU0]), np.array([2.0, 2.0, 0.5 / TAU0])
    cands = np.clip(_start_grid(_step_start(data, TAU0)), lo, hi)
    model = bloch_solution(cands, tomography._BLOCH0, ts.times).reshape(len(cands), 12, -1)
    scores = ((model - data) ** 2).sum(axis=(1, 2))
    u, gram, status = _levenberg_marquardt(_gram_fun(ts), cands[np.argmin(scores)], lo, hi,
                                           data.size)
    return math.sqrt(gram[3][3] / data.size), status > 0


def test_step_rows_never_leave_the_fit_worse_than_the_grid_alone():
    # Near theta3 = 180 deg a Trotter step is far from exp(G tau0) and its row can start
    # a run into another basin. A grid that spans the band, scored and run once, is the
    # oracle: the step's run, with its mirrored retry, ends no worse.
    rng = np.random.default_rng(2301)
    for i in range(40):
        angles = (rng.uniform(2, 60), rng.uniform(2, 60), rng.uniform(150, 210))
        order, seed = int(rng.integers(1, 3)), int(rng.integers(2**31))
        rates = angle_to_rates(*np.radians(angles), TAU0)
        schedule = TrotterSchedule(order=order, n_steps=13, dt=TAU0)
        ts = generate_tomography(rates, TAU0, 13, shots=1000 if i % 2 else None, seed=seed,
                                 evolve=lambda rho0: run_schedule(schedule, rates, rho0))
        grid_rms, grid_converged = _grid_only_fit(ts)
        fit = global_fit(ts)
        assert fit.residual <= grid_rms * (1 + 1e-9), (angles, order)
        assert fit.converged or not grid_converged, (angles, order)


def test_fit_names_the_rates_on_a_face_of_the_box():
    # A second-order Trotter set whose best fit pins 1/T1 to the 1e-6 floor: T1 = 1e6 us
    # there is a bound, not a measurement. Exact curves of the same rates end inside the box.
    rates = angle_to_rates(
        *np.radians([48.37255180111569, 14.841168224909438, 169.87152881491664]), TAU0)
    schedule = TrotterSchedule(order=2, n_steps=13, dt=TAU0)
    fit = global_fit(generate_tomography(rates, TAU0, 13,
                                         evolve=lambda rho0: run_schedule(schedule, rates, rho0)))
    assert fit.at_bound == ("gamma1",) and fit.t1 == 1e6
    assert global_fit(generate_tomography(rates, TAU0, 13)).at_bound == ()
    # Exact curves of a drive beyond the band (theta3 > 180 deg, not folded) end on its top.
    beyond = angle_to_rates(*np.radians([9.5, 57.0, 223.9]), TAU0)
    assert beyond.omega > 0.5 / TAU0
    fit = global_fit(generate_tomography(beyond, TAU0, 13))
    assert fit.at_bound == ("omega",) and fit.omega == 0.5 / TAU0
    assert FitResult(t1=1.0, t2=1.0, omega=0.0, residual=0.0, converged=True).at_bound == ()


# ------------------------------------------------- Levenberg-Marquardt stops
#
# _levenberg_marquardt returns the rule that stopped it: 1 free gradient, 2 a
# Gauss-Newton step under _STOP_SE standard errors, 3 step size, 0 the iteration
# cap. Linear residuals A u - b in three parameters make each rule's turn predictable.

_A = np.array([[1.0, 0.5, 0.2], [0.2, 2.0, -0.3], [1.5, -1.0, 0.4], [0.3, 0.7, 1.1],
               [0.6, 0.1, -0.8]])


def _linear(b, a=_A):
    """Residuals a u - b in three parameters, as the Gram matrix of [a | a u - b] in lists."""
    b = np.asarray(b, dtype=float)

    def fun(u):
        block = np.column_stack((a, a @ np.asarray(u) - b))
        return (block.T @ block).tolist()

    return fun


def test_lm_stops_on_the_free_gradient_in_a_corner():
    # The unconstrained optimum (-1, -1, -1) lies beyond the corner the run starts
    # in: every coordinate freezes and the free gradient is empty.
    evaluations = []
    fun = _linear(_A @ [-1.0, -1.0, -1.0])
    counted = lambda u: evaluations.append(u) or fun(u)
    u, gram, status = _levenberg_marquardt(counted, np.zeros(3), np.zeros(3), np.ones(3), 5)
    assert status == 1 and len(evaluations) == 1
    np.testing.assert_array_equal(u, [0.0, 0.0, 0.0])
    assert gram == fun(np.zeros(3))


def _stderrs(jac, r):
    """Standard errors sqrt(diag(s^2 (J^T J)^-1)), s^2 = r.r/(M - n), of a least-squares fit."""
    return np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)) * (r @ r) / (len(r) - jac.shape[1]))


def test_lm_stops_on_the_decrement_with_a_residual():
    # Inconsistent data: the cost levels off above 0 at the least-squares point, and the
    # run stops once the Gauss-Newton step is under _STOP_SE standard errors.
    b = np.array([1.0, -2.0, 0.5, 3.0, -1.5])
    u, _, status = _levenberg_marquardt(_linear(b), np.array([0.3, 0.1, -0.2]),
                                        -10 * np.ones(3), 10 * np.ones(3), 5)
    assert status == 2
    want = np.linalg.lstsq(_A, b, rcond=None)[0]
    assert np.all(np.abs(u - want) <= 2 * tomography._STOP_SE * _stderrs(_A, _A @ want - b))


def test_lm_stops_on_the_step_size_at_a_zero_residual():
    # Consistent data: the cost falls to round-off, where only the step shrinks.
    want = np.array([0.7, -0.4, 0.25])
    u, _, status = _levenberg_marquardt(_linear(_A @ want), np.array([0.3, 0.1, -0.2]),
                                        -10 * np.ones(3), 10 * np.ones(3), 5)
    assert status == 3
    np.testing.assert_allclose(u, want, rtol=1e-14)


def test_lm_freezes_a_rate_on_its_bound():
    # No dephasing, Trotterized: the best fit sits on rphi = 0 with the gradient
    # pointing below it. It must match the fit with rphi pinned to 0 by a box of width 0.
    ts = _trotter_set(0.0, 30.0, 30.0)
    rates = angle_to_rates(*np.radians([0.0, 30.0, 30.0]), TAU0)
    fit = global_fit(ts)
    assert fit.converged
    assert fit.t2 == pytest.approx(2 * fit.t1, rel=1e-15)
    v, _, status = _levenberg_marquardt(_gram_fun(ts), (rates.gamma1, 0.0, rates.omega),
                                        (1e-6, 0.0, -1.0), (2.0, 0.0, 1.0), ts.curves.size)
    assert status > 0 and v[1] == 0.0
    # Each run stops within _STOP_SE standard errors of the same optimum.
    assert fit.at_bound == ("gamma_phi",) and fit.stderr[1] is None
    assert abs(fit.t1 - 1 / v[0]) <= 2 * tomography._STOP_SE * fit.stderr[0]
    assert abs(fit.omega - v[2]) <= 2 * tomography._STOP_SE * fit.stderr[2]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(b=arrays(float, (4, 3), elements=st.floats(-1.0, 1.0)), shift=st.floats(0.01, 1.0),
       log_scales=arrays(float, 3, elements=st.floats(-4.0, 4.0)),
       g=arrays(float, 3, elements=st.floats(-1.0, 1.0)),
       free=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       lam=st.floats(1e-12, 1e6))
@example(b=np.zeros((4, 3)), shift=0.01, log_scales=np.zeros(3), g=np.ones(3),
         free=(True, True, True), lam=1e-12)
def test_straight_line_solve_matches_the_identity_row_solve(b, shift, log_scales, g, free, lam):
    # A = D (B^T B + shift I) D with column scales D up to 1e4 either way, as the rates'
    # Jacobian columns differ: in the scaled coordinates A has a condition number below
    # 1.6e3, so both solves lie within about 1.6e3 eps = 3.6e-13 of the exact step there.
    scales = 10.0**log_scales
    a = (b.T @ b + shift * np.eye(3)) * scales * scales[:, None]
    g = np.where(np.abs(g) < 1e-3, 0.0, g)  # no subnormal products, where rounding is coarser
    for damping in (0.0, lam):
        damped = a + damping * np.diag(np.diag(a))
        want = reference.damped_solve(a, g, free, damping)
        # the run passes the free gradient, its frozen entries 0
        got = -np.array(tomography._solve3(damped[np.triu_indices(3)], free, g * free))
        assert np.all(got[~np.array(free)] == 0.0)
        scale = np.abs(want * scales).max()
        assert np.abs((got - want) * scales).max() <= 1e-12 * scale


def test_lm_on_a_zero_jacobian_column_raises_a_linear_algebra_error():
    # A parameter the residuals do not depend on leaves A singular: the run raises
    # np.linalg.LinAlgError (a ValueError would do), never ZeroDivisionError or NaN.
    fun = _linear([1.0, -2.0, 0.5, 3.0, -1.5], _A * [1.0, 0.0, 1.0])
    with pytest.raises((np.linalg.LinAlgError, ValueError)):
        _levenberg_marquardt(fun, np.array([0.3, 0.1, -0.2]), -10 * np.ones(3), 10 * np.ones(3),
                             5)


def test_sweep_b_360_converges():
    # A large-residual Trotter set (RMS 0.318) whose cost still fell by about 2e-14 of
    # itself per iteration long after the fit had settled; a stop on the cost change
    # crawled to the iteration cap.
    fit = global_fit(_trotter_set(18.57, 57.06, 214.86))
    assert fit.converged and fit.evaluations < 101
    assert fit.residual == pytest.approx(0.318, abs=5e-4)


@pytest.mark.parametrize("angles_deg", [(10, 30, 40), (30, 10, 70), (20, 20, 100), (35, 25, 140),
                                        (15, 35, 160), (25, 15, 20), (20, 20, 51.4)])
def test_exact_canonical_curves_stop_after_one_evaluation(angles_deg):
    # The start read from the curves' step is the optimum to round-off, so the first
    # step is under 1e-14 of the row and the run stops before evaluating it.
    fit = global_fit(generate_tomography(
        angle_to_rates(*np.radians(angles_deg), TAU0), TAU0, 13))
    assert fit.converged and fit.evaluations == 1


def _nudged(ts, direction):
    """ts with every point moved one ulp toward direction."""
    return TomographySet(ts.dt, np.nextafter(ts.curves, direction), shots=ts.shots)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("exact", "shot", "trotter")), theta1=st.floats(5.0, 40.0),
       theta2=st.floats(5.0, 40.0), theta3=st.floats(20.0, 160.0), seed=st.integers(0, 2**31))
def test_one_ulp_moves_the_fit_by_under_1e_10(kind, theta1, theta2, theta3, seed):
    # Fit-batch-style sets: the stop point does not move with the last bit of the data.
    if kind == "trotter":
        ts = _trotter_set(theta1, theta2, theta3)
    else:
        rates = angle_to_rates(*np.radians([theta1, theta2, theta3]), TAU0)
        ts = generate_tomography(rates, TAU0, 13, shots=2000 if kind == "shot" else None,
                                 seed=seed)
    fit = global_fit(ts)
    for direction in (np.inf, -np.inf):
        moved = global_fit(_nudged(ts, direction))
        np.testing.assert_allclose([moved.t1, moved.t2, moved.omega],
                                   [fit.t1, fit.t2, fit.omega], rtol=1e-10, atol=0)


def test_fit_standard_errors_match_the_sample_spread():
    # 200 shot-sampled canonical sets: each fitted value's spread over the sets lies
    # within 20% of its median predicted standard error.
    rates = CanonicalRates(gamma1=0.03, gamma_phi=0.02, omega=0.04)
    fits = [global_fit(generate_tomography(rates, TAU0, 13, shots=1000, seed=seed))
            for seed in range(200)]
    assert all(f.at_bound == () for f in fits)
    values = np.array([(f.t1, f.t2, f.omega) for f in fits])
    predicted = np.median([f.stderr for f in fits], axis=0)
    np.testing.assert_allclose(values.std(axis=0, ddof=1) / predicted, 1.0, atol=0.2)


@pytest.mark.parametrize("seed", [3, 4])
def test_fit_standard_errors_match_an_independent_covariance(seed):
    # s^2 (J^T J)^-1 with s^2 = r.r / (M - 3), rebuilt at the kept point from a central-difference
    # Jacobian of the exact curves, carried to T1 and T2 by the delta method. The sample-spread
    # test above allows 20%; a wrong divisor (M for M - 3) moves every error by 0.9% here.
    ts = generate_tomography(CanonicalRates(0.03, 0.02, 0.04), TAU0, 13, shots=1000, seed=seed)
    fit = global_fit(ts)
    assert fit.at_bound == ()
    u = np.array([1 / fit.t1, 1 / fit.t2 - 0.5 / fit.t1, fit.omega])

    def curves(v):
        return generate_tomography(CanonicalRates(*v), TAU0, 13).curves.ravel()

    r = curves(u) - ts.curves.ravel()
    jac = np.stack([(curves(u + 1e-6 * e) - curves(u - 1e-6 * e)) / 2e-6 for e in np.eye(3)], 1)
    cov = np.linalg.inv(jac.T @ jac) * (r @ r / (r.size - 3))
    expected = (fit.t1**2 * np.sqrt(cov[0, 0]),
                fit.t2**2 * np.sqrt(cov[0, 0] / 4 + cov[0, 1] + cov[1, 1]), np.sqrt(cov[2, 2]))
    np.testing.assert_allclose(fit.stderr, expected, rtol=1e-5)


def test_fit_standard_errors_are_none_for_a_value_on_a_face():
    # 1/T1 on its floor: T1 and T2 are bounds, and only omega gets a standard error.
    rates = angle_to_rates(
        *np.radians([48.37255180111569, 14.841168224909438, 169.87152881491664]), TAU0)
    schedule = TrotterSchedule(order=2, n_steps=13, dt=TAU0)
    fit = global_fit(generate_tomography(rates, TAU0, 13,
                                         evolve=lambda rho0: run_schedule(schedule, rates, rho0)))
    assert fit.at_bound == ("gamma1",)
    assert fit.stderr[:2] == (None, None) and fit.stderr[2] > 0


@pytest.mark.parametrize("stderr", [(np.nan, None, None), (None, np.inf, None),
                                    (None, None, -1e-9), (1.0, 1.0)])
def test_fit_result_rejects_bad_standard_errors(stderr):
    with pytest.raises(ValueError, match="standard errors"):
        FitResult(t1=1.0, t2=1.0, omega=0.0, residual=0.0, converged=True, stderr=stderr)


def test_fit_at_the_iteration_cap_is_not_converged(monkeypatch):
    monkeypatch.setattr(tomography, "_LM_MAX_ITER", 1)
    fit = global_fit(_trotter_set(20.0, 20.0, 51.4))
    assert not fit.converged


def test_fit_input_validation():
    rates = rates_from_times(30.0, 20.0, 0.02)
    short = generate_tomography(rates, TAU0, 4)  # 5 points
    with pytest.raises(ValueError, match="^global fit needs at least 6 time points per curve$"):
        global_fit(short)


def test_fit_grid_rule_is_relative_to_the_grid():
    # A 1e150 us grid is fitted as any other, though rounding alone moves its spacings by more
    # than 1e-9 us. Its fit then fails on the curves, not on the grid: every sample after t = 0
    # sits at the steady state, so neither 1/T1 nor the dephasing rate moves them and J^T J is
    # singular.
    rates = CanonicalRates(gamma1=0.03, gamma_phi=0.02, omega=0.05)
    huge = generate_tomography(rates, 1e150, 13)
    assert np.ptp(np.diff(huge.times)) > 1e-9
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        global_fit(huge)


def test_fit_result_physicality_enforced():
    with pytest.raises(ValueError, match="unphysical"):
        FitResult(t1=10.0, t2=25.0, omega=0.0, residual=0.0, converged=True)


# ---------------------------------------------------------- dephasing time


def test_dephasing_time_limit_cases():
    assert dephasing_time(40.0, 80.0) == np.inf
    assert dephasing_time(40.0, 40.0) == pytest.approx(80.0)


def test_dephasing_time_reference_value():
    assert dephasing_time(1 / 0.0090, 35.56) == pytest.approx(42.334, abs=1e-3)


def test_dephasing_time_infinite_and_nan_times():
    assert dephasing_time(np.inf, 5.0) == 5.0
    assert dephasing_time(np.inf, np.inf) == np.inf
    with pytest.raises(ValueError, match="positive"):
        dephasing_time(np.nan, 10.0)
    with pytest.raises(ValueError, match="positive"):
        dephasing_time(10.0, np.nan)


def test_dephasing_time_rejects_unphysical():
    with pytest.raises(ValueError, match="bound"):
        dephasing_time(10.0, 25.0)
    with pytest.raises(ValueError):
        dephasing_time(-1.0, 1.0)
