"""Tests for the exact evolution of the canonical qubit and its reference generator."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (BLOCH_ROWS, EYE, KET_0, KET_1, SIGMA_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z,
                       closed_form_curves, density, generator, propagator, unvec, vec)
from trottersim.liouvillian import (
    CanonicalRates,
    EvolutionTrace,
    bloch_solution,
    propagate,
    target_trace,
)
from trottersim import liouvillian
from trottersim.tomography import generate_tomography
from trottersim.trotter import _SCAN, TrotterSchedule, _step_stack, permutation_scan

RHO_1 = density(KET_1)


def lindblad_rhs(gamma1, gamma_phi, omega, rho):
    """Independent oracle: evaluate the master-equation right side directly."""
    h = np.pi * omega * SIGMA_X
    out = -1j * (h @ rho - rho @ h)
    for op in (np.sqrt(gamma1 / 2) * SIGMA_MINUS, np.sqrt(gamma_phi) / 2 * SIGMA_Z):
        pos = op.conj().T @ op
        out += 2 * op @ rho @ op.conj().T - pos @ rho - rho @ pos
    return out


def random_rho(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    p = a @ a.conj().T
    return p / np.trace(p)


def test_rates_validation():
    with pytest.raises(ValueError):
        CanonicalRates(gamma1=-0.1)
    with pytest.raises(ValueError):
        CanonicalRates(omega=np.inf)
    r = CanonicalRates(gamma1=0.01, gamma_phi=0.005)
    assert r.t1 == pytest.approx(100.0)
    assert r.t2 == pytest.approx(100.0)
    assert CanonicalRates().t1 == np.inf


# ------------------------------------- the reference generator (tests/reference.py)


def test_dephasing_generator_matrix():
    gphi = 0.37
    s = generator(gamma_phi=gphi)
    # Column stacking orders vec as (rho00, rho10, rho01, rho11).
    np.testing.assert_allclose(s, np.diag([0.0, -gphi, -gphi, 0.0]), atol=1e-14)


def test_superop_matches_direct_rhs_on_random_states():
    rng = np.random.default_rng(101)
    for _ in range(30):
        rates = rng.random(3)
        rho = random_rho(rng)
        np.testing.assert_allclose(
            unvec(generator(*rates) @ vec(rho)), lindblad_rhs(*rates, rho), atol=1e-12
        )


def test_superop_annihilates_trace_and_preserves_hermiticity():
    rng = np.random.default_rng(103)
    s = generator(0.02, 0.01, 0.1)
    # Trace annihilation: vec(I)^dag S = 0.
    np.testing.assert_allclose(vec(EYE).conj() @ s, np.zeros(4), atol=1e-10)
    for _ in range(20):
        rho = random_rho(rng)
        out = unvec(s @ vec(rho))
        assert np.abs(out - out.conj().T).max() < 1e-10


def test_propagator_at_zero_time():
    np.testing.assert_allclose(propagator(0.1, 0.2, 0.3, 0.0), np.eye(4), atol=1e-14)


def test_pure_dephasing_decay():
    gphi, t = 0.21, 4.2
    rho0 = density(KET_0 + KET_1)
    rho_t = unvec(propagator(0.0, gphi, 0.0, t) @ vec(rho0))
    assert rho_t[0, 1] == pytest.approx(0.5 * np.exp(-gphi * t), abs=1e-12)
    assert rho_t[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_damping_half_life():
    g1 = 0.13
    rho_t = unvec(propagator(g1, 0.0, 0.0, np.log(2) / g1) @ vec(RHO_1))
    np.testing.assert_allclose(rho_t, np.diag([0.5, 0.5]), atol=1e-12)


def test_propagator_semigroup_property():
    rates, t1, t2 = (0.05, 0.02, 0.08), 1.7, 3.9
    np.testing.assert_allclose(
        propagator(*rates, t1) @ propagator(*rates, t2), propagator(*rates, t1 + t2), atol=1e-10
    )


def test_propagated_states_stay_physical():
    rng = np.random.default_rng(107)
    for _ in range(10):
        rates = rng.random(3) * [0.5, 0.5, 1.0]
        rho = random_rho(rng)
        for t in (0.1, 1.0, 10.0, 100.0):
            out = unvec(propagator(*rates, t) @ vec(rho))
            assert abs(np.trace(out) - 1.0) < 1e-8
            assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-8


def test_dephasing_and_damping_superops_commute():
    a, b = generator(gamma_phi=0.31), generator(gamma1=0.17)
    assert np.linalg.norm(a @ b - b @ a) < 1e-14


def test_drive_does_not_commute_with_damping():
    a, b = generator(omega=0.1), generator(gamma1=0.17)
    assert np.linalg.norm(a @ b - b @ a) > 1e-6


# ------------------------------------------------------ doubling kernel


def stepped_one_at_a_time(step, cols, n):
    """Reference for propagate: v <- step @ v, one step at a time."""
    out = [np.broadcast_to(cols, (step @ cols).shape)]
    for _ in range(n):
        out.append(step @ out[-1])
    return np.stack(out)


# Non-diagonalizable: a single 4x4 Jordan block with eigenvalue 0.9.
JORDAN_STEP = 0.9 * np.eye(4) + np.eye(4, k=1)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(n=5000, source="jordan", stack=2, rates=[(0.0, 0.0, 0.0)] * 3, order=1, dt=1.0, seed=0)
@example(n=5000, source="dilation", stack=3, order=2, dt=3.56, seed=1,
         rates=[(0.01, 0.02, 0.05), (0.03, 0.0, 0.1), (0.0, 0.05, 0.0)])
@given(
    n=st.integers(1, 5000),
    source=st.sampled_from(["kraus", "dilation", "jordan"]),
    stack=st.integers(1, 3),
    rates=st.lists(st.tuples(st.floats(0, 0.05), st.floats(0, 0.05), st.floats(0, 0.1)),
                   min_size=3, max_size=3),
    order=st.sampled_from([1, 2]),
    dt=st.floats(0.1, 4.0),
    seed=st.integers(0, 2**16),
)
def test_propagate_matches_sequential_stepping(n, source, stack, rates, order, dt, seed):
    if source == "jordan":
        steps = np.stack([JORDAN_STEP] * stack)
    else:
        sched = TrotterSchedule(order=order, dt=dt, backend=source)
        key = [_SCAN.index((order, sched.permutation))]
        steps = np.stack([_step_stack(sched, CanonicalRates(*g), key)[0] for g in rates[:stack]])
    step = steps[0] if stack == 1 else steps  # a single (4, 4) step, or a (K, 4, 4) stack
    rng = np.random.default_rng(seed)
    kets = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    cols = np.stack([vec(density(k)) for k in kets], axis=1)
    fast = propagate(step, cols, n)
    slow = stepped_one_at_a_time(step, cols, n)
    assert fast.shape == (n + 1,) + step.shape[:-2] + (4, 2)
    assert np.abs(fast - slow).max() <= 1e-12 * max(1.0, np.abs(slow).max())


@pytest.mark.parametrize("stack", [1, 3])
def test_propagate_keeps_real_inputs_real(stack):
    # A real Pauli-transfer matrix steps real Bloch rows: no complex round trip.
    rng = np.random.default_rng(stack)
    steps = np.eye(4) + 0.1 * rng.standard_normal((stack, 4, 4))
    cols = rng.standard_normal((4, 2))
    real = propagate(steps, cols, 300)
    assert real.dtype == np.float64 and real.shape == (301, stack, 4, 2)
    slow = stepped_one_at_a_time(steps, cols, 300)
    assert np.abs(real - slow).max() <= 1e-12 * max(1.0, np.abs(slow).max())
    assert propagate(steps, cols.astype(complex), 300).dtype == np.complex128


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 2000),
    stack=st.integers(2, 4),
    width=st.integers(1, 3),
    dtype=st.sampled_from([float, complex]),
    seed=st.integers(0, 2**16),
)
def test_propagate_on_a_stack_equals_each_step_alone(n, stack, width, dtype, seed):
    # Each stack entry is stepped by the same products as a single (d, d) step.
    rng = np.random.default_rng(seed)
    steps = (np.eye(4) + 0.1 * rng.standard_normal((stack, 4, 4))).astype(dtype)
    cols = rng.standard_normal((4, width)).astype(dtype)
    both = propagate(steps, cols, n)
    assert all(np.array_equal(both[:, k], propagate(steps[k], cols, n)) for k in range(stack))


def test_propagate_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        propagate(np.eye(4), np.ones(4), 3)
    with pytest.raises(ValueError):
        propagate(np.eye(4), np.ones((2, 1)), 3)
    with pytest.raises(ValueError):
        propagate(np.eye(4), np.ones((4, 1)), -1)


# ----------------------------------------------------------- target trace


def test_target_trace_no_dynamics():
    tr = target_trace(CanonicalRates(), RHO_1, tau0=3.56, n_steps=5)
    np.testing.assert_allclose(tr.sz, -np.ones(6), atol=1e-12)
    np.testing.assert_allclose(tr.times, 3.56 * np.arange(6))
    assert len(tr) == 6


def test_target_trace_damping_half_steps():
    tau0 = 3.56
    rates = CanonicalRates(gamma1=np.log(2) / tau0)
    tr = target_trace(rates, RHO_1, tau0=tau0, n_steps=3)
    np.testing.assert_allclose(tr.sz, [-1.0, 0.0, 0.5, 0.75], atol=1e-12)


def test_target_trace_rabi_oscillation():
    omega = 0.0301  # MHz, period ~33.2 us
    tau0 = 3.56
    tr = target_trace(CanonicalRates(omega=omega), RHO_1, tau0=tau0, n_steps=13)
    np.testing.assert_allclose(tr.sz, -np.cos(2 * np.pi * omega * tr.times), atol=1e-10)
    np.testing.assert_allclose(tr.sx, np.zeros(14), atol=1e-10)
    assert 1.0 / omega == pytest.approx(33.2, abs=0.1)


def test_target_trace_states_stay_physical():
    rates = CanonicalRates(gamma1=0.02, gamma_phi=0.01, omega=0.05)
    tr = target_trace(rates, density(KET_0 + 1j * KET_1), tau0=2.0, n_steps=20)
    assert np.all(np.linalg.norm(tr.rows[:, 1:], axis=1) <= 1 + 1e-10)


def test_target_trace_input_validation():
    with pytest.raises(ValueError):
        target_trace(CanonicalRates(), RHO_1, tau0=1.0, n_steps=0)
    for bad in (2.5, True):  # 2.5 gave four samples, True one step
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            target_trace(CanonicalRates(), RHO_1, tau0=1.0, n_steps=bad)
    with pytest.raises(ValueError):
        target_trace(CanonicalRates(), RHO_1, tau0=-1.0, n_steps=3)


@pytest.mark.parametrize(
    "rho0, message",
    [(2 * RHO_1, "trace"), (np.array([[0.5, 1.0], [0.0, 0.5]]), "Hermitian"),
     (np.diag([1.5, -0.5]), "negative eigenvalue")],
    ids=["trace", "hermitian", "negative"],
)
def test_target_trace_rejects_a_non_density_matrix(rho0, message):
    # The closed form evolves the Bloch vector, so it cannot carry a wrong trace
    # along as the linear map would: such input is an error, not a quiet change.
    with pytest.raises(ValueError, match=f"rho0 .*{message}"):
        target_trace(CanonicalRates(gamma1=0.1), rho0, tau0=1.0, n_steps=3)


def _rates_case(gamma1, gamma_phi, omega, kind):
    """Rates with omega set by kind: "free" keeps it, "zero" drops every rate
    but gamma_phi and the drive (det M = 0 when omega = 0 too), and "ep+"/"ep-"
    put the (y, z) block on its exceptional point 2 pi omega = +-(G1 - G2)/2."""
    if kind == "zero":
        return CanonicalRates(0.0, gamma_phi, omega)
    a = (gamma1 / 2 - gamma_phi) / 2
    omega = {"free": omega, "ep+": a / (2 * np.pi), "ep-": -a / (2 * np.pi)}[kind]
    return CanonicalRates(gamma1, gamma_phi, omega)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    case=st.tuples(st.sampled_from([0.0, 1e-4, 0.03, 0.5]) | st.floats(0.0, 0.5),
                   st.sampled_from([0.0, 1e-4, 0.03, 0.5]) | st.floats(0.0, 0.5),
                   st.floats(-0.2, 0.2), st.sampled_from(("free", "zero", "ep+", "ep-"))),
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    radius=st.floats(0.0, 1.0),
    tau0=st.floats(0.1, 10.0),
    n_steps=st.integers(1, 40),
)
@example(case=(0.0, 0.0, 0.0, "zero"), direction=(0.3, -0.2, 0.9), radius=0.7,
         tau0=3.56, n_steps=13)
@example(case=(0.0, 0.02, 0.0, "zero"), direction=(0.0, 0.0, 0.0), radius=0.0,
         tau0=3.56, n_steps=13)
@example(case=(0.05, 0.0, 0.0, "ep-"), direction=(1.0, 1.0, -1.0), radius=1.0,
         tau0=3.56, n_steps=13)
def test_target_trace_matches_the_general_propagator(case, direction, radius, tau0, n_steps):
    # Arbitrary rho0, mixed ones included, against expm of the Lindblad
    # superoperator at each sample time, applied to vec(rho0) directly.
    rates = _rates_case(*case)
    d = np.array(direction)
    bloch = radius * d / np.linalg.norm(d) if np.linalg.norm(d) > 1e-3 else np.zeros(3)
    rho0 = (EYE + bloch[0] * SIGMA_X + bloch[1] * SIGMA_Y + bloch[2] * SIGMA_Z) / 2
    tr = target_trace(rates, rho0, tau0, n_steps)
    row = rates.gamma1, rates.gamma_phi, rates.omega
    want = np.array([np.real(BLOCH_ROWS[1:] @ (propagator(*row, t) @ vec(rho0)))
                     for t in tr.times])
    np.testing.assert_allclose(tr.rows[:, 1:], want, rtol=0, atol=1e-12)


_BOUNDARY_CASES = [(2.733167e-4, 0.0, 0.0, "free"), (2.733173e-4, 0.0, 0.0, "free"),
                   (0.2, 0.1, 1.087493e-05, "free"), (0.2, 0.1, 1.087495e-05, "free"),
                   (0.1, 0.05, 0.0, "free")]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cases=st.lists(st.tuples(st.sampled_from([0.0, 1e-4, 0.03, 0.5]) | st.floats(0.0, 0.5),
                             st.sampled_from([0.0, 1e-4, 0.03, 0.5]) | st.floats(0.0, 0.5),
                             st.floats(-0.2, 0.2),
                             st.sampled_from(("free", "zero", "ep+", "ep-"))),
                   min_size=1, max_size=8),
    starts=st.integers(1, 4),
    tau0=st.floats(0.1, 10.0),
    n_steps=st.integers(0, 60),
    seed=st.integers(0, 2**16),
)
@example(cases=[(0.1, 0.0, 0.0, "free"), (0.02, 0.01, 0.1, "free"), (0.05, 0.0, 0.0, "ep+"),
                (0.05, 0.01, 0.0, "ep-"), (0.0, 0.0, 0.0, "zero"), (0.0, 0.02, 0.0, "zero")],
         starts=4, tau0=3.56, n_steps=13, seed=0)
# Rows on each side of the series boundary |q| t_max^2 = 1e-5 (t_max = 13 * 3.56), s real and
# s imaginary, beside a row with q = 0 exactly.
@example(cases=_BOUNDARY_CASES, starts=4, tau0=3.56, n_steps=13, seed=2)
def test_bloch_solution_on_a_batch_equals_each_row_alone(cases, starts, tau0, n_steps, seed):
    # Real-s and imaginary-s rows, exceptional points and zero rates in one batch: each
    # row takes its own case, so a row's curves do not depend on the rows beside it.
    rates = [_rates_case(*case) for case in cases]
    rows = np.array([[r.gamma1, r.gamma_phi, r.omega] for r in rates])
    rng = np.random.default_rng(seed)
    bloch0 = rng.uniform(-1, 1, (starts, 3)) / np.sqrt(3)
    times = np.arange(n_steps + 1) * tau0
    batch = bloch_solution(rows, bloch0, times)
    assert batch.shape == (len(rows), starts, 3, n_steps + 1)
    assert all(np.array_equal(batch[k], bloch_solution(rows[k : k + 1], bloch0, times)[0])
               for k in range(len(rows)))


_EPS = np.finfo(float).eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    cases=st.lists(st.tuples(st.sampled_from([0.0, 1e-4, 0.5]) | st.floats(0.0, 2.0),
                             st.sampled_from([0.0, 1e-4, 0.5]) | st.floats(0.0, 2.0),
                             st.just(0.0) | st.floats(-1.0, 1.0),
                             st.sampled_from(("free", "zero", "ep+", "ep-"))),
                   min_size=1, max_size=4),
    starts=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3), min_size=1, max_size=5),
    tau0=st.floats(0.01, 8.0),
    n_steps=st.integers(0, 60),
)
# det M = 0 rows (gamma1 = omega = 0, with and without dephasing) beside a row of each case:
# the series at an exceptional point, s real and s imaginary; then each side of the series
# boundary |q| t_max^2 = 1e-5 (t_max = 13 * 3.56) and q = 0 exactly.
@example(cases=[(0.0, 0.0, 0.0, "zero"), (0.0, 0.3, 0.0, "zero"), (0.05, 0.0, 0.0, "ep+"),
                (0.1, 0.0, 0.0, "free"), (0.02, 0.01, 0.1, "free")],
         starts=[(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.3, -0.2, 0.5),
                 (0.0, 0.0, 0.0)], tau0=3.56, n_steps=13)
@example(cases=_BOUNDARY_CASES, starts=[(0.6, 0.0, -0.8)], tau0=3.56, n_steps=13)
def test_curves_match_the_closed_form_in_complex_arithmetic_within_4_eps(cases, starts, tau0,
                                                                        n_steps):
    # bloch_solution on several rows at once, and the kernel's curves row beside its
    # derivatives where det M > 0, each within 4 eps absolute of the closed form taken in
    # complex arithmetic (tests/reference.py), row by row; curves lie in [-1, 1], and 2 eps is
    # the largest gap seen over 40 000 random rows of every case. Both sides take v_ss = 0
    # where det M = 0, where the kernel has no derivatives.
    rows = np.array([[r.gamma1, r.gamma_phi, r.omega] for r in map(_rates_case, *zip(*cases))])
    bloch0 = np.array(starts) / max(1.0, np.linalg.norm(starts, axis=1).max())
    times = np.arange(n_steps + 1) * tau0
    got = bloch_solution(rows, bloch0, times)
    terms = liouvillian._chain_terms(bloch0)
    for k, (g1, rphi, omega) in enumerate(rows.tolist()):
        want = closed_form_curves((g1, rphi, omega), bloch0, times).real
        assert np.abs(got[k] - want).max() <= 4 * _EPS
        w = 2 * math.pi * omega
        if g1 * (g1 / 2 + rphi) + w * w > 0:
            block = liouvillian._bloch_jacobian((g1, rphi, omega), terms, times, times[-1])
            assert np.abs(block[3] - want.ravel()).max() <= 4 * _EPS


def test_curves_stay_finite_where_the_derivatives_overflow():
    # At t = 1e153 the kernel's derivative basis overflows: t^3 in the series at zero rates, and
    # (tC - S)/(2q) with q = -w^2 under a drive of 1e-100 MHz. The curves are finite there, and
    # bloch_solution and the generator read them alone, with no warning (an error here).
    rows, bloch0, times = [[0.0, 0.0, 0.0], [0.0, 0.0, 1e-100]], [[0.6, 0.0, 0.8]], [0.0, 1e153]
    got = bloch_solution(rows, bloch0, times)
    for k, row in enumerate(rows):
        want = closed_form_curves(row, bloch0, times).real
        assert np.abs(got[k] - want).max() <= 4 * _EPS
    curves = generate_tomography(CanonicalRates(omega=1e-100), 1e152, 10).curves
    assert np.isfinite(curves).all() and np.abs(curves).max() <= 1


def test_bloch_solution_rejects_complex_rows():
    # The closed form is real: a complex row, such as a complex-step probe, is refused by name
    # rather than evaluated in complex arithmetic.
    with pytest.raises(ValueError, match="^rows must be real rate rows, got dtype complex128$"):
        bloch_solution([[0.1 + 1e-20j, 0.1, 0.1]], [[0.0, 0.0, 1.0]], [0.0, 1.0])


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_bloch_solution_rejects_negative_or_non_finite_times(bad):
    # A negative time evolved backwards without complaint; NaN and inf gave NaN with warnings.
    with pytest.raises(ValueError, match="times must be finite and nonnegative"):
        bloch_solution([[0.1, 0.1, 0.1]], [[0.0, 0.0, 1.0]], [0.0, bad])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("start, message", [
    ((np.nan, 0.0, 0.0), "contains non-finite entries"),  # gave NaN curves
    ((3.0, 0.0, 1.0), "has negative eigenvalue -1.081e+00"),  # gave <x> = 3 at t = 0
], ids=["nan", "outside-the-ball"])
def test_bloch_solution_rejects_a_start_that_is_not_a_state(start, message):
    # Each start is checked as the Bloch row (1, x, y, z), and named by its index.
    with pytest.raises(ValueError) as info:
        bloch_solution([[0.1, 0.1, 0.1]], [[0.0, 0.0, 1.0], start], [0.0, 1.0])
    assert str(info.value) == f"bloch0[1] {message}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bloch_solution_calls_a_rate_that_is_not_finite_so(bad):
    # A NaN or inf rate was reported as "the closed form overflows", which names no input.
    with pytest.raises(ValueError, match=rf"^rate row 1 is not finite: \[0\.1, {bad}, 0\.1\]$"):
        bloch_solution([[0.1, 0.1, 0.1], [0.1, bad, 0.1]], [[0.0, 0.0, 1.0]], [0.0, 1.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows, bloch0, message", [
    ([[0.1, 0.1, 0.1]], [0.0, 0.0, 1.0], "bloch0 must have shape (S, 3) with S >= 1, got (3,)"),
    ([[0.1, 0.1, 0.1]], [[0.0, 0.0, 1.0, 0.0]],
     "bloch0 must have shape (S, 3) with S >= 1, got (1, 4)"),
    ([[0.1, 0.1, 0.1]], [[0.0, 0.0]], "bloch0 must have shape (S, 3) with S >= 1, got (1, 2)"),
    ([0.1, 0.1, 0.1], [[0.0, 0.0, 1.0]], "rows must have shape (K, 3) with K >= 1, got (3,)"),
    ([[0.1, 0.1]], [[0.0, 0.0, 1.0]], "rows must have shape (K, 3) with K >= 1, got (1, 2)"),
    ([[0.1, 0.1, 0.1, 0.1]], [[0.0, 0.0, 1.0]],
     "rows must have shape (K, 3) with K >= 1, got (1, 4)"),
    (np.zeros((0, 3)), [[0.0, 0.0, 1.0]], "rows must have shape (K, 3) with K >= 1, got (0, 3)"),
    ([[0.1, 0.1, 0.1]], np.zeros((0, 3)), "bloch0 must have shape (S, 3) with S >= 1, got (0, 3)"),
], ids=["flat-start", "start-of-four", "start-of-two", "flat-rates", "rates-of-two",
        "rates-of-four", "no-rates", "no-starts"])
def test_bloch_solution_names_an_argument_of_the_wrong_shape(rows, bloch0, message):
    # These raised an IndexError, unpacking errors that name no input, or unrelated TypeErrors.
    with pytest.raises(ValueError) as info:
        bloch_solution(rows, bloch0, [0.0, 1.0])
    assert str(info.value) == message


def test_evolution_trace_shape_check():
    # Rows of five entries; split columns of unequal lengths can no longer be passed.
    with pytest.raises(ValueError, match=r"^rows must be an \(N\+1, 4\) block, got shape"):
        EvolutionTrace(1.0, np.zeros((3, 5)))


_ROWS3 = np.tile([1.0, 0.0, 0.0, -1.0], (3, 1))


@pytest.mark.parametrize("dt, rows, message", [
    (np.nan, _ROWS3, "dt must be positive and finite, got nan"),
    (np.inf, _ROWS3, "dt must be positive and finite, got inf"),
    (0.0, _ROWS3, "dt must be positive and finite, got 0.0"),
    (-1.0, _ROWS3, "dt must be positive and finite, got -1.0"),
    (1.0, np.where(np.eye(3, 4), np.nan, _ROWS3), "rows contains non-finite entries"),
    (1.0, np.where(np.eye(3, 4), -np.inf, _ROWS3), "rows contains non-finite entries"),
    (1.0, _ROWS3[:, :3], "rows must be an (N+1, 4) block, got shape (3, 3)"),
    (1.0, _ROWS3[0], "rows must be an (N+1, 4) block, got shape (4,)"),
    (1.0, _ROWS3[:0], "rows must be an (N+1, 4) block, got shape (0, 4)"),
    (1e308, _ROWS3, "N * dt must be below 1.34e154, got 2 * 1e+308"),
    (1.0, _ROWS3 + 1e-3j, "rows must be real, got dtype complex128"),
], ids=["dt-nan", "dt-inf", "dt-zero", "dt-negative", "rows-nan", "rows-inf", "rows-n-by-3",
        "rows-1d", "rows-empty", "last-time-overflows", "rows-complex"])
def test_evolution_trace_rejects_what_it_cannot_represent(dt, rows, message):
    # The record is a step and finite real Bloch rows: a NaN or inf in either, rows of another
    # shape or complex rows (a float conversion dropped the imaginary part, with a
    # ComplexWarning), or a last time past the span rule cannot be built, and each error names its
    # field.
    with pytest.raises(ValueError) as info:
        EvolutionTrace(dt, rows)
    assert str(info.value) == message


def test_evolution_trace_keeps_its_rows_without_a_copy():
    rows = _ROWS3.copy()
    trace = EvolutionTrace(2, rows, label="held")
    assert np.shares_memory(trace.rows, rows) and trace.dt == 2.0 and type(trace.dt) is float
    assert len(trace) == 3 and trace.times.tolist() == [0.0, 2.0, 4.0]
    EvolutionTrace(1.3e154, rows[:2])  # the last time 1.3e154 is below the span rule's bound


def test_evolution_trace_rows_are_read_only_after_the_check():
    # A write through trace.rows left a checked trace whose sx read NaN. The record holds a
    # read-only view: the producer's block stays writable, and target_trace's rows are guarded.
    rows = _ROWS3.copy()
    trace = EvolutionTrace(1.0, rows)
    for held in (trace.rows, trace.sx, target_trace(CanonicalRates(), np.eye(2) / 2, 1.0, 3).rows):
        with pytest.raises(ValueError, match="read-only"):
            held[1] = np.nan
    rows[1, 1] = 0.5
    assert rows.flags.writeable and trace.sx[1] == 0.5


# -------------------------------------------------- the exact step and the stepped target


def _density_of(r):
    """The density matrix of Bloch vector r."""
    return (EYE + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z) / 2


@st.composite
def exact_rates(draw, kinds=("free", "undamped", "undriven", "zero", "series"),
                gamma1=st.floats(0, 0.1)):
    """Rates of the given kinds: free, undamped (gamma1 = gamma_phi = 0), undriven (omega = 0),
    zero (both), or at the exceptional point w = |a|, where q = a^2 - w^2 vanishes to rounding
    and the exact step takes the series case."""
    kind = draw(st.sampled_from(kinds))
    g1, gamma_phi = draw(gamma1), draw(st.floats(0, 0.1))
    omega = draw(st.floats(-0.2, 0.2))
    if kind in ("undamped", "zero"):
        g1 = gamma_phi = 0.0
    if kind in ("undriven", "zero"):
        omega = 0.0
    if kind == "series":  # a = (G1 - G2)/2 = (g1/2 - gamma_phi)/2 and w = 2 pi omega = |a|
        omega = abs(g1 / 2 - gamma_phi) / (4 * np.pi)
    return CanonicalRates(g1, gamma_phi, omega)


_BALL = st.tuples(*[st.floats(-1, 1)] * 3).map(lambda v: np.array(v) / max(1, np.linalg.norm(v)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(rates=exact_rates(), tau=st.floats(0.01, 5.0), starts=st.lists(_BALL, min_size=1,
                                                                         max_size=4))
def test_exact_step_maps_each_start_to_the_closed_form_at_one_step(rates, tau, starts):
    # E(tau) is affine in the start: its columns are the closed form's images of the start 0
    # and the differences for the axes. Kills E built from undifferenced columns (v_j for
    # v_j - v_0), which differs wherever damping moves the start 0.
    step = liouvillian._exact_step(rates, tau)
    assert step.flags.c_contiguous and step[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    got = step @ np.vstack([np.ones(len(starts)), np.transpose(starts)])
    row = [[rates.gamma1, rates.gamma_phi, rates.omega]]
    want = bloch_solution(row, starts, [tau])[0, :, :, 0]
    np.testing.assert_allclose(got[1:].T, want, rtol=0, atol=1e-15)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rates=exact_rates(gamma1=st.floats(0, 2)), tau=st.floats(1e-3, 50.0))
def test_exact_step_is_the_closed_form_read_out_at_one_step(rates, tau):
    # Entry by entry: column 0 is (1, v_0) and column j is (0, v_j - v_0), with v_0 and v_j the
    # closed form's Bloch vectors at tau from the start 0 and from the axis j, over every case
    # of the closed form (series, s real, s imaginary).
    row = [[rates.gamma1, rates.gamma_phi, rates.omega]]
    v = bloch_solution(row, np.eye(4)[:, 1:], [tau])[0, :, :, 0]
    want = np.eye(4)
    want[1:, 0], want[1:, 1:] = v[0], (v[1:] - v[0]).T
    np.testing.assert_allclose(liouvillian._exact_step(rates, tau), want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("call", [
    lambda rates: target_trace(rates, RHO_1, 1e10, 3),
    lambda rates: permutation_scan(rates, dt=1e10),
], ids=["target_trace", "permutation_scan"])
def test_rates_that_overflow_the_closed_form_are_a_value_error(call):
    # g1 g2 overflows at these rates: the exact step was NaN, which the scan then rejected as
    # a non-finite accuracy. It is a ValueError naming the rates and the step duration.
    with pytest.raises(ValueError, match=r"^the closed form overflows at rates gamma1=1e\+300, "
                                         r"gamma_phi=1e\+300, omega=0\.1 \(t up to 10000000000\.0\)"):
        call(CanonicalRates(1e300, 1e300, 0.1))


def _target_error(rates, tau, n, r):
    """Largest deviation of target_trace from the closed form at its samples t = j*tau."""
    trace = target_trace(rates, _density_of(r), tau, n)
    np.testing.assert_array_equal(trace.times, np.arange(n + 1) * tau)
    exact = bloch_solution([[rates.gamma1, rates.gamma_phi, rates.omega]], [r], trace.times)
    return np.abs(trace.rows[:, 1:] - exact[0, 0].T).max()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rates=exact_rates(("free", "undriven", "zero", "series"), st.floats(0.01, 0.1)),
       tau=st.floats(0.5, 5.0), n=st.integers(1, 10_000), r=_BALL)
@example(rates=CanonicalRates(0.01, 0.0, 0.2), tau=0.5, n=10_000, r=np.array([0.0, 0.6, 0.8]))
def test_target_trace_follows_the_closed_form_at_every_sample(rates, tau, n, r):
    # Stepping E(tau) reproduces the closed form at t = j*tau to 1e-13 where every Bloch
    # component decays by at least gamma1 tau / 2 >= 2.5e-3 per step, and where nothing moves.
    # Kills a target one sample off (its states one step late) and E built from undifferenced
    # columns.
    assert _target_error(rates, tau, n, r) <= 1e-13


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="1e-13 to the closed form is not met where nothing damps")
@pytest.mark.parametrize("rates", [CanonicalRates(0.0, 0.0, 0.2), CanonicalRates(1e-6, 0.0, 0.0)],
                         ids=["undamped", "weakly-damped"])
def test_target_trace_meets_the_closed_form_to_1e_13_where_nothing_damps(rates):
    # A known miss of the 1e-13 tolerance (3e-12 and 1e-12 here): undamped or nearly so, the
    # stepped target carries about n ulps of norm and the closed form |w| t_n ulps of phase
    # from its rounded argument. Strict, so a target that meets the tolerance here shows up.
    assert _target_error(rates, 5.0, 10_000, np.array([0.0, 0.6, 0.8])) <= 1e-13


@pytest.mark.parametrize("call, message", [
    (lambda t: bloch_solution([[0.1, 0.1, 0.1]], [[0.0, 0.0, 1.0]], [0.0, t]),
     "^times must be below 1.34e154, where t\\^2 overflows, got 1e\\+200$"),
    (lambda t: target_trace(CanonicalRates(0.1, 0.1, 0.1), RHO_1, t, 1),
     "^n_steps \\* tau0 must be below 1.34e154, got 1 \\* 1e\\+200$"),
], ids=["bloch_solution", "target_trace"])
def test_times_whose_square_overflows_are_rejected(call, message):
    # t^2 overflows above about 1.34e154, and the series test squares the longest time: such a
    # time is a ValueError, which callers handle, not an OverflowError. bloch_solution checks its
    # free times, target_trace its grid by the span rule, which one step of 1.3e154 obeys.
    call(1.3e154)
    with pytest.raises(ValueError, match=message):
        call(1.0e200)


def test_evolution_traces_compare_by_identity():
    # A trace holds arrays, whose field-wise == has no truth value: traces compare by identity.
    trace = target_trace(CanonicalRates(0.1), RHO_1, 1.0, 3)
    assert (trace == trace) is True
    assert (trace == target_trace(CanonicalRates(0.1), RHO_1, 1.0, 3)) is False
