"""Tests for the dense linear-algebra kernel."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import kraus_superop, partial_trace, unvec
from trottersim.linalg import (
    I2,
    KET_0,
    KET_1,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    check_bloch_rows,
    density,
    rx,
    validate_density_matrix,
    vec,
)
from trottersim.dilation import AngleParams, depolarization_equivalent_time, rates_to_angles
from trottersim.liouvillian import CanonicalRates, target_trace
from trottersim.mitigation import NoisePoint
from trottersim.tomography import generate_tomography
from trottersim.trotter import TrotterSchedule, compare_orders, convergence_order


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


# ------------------------------------- partial trace (the oracle's CPTP check uses it)


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    rho_a = density(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    rho_b = density(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    joint = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, (2, 2), 0), rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, (2, 2), 1), rho_b, atol=1e-12)


def test_partial_trace_maximally_mixed():
    np.testing.assert_allclose(
        partial_trace(np.eye(4) / 4, (2, 2), 1), np.eye(2) / 2, atol=1e-14
    )


def test_partial_trace_bell_state():
    phi = (np.kron(KET_0, KET_0) + np.kron(KET_1, KET_1)) / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    np.testing.assert_allclose(partial_trace(rho, (2, 2), 0), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    m = random_complex(rng, 6)
    for keep in (0, 1):
        reduced = partial_trace(m, (2, 3), keep)
        np.testing.assert_allclose(np.trace(reduced), np.trace(m), atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), (2, 3), 0)


def test_partial_trace_preserves_positivity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_complex(rng, 4)
        psd = a @ a.conj().T
        for keep in (0, 1):
            w = np.linalg.eigvalsh(partial_trace(psd, (2, 2), keep))
            assert w.min() >= -1e-10


# ------------------------------------------------------------------- rx


@pytest.mark.parametrize("theta", [0.0, 0.7, -2.1, np.pi, 3 * np.pi / 2, 7.5])
def test_rx_is_the_exponential_of_sigma_x(theta):
    np.testing.assert_allclose(rx(theta), scipy.linalg.expm(-0.5j * theta * SIGMA_X), rtol=0,
                               atol=1e-15)
    np.testing.assert_allclose(rx(theta) @ rx(theta).conj().T, I2, rtol=0, atol=1e-15)


# ------------------------------------------- vec, and the oracle's inverse unvec


def test_vec_column_stacking():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    np.testing.assert_array_equal(vec(m), [1, 3, 2, 4])
    np.testing.assert_array_equal(unvec(vec(m)), m)


def test_vec_superoperator_convention():
    # vec(A rho B) = (B^T kron A) vec(rho), the fixed global convention.
    rng = np.random.default_rng(41)
    for _ in range(25):
        a = random_complex(rng, 3)
        b = random_complex(rng, 3)
        rho = random_complex(rng, 3)
        np.testing.assert_allclose(
            np.kron(b.T, a) @ vec(rho), vec(a @ rho @ b), atol=1e-12
        )


def test_kraus_superop_applies_the_kraus_sum():
    # kraus_superop(E) vec(rho) = vec(sum_k E_k rho E_k^dag) for any stack, complete or not.
    rng = np.random.default_rng(43)
    for k, d in [(1, 2), (3, 2), (4, 2), (2, 4)]:
        ops = np.array([random_complex(rng, d) for _ in range(k)])
        rho = random_complex(rng, d)
        want = sum(e @ rho @ e.conj().T for e in ops)
        np.testing.assert_allclose(kraus_superop(ops) @ vec(rho), vec(want), atol=1e-12)


def test_unvec_rejects_non_square_length():
    with pytest.raises(ValueError):
        unvec(np.arange(5))


# ------------------------------------------------- density-matrix checks


def test_validate_density_matrix_accepts_physical_states():
    rng = np.random.default_rng(43)
    for _ in range(20):
        kets = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        probs = rng.random(3)
        probs /= probs.sum()
        rho = sum(p * density(k) for p, k in zip(probs, kets))
        validate_density_matrix(rho)


def test_validate_density_matrix_returns_the_bloch_rows_of_basis_states():
    assert validate_density_matrix(density(KET_0)).tolist() == [1.0, 0.0, 0.0, 1.0]
    assert validate_density_matrix(density(KET_1)).tolist() == [1.0, 0.0, 0.0, -1.0]
    np.testing.assert_allclose(validate_density_matrix(density(KET_0 + KET_1)), [1, 1, 0, 0],
                               rtol=0, atol=1e-15)


def test_validate_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(2 * density(KET_0))


def test_validate_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(m)


def test_validate_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5])
    with pytest.raises(ValueError, match="negative"):
        validate_density_matrix(m)


@pytest.mark.parametrize(
    "rho, message",
    [
        (np.ones(3), "rho must be square, got shape (3,)"),
        (np.array([[np.nan, 0], [0, 1]]), "rho contains non-finite entries"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "rho is not Hermitian: max deviation 5.000e-01"),
        (2 * density(KET_0), "rho trace deviates from 1 by 1.000e+00"),
        (np.diag([1.5, -0.5]), "rho has negative eigenvalue -5.000e-01"),
        (density(np.ones(4)), "rho must be a 2x2 qubit state, got shape (4, 4)"),
        (np.stack([np.eye(3) / 3] * 5), "rho must be a 2x2 qubit state, got shape (5, 3, 3)"),
    ],
)
def test_validate_density_matrix_single_matrix_messages(rho, message):
    with pytest.raises(ValueError) as excinfo:
        validate_density_matrix(rho)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "rho, message",
    [
        (np.diag([1e308, 1e308]), "rho trace deviates from 1 by inf"),
        (np.array([[0.5, 1e200], [1e200, 0.5]]), "rho has negative eigenvalue -1.000e+200"),
        (np.array([[0.5, 0.85e308 - 0.85e308j], [0.85e308 + 0.85e308j, 0.5]]),
         "rho has negative eigenvalue -inf"),
        (np.array([[0.5, 1.5e308j], [1.5e308, 0.5]]), "rho is not Hermitian: max deviation inf"),
    ],
    ids=["trace-overflows", "bloch-norm-overflows", "bloch-norm-past-the-largest-float",
         "hermiticity-deviation-past-the-largest-float"],
)
def test_validate_density_matrix_names_an_overflowing_row_without_warnings(rho, message):
    # Finite entries whose Hermiticity deviation or Bloch row overflows fail on that check.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            validate_density_matrix(rho)
    assert str(excinfo.value) == message


def test_bloch_row_check_names_a_row_whose_norm_overflows_without_warnings():
    # |r| of the finite row (1, 1.7e308, 1.7e308, 0) overflows to inf.
    rows = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 1.7e308, 1.7e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            check_bloch_rows(rows, lambda index: f"step {index[0]} state")
    assert str(excinfo.value) == "step 1 state has negative eigenvalue -inf"


# The check before its closed form, kept as the reference: the full |m - m^dag|,
# np.trace and eigvalsh, on a matrix of any size.
def reference_invariants(rho):
    finite = np.isfinite(rho).all(axis=(-2, -1))
    safe = np.where(finite[..., None, None], rho, 0)
    herm_err = np.abs(safe - safe.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    tr_err = np.abs(np.trace(safe, axis1=-2, axis2=-1) - 1.0)
    return finite, herm_err, tr_err, np.linalg.eigvalsh(safe).min(axis=-1)


def reference_failure(rho, name):
    """The message the reference check raises, or None when rho passes."""
    finite, herm_err, tr_err, w_min = reference_invariants(rho)
    bad = ~finite | (herm_err > 1e-12) | (tr_err > 1e-10) | (w_min < -1e-10)
    if not bad.any():
        return None
    first = np.unravel_index(np.argmax(bad), bad.shape)
    name = name.format(*first) if first else name
    if not finite[first]:
        return f"{name} contains non-finite entries"
    if herm_err[first] > 1e-12:
        return f"{name} is not Hermitian: max deviation {herm_err[first]:.3e}"
    if tr_err[first] > 1e-10:
        return f"{name} trace deviates from 1 by {tr_err[first]:.3e}"
    return f"{name} has negative eigenvalue {w_min[first]:.3e}"


def assert_same_failure(rho, name):
    try:
        validate_density_matrix(rho, name)
        got = None
    except ValueError as exc:
        got = str(exc)
    want = reference_failure(rho, name)
    if got is None or want is None or "negative eigenvalue" not in want:
        assert got == want
        return
    # Two eigenvalues 1e-15 apart can round to neighbouring four-digit figures.
    head, _, value = want.rpartition(" ")
    assert got.startswith(head + " ")
    assert float(got.rpartition(" ")[2]) == pytest.approx(float(value), rel=1.1e-3)


def bloch_state(r):
    return (I2 + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z) / 2


NON_FINITE = [np.inf, -np.inf, np.nan, complex(0, np.inf), complex(np.nan, 1)]


def draw_bloch_vector(draw, kind):
    """A Bloch vector in ("mixed"), on ("pure") or just outside ("outside") the ball."""
    r = np.array(draw(st.tuples(*[st.floats(-1, 1)] * 3)))
    norm = np.linalg.norm(r)
    if kind == "mixed":
        return r / max(1.0, norm)
    if norm > 1e-3:
        stretch = draw(st.floats(0, 1e-9)) if kind == "outside" else 0.0
        r = r / norm * (1 + stretch)  # stretch 2e-10 puts the smaller eigenvalue at -1e-10
    return r


@st.composite
def qubit_matrices(draw):
    """States in, on and just outside the Bloch ball, or arbitrary complex
    matrices, then perturbed: off-Hermitian, off-trace, non-finite."""
    kind = draw(st.sampled_from(["mixed", "pure", "outside", "arbitrary"]))
    if kind == "arbitrary":
        entries = draw(st.lists(st.complex_numbers(max_magnitude=0.5), min_size=4, max_size=4))
        m = np.array(entries, dtype=complex).reshape(2, 2)
    else:
        m = bloch_state(draw_bloch_vector(draw, kind))
    if draw(st.booleans()):  # trace off by up to 3e-10
        m = m + draw(st.floats(-3e-10, 3e-10)) * I2 / 2
    entry = st.tuples(st.integers(0, 1), st.integers(0, 1))
    if draw(st.integers(0, 2)) == 0:  # one entry off Hermitian by up to 3e-12
        m[draw(entry)] += draw(st.complex_numbers(max_magnitude=3e-12))
    if draw(st.integers(0, 9)) == 0:
        m[draw(entry)] = draw(st.sampled_from(NON_FINITE))
    return m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rho=qubit_matrices())
def test_closed_form_check_matches_the_eigvalsh_reference(rho):
    assert_same_failure(rho, "rho")


@st.composite
def bloch_rows(draw):
    """Bloch rows (c0, x, y, z) in, on and just outside the Bloch ball, off-trace by up
    to 3e-10, with an occasional non-finite entry."""
    r = draw_bloch_vector(draw, draw(st.sampled_from(["mixed", "pure", "outside"])))
    row = np.array([1.0 + (draw(st.floats(-3e-10, 3e-10)) if draw(st.booleans()) else 0.0), *r])
    if draw(st.integers(0, 9)) == 0:
        row[draw(st.integers(0, 3))] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return row


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 4)), data=st.data())
def test_bloch_row_check_matches_the_eigvalsh_reference(shape, data):
    # (K, N, 4) rows against eigvalsh of (c0 I + r.sigma)/2; the error names the first
    # failing (k, j) in C order.
    rows = np.array(data.draw(st.lists(bloch_rows(), min_size=shape[0] * shape[1],
                                       max_size=shape[0] * shape[1]))).reshape(*shape, 4)
    paulis = np.array([I2, SIGMA_X, SIGMA_Y, SIGMA_Z])
    with np.errstate(invalid="ignore"):  # inf * 0 in a non-finite row's matrix
        rho = np.einsum("kji,iab->kjab", rows.astype(complex), paulis) / 2
    try:
        assert check_bloch_rows(rows, lambda kj: f"schedule {kj[0]} step {kj[1]} state") is rows
        got = None
    except ValueError as exc:
        got = str(exc)
    want = reference_failure(rho, "schedule {} step {} state")
    if got is None or want is None or "non-finite" in want:
        assert got == want
        return
    # The matrix trace and eigvalsh round differently from c0 and the closed form.
    head, _, value = want.rpartition(" ")
    assert got.startswith(head + " ")
    assert float(got.rpartition(" ")[2]) == pytest.approx(float(value), rel=1.1e-3)


def _ulps(x, n):
    """x moved by n units in the last place."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@st.composite
def edge_rows(draw):
    """Bloch rows at the check's edges: c0 within two ulps of 1 +- 1e-10, a norm within two
    ulps of c0 + 2e-10 (the eigenvalue bound), a NaN or inf entry, a norm that overflows, or a
    row well inside."""
    kind = draw(st.sampled_from(["trace", "eigenvalue", "non-finite", "overflow", "inside"]))
    axis = draw(st.sampled_from([(1.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.6, 0.0, 0.8),
                                 (0.48, -0.6, 0.64)]))
    c0, norm = 1.0, draw(st.floats(0, 0.999))
    if kind == "trace":
        c0 = _ulps(1 + draw(st.sampled_from([1e-10, -1e-10])), draw(st.integers(-2, 2)))
    elif kind == "eigenvalue":
        c0 = _ulps(1.0, draw(st.integers(-2, 2)))
        norm = _ulps(c0 + 2e-10, draw(st.integers(-2, 2)))
    elif kind == "overflow":
        norm = draw(st.sampled_from([1e155, 1e200, 1.7e308]))
    row = [c0, *(norm * a for a in axis)]
    if kind == "non-finite":
        row[draw(st.integers(0, 3))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return row


def _row_check_outcome(check, rows):
    """(None, rows returned) when check passes rows, else (its message, None)."""
    try:
        return None, check(rows, lambda index: "row " + " ".join(map(str, index))) is rows
    except ValueError as exc:
        return str(exc), None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(shape=st.one_of(st.just(()), st.tuples(st.integers(0, 6)),
                       st.tuples(st.integers(1, 3), st.integers(0, 4))),
       component_major=st.booleans(), data=st.data())
def test_bloch_row_check_matches_the_per_row_reference(shape, component_major, data):
    # One pass of reductions decides the usual all-pass case; the verdict, the first failing
    # index in C order and the message must be those of the plain per-row walk, on rows at
    # both bounds to the ulp, non-finite and overflowing rows, in either memory layout.
    size = math.prod(shape)
    rows = np.array(data.draw(st.lists(edge_rows(), min_size=size, max_size=size)))
    rows = rows.reshape(*shape, 4)
    if component_major:  # as propagate records them: each component contiguous
        rows = np.moveaxis(np.ascontiguousarray(np.moveaxis(rows, -1, 0)), 0, -1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _row_check_outcome(check_bloch_rows, rows)
    assert got == _row_check_outcome(reference.check_bloch_rows, rows)


# ------------------------------------------------------- positive and finite

_POSITIVE_CALLERS = {  # caller -> (the argument it names, the call)
    "generate_tomography": ("tau0", lambda v: generate_tomography(CanonicalRates(), v, 13)),
    "target_trace": ("tau0", lambda v: target_trace(CanonicalRates(), density(KET_1), v, 5)),
    "depolarization_equivalent_time": ("tau0", lambda v: depolarization_equivalent_time(0.1, v)),
    "TrotterSchedule": ("dt", lambda v: TrotterSchedule(dt=v)),
    "AngleParams": ("tau0", lambda v: AngleParams(tau0=v)),
    "rates_to_angles": ("tau0", lambda v: rates_to_angles(CanonicalRates(0.03, 0.02, 0.01), v)),
    "convergence_order": ("t_total", lambda v: convergence_order(TrotterSchedule(),
                                                                  CanonicalRates(), t_total=v)),
    "compare_orders": ("dt", lambda v: compare_orders(CanonicalRates(), dt=v)),
    "NoisePoint": ("c", lambda v: NoisePoint(c=v, value=1.0)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
@pytest.mark.parametrize("caller", sorted(_POSITIVE_CALLERS))
def test_step_lengths_must_be_positive_and_finite(caller, bad):
    # check_positive names the argument before any arithmetic: a bare `tau0 <= 0`
    # test lets NaN and inf through to a later check that names theta3 instead, and a
    # length divided before its check is reported under another name and value.
    name, call = _POSITIVE_CALLERS[caller]
    with pytest.raises(ValueError, match=rf"^{name} must be positive and finite, got {bad}$"):
        call(bad)
