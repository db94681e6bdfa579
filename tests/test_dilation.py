"""Tests for the ancilla dilation circuits' gate table, the channels they induce, and the angle
mappings."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuits import circuit_ptm
from reference import (EYE, KET_1, PAULI_COLUMNS, SIGMA_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z, choi,
                       choi_distance, circuit_channel, damping_kraus, density, dephasing_kraus,
                       gate_kraus, is_cptp, kraus_superop, partial_trace, propagator, superop_of,
                       unvec, vec)
from trottersim.channels import elementary_ptms
from trottersim.dilation import (
    _CNOT,
    _CZ,
    CIRCUIT_GATES,
    NoiseParams,
    _circuit_ptms,
    angle_to_rates,
    depolarization_equivalent_time,
    rates_to_angles,
)
from trottersim.liouvillian import CanonicalRates
from trottersim.trotter import ALL_LABELS

TAU0 = 3.56
THETA_GRID_DEG = np.arange(5, 90, 5)  # 5..85 degrees


def induced(kind, theta, noise=None):
    """Column-stacking superoperator of the data channel circuit kind induces at angle theta."""
    return superop_of(circuit_ptm(kind, theta, noise))


def _gates(kind, theta):
    """The circuit's (kind, angle) gates before the reset, for the oracles."""
    return [(gate, m * theta) for gate, m in CIRCUIT_GATES[kind]]


# ------------------------------------------------------------------ gates


def test_fixed_gate_ptms_are_those_of_the_reference_unitaries():
    # The CZ and CNOT PTMs the circuits chain are exactly Tr(P_i U P_j U^dag)/4 of the oracle's
    # unitaries, with P_i = s_a (x) s_d at index i = 4a + d. The literal signed-permutation tables
    # also equal Re(V^dag S V)/4 byte for byte, S the unitary's column-stacking superoperator and
    # V's columns vec(P_i), the Paulis read back from PAULI_COLUMNS.
    paulis = [np.kron(a, d) for a in (EYE, SIGMA_X, SIGMA_Y, SIGMA_Z)
              for d in (EYE, SIGMA_X, SIGMA_Y, SIGMA_Z)]
    s = [unvec(column) for column in PAULI_COLUMNS.T]
    v = np.stack([vec(np.kron(a, d)) for a in s for d in s], 1)
    for ptm, kind in ((_CZ, "cz"), (_CNOT, "cnot_ancilla_ctrl")):
        (u,) = gate_kraus(kind, 0.0, "coherent")
        assert np.array_equal(ptm, [[np.trace(p @ u @ q @ u.conj().T).real / 4 for q in paulis]
                                    for p in paulis])
        assert ptm.tobytes() == (np.real(v.conj().T @ kraus_superop(u[None]) @ v) / 4).tobytes()
        assert (np.abs(ptm).sum(axis=0) == 1).all() and (np.abs(ptm).sum(axis=1) == 1).all()


def test_circuit_layouts():
    # One circuit per Trotter label, in the label order; the damping circuit counter-rotates.
    assert tuple(CIRCUIT_GATES) == ALL_LABELS
    assert CIRCUIT_GATES["dephasing"] == (("ancilla_rx", 1), ("cz", 0))
    assert CIRCUIT_GATES["damping"] == (
        ("ancilla_rx", 1), ("cz", 0), ("ancilla_rx", -1), ("cnot_ancilla_ctrl", 0))
    assert CIRCUIT_GATES["rotation"] == (("data_x", 1),)
    assert _gates("damping", 0.4) == [("ancilla_rx", 0.4), ("cz", 0.0), ("ancilla_rx", -0.4),
                                      ("cnot_ancilla_ctrl", 0.0)]


# ------------------------------------------------------- induced channels


def test_zero_angle_circuits_are_identity():
    for kind in CIRCUIT_GATES:
        np.testing.assert_allclose(induced(kind, 0.0), np.eye(4), atol=1e-12)


def test_complete_dephasing_at_right_angle():
    s = induced("dephasing", np.pi / 2)
    rho = unvec(s @ vec(np.array([[0.5, 0.5], [0.5, 0.5]])))
    np.testing.assert_allclose(rho, np.diag([0.5, 0.5]), atol=1e-12)


def test_dephasing_off_diagonal_multiplier_20_degrees():
    s = induced("dephasing", np.radians(20))
    rho = unvec(s @ vec(np.array([[0.5, 0.5], [0.5, 0.5]])))
    assert rho[0, 1].real == pytest.approx(0.5 * 0.93969262, abs=1e-7)


def test_damping_circuit_30_degrees_matches_kraus_pair():
    s = induced("damping", np.radians(30))
    e0 = np.diag([1.0, np.cos(np.radians(30))])
    e1 = np.zeros((2, 2))
    e1[0, 1] = np.sin(np.radians(30))
    assert choi_distance(s, kraus_superop(np.array([e0, e1], dtype=complex))) < 1e-12
    assert e0[1, 1] == pytest.approx(0.86603, abs=1e-5)


def test_damping_circuit_right_angle_fully_relaxes():
    s = induced("damping", np.pi / 2)
    rho = unvec(s @ vec(density(KET_1)))
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("theta_deg", THETA_GRID_DEG)
def test_dephasing_circuit_matches_mapped_channel(theta_deg):
    theta = np.radians(theta_deg)
    gamma_phi = -np.log(2 * np.cos(theta / 2) ** 2 - 1) / TAU0
    d = choi_distance(
        induced("dephasing", theta), kraus_superop(dephasing_kraus(gamma_phi, TAU0))
    )
    assert d < 1e-10


@pytest.mark.parametrize("theta_deg", THETA_GRID_DEG)
def test_damping_circuit_matches_mapped_channel(theta_deg):
    theta = np.radians(theta_deg)
    gamma1 = -np.log(np.cos(theta) ** 2) / TAU0
    d = choi_distance(
        induced("damping", theta), kraus_superop(damping_kraus(gamma1, TAU0))
    )
    assert d < 1e-10


def test_induced_channels_are_cptp():
    rng = np.random.default_rng(31)
    for _ in range(20):
        theta = rng.uniform(0, np.pi / 2)
        for kind in ("dephasing", "damping"):
            assert is_cptp(induced(kind, theta))
            assert is_cptp(induced(kind, theta, NoiseParams(0.01, 0.01)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(list(CIRCUIT_GATES)),
    theta=st.floats(-2 * np.pi, 2 * np.pi),
    p_grape=st.floats(0, 1),
    p_decay=st.floats(0, 1),
    noisy=st.booleans(),
)
def test_measurement_feedforward_equivalence(kind, theta, p_grape, p_decay, noisy):
    # The paper's adaptive step measures the ancilla in z and flips the data where it reads |e>;
    # the circuits' coherent CNOT induces the same channel, with and without injected noise.
    noise = (p_grape, p_decay) if noisy else (0.0, 0.0)
    coherent = circuit_channel(_gates(kind, theta), *noise, adaptive="coherent")
    feedforward = circuit_channel(_gates(kind, theta), *noise, adaptive="feedforward")
    assert np.abs(coherent - feedforward).max() < 1e-12


def test_dephasing_circuit_is_probabilistic_phase_flip():
    for theta in (0.2, 0.9, 1.4):
        s = induced("dephasing", theta)
        p = np.sin(theta / 2) ** 2
        mix = (1 - p) * kraus_superop(EYE[None]) + p * kraus_superop(SIGMA_Z[None])
        assert np.abs(s - mix).max() < 1e-12


def test_rotation_circuit_is_x_rotation():
    theta = np.radians(51.4)
    s = induced("rotation", theta)
    assert choi_distance(s, propagator(0.0, 0.0, theta / (2 * np.pi), 1.0)) < 1e-12


_MIXER = np.outer(EYE.ravel(), EYE.ravel()) / 2  # X -> Tr(X) I/2, vec(I) = I.ravel()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(list(CIRCUIT_GATES)),
    theta=st.floats(-2 * np.pi, 2 * np.pi),
    p_grape=st.floats(0, 1),
    p_decay=st.floats(0, 1),
)
def test_induced_channel_properties(kind, theta, p_grape, p_decay):
    s = induced(kind, theta, NoiseParams(p_grape, p_decay))
    assert is_cptp(s)
    # One depolarization event mixes the data channel with Tr(.) I/2.
    clean = induced(kind, theta, NoiseParams(0.0, p_decay))
    assert np.abs(s - ((1 - p_grape) * clean + p_grape * _MIXER)).max() < 1e-12
    assert np.abs(clean - circuit_channel(_gates(kind, theta), 0.0, p_decay)).max() < 1e-12
    # Ancilla decay after the dephasing circuit's CZ, the last gate before the
    # reset, cannot reach the data; the rotation circuit has no two-qubit gate.
    if kind != "damping":
        no_decay = induced(kind, theta, NoiseParams(p_grape, 0.0))
        assert np.abs(s - no_decay).max() < 1e-12


def _kraus_superop(*kraus):
    """sum_k conj(E_k) (x) E_k; the operators may be rectangular."""
    return sum(np.kron(np.conj(e), e) for e in kraus)


def _superop_reference(gates, noise):
    """The induced channel as a product of 16x16 superoperators on ancilla (x) data: load
    ancilla |g>, each (kind, angle) gate (ancilla decay after each two-qubit gate), then the
    reset that keeps sum_a <a| rho |a>; one depolarization event mixes in Tr(.) I/2 at the end."""
    p = 0.0 if noise is None else noise.p_ancilla_decay
    decay = _kraus_superop(np.kron(np.diag([1.0, np.sqrt(1.0 - p)]), EYE),
                           np.kron(np.sqrt(p) * SIGMA_MINUS, EYE))
    s = _kraus_superop(np.kron(EYE[:, :1], EYE))  # load |g>
    for kind, theta in gates:
        s = _kraus_superop(*gate_kraus(kind, theta, "coherent")) @ s
        if p > 0 and kind in ("cz", "cnot_ancilla_ctrl"):
            s = decay @ s
    s = _kraus_superop(np.kron(EYE[:1], EYE), np.kron(EYE[1:], EYE)) @ s  # <g|, <e|
    p_grape = 0.0 if noise is None else noise.p_grape
    return (1 - p_grape) * s + p_grape * _MIXER @ s


_NOISE_KINDS = st.sampled_from(["off", "decay", "both"])


def _noise(noise_kind, p_grape, p_decay):
    return {"off": None, "decay": NoiseParams(0.0, p_decay),
            "both": NoiseParams(p_grape, p_decay)}[noise_kind]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(list(CIRCUIT_GATES)),
    theta=st.floats(allow_nan=False, allow_infinity=False),
    noise_kind=_NOISE_KINDS,
    p_grape=st.floats(0, 1),
    p_decay=st.floats(0, 1),
)
def test_induced_channel_matches_the_superoperator_composition(
    kind, theta, noise_kind, p_grape, p_decay
):
    # The real PTM chain must reproduce the gate-by-gate 16x16 superoperator
    # product and stay completely positive and trace preserving.
    noise = _noise(noise_kind, p_grape, p_decay)
    s = induced(kind, theta, noise)
    assert np.abs(s - _superop_reference(_gates(kind, theta), noise)).max() <= 1e-14
    j = choi(s)
    assert np.abs(j - j.conj().T).max() <= 1e-14
    assert np.linalg.eigvalsh(j).min() >= -1e-14
    assert np.abs(partial_trace(j, (2, 2), keep=0) - EYE).max() <= 1e-14


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(list(CIRCUIT_GATES)),
    thetas=st.lists(st.floats(-4 * np.pi, 4 * np.pi), min_size=1, max_size=4),
    noise_kind=_NOISE_KINDS,
    p_grape=st.floats(0, 1),
    p_decay=st.floats(0, 1),
)
def test_batched_induced_channels_equal_each_circuit_bit_for_bit(
    kind, thetas, noise_kind, p_grape, p_decay
):
    # The dilation backends chain the PTMs of B circuits of one kind as one batch, from the
    # kind's gate table and its B angles; each batch entry must be exactly the PTM of the same
    # circuit chained alone at its one angle.
    noise = _noise(noise_kind, p_grape, p_decay)
    (batch,) = _circuit_ptms([(CIRCUIT_GATES[kind], np.array(thetas))], noise)
    assert batch.shape == (len(thetas), 4, 4)
    for theta, ptm in zip(thetas, batch):
        assert ptm.tobytes() == circuit_ptm(kind, theta, noise).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rates=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(-1, 1)),
    durations=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=3),
    noise_kind=_NOISE_KINDS,
    p_grape=st.floats(0, 1),
    p_decay=st.floats(0, 1),
)
def test_ptm_chain_matches_the_gate_by_gate_kraus_composition(
    rates, durations, noise_kind, p_grape, p_decay
):
    # The real PTM chain on ancilla (x) data, behind the dilation backends, against the complex
    # Kraus families composed gate by gate.
    noise = _noise(noise_kind, p_grape, p_decay)
    oracle_noise = (0.0, 0.0) if noise is None else (noise.p_grape, noise.p_ancilla_decay)
    rates = CanonicalRates(*rates)
    backend = "dilation" if noise is None else "dilation+noise"
    for dt, ptms in zip(durations, elementary_ptms(rates, durations, backend, noise)):
        for kind, theta, ptm in zip(CIRCUIT_GATES, rates_to_angles(rates, dt), ptms):
            oracle = circuit_channel(_gates(kind, theta), *oracle_noise)
            assert np.abs(superop_of(ptm) - oracle).max() <= 1e-15


# ------------------------------------------------------------------ noise


def test_ancilla_decay_stays_small_relative_to_target():
    # Injected ancilla decay between CZ and CNOT perturbs the damping
    # channel by well under 5% of the channel's distance from identity.
    ident = np.eye(4)
    for theta_deg in (10, 20, 30):
        clean = induced("damping", np.radians(theta_deg))
        noisy = induced("damping", np.radians(theta_deg), NoiseParams(p_ancilla_decay=0.01))
        ratio = choi_distance(noisy, clean) / choi_distance(clean, ident)
        assert ratio < 0.05


def test_depolarization_shrinks_bloch_vector():
    p = 0.02
    s = induced("rotation", 0.0, NoiseParams(p_grape=p))
    rho = unvec(s @ vec(density(KET_1)))
    np.testing.assert_allclose(rho, np.diag([p / 2, 1 - p / 2]), atol=1e-12)


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(p_grape=1.5)
    with pytest.raises(ValueError):
        NoiseParams(p_ancilla_decay=-0.1)


# --------------------------------------------------------- angle mappings


def test_angle_to_rates_zero():
    r = angle_to_rates(0.0, 0.0, 0.0, TAU0)
    assert (r.gamma1, r.gamma_phi, r.omega) == (0.0, 0.0, 0.0)


def test_angle_to_rates_damping_20_degrees():
    r = angle_to_rates(0.0, np.radians(20), 0.0, TAU0)
    assert r.gamma1 == pytest.approx(0.0349452, abs=1e-6)
    assert 1 / r.gamma1 == pytest.approx(28.616, abs=2e-3)


def test_angle_to_rates_rabi_anchor():
    r = angle_to_rates(0.0, 0.0, np.radians(38.6), TAU0)
    assert r.omega * 1e3 == pytest.approx(30.1186, abs=1e-3)  # kHz


def test_angle_to_rates_rejects_domain_boundary():
    # pi/2 itself, and an angle below it that the 1e-12 guard on the logarithm argument rejects.
    for theta in (np.pi / 2, np.pi / 2 - 5e-13):
        with pytest.raises(ValueError, match=r"^theta1 must lie in \[0, pi/2\)"):
            angle_to_rates(theta, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"^theta2 must lie in \[0, pi/2\)"):
            angle_to_rates(0.0, theta, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau0", [2.2e-311, 1e-320, 1e-308])
def test_angle_to_rates_rejects_tau0_that_overflows_the_rates(tau0):
    with pytest.raises(ValueError, match="^tau0 is too small for finite rates"):
        angle_to_rates(*np.radians([20, 89.9999, 51.4]), tau0)


def test_angle_params_range_validation():
    with pytest.raises(ValueError, match="^theta1 must lie in"):
        angle_to_rates(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError, match="^theta2 must lie in"):
        angle_to_rates(0.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="^tau0 must be positive and finite, got 0.0$"):
        angle_to_rates(0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("field", ["theta1", "theta2", "theta3", "tau0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_angle_params_reject_non_finite(field, bad):
    args = {"theta1": 0.0, "theta2": 0.0, "theta3": 0.0, "tau0": TAU0, field: bad}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        angle_to_rates(**args)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta1=st.floats(0, 1.4), theta2=st.floats(0, 1.4), theta3=st.floats(0, 2 * np.pi),
       tau0=st.floats(0.5, 10))
# Hypothesis draws constants found in the source, derandomized too, such as 1e-08 (a literal in
# tomography.py): a small angle's cosine rounds to 1, so acos(e^{-x}) lost every digit of it.
@example(theta1=0.0, theta2=1e-08, theta3=0.0, tau0=1.0)
def test_rates_to_angles_round_trip(theta1, theta2, theta3, tau0):
    back = rates_to_angles(angle_to_rates(theta1, theta2, theta3, tau0), tau0)
    assert back == pytest.approx((theta1, theta2, theta3), abs=1e-10)


def test_rates_to_angles_rejects_a_drive_angle_that_overflows():
    with pytest.raises(ValueError, match="^theta3 must be finite, got inf$"):
        rates_to_angles(CanonicalRates(omega=1e300), 1e10)


def test_effective_rates_ideal_passthrough():
    rates = angle_to_rates(0.0, 0.0, 0.3, TAU0, 114.0, 80.0)
    assert rates.t1 == pytest.approx(114.0)
    assert rates.t2 == pytest.approx(80.0)


def test_effective_rates_with_intrinsic_decay():
    rates = angle_to_rates(0.0, np.radians(20), 0.0, t1_intrinsic=114.0)
    assert rates.t1 == pytest.approx(22.874, abs=2e-3)


def test_effective_rates_combined_formula():
    rates = angle_to_rates(*np.radians([25, 35, 10]))
    assert 1 / rates.t2 == pytest.approx(rates.gamma_phi + rates.gamma1 / 2, rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    angles_deg=st.tuples(st.floats(0, 80), st.floats(0, 80), st.floats(0, 180)),
    t1_intrinsic=st.one_of(st.floats(1.0, 1e3), st.just(np.inf)),
    t2_share=st.floats(0.01, 1.0),
)
def test_effective_rates_matches_rate_sum(angles_deg, t1_intrinsic, t2_share):
    # 1/T1 = gamma1 + 1/T1_intrinsic and 1/T2 = gamma_phi + gamma1/2 + 1/T2_intrinsic
    # whenever T2_intrinsic <= 2*T1_intrinsic.
    angles = np.radians(angles_deg)
    t2_intrinsic = t2_share * 2 * t1_intrinsic if np.isfinite(t1_intrinsic) else 1e3 * t2_share
    chan = angle_to_rates(*angles)
    rates = angle_to_rates(*angles, TAU0, t1_intrinsic, t2_intrinsic)
    assert 1 / rates.t1 == pytest.approx(chan.gamma1 + 1 / t1_intrinsic, rel=1e-12)
    assert 1 / rates.t2 == pytest.approx(
        chan.gamma_phi + chan.gamma1 / 2 + 1 / t2_intrinsic, rel=1e-12
    )
    assert rates.omega == chan.omega


# The last three: a time whose inverse overflows, also as a numpy float, is named too.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t1_intrinsic, t2_intrinsic", [
    (50.0, 100.1), (0.0, 10.0), (np.nan, 10.0), (1e-310, np.inf), (np.inf, 1e-320),
    (1e-300, np.float64(5e-324))])
def test_intrinsic_rates_reject_unphysical_times(t1_intrinsic, t2_intrinsic):
    with pytest.raises(ValueError, match="^t[12]_intrinsic"):
        angle_to_rates(*np.radians([20, 20, 0]), TAU0, t1_intrinsic, t2_intrinsic)


def test_infinite_intrinsic_t2_is_limited_by_intrinsic_t1():
    rates = angle_to_rates(0.0, 0.0, np.radians(30), t1_intrinsic=114.0)
    assert (rates.t1, rates.t2) == pytest.approx((114.0, 228.0))


def test_depolarization_equivalent_time_anchors():
    assert depolarization_equivalent_time(0.01, TAU0) == pytest.approx(354.217, abs=1e-3)
    assert depolarization_equivalent_time(0.02, TAU0) == pytest.approx(176.214, abs=1e-3)
    assert depolarization_equivalent_time(0.0, TAU0) == np.inf
    with pytest.raises(ValueError):
        depolarization_equivalent_time(1.0, TAU0)
