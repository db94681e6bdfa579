"""Tests for ancilla dilation circuits, induced channels, and angle mappings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (EYE, SIGMA_MINUS, SIGMA_X, SIGMA_Y, SIGMA_Z, choi, choi_distance,
                       circuit_channel, damping_kraus, dephasing_kraus, gate_kraus, is_cptp,
                       kraus_superop, partial_trace, propagator, superop_of, unvec)
from trottersim.channels import elementary_ptms
from trottersim.dilation import (
    AngleParams,
    DilationCircuit,
    Gate,
    NoiseParams,
    _CIRCUIT_GATES,
    _CNOT,
    _CZ,
    _circuit_ptms,
    angle_to_rates,
    damping_circuit,
    dephasing_circuit,
    depolarization_equivalent_time,
    effective_rates,
    induced_channel,
    rates_to_angles,
    rotation_circuit,
)
from trottersim.linalg import KET_1, density, vec
from trottersim.liouvillian import BLOCH_ROWS, CanonicalRates

TAU0 = 3.56
THETA_GRID_DEG = np.arange(5, 90, 5)  # 5..85 degrees


# ------------------------------------------------------------------ gates


def test_fixed_gate_ptms_are_those_of_the_reference_unitaries():
    # The CZ and CNOT PTMs the circuits chain are exactly Tr(P_i U P_j U^dag)/4 of the oracle's
    # unitaries, with P_i = s_a (x) s_d at index i = 4a + d.
    paulis = [np.kron(a, d) for a in (EYE, SIGMA_X, SIGMA_Y, SIGMA_Z)
              for d in (EYE, SIGMA_X, SIGMA_Y, SIGMA_Z)]
    for ptm, kind in ((_CZ, "cz"), (_CNOT, "cnot_ancilla_ctrl")):
        (u,) = gate_kraus(kind, 0.0, "coherent")
        assert np.array_equal(ptm, [[np.trace(p @ u @ q @ u.conj().T).real / 4 for q in paulis]
                                    for p in paulis])


def test_unknown_gate_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        Gate("hadamard")


def test_circuit_requires_single_trailing_reset():
    with pytest.raises(ValueError, match="reset"):
        DilationCircuit((Gate("cz"),))
    with pytest.raises(ValueError, match="reset"):
        DilationCircuit((Gate("reset_ancilla"), Gate("cz")))
    with pytest.raises(ValueError, match="reset"):
        DilationCircuit(
            (Gate("reset_ancilla"), Gate("cz"), Gate("reset_ancilla"))
        )


def test_circuit_layouts():
    deph = dephasing_circuit(0.3)
    assert [g.kind for g in deph.gates] == ["ancilla_rx", "cz", "reset_ancilla"]
    damp = damping_circuit(0.4)
    assert [g.kind for g in damp.gates] == [
        "ancilla_rx",
        "cz",
        "ancilla_rx",
        "cnot_ancilla_ctrl",
        "reset_ancilla",
    ]
    assert damp.gates[0].theta == pytest.approx(0.4)
    assert damp.gates[2].theta == pytest.approx(-0.4)


# ------------------------------------------------------- induced channels


def test_zero_angle_circuits_are_identity():
    for circ in (dephasing_circuit(0.0), damping_circuit(0.0), rotation_circuit(0.0)):
        s = induced_channel(circ)
        np.testing.assert_allclose(s, np.eye(4), atol=1e-12)


def test_complete_dephasing_at_right_angle():
    s = induced_channel(dephasing_circuit(np.pi / 2))
    rho = unvec(s @ vec(np.array([[0.5, 0.5], [0.5, 0.5]])))
    np.testing.assert_allclose(rho, np.diag([0.5, 0.5]), atol=1e-12)


def test_dephasing_off_diagonal_multiplier_20_degrees():
    s = induced_channel(dephasing_circuit(np.radians(20)))
    rho = unvec(s @ vec(np.array([[0.5, 0.5], [0.5, 0.5]])))
    assert rho[0, 1].real == pytest.approx(0.5 * 0.93969262, abs=1e-7)


def test_damping_circuit_30_degrees_matches_kraus_pair():
    s = induced_channel(damping_circuit(np.radians(30)))
    e0 = np.diag([1.0, np.cos(np.radians(30))])
    e1 = np.zeros((2, 2))
    e1[0, 1] = np.sin(np.radians(30))
    assert choi_distance(s, kraus_superop(np.array([e0, e1], dtype=complex))) < 1e-12
    assert e0[1, 1] == pytest.approx(0.86603, abs=1e-5)


def test_damping_circuit_right_angle_fully_relaxes():
    s = induced_channel(damping_circuit(np.pi / 2))
    rho = unvec(s @ vec(density(KET_1)))
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("theta_deg", THETA_GRID_DEG)
def test_dephasing_circuit_matches_mapped_channel(theta_deg):
    theta = np.radians(theta_deg)
    gamma_phi = -np.log(2 * np.cos(theta / 2) ** 2 - 1) / TAU0
    d = choi_distance(
        induced_channel(dephasing_circuit(theta)), kraus_superop(dephasing_kraus(gamma_phi, TAU0))
    )
    assert d < 1e-10


@pytest.mark.parametrize("theta_deg", THETA_GRID_DEG)
def test_damping_circuit_matches_mapped_channel(theta_deg):
    theta = np.radians(theta_deg)
    gamma1 = -np.log(np.cos(theta) ** 2) / TAU0
    d = choi_distance(
        induced_channel(damping_circuit(theta)), kraus_superop(damping_kraus(gamma1, TAU0))
    )
    assert d < 1e-10


def test_induced_channels_are_cptp():
    rng = np.random.default_rng(31)
    for _ in range(20):
        theta = rng.uniform(0, np.pi / 2)
        for circ in (dephasing_circuit(theta), damping_circuit(theta)):
            assert is_cptp(induced_channel(circ))
            assert is_cptp(
                induced_channel(circ, noise=NoiseParams(0.01, 0.01))
            )


def test_measurement_feedforward_equivalence():
    for theta_deg in (10, 30, 55, 80):
        circ = damping_circuit(np.radians(theta_deg))
        coherent = induced_channel(circ, adaptive="coherent")
        feedforward = induced_channel(circ, adaptive="feedforward")
        assert np.abs(coherent - feedforward).max() < 1e-12


def test_dephasing_circuit_is_probabilistic_phase_flip():
    for theta in (0.2, 0.9, 1.4):
        s = induced_channel(dephasing_circuit(theta))
        p = np.sin(theta / 2) ** 2
        mix = (1 - p) * kraus_superop(EYE[None]) + p * kraus_superop(SIGMA_Z[None])
        assert np.abs(s - mix).max() < 1e-12


def test_rotation_circuit_is_x_rotation():
    theta = np.radians(51.4)
    s = induced_channel(rotation_circuit(theta))
    assert choi_distance(s, propagator(0.0, 0.0, theta / (2 * np.pi), 1.0)) < 1e-12


_CIRCUITS = {
    "dephasing": dephasing_circuit,
    "damping": damping_circuit,
    "rotation": rotation_circuit,
}
_MIXER = np.outer(EYE.ravel(), EYE.ravel()) / 2  # X -> Tr(X) I/2, vec(I) = I.ravel()


def _gates(circuit):
    """The circuit's (kind, theta) pairs before the reset."""
    return [(g.kind, g.theta) for g in circuit.gates[:-1]]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(_CIRCUITS)),
    theta=st.floats(-2 * np.pi, 2 * np.pi),
    p_grape=st.floats(0, 1),
    p_decay=st.floats(0, 1),
    adaptive=st.sampled_from(["coherent", "feedforward"]),
)
def test_induced_channel_properties(kind, theta, p_grape, p_decay, adaptive):
    circuit = _CIRCUITS[kind](theta)
    noise = NoiseParams(p_grape, p_decay)
    s = induced_channel(circuit, noise, adaptive)
    assert is_cptp(s)
    other = "feedforward" if adaptive == "coherent" else "coherent"
    assert np.abs(s - induced_channel(circuit, noise, other)).max() < 1e-12
    # One depolarization event mixes the data channel with Tr(.) I/2.
    clean = induced_channel(circuit, NoiseParams(0.0, p_decay), adaptive)
    assert np.abs(s - ((1 - p_grape) * clean + p_grape * _MIXER)).max() < 1e-12
    assert np.abs(clean - circuit_channel(_gates(circuit), 0.0, p_decay, adaptive)).max() < 1e-12
    # Ancilla decay after the dephasing circuit's CZ, the last gate before the
    # reset, cannot reach the data; the rotation circuit has no two-qubit gate.
    if kind != "damping":
        no_decay = induced_channel(circuit, NoiseParams(p_grape, 0.0), adaptive)
        assert np.abs(s - no_decay).max() < 1e-12


def _kraus_superop(*kraus):
    """sum_k conj(E_k) (x) E_k; the operators may be rectangular."""
    return sum(np.kron(np.conj(e), e) for e in kraus)


def _superop_reference(circuit, noise, adaptive):
    """The induced channel as a product of 16x16 superoperators on ancilla (x) data: load
    ancilla |g>, each gate (ancilla decay after each two-qubit gate), then the reset that
    keeps sum_a <a| rho |a>; one depolarization event mixes in Tr(.) I/2 at the end."""
    p = 0.0 if noise is None else noise.p_ancilla_decay
    decay = _kraus_superop(np.kron(np.diag([1.0, np.sqrt(1.0 - p)]), EYE),
                           np.kron(np.sqrt(p) * SIGMA_MINUS, EYE))
    s = _kraus_superop(np.kron(EYE[:, :1], EYE))  # load |g>
    for gate in circuit.gates[:-1]:
        s = _kraus_superop(*gate_kraus(gate.kind, gate.theta, adaptive)) @ s
        if p > 0 and gate.kind in ("cz", "cnot_ancilla_ctrl"):
            s = decay @ s
    s = _kraus_superop(np.kron(EYE[:1], EYE), np.kron(EYE[1:], EYE)) @ s  # <g|, <e|
    p_grape = 0.0 if noise is None else noise.p_grape
    return (1 - p_grape) * s + p_grape * _MIXER @ s


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(_CIRCUITS)),
    theta=st.floats(allow_nan=False, allow_infinity=False),
    noise_kind=st.sampled_from(["off", "decay", "both"]),
    p_grape=st.floats(0, 1),
    p_decay=st.floats(0, 1),
    adaptive=st.sampled_from(["coherent", "feedforward"]),
)
def test_induced_channel_matches_the_superoperator_composition(
    kind, theta, noise_kind, p_grape, p_decay, adaptive
):
    # The Kraus-family contraction must reproduce the gate-by-gate 16x16
    # superoperator product and stay completely positive and trace preserving.
    noise = {"off": None, "decay": NoiseParams(0.0, p_decay),
             "both": NoiseParams(p_grape, p_decay)}[noise_kind]
    circuit = _CIRCUITS[kind](theta)
    s = induced_channel(circuit, noise, adaptive)
    assert np.abs(s - _superop_reference(circuit, noise, adaptive)).max() <= 1e-14
    j = choi(s)
    assert np.abs(j - j.conj().T).max() <= 1e-14
    assert np.linalg.eigvalsh(j).min() >= -1e-14
    assert np.abs(partial_trace(j, (2, 2), keep=0) - EYE).max() <= 1e-14


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(_CIRCUITS)),
    thetas=st.lists(st.floats(-4 * np.pi, 4 * np.pi), min_size=1, max_size=4),
    noise_kind=st.sampled_from(["off", "decay", "both"]),
    p_grape=st.floats(0, 1),
    p_decay=st.floats(0, 1),
    adaptive=st.sampled_from(["coherent", "feedforward"]),
)
def test_batched_induced_channels_equal_each_circuit_bit_for_bit(
    kind, thetas, noise_kind, p_grape, p_decay, adaptive
):
    # The dilation backends chain the PTMs of B circuits of one kind as one batch, from the
    # kind's gate table and its B angles; each batch entry R must be exactly the PTM of the
    # circuit's own induced_channel, P R P^dag / 2 with P^dag = BLOCH_ROWS.
    noise = {"off": None, "decay": NoiseParams(0.0, p_decay),
             "both": NoiseParams(p_grape, p_decay)}[noise_kind]
    circuits = [_CIRCUITS[kind](theta) for theta in thetas]
    (batch,) = _circuit_ptms([(_CIRCUIT_GATES[kind], np.array(thetas))], noise, adaptive)
    assert batch.shape == (len(circuits), 4, 4)
    for circuit, ptm in zip(circuits, batch):
        superop = BLOCH_ROWS.conj().T @ ptm @ BLOCH_ROWS / 2
        assert superop.tobytes() == induced_channel(circuit, noise, adaptive).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rates=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(-1, 1)),
    durations=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=3),
    noise_kind=st.sampled_from(["off", "decay", "both"]),
    p_grape=st.floats(0, 1),
    p_decay=st.floats(0, 1),
    adaptive=st.sampled_from(["coherent", "feedforward"]),
)
def test_ptm_chain_matches_the_gate_by_gate_kraus_composition(
    rates, durations, noise_kind, p_grape, p_decay, adaptive
):
    # The real PTM chain on ancilla (x) data, behind the dilation backends and
    # induced_channel, against the complex Kraus families composed gate by gate.
    noise = {"off": None, "decay": NoiseParams(0.0, p_decay),
             "both": NoiseParams(p_grape, p_decay)}[noise_kind]
    oracle_noise = (0.0, 0.0) if noise is None else (noise.p_grape, noise.p_ancilla_decay)
    rates = CanonicalRates(*rates)
    backend = "dilation" if noise is None else "dilation+noise"
    for dt, ptms in zip(durations, elementary_ptms(rates, durations, backend, noise)):
        angles = rates_to_angles(rates, dt)
        for kind, theta, ptm in zip(_CIRCUITS, (angles.theta1, angles.theta2, angles.theta3), ptms):
            circuit = _CIRCUITS[kind](theta)
            oracle = circuit_channel(_gates(circuit), *oracle_noise, adaptive)
            assert np.abs(superop_of(ptm) - oracle).max() <= 1e-15
            assert np.abs(induced_channel(circuit, noise, adaptive) - oracle).max() <= 1e-15


def test_run_circuit_rejects_bad_adaptive_mode():
    # The batched contraction that runs the dilation backends' circuits checks the mode too.
    with pytest.raises(ValueError, match="adaptive"):
        _circuit_ptms([(_CIRCUIT_GATES["damping"], np.ones(1))], None, adaptive="magic")


def test_induced_channel_rejects_bad_adaptive_mode():
    with pytest.raises(ValueError, match="adaptive"):
        induced_channel(damping_circuit(0.3), adaptive="magic")


# ------------------------------------------------------------------ noise


def test_ancilla_decay_stays_small_relative_to_target():
    # Injected ancilla decay between CZ and CNOT perturbs the damping
    # channel by well under 5% of the channel's distance from identity.
    ident = np.eye(4)
    for theta_deg in (10, 20, 30):
        circ = damping_circuit(np.radians(theta_deg))
        clean = induced_channel(circ)
        noisy = induced_channel(circ, noise=NoiseParams(p_ancilla_decay=0.01))
        ratio = choi_distance(noisy, clean) / choi_distance(clean, ident)
        assert ratio < 0.05


def test_depolarization_shrinks_bloch_vector():
    p = 0.02
    s = induced_channel(rotation_circuit(0.0), noise=NoiseParams(p_grape=p))
    rho = unvec(s @ vec(density(KET_1)))
    np.testing.assert_allclose(rho, np.diag([p / 2, 1 - p / 2]), atol=1e-12)


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(p_grape=1.5)
    with pytest.raises(ValueError):
        NoiseParams(p_ancilla_decay=-0.1)


# --------------------------------------------------------- angle mappings


def test_angle_to_rates_zero():
    r = angle_to_rates(AngleParams(0.0, 0.0, 0.0, TAU0))
    assert (r.gamma1, r.gamma_phi, r.omega) == (0.0, 0.0, 0.0)


def test_angle_to_rates_damping_20_degrees():
    r = angle_to_rates(AngleParams.from_degrees(0, 20, 0, TAU0))
    assert r.gamma1 == pytest.approx(0.0349452, abs=1e-6)
    assert 1 / r.gamma1 == pytest.approx(28.616, abs=2e-3)


def test_angle_to_rates_rabi_anchor():
    r = angle_to_rates(AngleParams.from_degrees(0, 0, 38.6, TAU0))
    assert r.omega * 1e3 == pytest.approx(30.1186, abs=1e-3)  # kHz


def test_angle_to_rates_rejects_domain_boundary():
    with pytest.raises(ValueError, match="theta1"):
        angle_to_rates(AngleParams(theta1=np.pi / 2))
    with pytest.raises(ValueError, match="theta2"):
        angle_to_rates(AngleParams(theta2=np.pi / 2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau0", [2.2e-311, 1e-320, 1e-308])
def test_angle_to_rates_rejects_tau0_that_overflows_the_rates(tau0):
    params = AngleParams.from_degrees(20, 89.9999, 51.4, tau0)
    with pytest.raises(ValueError, match="tau0"):
        angle_to_rates(params)


def test_angle_params_range_validation():
    with pytest.raises(ValueError):
        AngleParams(theta1=-0.1)
    with pytest.raises(ValueError):
        AngleParams(theta2=2.0)
    with pytest.raises(ValueError):
        AngleParams(tau0=0.0)


@pytest.mark.parametrize("field", ["theta1", "theta2", "theta3", "tau0"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_angle_params_reject_non_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        AngleParams(**{field: bad})


def test_rates_to_angles_round_trip():
    rng = np.random.default_rng(37)
    for _ in range(50):
        params = AngleParams(
            theta1=rng.uniform(0, 1.4),
            theta2=rng.uniform(0, 1.4),
            theta3=rng.uniform(0, 2 * np.pi),
            tau0=rng.uniform(0.5, 10),
        )
        back = rates_to_angles(angle_to_rates(params), params.tau0)
        assert back.theta1 == pytest.approx(params.theta1, abs=1e-10)
        assert back.theta2 == pytest.approx(params.theta2, abs=1e-10)
        assert back.theta3 == pytest.approx(params.theta3, abs=1e-10)


def test_effective_rates_ideal_passthrough():
    rates = effective_rates(AngleParams(0, 0, 0.3), 114.0, 80.0)
    assert rates.t1 == pytest.approx(114.0)
    assert rates.t2 == pytest.approx(80.0)


def test_effective_rates_with_intrinsic_decay():
    rates = effective_rates(AngleParams.from_degrees(0, 20, 0), t1_intrinsic=114.0)
    assert rates.t1 == pytest.approx(22.874, abs=2e-3)


def test_effective_rates_combined_formula():
    params = AngleParams.from_degrees(25, 35, 10)
    rates = angle_to_rates(params)
    t2 = effective_rates(params).t2
    assert 1 / t2 == pytest.approx(rates.gamma_phi + rates.gamma1 / 2, rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    angles_deg=st.tuples(st.floats(0, 80), st.floats(0, 80), st.floats(0, 180)),
    t1_intrinsic=st.one_of(st.floats(1.0, 1e3), st.just(np.inf)),
    t2_share=st.floats(0.01, 1.0),
)
def test_effective_rates_matches_rate_sum(angles_deg, t1_intrinsic, t2_share):
    # 1/T1 = gamma1 + 1/T1_intrinsic and 1/T2 = gamma_phi + gamma1/2 + 1/T2_intrinsic
    # whenever T2_intrinsic <= 2*T1_intrinsic.
    params = AngleParams.from_degrees(*angles_deg)
    t2_intrinsic = t2_share * 2 * t1_intrinsic if np.isfinite(t1_intrinsic) else 1e3 * t2_share
    chan = angle_to_rates(params)
    rates = effective_rates(params, t1_intrinsic, t2_intrinsic)
    assert 1 / rates.t1 == pytest.approx(chan.gamma1 + 1 / t1_intrinsic, rel=1e-12)
    assert 1 / rates.t2 == pytest.approx(
        chan.gamma_phi + chan.gamma1 / 2 + 1 / t2_intrinsic, rel=1e-12
    )
    assert rates.omega == chan.omega


@pytest.mark.parametrize("t1_intrinsic, t2_intrinsic", [(50.0, 100.1), (0.0, 10.0), (np.nan, 10.0)])
def test_intrinsic_rates_reject_unphysical_times(t1_intrinsic, t2_intrinsic):
    with pytest.raises(ValueError):
        effective_rates(AngleParams.from_degrees(20, 20, 0), t1_intrinsic, t2_intrinsic)


def test_infinite_intrinsic_t2_is_limited_by_intrinsic_t1():
    params = AngleParams.from_degrees(0, 0, 30)
    rates = effective_rates(params, t1_intrinsic=114.0)
    assert (rates.t1, rates.t2) == pytest.approx((114.0, 228.0))


def test_depolarization_equivalent_time_anchors():
    assert depolarization_equivalent_time(0.01, TAU0) == pytest.approx(354.217, abs=1e-3)
    assert depolarization_equivalent_time(0.02, TAU0) == pytest.approx(176.214, abs=1e-3)
    assert depolarization_equivalent_time(0.0, TAU0) == np.inf
    with pytest.raises(ValueError):
        depolarization_equivalent_time(1.0, TAU0)
