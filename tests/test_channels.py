"""Tests for Kraus-channel construction and representation conversions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import propagator
from trottersim.linalg import (
    I2,
    KET_0,
    KET_1,
    SIGMA_X,
    dag,
    density,
    rx,
    unvec,
    vec,
)
from trottersim.dilation import (
    NoiseParams,
    damping_circuit,
    dephasing_circuit,
    depolarization_equivalent_time,
    induced_channel,
    rotation_circuit,
)
from trottersim.liouvillian import CanonicalRates, target_trace
from trottersim.channels import (
    KrausChannel,
    apply_channel,
    channel_distance,
    choi_to_kraus,
    compose_channels,
    damping_channel,
    dephasing_channel,
    depolarizing_channel,
    is_cptp,
    to_choi,
    to_superop,
    unitary_channel,
)

PLUS = density(KET_0 + KET_1)
IDENTITY = unitary_channel(np.eye(2))


def choi_oracle(superop, d):
    """Independent oracle: Choi by pushing every basis element through."""
    j = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            eik = np.zeros((d, d), dtype=complex)
            eik[i, k] = 1.0
            j += np.kron(eik, unvec(superop @ vec(eik)))
    return j


def random_channel(rng, d=2, k=3):
    """Random CPTP channel from a Haar-ish isometry."""
    g = rng.standard_normal((d * k, d)) + 1j * rng.standard_normal((d * k, d))
    q, _ = np.linalg.qr(g)
    return KrausChannel(tuple(q[i * d : (i + 1) * d, :] for i in range(k)))


def random_rho(rng, d=2):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    p = a @ dag(a)
    return p / np.trace(p)


# ------------------------------------------------------------ constructors


def test_dephasing_zero_is_identity():
    assert channel_distance(dephasing_channel(0.0, 3.56), IDENTITY) < 1e-14


def test_dephasing_half_coherence():
    ch = dephasing_channel(np.log(2), 1.0)
    out = apply_channel(ch, PLUS)
    np.testing.assert_allclose(out, [[0.5, 0.25], [0.25, 0.5]], atol=1e-12)


def test_dephasing_keeps_populations():
    rng = np.random.default_rng(2)
    for _ in range(20):
        rho = random_rho(rng)
        out = apply_channel(dephasing_channel(rng.random(), rng.random() * 5), rho)
        np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-12)


def test_damping_zero_is_identity():
    assert channel_distance(damping_channel(0.0, 3.56), IDENTITY) < 1e-14


def test_damping_half_life():
    ch = damping_channel(np.log(2), 1.0)
    out = apply_channel(ch, density(KET_1))
    np.testing.assert_allclose(out, np.diag([0.5, 0.5]), atol=1e-12)


def test_damping_full_relaxation():
    rng = np.random.default_rng(3)
    ch = damping_channel(1.0, 1e4)
    for _ in range(5):
        out = apply_channel(ch, random_rho(rng))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-8)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        dephasing_channel(-0.1, 1.0)
    with pytest.raises(ValueError):
        damping_channel(0.1, -1.0)


def test_unitary_channel_basics():
    np.testing.assert_allclose(to_superop(IDENTITY), np.eye(4), atol=1e-14)
    out = apply_channel(unitary_channel(SIGMA_X), density(KET_0))
    np.testing.assert_allclose(out, density(KET_1), atol=1e-14)


def test_half_rabi_cycle_flips_population():
    out = apply_channel(unitary_channel(rx(np.pi)), density(KET_0))
    np.testing.assert_allclose(out, density(KET_1), atol=1e-12)


def test_unitary_channel_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        unitary_channel(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel((0.5 * I2,))


def test_depolarizing_channel():
    rng = np.random.default_rng(5)
    rho = random_rho(rng)
    out = apply_channel(depolarizing_channel(1.0), rho)
    np.testing.assert_allclose(out, I2 / 2, atol=1e-12)
    out = apply_channel(depolarizing_channel(0.3), rho)
    np.testing.assert_allclose(out, 0.7 * rho + 0.3 * I2 / 2, atol=1e-12)
    with pytest.raises(ValueError):
        depolarizing_channel(1.5)


# ------------------------------------------------------- apply and compose


def test_apply_identity():
    rng = np.random.default_rng(7)
    rho = random_rho(rng)
    np.testing.assert_allclose(apply_channel(IDENTITY, rho), rho)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_channel(IDENTITY, np.eye(3) / 3)


def test_sequential_dephasing_then_damping():
    deph = dephasing_channel(np.log(2), 1.0)
    damp = damping_channel(np.log(2), 1.0)
    out = apply_channel(damp, apply_channel(deph, PLUS))
    off = 0.25 * np.exp(-np.log(2) / 2)
    np.testing.assert_allclose(out, [[0.75, off], [off, 0.25]], atol=1e-12)
    assert off == pytest.approx(0.17677669529663687)
    # Commuting family: reversed order is identical.
    out_rev = apply_channel(deph, apply_channel(damp, PLUS))
    np.testing.assert_allclose(out, out_rev, atol=1e-14)


def test_compose_channels_matches_sequential_apply():
    rng = np.random.default_rng(11)
    a, b = random_channel(rng), random_channel(rng)
    rho = random_rho(rng)
    combined = compose_channels(a, then=b)
    np.testing.assert_allclose(
        apply_channel(combined, rho), apply_channel(b, apply_channel(a, rho)), atol=1e-12
    )


def test_apply_preserves_state_invariants():
    rng = np.random.default_rng(13)
    families = [
        dephasing_channel(0.3, 1.7),
        damping_channel(0.2, 2.5),
        unitary_channel(rx(0.8)),
        depolarizing_channel(0.15),
    ]
    for ch in families:
        for _ in range(1000):
            rho = random_rho(rng)
            out = apply_channel(ch, rho)
            assert np.abs(out - dag(out)).max() < 1e-12
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert np.linalg.eigvalsh((out + dag(out)) / 2).min() > -1e-10


# ------------------------------------------------------------- conversions


def test_identity_choi_matrix():
    j = to_choi(IDENTITY)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for k in range(2):
            eik = np.zeros((2, 2), dtype=complex)
            eik[i, k] = 1.0
            expected += np.kron(eik, eik)
    np.testing.assert_allclose(j, expected, atol=1e-14)
    assert np.linalg.matrix_rank(j) == 1
    assert np.trace(j) == pytest.approx(2.0)


def test_complete_dephasing_choi_rank_two():
    ch = dephasing_channel(1.0, 1e4)  # mu ~ 0
    w = np.linalg.eigvalsh(to_choi(ch))
    assert np.sum(w > 1e-8) == 2


def test_superop_to_choi_matches_basis_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        ch = random_channel(rng)
        s = to_superop(ch)
        np.testing.assert_allclose(to_choi(s), choi_oracle(s, 2), atol=1e-12)
        np.testing.assert_allclose(to_choi(ch), choi_oracle(s, 2), atol=1e-12)


def test_kraus_choi_kraus_round_trip():
    rng = np.random.default_rng(19)
    for _ in range(20):
        ch = random_channel(rng, k=int(rng.integers(1, 5)))
        back = choi_to_kraus(to_choi(ch))
        np.testing.assert_allclose(to_superop(back), to_superop(ch), atol=1e-10)


def test_choi_to_kraus_rejects_non_psd():
    j = to_choi(IDENTITY).copy()
    j[0, 0] -= 1.0  # break positivity
    j[3, 3] += 1.0
    with pytest.raises(ValueError, match="PSD"):
        choi_to_kraus(j)


def test_choi_to_kraus_rejects_non_hermitian():
    j = to_choi(IDENTITY).copy()
    j[0, 1] += 1e-11  # within the 1e-10 tolerance: symmetrised, accepted
    back = choi_to_kraus(j)
    np.testing.assert_allclose(to_superop(back), to_superop(IDENTITY), atol=1e-10)
    j[0, 1] += 1e-9
    with pytest.raises(ValueError, match="Hermitian"):
        choi_to_kraus(j)


def test_choi_eigenvalue_cutoff_suppresses_rank_inflation():
    j = to_choi(IDENTITY) + 1e-14 * np.eye(4)
    assert len(choi_to_kraus(j).kraus) == 1


# --------------------------------------------------------------- distance


def test_distance_zero_on_same_channel():
    ch = damping_channel(0.3, 1.0)
    assert channel_distance(ch, ch) == 0.0


def test_distance_identity_vs_bit_flip():
    # Explicit Choi matrices: rank-one projectors onto vec(I) and vec(X),
    # orthogonal with norm 2 each, so the Frobenius distance is 2*sqrt(2).
    d = channel_distance(IDENTITY, unitary_channel(SIGMA_X))
    assert d == pytest.approx(2 * np.sqrt(2), abs=1e-12)


def test_distance_separates_channel_families():
    assert channel_distance(dephasing_channel(np.log(2), 1.0), damping_channel(np.log(2), 1.0)) > 0.1


def test_distance_dim_mismatch():
    with pytest.raises(ValueError):
        channel_distance(IDENTITY, unitary_channel(np.eye(3)))


def test_distance_accepts_superoperators():
    ch = dephasing_channel(0.2, 1.0)
    assert channel_distance(to_superop(ch), ch) < 1e-14


# ------------------------------------------------------------------- CPTP


_RATE_OR_TIME = st.floats(0, 1e3)
_PROBABILITY = st.floats(0, 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@example(gamma_phi=0.0, gamma1=0.0, tau=0.0, p=0.0, theta=0.0, noise=NoiseParams(), seed=0)
@example(gamma_phi=1e3, gamma1=1e3, tau=1e3, p=1.0, theta=np.pi, noise=NoiseParams(1.0, 1.0),
         seed=1)
@given(gamma_phi=_RATE_OR_TIME, gamma1=_RATE_OR_TIME, tau=_RATE_OR_TIME, p=_PROBABILITY,
       theta=st.floats(-2 * np.pi, 2 * np.pi),
       noise=st.builds(NoiseParams, _PROBABILITY, _PROBABILITY), seed=st.integers(0, 2**32 - 1))
def test_constructed_channels_are_cptp(gamma_phi, gamma1, tau, p, theta, noise, seed):
    channels = [
        dephasing_channel(gamma_phi, tau),
        damping_channel(gamma1, tau),
        depolarizing_channel(p),
        unitary_channel(rx(theta)),
        random_channel(np.random.default_rng(seed)),
    ] + [
        induced_channel(circuit(theta), noise=n)
        for circuit in (dephasing_circuit, damping_circuit, rotation_circuit)
        for n in (None, noise)
    ]
    for ch in channels:
        assert is_cptp(ch)


def test_is_cptp_rejects_non_tp_map():
    # A superoperator scaled away from trace preservation.
    s = 0.9 * to_superop(IDENTITY)
    assert not is_cptp(s)


def test_dephasing_damping_superops_commute():
    a = to_superop(dephasing_channel(0.31, 1.3))
    b = to_superop(damping_channel(0.17, 1.3))
    assert np.abs(a @ b - b @ a).max() < 1e-12


def test_kraus_channels_match_liouvillian_propagators():
    gphi, g1, tau = 0.23, 0.41, 1.9
    s_deph = propagator(0.0, gphi, 0.0, tau)
    assert channel_distance(s_deph, dephasing_channel(gphi, tau)) < 1e-10
    s_damp = propagator(g1, 0.0, 0.0, tau)
    assert channel_distance(s_damp, damping_channel(g1, tau)) < 1e-10


_NAN_OP = np.diag([np.nan, 1.0])


@pytest.mark.parametrize("build", [
    lambda: KrausChannel((_NAN_OP,)),
    lambda: unitary_channel(_NAN_OP),
    lambda: dephasing_channel(np.nan, 1.0),
    lambda: dephasing_channel(0.1, np.inf),
    lambda: damping_channel(np.inf, 1.0),
    lambda: damping_channel(0.1, np.nan),
    lambda: target_trace(CanonicalRates(0.03, 0.02), density(KET_1), np.nan, 5),
    lambda: target_trace(CanonicalRates(0.03, 0.02), density(KET_1), np.inf, 5),
    lambda: depolarization_equivalent_time(0.1, np.nan),
    lambda: depolarization_equivalent_time(0.1, np.inf),
], ids=["kraus-nan", "unitary-nan", "dephasing-rate-nan", "dephasing-tau-inf",
        "damping-rate-inf", "damping-tau-nan", "target-tau0-nan", "target-tau0-inf",
        "depolarization-tau0-nan", "depolarization-tau0-inf"])
def test_public_constructors_reject_non_finite_inputs(build):
    with pytest.raises(ValueError):
        build()
