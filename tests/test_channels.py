"""Tests for the elementary channels' Pauli-transfer matrices and the Choi/CPTP oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circuits import circuit_ptm
from reference import (EYE, KET_0, KET_1, SIGMA_X, choi, choi_distance, damping_kraus, density,
                       dephasing_kraus, is_cptp, kraus_superop, propagator, superop_of, unvec,
                       vec)
from trottersim.channels import elementary_ptms
from trottersim.linalg import validate_density_matrix
from trottersim.dilation import CIRCUIT_GATES, NoiseParams, depolarization_equivalent_time
from trottersim.liouvillian import CanonicalRates, target_trace
from trottersim.trotter import TrotterSchedule

PLUS = density(KET_0 + KET_1)


def dephasing(gamma_phi, tau):
    """The package's dephasing Pauli-transfer matrix over tau."""
    return elementary_ptms(CanonicalRates(gamma_phi=gamma_phi), [tau], "kraus", None)[0, 0]


def damping(gamma1, tau):
    """The package's damping Pauli-transfer matrix over tau."""
    return elementary_ptms(CanonicalRates(gamma1=gamma1), [tau], "kraus", None)[0, 1]


def rotation(theta):
    """The package's x rotation by theta, as the drive over one microsecond."""
    return elementary_ptms(CanonicalRates(omega=theta / (2 * np.pi)), [1.0], "kraus", None)[0, 2]


def depolarizing(p):
    """The dilation backend's one depolarization event, rho -> (1-p) rho + p I/2."""
    return superop_of(circuit_ptm("rotation", 0.0, NoiseParams(p_grape=p)))


def choi_oracle(superop, d):
    """Independent oracle: Choi by pushing every basis element through."""
    j = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            eik = np.zeros((d, d), dtype=complex)
            eik[i, k] = 1.0
            j += np.kron(eik, unvec(superop @ vec(eik)))
    return j


def random_kraus(rng, d=2, k=3):
    """Kraus stack of a random CPTP channel from a Haar-ish isometry."""
    g = rng.standard_normal((d * k, d)) + 1j * rng.standard_normal((d * k, d))
    q, _ = np.linalg.qr(g)
    return q.reshape(k, d, d)


def random_rho(rng, d=2):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    p = a @ a.conj().T
    return p / np.trace(p)


# ------------------------------------------------------------ constructors


def test_dephasing_zero_is_identity():
    assert np.linalg.norm(dephasing(0.0, 3.56) - np.eye(4)) < 1e-14


def test_dephasing_half_coherence():
    out = dephasing(np.log(2), 1.0) @ validate_density_matrix(PLUS)
    np.testing.assert_allclose(out, [1.0, 0.5, 0.0, 0.0], atol=1e-12)


def test_dephasing_keeps_populations():
    rng = np.random.default_rng(2)
    for _ in range(20):
        row = validate_density_matrix(random_rho(rng))
        out = dephasing(rng.random(), rng.random() * 5) @ row
        np.testing.assert_allclose(out[[0, 3]], row[[0, 3]], atol=1e-12)


def test_damping_zero_is_identity():
    assert np.linalg.norm(damping(0.0, 3.56) - np.eye(4)) < 1e-14


def test_damping_half_life():
    out = damping(np.log(2), 1.0) @ validate_density_matrix(density(KET_1))
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_damping_full_relaxation():
    rng = np.random.default_rng(3)
    ptm = damping(1.0, 1e4)
    for _ in range(5):
        out = ptm @ validate_density_matrix(random_rho(rng))
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0, 1.0], atol=1e-8)


def test_negative_inputs_rejected():
    # The channels take their rates from CanonicalRates and their durations from
    # TrotterSchedule, which reject negative values.
    with pytest.raises(ValueError):
        CanonicalRates(gamma_phi=-0.1)
    with pytest.raises(ValueError):
        TrotterSchedule(dt=-1.0)


def test_unitary_channel_basics():
    np.testing.assert_allclose(kraus_superop(EYE[None]), np.eye(4), atol=1e-14)
    out = unvec(kraus_superop(SIGMA_X[None]) @ vec(density(KET_0)))
    np.testing.assert_allclose(out, density(KET_1), atol=1e-14)


def test_half_rabi_cycle_flips_population():
    out = rotation(np.pi) @ validate_density_matrix(density(KET_0))
    np.testing.assert_allclose(out, [1.0, 0.0, 0.0, -1.0], atol=1e-12)


def test_depolarizing_channel():
    rng = np.random.default_rng(5)
    rho = random_rho(rng)
    out = unvec(depolarizing(1.0) @ vec(rho))
    np.testing.assert_allclose(out, EYE / 2, atol=1e-12)
    out = unvec(depolarizing(0.3) @ vec(rho))
    np.testing.assert_allclose(out, 0.7 * rho + 0.3 * EYE / 2, atol=1e-12)
    with pytest.raises(ValueError):
        NoiseParams(p_grape=1.5)


# ------------------------------------------------------- apply and compose


def test_apply_identity():
    # At zero rates every elementary channel leaves a state's Bloch row as it is.
    rng = np.random.default_rng(7)
    row = validate_density_matrix(random_rho(rng))
    for ptm in elementary_ptms(CanonicalRates(), [3.56], "kraus", None)[0]:
        np.testing.assert_allclose(ptm @ row, row)


def test_sequential_dephasing_then_damping():
    deph = dephasing(np.log(2), 1.0)
    damp = damping(np.log(2), 1.0)
    plus = validate_density_matrix(PLUS)
    out = damp @ deph @ plus
    off = 0.25 * np.exp(-np.log(2) / 2)
    np.testing.assert_allclose(out, [1.0, 2 * off, 0.0, 0.5], atol=1e-12)
    assert off == pytest.approx(0.17677669529663687)
    # Commuting family: reversed order is identical.
    out_rev = deph @ damp @ plus
    np.testing.assert_allclose(out, out_rev, atol=1e-14)


def test_compose_channels_matches_sequential_apply():
    # The superoperator of the product family {F_j E_k} is the product of the superoperators:
    # the rule by which the dilation contraction grows its Kraus family gate by gate.
    rng = np.random.default_rng(11)
    a, b = random_kraus(rng), random_kraus(rng)
    rho = random_rho(rng)
    combined = kraus_superop(np.array([f @ e for f in b for e in a]))
    np.testing.assert_allclose(
        combined @ vec(rho), kraus_superop(b) @ (kraus_superop(a) @ vec(rho)), atol=1e-12
    )


def test_apply_preserves_state_invariants():
    rng = np.random.default_rng(13)
    families = [
        superop_of(dephasing(0.3, 1.7)),
        superop_of(damping(0.2, 2.5)),
        superop_of(rotation(0.8)),
        depolarizing(0.15),
    ]
    for s in families:
        for _ in range(1000):
            rho = random_rho(rng)
            out = unvec(s @ vec(rho))
            assert np.abs(out - out.conj().T).max() < 1e-12
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() > -1e-10


# ------------------------------------------------------------- conversions


def test_identity_choi_matrix():
    j = choi(np.eye(4))
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
    w = np.linalg.eigvalsh(choi(superop_of(dephasing(1.0, 1e4))))  # mu ~ 0
    assert np.sum(w > 1e-8) == 2


def test_superop_to_choi_matches_basis_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        s = kraus_superop(random_kraus(rng))
        np.testing.assert_allclose(choi(s), choi_oracle(s, 2), atol=1e-12)


# --------------------------------------------------------------- distance


def test_distance_zero_on_same_channel():
    # Two builds of one channel are bit-identical, so dilate-verify's distance is 0 on them.
    rates = CanonicalRates(0.3, 0.2, 0.1)
    for backend in ("kraus", "dilation"):
        a, b = (elementary_ptms(rates, [1.0], backend, None) for _ in range(2))
        assert np.linalg.norm(a - b) == 0.0


def test_distance_identity_vs_bit_flip():
    # Explicit Choi matrices: rank-one projectors onto vec(I) and vec(X),
    # orthogonal with norm 2 each, so the Frobenius distance is 2*sqrt(2); the
    # Pauli-transfer matrices I and diag(1, 1, -1, -1) are as far apart.
    assert choi_distance(np.eye(4), kraus_superop(SIGMA_X[None])) == pytest.approx(
        2 * np.sqrt(2), abs=1e-12)
    assert np.linalg.norm(rotation(np.pi) - np.eye(4)) == pytest.approx(2 * np.sqrt(2), abs=1e-12)


def test_distance_separates_channel_families():
    assert np.linalg.norm(dephasing(np.log(2), 1.0) - damping(np.log(2), 1.0)) > 0.1


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
        superop_of(dephasing(gamma_phi, tau)),
        superop_of(damping(gamma1, tau)),
        depolarizing(p),
        superop_of(rotation(theta)),
        kraus_superop(random_kraus(np.random.default_rng(seed))),
    ] + [
        superop_of(circuit_ptm(kind, theta, n)) for kind in CIRCUIT_GATES for n in (None, noise)
    ]
    for s in channels:
        assert is_cptp(s)


def test_is_cptp_rejects_non_tp_map():
    # A superoperator scaled away from trace preservation.
    assert not is_cptp(0.9 * np.eye(4))


def test_dephasing_damping_superops_commute():
    a = dephasing(0.31, 1.3)
    b = damping(0.17, 1.3)
    assert np.abs(a @ b - b @ a).max() < 1e-12


def test_kraus_channels_match_liouvillian_propagators():
    gphi, g1, tau = 0.23, 0.41, 1.9
    s_deph = propagator(0.0, gphi, 0.0, tau)
    assert choi_distance(s_deph, kraus_superop(dephasing_kraus(gphi, tau))) < 1e-10
    assert choi_distance(s_deph, superop_of(dephasing(gphi, tau))) < 1e-10
    s_damp = propagator(g1, 0.0, 0.0, tau)
    assert choi_distance(s_damp, kraus_superop(damping_kraus(g1, tau))) < 1e-10
    assert choi_distance(s_damp, superop_of(damping(g1, tau))) < 1e-10


# The channels take their rates from CanonicalRates and their durations from TrotterSchedule.
@pytest.mark.parametrize("build", [
    lambda: CanonicalRates(gamma_phi=np.nan),
    lambda: TrotterSchedule(dt=np.inf),
    lambda: CanonicalRates(gamma1=np.inf),
    lambda: TrotterSchedule(dt=np.nan),
    lambda: target_trace(CanonicalRates(0.03, 0.02), density(KET_1), np.nan, 5),
    lambda: target_trace(CanonicalRates(0.03, 0.02), density(KET_1), np.inf, 5),
    lambda: depolarization_equivalent_time(0.1, np.nan),
    lambda: depolarization_equivalent_time(0.1, np.inf),
], ids=["dephasing-rate-nan", "dephasing-tau-inf", "damping-rate-inf", "damping-tau-nan",
        "target-tau0-nan", "target-tau0-inf", "depolarization-tau0-nan",
        "depolarization-tau0-inf"])
def test_public_constructors_reject_non_finite_inputs(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("backend", ["kraus", "dilation"])
@pytest.mark.parametrize("bad", [-1.0, np.inf, -np.inf, np.nan])
def test_elementary_ptms_rejects_a_negative_or_non_finite_duration(backend, bad):
    # Checked before any backend arithmetic: the kraus closed forms turned -1.0 into an
    # expanding dephasing PTM (mu = 1.105) and reported inf as an overflowing drive angle.
    with pytest.raises(ValueError, match=rf"^dt must be nonnegative and finite, got {bad}$"):
        elementary_ptms(CanonicalRates(0.1, 0.1, 0.0), [1.0, bad], backend, None)


@pytest.mark.parametrize("backend, noise, message", [
    ("bogus", None, r"^backend must be one of \('kraus', 'dilation', 'dilation\+noise'\), "
                    r"got 'bogus'$"),
    ("dilation+noise", None, r"^backend 'dilation\+noise' requires noise parameters$"),
    ("kraus", NoiseParams(0.01), r"^backend 'kraus' does not accept noise parameters$"),
    ("dilation", NoiseParams(0.01), r"^backend 'dilation' does not accept noise parameters$"),
], ids=["unknown-backend", "noise-missing", "kraus-with-noise", "dilation-with-noise"])
def test_elementary_ptms_rejects_what_a_schedule_rejects(backend, noise, message):
    # One backend rule, with the same messages: an unknown backend ran the dilation circuits,
    # "dilation+noise" without noise ran noiseless, noise beside "kraus" went unread and noise
    # beside "dilation" ran the noisy circuits.
    for build in (lambda: elementary_ptms(CanonicalRates(0.1, 0.1, 0.1), [1.0], backend, noise),
                  lambda: TrotterSchedule(backend=backend, noise=noise)):
        with pytest.raises(ValueError, match=message):
            build()


@pytest.mark.parametrize("backend", ["kraus", "dilation", "dilation+noise"])
def test_elementary_ptms_of_no_durations_is_an_empty_block(backend):
    # The dilation backends raised IndexError where kraus returned the empty block.
    noise = NoiseParams(0.01, 0.01) if backend == "dilation+noise" else None
    ptms = elementary_ptms(CanonicalRates(0.1, 0.1, 0.1), [], backend, noise)
    assert ptms.shape == (0, 3, 4, 4) and ptms.dtype == float


def test_a_zero_duration_builds_on_every_backend():
    # A zero duration is a channel of no duration on the dilation backends too.
    rates = CanonicalRates(0.1, 0.1, 0.1)
    kraus = elementary_ptms(rates, [0.0, 1.0], "kraus", None)
    assert np.array_equal(kraus[0], np.broadcast_to(np.eye(4), (3, 4, 4)))
    assert np.array_equal(elementary_ptms(rates, [0.0, 1.0], "dilation", None)[0], kraus[0])
    # Injected noise acts at no duration too: a finite, trace-preserving block.
    noisy = elementary_ptms(rates, [0.0], "dilation+noise", NoiseParams(0.01, 0.01))[0]
    assert np.isfinite(noisy).all()
    assert np.array_equal(noisy[:, 0], np.broadcast_to([1.0, 0.0, 0.0, 0.0], (3, 4)))
    assert not np.array_equal(noisy, kraus[0])
