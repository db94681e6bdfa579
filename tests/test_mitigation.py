"""Tests for Richardson zero-noise extrapolation and the damping-scaling study."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from trottersim import cli
from trottersim.dilation import AngleParams, angle_to_rates
from trottersim.liouvillian import CanonicalRates
from trottersim.mitigation import (
    ExtrapolationResult,
    NoisePoint,
    check_scale_factors,
    extrapolate,
    richardson_coeffs,
)
from trottersim.tomography import dephasing_time
from trottersim.trotter import TrotterSchedule

# Ramsey times measured at four damping scale factors.
RAMSEY_POINTS = (
    NoisePoint(c=1.0, value=35.56),
    NoisePoint(c=2.13, value=29.63),
    NoisePoint(c=4.93, value=22.00),
    NoisePoint(c=9.96, value=14.15),
)


# ------------------------------------------------------------ coefficients


def test_coeffs_two_point_solves():
    np.testing.assert_allclose(richardson_coeffs((1, 2), 1), [2.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(
        richardson_coeffs((1, 2.13), 1), [1.88495575, -0.88495575], atol=1e-7
    )
    np.testing.assert_allclose(richardson_coeffs((1,), 0), [1.0], atol=1e-15)


@pytest.mark.parametrize("n", range(5))
def test_coeffs_moment_conditions(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        cs = np.concatenate([[1.0], np.sort(rng.uniform(1.2, 12.0, n))])
        gammas = richardson_coeffs(cs, n)
        for k in range(n + 1):
            target = 1.0 if k == 0 else 0.0
            assert abs(gammas @ cs**k - target) < 1e-8


def test_coeffs_input_errors():
    with pytest.raises(ValueError, match="singular"):
        richardson_coeffs((1.0, 1.0), 1)
    with pytest.raises(ValueError, match="scale factors"):
        richardson_coeffs((1.0,), 1)
    with pytest.raises(ValueError, match="positive"):
        richardson_coeffs((1.0, -2.0), 1)
    for bad in (np.inf, np.nan):  # rejected before any arithmetic or warning
        with pytest.raises(ValueError, match="scale factors must be positive and finite"):
            richardson_coeffs((1.0, bad), 1)
    with pytest.raises(ValueError, match="nonnegative"):
        richardson_coeffs((1.0, 2.0), -1)
    # c^2 overflows: the moments are NaN and the Vandermonde matrix is not finite, so the
    # condition warning reads inf and no overflow or LAPACK warning is raised.
    with warnings.catch_warnings(record=True) as caught, \
            pytest.raises(ValueError, match="moment conditions not met"):
        warnings.simplefilter("always")
        richardson_coeffs((1.0, 1e200, 2e200), 2)
    assert [w.category for w in caught] == [UserWarning]
    assert "condition estimate inf;" in str(caught[0].message)


def test_coeffs_reject_a_moment_residual_above_1e_8():
    # Five factors 1e-3 apart meet their moment conditions only to about 1e-4 in floating
    # point, far above the 1e-8 tolerance and far below an order-one failure.
    cs = (1.0, 1.001, 1.002, 1.003, 1.004)
    gammas = [math.prod(ci / (ci - cj) for ci in cs if ci != cj) for cj in cs]
    residual = max(abs(sum(g * c**k for g, c in zip(gammas, cs)) - (k == 0)) for k in range(5))
    assert 1e-7 < residual < 1e-3
    with pytest.warns(UserWarning, match="condition"), \
            pytest.raises(ValueError, match="moment conditions not met"):
        richardson_coeffs(cs, 4)


def test_coeffs_ill_conditioned_warns():
    with pytest.warns(UserWarning, match="condition"):
        richardson_coeffs((1.0, 1.0 + 1e-9), 1)


# ------------------------------------------------------------- extrapolate


def test_constant_values_recovered_at_any_order():
    pts = [NoisePoint(c, 7.25) for c in (1.0, 2.0, 3.0, 4.0)]
    for n in range(4):
        assert extrapolate(pts, n).estimate == pytest.approx(7.25, rel=1e-12)


def test_ramsey_first_pair_extrapolation():
    res = extrapolate(RAMSEY_POINTS, 1)
    assert res.estimate == pytest.approx(40.81, abs=0.01)
    np.testing.assert_allclose(res.gammas, [1.88495575, -0.88495575], atol=1e-7)


def test_ramsey_all_orders():
    estimates = [extrapolate(RAMSEY_POINTS, n).estimate for n in range(4)]
    np.testing.assert_allclose(
        estimates, [35.56, 40.8077876, 42.1751000, 42.7531478], rtol=1e-7
    )


def test_sigma_propagation():
    pts = [NoisePoint(1.0, 5.0, sigma=1.0), NoisePoint(2.0, 3.0, sigma=1.0)]
    res = extrapolate(pts, 1)
    assert res.sigma_est == pytest.approx(np.sqrt(5.0), rel=1e-12)
    res0 = extrapolate(pts, 0)
    assert res0.sigma_est == pytest.approx(1.0)
    no_sigma = [NoisePoint(1.0, 5.0, sigma=1.0), NoisePoint(2.0, 3.0)]
    assert extrapolate(no_sigma, 1).sigma_est is None


def test_extrapolate_is_linear_in_values():
    rng = np.random.default_rng(8)
    cs = (1.0, 2.13, 4.93)
    v, w = rng.normal(size=3), rng.normal(size=3)
    a, b = 1.7, -0.4
    combo = [NoisePoint(c, a * vi + b * wi) for c, vi, wi in zip(cs, v, w)]
    ev = extrapolate([NoisePoint(c, x) for c, x in zip(cs, v)], 2).estimate
    ew = extrapolate([NoisePoint(c, x) for c, x in zip(cs, w)], 2).estimate
    assert extrapolate(combo, 2).estimate == pytest.approx(a * ev + b * ew, rel=1e-12)


def test_polynomial_exactness():
    rng = np.random.default_rng(17)
    for n in range(1, 5):
        coeffs = rng.normal(size=n + 1)
        cs = np.concatenate([[1.0], np.sort(rng.uniform(1.5, 8.0, n))])
        pts = [NoisePoint(c, np.polyval(coeffs[::-1], c)) for c in cs]
        scale = max(1.0, np.abs(coeffs).max())
        assert abs(extrapolate(pts, n).estimate - coeffs[0]) < 1e-8 * scale


def test_extrapolate_input_errors():
    with pytest.raises(ValueError, match="points"):
        extrapolate(RAMSEY_POINTS[:2], 2)
    with pytest.raises(ValueError, match="c = 1"):
        extrapolate([NoisePoint(2.0, 1.0), NoisePoint(3.0, 1.0)], 1)
    with pytest.raises(ValueError, match="positive"):
        NoisePoint(c=0.0, value=1.0)
    with pytest.raises(ValueError, match="sum to 1"):
        ExtrapolationResult(order=1, gammas=(1.5, 0.5), estimate=0.0)


@pytest.mark.parametrize("field", ["c", "value", "sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_noise_point_rejects_non_finite(field, bad):
    kwargs = {"c": 1.0, "value": 2.0, "sigma": 0.1, field: bad}
    with pytest.raises(ValueError, match=field):
        NoisePoint(**kwargs)


@pytest.mark.parametrize("kwargs, field", [
    ({"estimate": np.nan}, "estimate"),
    ({"estimate": np.inf}, "estimate"),
    ({"order": 1, "gammas": (np.nan, 1.0)}, "gammas"),
    ({"order": 1, "gammas": (np.inf, 1.0)}, "gammas"),
    ({"sigma_est": np.nan}, "sigma_est"),
    ({"sigma_est": np.inf}, "sigma_est"),
    ({"sigma_est": -1.0}, "sigma_est must be nonnegative"),
], ids=["estimate-nan", "estimate-inf", "gammas-nan", "gammas-inf", "sigma_est-nan",
        "sigma_est-inf", "sigma_est-negative"])
def test_extrapolation_result_rejects_non_finite(kwargs, field):
    fields = {"order": 0, "gammas": (1.0,), "estimate": 2.0, "sigma_est": 0.1, **kwargs}
    with pytest.raises(ValueError, match=field):
        ExtrapolationResult(**fields)


# ------------------------------------------------------------------ study
#
# A study is the scale-factor rule, one NoisePoint per factor, then one
# extrapolation per order.


def test_study_order_zero_is_unmitigated():
    cs = (1.0, 2.0, 3.0)
    n_max = check_scale_factors(cs, 2, "c_list")
    points = [NoisePoint(c, 5.0 - c + 0.5 * c**2) for c in cs]
    res = [extrapolate(points, n) for n in range(n_max + 1)]
    assert [r.order for r in res] == [0, 1, 2]
    assert res[0].estimate == pytest.approx(5.0 - 1.0 + 0.5)
    assert res[2].estimate == pytest.approx(5.0, abs=1e-10)


def test_study_input_errors():
    with pytest.raises(ValueError, match="c_list must start with"):
        check_scale_factors((2.0, 4.0), None, "c_list")
    with pytest.raises(ValueError, match="c_list has 2 scale factors"):
        check_scale_factors((1.0, 2.0), 5, "c_list")
    with pytest.raises(ValueError, match=r"^n_max must be >= 0, got -1$"):
        check_scale_factors((1.0, 2.0), -1, "c_list")
    assert check_scale_factors((1.0, 2.0, 4.0), None, "c_list") == 2


def test_study_rejects_a_repeated_factor_before_measuring():
    with pytest.raises(ValueError, match="repeats a scale factor"):
        check_scale_factors((1.0, 2.0, 2.0), None, "c_list")
    assert check_scale_factors((1.0, 2.0, 2.0), 1, "c_list") == 1  # the repeat is never used


def test_damping_scaling_pipeline(tmp_path):
    # Demo 06's study, which reproduce --figure fig3 runs: gamma1 = 0.0090/us, gamma_phi from
    # theta1 = 20 deg, no drive.
    base = CanonicalRates(
        gamma1=0.0090,
        gamma_phi=angle_to_rates(AngleParams.from_degrees(20, 0, 0)).gamma_phi,
        omega=0.0,
    )
    truth = 1.0 / base.gamma_phi  # pure dephasing time at zero damping
    assert cli.main(["reproduce", "--figure", "fig3", "--out", str(tmp_path)]) == cli.EXIT_OK
    fig3 = json.loads((tmp_path / "fig3.json").read_text())
    assert fig3["base_rates"] == {"gamma1_per_us": base.gamma1,
                                  "gamma_phi_per_us": base.gamma_phi, "omega_mhz": 0.0}
    assert fig3["c_list"] == [1.0, 2.13, 4.93, 9.96]
    results = fig3["extrapolations"]
    assert [r["estimate"] for r in results] == [45.51122741162157, 53.08028462997628,
                                                54.909679582117015, 55.56120363068368]
    # Order 0 is the biased raw measurement, higher orders close in on the
    # zero-damping limit monotonically.
    assert results[1]["estimate"] == pytest.approx(truth, rel=0.15)
    errors = [abs(r["estimate"] - truth) for r in results]
    assert errors == sorted(errors, reverse=True)
    assert errors[1] / truth < 0.08


def _unscaled_point(base, **fields):
    """The c = 1 point of the simulated mitigate study at the base rates."""
    cfg = replace(cli.build_config({"c_list": [1.0]}, "mitigate"), rates=base, **fields)
    return cli._payload("mitigate", cfg)["points"][0]["value"]


def test_pipeline_matches_dephasing_time_identity():
    base = CanonicalRates(gamma1=0.0090, gamma_phi=0.0174728, omega=0.0)
    t2_unscaled = _unscaled_point(base)
    assert dephasing_time(1.0 / base.gamma1, t2_unscaled) == pytest.approx(
        1.0 / base.gamma_phi, rel=1e-5
    )


def test_a_mitigate_point_runs_the_given_schedule():
    base = CanonicalRates(gamma1=0.0090, gamma_phi=0.0174728, omega=0.0)
    t2 = _unscaled_point(base, schedule=TrotterSchedule(order=2, n_steps=20, dt=2.0))
    assert t2 == pytest.approx(1.0 / (base.gamma1 / 2 + base.gamma_phi), rel=1e-5)
