"""Tests for Richardson zero-noise extrapolation and the damping-scaling study."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trottersim import cli
from trottersim.dilation import angle_to_rates
from trottersim.liouvillian import CanonicalRates
from trottersim.mitigation import (
    ExtrapolationResult,
    NoisePoint,
    check_scale_factors,
    extrapolate,
)
from trottersim.tomography import dephasing_time, global_fit
from trottersim.trotter import TrotterSchedule

# Ramsey times measured at four damping scale factors.
RAMSEY_POINTS = (
    NoisePoint(c=1.0, value=35.56),
    NoisePoint(c=2.13, value=29.63),
    NoisePoint(c=4.93, value=22.00),
    NoisePoint(c=9.96, value=14.15),
)


# ------------------------------------------------------------ coefficients


def _points(cs, value=0.0):
    return [NoisePoint(c, value) for c in cs]


def test_coeffs_two_point_solves():
    assert [r.gammas for r in extrapolate(_points((1, 2)))] == [(1.0,), (2.0, -1.0)]
    np.testing.assert_allclose(
        extrapolate(_points((1, 2.13)))[1].gammas, [1.88495575, -0.88495575], atol=1e-7
    )


@pytest.mark.parametrize("n", range(5))
def test_coeffs_moment_conditions(n):
    # One call on n + 1 factors: order m's weights meet the moment conditions for k <= m.
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        cs = np.concatenate([[1.0], np.sort(rng.uniform(1.2, 12.0, n))])
        for m, result in enumerate(extrapolate(_points(cs))):
            for k in range(m + 1):
                target = 1.0 if k == 0 else 0.0
                assert abs(np.asarray(result.gammas) @ cs[: m + 1] ** k - target) < 1e-8


def test_coeffs_input_errors():
    with pytest.raises(ValueError, match=r"^points repeats a scale factor among the 2 used"):
        extrapolate(_points((1.0, 1.0)))
    with pytest.raises(ValueError, match=r"^points must start with the unscaled factor 1, got 2"):
        extrapolate(_points((2.0, 1.0)))
    with pytest.raises(ValueError, match="got nothing"):
        extrapolate([])
    # c^2 overflows: the moments are NaN and the call raises, without an overflow or LAPACK
    # warning, although orders 0 and 1 alone would succeed.
    with pytest.raises(ValueError, match="moment conditions not met"):
        extrapolate(_points((1.0, 1e200, 2e200)))
    assert extrapolate(_points((1.0, 1e200)))[1].condition == pytest.approx(1e200)


def test_coeffs_reject_a_moment_residual_above_1e_8():
    # Five factors 1e-3 apart meet their moment conditions only to about 1e-4 in floating
    # point, far above the 1e-8 tolerance and far below an order-one failure.
    cs = (1.0, 1.001, 1.002, 1.003, 1.004)
    gammas = [math.prod(ci / (ci - cj) for ci in cs if ci != cj) for cj in cs]
    residual = max(abs(sum(g * c**k for g, c in zip(gammas, cs)) - (k == 0)) for k in range(5))
    assert 1e-7 < residual < 1e-3
    with pytest.raises(ValueError, match="moment conditions not met"):
        extrapolate(_points(cs))


def test_an_ill_conditioned_order_records_its_condition():
    # Two factors 1e-9 apart: the weights still meet their moments, and the result says how
    # far from singular the system is.
    cs = (1.0, 1.0 + 1e-9)
    result = extrapolate(_points(cs))[1]
    assert result.condition == np.linalg.cond(np.array([[1.0, 1.0], list(cs)]))
    assert result.condition == pytest.approx(4e9, rel=1e-7)


# ------------------------------------------------------------- extrapolate


def test_constant_values_recovered_at_any_order():
    results = extrapolate(_points((1.0, 2.0, 3.0, 4.0), 7.25))
    assert [r.estimate for r in results] == pytest.approx([7.25] * 4, rel=1e-12)


def test_ramsey_first_pair_extrapolation():
    res = extrapolate(RAMSEY_POINTS)[1]
    assert res.estimate == pytest.approx(40.81, abs=0.01)
    np.testing.assert_allclose(res.gammas, [1.88495575, -0.88495575], atol=1e-7)


def test_ramsey_all_orders():
    estimates = [r.estimate for r in extrapolate(RAMSEY_POINTS)]
    np.testing.assert_allclose(
        estimates, [35.56, 40.8077876, 42.1751000, 42.7531478], rtol=1e-7
    )


def test_sigma_propagation():
    pts = [NoisePoint(1.0, 5.0, sigma=1.0), NoisePoint(2.0, 3.0, sigma=1.0)]
    res0, res = extrapolate(pts)
    assert res.sigma_est == pytest.approx(np.sqrt(5.0), rel=1e-12)
    assert res0.sigma_est == pytest.approx(1.0)
    no_sigma = [NoisePoint(1.0, 5.0, sigma=1.0), NoisePoint(2.0, 3.0)]
    assert [r.sigma_est for r in extrapolate(no_sigma)] == [1.0, None]


def test_extrapolate_is_linear_in_values():
    rng = np.random.default_rng(8)
    cs = (1.0, 2.13, 4.93)
    v, w = rng.normal(size=3), rng.normal(size=3)
    a, b = 1.7, -0.4
    combo = [NoisePoint(c, a * vi + b * wi) for c, vi, wi in zip(cs, v, w)]
    ev = extrapolate([NoisePoint(c, x) for c, x in zip(cs, v)])[2].estimate
    ew = extrapolate([NoisePoint(c, x) for c, x in zip(cs, w)])[2].estimate
    assert extrapolate(combo)[2].estimate == pytest.approx(a * ev + b * ew, rel=1e-12)


def _bits(result):
    """Every float of a result as its hex string, so that equal means bit-identical."""
    floats = (*result.gammas, result.estimate, result.condition, result.sigma_est)
    return result.order, [None if x is None else float(x).hex() for x in floats]


# Distinct factors after the unscaled 1, a quarter apart in (0, 5]: every order of six such
# factors meets its moment conditions.
_FACTORS = st.lists(st.sampled_from([k / 4 for k in range(1, 21) if k != 4]),
                    max_size=6, unique=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@example(extra=[2.13, 4.93, 9.96], coeffs=[35.56, -6.0, 0.5, 0.01, 0.0, 0.0, 0.0],
         sigmas=None)
@given(extra=_FACTORS, coeffs=st.lists(st.floats(-10, 10), min_size=7, max_size=7),
       sigmas=st.one_of(st.none(), st.lists(st.floats(0, 2), min_size=7, max_size=7)))
def test_one_call_extrapolates_every_order(extra, coeffs, sigmas):
    # N factors give N orders; each order's weights sum to 1 and carry the propagated sigma, the
    # top order recovers the constant term of a polynomial of degree below N, each condition is
    # that of the Vandermonde system built here, and one more factor leaves every earlier order
    # bit-identical.
    *cs, last = [1.0, *extra]
    if not cs:
        cs, last = [last], None
    n_points = len(cs)
    a = coeffs[:n_points]
    sigmas = sigmas or [None] * 7
    points = [NoisePoint(c, sum(ak * c**k for k, ak in enumerate(a)), sigma)
              for c, sigma in zip(cs, sigmas)]
    results = extrapolate(points)
    assert [r.order for r in results] == list(range(n_points))
    for r in results:
        assert abs(sum(r.gammas) - 1.0) < 1e-10
        powers = np.array([[c**k for c in cs[: r.order + 1]] for k in range(r.order + 1)])
        assert r.condition == np.linalg.cond(powers)
        if sigmas[0] is None:
            assert r.sigma_est is None
        else:
            variance = sum((g * s) ** 2 for g, s in zip(r.gammas, sigmas))
            assert r.sigma_est == pytest.approx(math.sqrt(variance), rel=1e-12, abs=1e-300)
    top = results[-1]
    scale = sum(abs(g) * sum(abs(ak) * c**k for k, ak in enumerate(a))
                for g, c in zip(top.gammas, cs))
    assert abs(top.estimate - a[0]) <= 1e-10 * max(scale, 1.0)
    if last is not None:
        longer = extrapolate([*points, NoisePoint(last, 1.0, sigmas[n_points])])
        assert len(longer) == n_points + 1
        assert [_bits(r) for r in longer[:-1]] == [_bits(r) for r in results]


def test_extrapolate_input_errors():
    with pytest.raises(ValueError, match="must start with the unscaled factor 1"):
        extrapolate([NoisePoint(2.0, 1.0), NoisePoint(3.0, 1.0)])
    with pytest.raises(ValueError, match="positive"):
        NoisePoint(c=0.0, value=1.0)
    with pytest.raises(ValueError, match="sum to 1"):
        ExtrapolationResult(order=1, gammas=(1.5, 0.5), estimate=0.0, condition=3.0)


@pytest.mark.parametrize("field", ["c", "value", "sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_noise_point_rejects_non_finite(field, bad):
    kwargs = {"c": 1.0, "value": 2.0, "sigma": 0.1, field: bad}
    with pytest.raises(ValueError, match=field):
        NoisePoint(**kwargs)


def test_noise_point_rejects_a_negative_sigma():
    with pytest.raises(ValueError, match=r"^sigma must be nonnegative, got -0\.1$"):
        NoisePoint(c=1.0, value=2.0, sigma=-0.1)
    assert NoisePoint(c=1.0, value=2.0, sigma=0.0).sigma == 0.0


@pytest.mark.parametrize("kwargs, field", [
    ({"estimate": np.nan}, "estimate"),
    ({"estimate": np.inf}, "estimate"),
    ({"order": 1, "gammas": (np.nan, 1.0)}, "gammas"),
    ({"order": 1, "gammas": (np.inf, 1.0)}, "gammas"),
    ({"sigma_est": np.nan}, "sigma_est"),
    ({"sigma_est": np.inf}, "sigma_est"),
    ({"sigma_est": -1.0}, "sigma_est must be nonnegative"),
    ({"condition": np.nan}, "condition must be at least 1"),
    ({"condition": 0.5}, "condition must be at least 1"),
    ({"gammas": (0.5, 0.5)}, r"need exactly order \+ 1 coefficients"),
    ({"order": 1}, r"need exactly order \+ 1 coefficients"),
    ({"order": -1, "gammas": ()}, r"need exactly order \+ 1 coefficients"),
], ids=["estimate-nan", "estimate-inf", "gammas-nan", "gammas-inf", "sigma_est-nan",
        "sigma_est-inf", "sigma_est-negative", "condition-nan", "condition-below-1",
        "gammas-too-many", "gammas-too-few", "order-negative"])
def test_extrapolation_result_rejects_non_finite(kwargs, field):
    fields = {"order": 0, "gammas": (1.0,), "estimate": 2.0, "condition": 1.0, "sigma_est": 0.1,
              **kwargs}
    with pytest.raises(ValueError, match=field):
        ExtrapolationResult(**fields)


# ------------------------------------------------------------------ study
#
# A study is the scale-factor rule, one NoisePoint per factor, then one
# extrapolation per order.


def test_study_order_zero_is_unmitigated():
    cs = (1.0, 2.0, 3.0)
    check_scale_factors(cs, "c_list")
    points = [NoisePoint(c, 5.0 - c + 0.5 * c**2) for c in cs]
    res = extrapolate(points)
    assert [r.order for r in res] == [0, 1, 2]
    assert res[0].estimate == pytest.approx(5.0 - 1.0 + 0.5)
    assert res[2].estimate == pytest.approx(5.0, abs=1e-10)


def test_study_input_errors():
    with pytest.raises(ValueError, match="c_list must start with"):
        check_scale_factors((2.0, 4.0), "c_list")
    assert check_scale_factors((1.0, 2.0, 4.0), "c_list") is None


def test_study_rejects_a_repeated_factor_before_measuring():
    with pytest.raises(ValueError, match=r"^c_list repeats a scale factor among the 3 used: "
                                         r"\[1\.0, 2\.0, 2\.0\]$"):
        check_scale_factors((1.0, 2.0, 2.0), "c_list")


def test_damping_scaling_pipeline(tmp_path):
    # Demo 06's study, which reproduce --figure fig3 runs: gamma1 = 0.0090/us, gamma_phi from
    # theta1 = 20 deg, no drive.
    base = CanonicalRates(
        gamma1=0.0090,
        gamma_phi=angle_to_rates(np.radians(20), 0.0, 0.0).gamma_phi,
        omega=0.0,
    )
    truth = 1.0 / base.gamma_phi  # pure dephasing time at zero damping
    assert cli.main(["reproduce", "--figure", "fig3", "--out", str(tmp_path)]) == cli.EXIT_OK
    fig3 = json.loads((tmp_path / "fig3.json").read_text())
    assert fig3["base_rates"] == {"gamma1_per_us": base.gamma1,
                                  "gamma_phi_per_us": base.gamma_phi, "omega_mhz": 0.0}
    assert fig3["c_list"] == [1.0, 2.13, 4.93, 9.96]
    results = fig3["extrapolations"]
    assert [r["estimate"] for r in results] == [45.51122741162129, 53.080284629975594,
                                                54.90967958211609, 55.561203630682606]
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


def test_a_mitigate_point_runs_the_given_schedule(monkeypatch):
    # The fit sees the schedule's grid. Undriven, the steps commute and T2 comes out exact
    # on any grid, so T2 alone cannot tell which schedule ran.
    seen = []
    monkeypatch.setattr(cli, "global_fit", lambda curves: seen.append(curves) or global_fit(curves))
    base = CanonicalRates(gamma1=0.0090, gamma_phi=0.0174728, omega=0.0)
    t2 = _unscaled_point(base, schedule=TrotterSchedule(order=2, n_steps=20, dt=2.0))
    assert [ts.times.tolist() for ts in seen] == [[j * 2.0 for j in range(21)]]
    assert t2 == pytest.approx(1.0 / (base.gamma1 / 2 + base.gamma_phi), rel=1e-5)
