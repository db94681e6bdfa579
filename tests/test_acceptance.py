"""End-to-end acceptance checks for the package's headline claims.

Each test prints one PASS/FAIL line (visible with pytest -s or on failure)
and enforces the stated tolerance and runtime budget.
"""

import time
from dataclasses import replace

import numpy as np

from reference import (choi_distance, damping_kraus, dephasing_kraus, is_cptp, kraus_superop,
                       superop_of)
from trottersim import cli
from trottersim.channels import elementary_ptms
from trottersim.dilation import (
    NoiseParams,
    angle_to_rates,
    depolarization_equivalent_time,
)
from trottersim.liouvillian import CanonicalRates
from trottersim.mitigation import (
    NoisePoint,
    extrapolate,
)
from trottersim.tomography import dephasing_time, generate_tomography, global_fit
from trottersim.trotter import (
    ALL_PERMUTATIONS,
    TrotterSchedule,
    convergence_order,
    permutation_scan,
    run_schedule,
)

TAU0 = 3.56
FIG4_RATES = angle_to_rates(*np.radians([20, 30, 25.7]), TAU0)
RAMSEY_POINTS = (
    NoisePoint(c=1.0, value=35.56),
    NoisePoint(c=2.13, value=29.63),
    NoisePoint(c=4.93, value=22.00),
    NoisePoint(c=9.96, value=14.15),
)


def _verdict(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _fit_trotterized(angles_deg, order=2, n_steps=13):
    rates = angle_to_rates(*np.radians(angles_deg), TAU0)
    schedule = TrotterSchedule(order=order, n_steps=n_steps, dt=TAU0)
    curves = generate_tomography(
        rates, TAU0, n_steps,
        evolve=lambda rho0: run_schedule(schedule, rates, rho0),
    )
    return rates, global_fit(curves)


def test_criterion_1_dilation_matches_analytic_channels():
    start = time.monotonic()
    worst = 0.0
    for theta_deg in range(5, 90, 5):
        rates = angle_to_rates(*np.radians([theta_deg, theta_deg, 0.0]), TAU0)
        dephasing, damping, _ = elementary_ptms(rates, [TAU0], "dilation", None)[0]
        worst = max(
            worst,
            choi_distance(
                superop_of(dephasing), kraus_superop(dephasing_kraus(rates.gamma_phi, TAU0))
            ),
            choi_distance(superop_of(damping), kraus_superop(damping_kraus(rates.gamma1, TAU0))),
        )
    elapsed = time.monotonic() - start
    _verdict(
        "criterion 1 (dilation equals Kraus)",
        worst < 1e-10 and elapsed < 1.0,
        f"max Choi distance {worst:.3e} over 5..85 deg, {elapsed:.2f}s",
    )


def test_criterion_2_trotter_convergence_slopes():
    start = time.monotonic()
    rates = FIG4_RATES
    slopes = {}
    for order in (1, 2):
        template = TrotterSchedule(order=order, n_steps=13, dt=TAU0)
        slopes[order] = convergence_order(template, rates).slope
    elapsed = time.monotonic() - start
    ok = (
        abs(slopes[1] - (-1.0)) <= 0.3
        and abs(slopes[2] - (-2.0)) <= 0.3
        and elapsed < 10.0
    )
    _verdict(
        "criterion 2 (convergence orders)",
        ok,
        f"slopes {slopes[1]:+.3f} / {slopes[2]:+.3f}, {elapsed:.2f}s",
    )


def test_criterion_3_permutation_structure():
    start = time.monotonic()
    rates = FIG4_RATES
    scan = permutation_scan(rates, n_steps=13, dt=TAU0)
    acc = {key: report.a for key, report in scan.items()}
    commuting_pairs = (
        (("dephasing", "damping", "rotation"), ("damping", "dephasing", "rotation")),
        (("rotation", "dephasing", "damping"), ("rotation", "damping", "dephasing")),
    )
    pair_gap = max(
        abs(acc[(order, a)] - acc[(order, b)])
        for order in (1, 2)
        for a, b in commuting_pairs
    )
    worst_second = max(acc[(2, p)] for p in ALL_PERMUTATIONS)
    best_first = min(acc[(1, p)] for p in ALL_PERMUTATIONS)
    elapsed = time.monotonic() - start
    ok = pair_gap < 1e-12 and worst_second < best_first and elapsed < 10.0
    _verdict(
        "criterion 3 (permutation structure)",
        ok,
        f"commuting-pair gap {pair_gap:.2e}, order-2 max {worst_second:.4f} < "
        f"order-1 min {best_first:.4f}, {elapsed:.2f}s",
    )


def test_criterion_4_coherence_formulas_over_sweeps():
    start = time.monotonic()
    sweeps = (
        [(a, 20, 51.4) for a in range(5, 45, 5)]
        + [(20, a, 38.6) for a in range(5, 45, 5)]
        + [(20, 20, a) for a in range(10, 80, 10)]
    )
    worst = {"t1": 0.0, "t2": 0.0, "omega": 0.0}
    for angles_deg in sweeps:
        rates, fit = _fit_trotterized(angles_deg)
        worst["t1"] = max(worst["t1"], abs(fit.t1 / rates.t1 - 1))
        worst["t2"] = max(worst["t2"], abs(fit.t2 / rates.t2 - 1))
        worst["omega"] = max(worst["omega"], abs(fit.omega / rates.omega - 1))
    elapsed = time.monotonic() - start
    ok = (
        worst["t1"] <= 0.10
        and worst["t2"] <= 0.10
        and worst["omega"] <= 0.02
        and elapsed < 60.0
    )
    _verdict(
        "criterion 4 (coherence formulas)",
        ok,
        f"worst T1 {worst['t1']:.2%}, T2 {worst['t2']:.2%}, "
        f"Omega {worst['omega']:.2%} over 23 sweep points, {elapsed:.1f}s",
    )


def test_criterion_5_rabi_rate_anchor():
    omega_khz = 1e3 * 38.6 / (360.0 * TAU0)
    _, fit = _fit_trotterized((20, 20, 38.6))
    fitted_khz = 1e3 * fit.omega
    ok = abs(omega_khz - 30.1) < 0.05 and abs(fitted_khz - omega_khz) <= 0.01 * omega_khz
    _verdict(
        "criterion 5 (Rabi-rate anchor)",
        ok,
        f"formula {omega_khz:.4f} kHz, fitted {fitted_khz:.4f} kHz "
        f"({abs(fitted_khz / omega_khz - 1):.3%} off)",
    )


def test_criterion_6_extrapolation_on_measured_ramsey_times():
    start = time.monotonic()
    study = extrapolate(RAMSEY_POINTS)
    first = study[1]
    estimates = [r.estimate for r in study]
    cs = np.array([p.c for p in RAMSEY_POINTS])
    moment_residual = max(
        abs(np.asarray(r.gammas) @ cs[: r.order + 1] ** k - (k == 0))
        for r in study
        for k in range(r.order + 1)
    )
    monotone = all(a < b for a, b in zip(estimates, estimates[1:]))
    elapsed = time.monotonic() - start
    ok = (
        abs(first.estimate - 40.81) <= 0.01
        and monotone
        and moment_residual < 1e-8
        and elapsed < 1.0
    )
    _verdict(
        "criterion 6 (measured-data extrapolation)",
        ok,
        f"order-1 estimate {first.estimate:.4f} us, orders 0-3 "
        f"{[round(e, 2) for e in estimates]} monotone={monotone}, "
        f"max moment residual {moment_residual:.1e}, {elapsed:.2f}s",
    )


def test_criterion_7_dephasing_time_and_pipeline():
    tphi = dephasing_time(1 / 0.0090, 35.56)
    base = CanonicalRates(
        gamma1=0.0090,
        gamma_phi=angle_to_rates(np.radians(20), 0.0, 0.0).gamma_phi,
        omega=0.0,
    )
    truth = 1.0 / base.gamma_phi
    # The simulated mitigate study at these base rates, c = 1 and 2.13: fig3's order-1 point.
    cfg = replace(cli.build_config({"c_list": [1.0, 2.13]}, "mitigate"), rates=base)
    rel_err = abs(cli._payload("mitigate", cfg)["results"][1]["estimate"] - truth) / truth
    ok = abs(tphi - 42.33) <= 0.01 and rel_err <= 0.15
    _verdict(
        "criterion 7 (pure-dephasing relation)",
        ok,
        f"dephasing_time {tphi:.4f} us, pipeline order-1 off by {rel_err:.2%} "
        f"from {truth:.2f} us",
    )


def test_criterion_8_depolarization_equivalent_times():
    t_low = depolarization_equivalent_time(0.01, TAU0)
    t_high = depolarization_equivalent_time(0.02, TAU0)
    ok = abs(t_low - 354.0) <= 1.0 and abs(t_high - 176.0) <= 1.0
    _verdict(
        "criterion 8 (depolarization-equivalent times)",
        ok,
        f"p=0.01 -> {t_low:.3f} us, p=0.02 -> {t_high:.3f} us",
    )


def test_criterion_9_property_suites():
    start = time.monotonic()
    rng = np.random.default_rng(2024)

    # Channel families stay completely positive and trace preserving.
    cptp_ok = True
    for _ in range(50):
        gphi, g1, p = rng.uniform(0, 0.5), rng.uniform(0, 0.5), rng.uniform(0, 1)
        theta = rng.uniform(0, np.pi / 2 - 0.05)
        rates = CanonicalRates(g1, gphi, theta / (2 * np.pi * TAU0))
        for ptm in elementary_ptms(rates, [TAU0], "kraus", None)[0]:
            cptp_ok &= is_cptp(superop_of(ptm))
        for noise in (NoiseParams(p_grape=p), NoiseParams(p_grape=0.01, p_ancilla_decay=0.01)):
            for ptm in elementary_ptms(rates, [TAU0], "dilation+noise", noise)[0]:
                cptp_ok &= is_cptp(superop_of(ptm))

    # Trotter runs keep states physical, including the noisy dilation backend.
    physical_ok = True
    for backend, noise in (
        ("kraus", None),
        ("dilation", None),
        ("dilation+noise", NoiseParams(p_grape=0.02, p_ancilla_decay=0.01)),
    ):
        schedule = TrotterSchedule(order=2, n_steps=13, dt=TAU0, backend=backend, noise=noise)
        trace = run_schedule(schedule, FIG4_RATES)
        physical_ok &= bool(np.linalg.norm(trace.rows[:, 1:], axis=1).max() <= 1 + 1e-8)

    # Noiseless fit round trip recovers 200 random rate triples within 1%.
    fit_ok, worst_rel = True, 0.0
    for _ in range(200):
        t1 = rng.uniform(10, 200)
        t2 = rng.uniform(5, 2 * t1)
        omega = rng.uniform(0.005, 0.1)
        rates = CanonicalRates(
            gamma1=1 / t1, gamma_phi=max(0.0, 1 / t2 - 0.5 / t1), omega=omega
        )
        fit = global_fit(generate_tomography(rates, TAU0, 13))
        rel = max(
            abs(fit.t1 / t1 - 1), abs(fit.t2 / t2 - 1), abs(fit.omega / omega - 1)
        )
        worst_rel = max(worst_rel, rel)
        fit_ok &= rel <= 0.01

    # Order-n extrapolation is exact on degree-n polynomials.
    poly_ok = True
    for n in range(1, 5):
        coeffs = rng.normal(size=n + 1)
        cs = np.concatenate([[1.0], np.sort(rng.uniform(1.5, 9.0, n))])
        pts = [NoisePoint(c, np.polyval(coeffs[::-1], c)) for c in cs]
        scale = max(1.0, np.abs(coeffs).max())
        poly_ok &= abs(extrapolate(pts)[n].estimate - coeffs[0]) < 1e-8 * scale

    # Fixed seeds reproduce sampled tomography exactly.
    rates = CanonicalRates(gamma1=0.03, gamma_phi=0.02, omega=0.04)
    a = generate_tomography(rates, TAU0, 13, shots=500, seed=11)
    b = generate_tomography(rates, TAU0, 13, shots=500, seed=11)
    seed_ok = np.array_equal(a.curves, b.curves)

    elapsed = time.monotonic() - start
    ok = cptp_ok and physical_ok and fit_ok and poly_ok and seed_ok and elapsed < 120.0
    _verdict(
        "criterion 9 (property suites)",
        ok,
        f"cptp={cptp_ok} physical={physical_ok} fit-200(worst {worst_rel:.2e})={fit_ok} "
        f"poly-exact={poly_ok} seeded={seed_ok}, {elapsed:.1f}s",
    )
