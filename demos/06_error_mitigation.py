"""Extrapolate noisy coherence measurements to the zero-damping limit.

Richardson extrapolation: measure an observable at several amplified
noise strengths c >= 1, then combine the readings with closed-form
coefficients so the leading error orders cancel. Demonstrated twice,
first on a recorded table of Ramsey coherence times and then on a fully
synthetic pipeline where the true zero-noise answer is known.
"""

import numpy as np

from trottersim import (
    AngleParams,
    CanonicalRates,
    NoisePoint,
    TrotterSchedule,
    angle_to_rates,
    check_scale_factors,
    extrapolate,
    generate_tomography,
    global_fit,
    richardson_coeffs,
    run_schedule,
)

# Measured Ramsey coherence times at four damping amplifications.
table = (
    NoisePoint(c=1.00, value=35.56),
    NoisePoint(c=2.13, value=29.63),
    NoisePoint(c=4.93, value=22.00),
    NoisePoint(c=9.96, value=14.15),
)
print("measured T2* (us) at damping scale c:")
for p in table:
    print(f"  c={p.c:5.2f}  {p.value:6.2f}")

# The combination weights depend only on the scale factors.
for n in range(1, 4):
    cs = [p.c for p in table[: n + 1]]
    gammas = richardson_coeffs(cs, n)
    print(f"order {n} weights for c={cs}: {np.round(gammas, 4)}")

print("\nextrapolated zero-damping T2*:")
for n in range(4):
    result = extrapolate(table, n)
    print(f"  order {n}: {result.estimate:.3f} us")

# With reported error bars the weights also propagate the uncertainty.
with_sigma = tuple(NoisePoint(p.c, p.value, sigma=0.5) for p in table)
result = extrapolate(with_sigma, 1)
print(f"order 1 with 0.5 us error bars: {result.estimate:.2f} "
      f"+/- {result.sigma_est:.2f} us")

# Synthetic pipeline: check the scale factors before measuring anything,
# simulate Trotterized tomography at each scaled damping rate and fit T2*
# from the curves, extrapolate at each order, and compare with the exact
# zero-damping limit 1/gamma_phi.
base = CanonicalRates(
    gamma1=0.0090,
    gamma_phi=angle_to_rates(AngleParams.from_degrees(20, 0, 0)).gamma_phi,
    omega=0.0,
)
truth = 1.0 / base.gamma_phi
cs = (1.0, 2.13, 4.93, 9.96)
check_scale_factors(cs, "c_list")
schedule = TrotterSchedule()  # first order, 13 steps of tau0 = 3.56 us


def scaled_t2(c):
    """T2* fitted from Trotterized tomography with the damping rate scaled by c."""
    scaled = CanonicalRates(gamma1=c * base.gamma1, gamma_phi=base.gamma_phi)
    curves = generate_tomography(scaled, schedule.dt, schedule.n_steps,
                                 evolve=lambda rho0: run_schedule(schedule, scaled, rho0))
    fit = global_fit(curves)
    if not fit.converged:  # a point that is not a measurement must not be extrapolated
        raise RuntimeError(f"the fit at c = {c} did not converge")
    return fit.t2


points = [NoisePoint(c, scaled_t2(c)) for c in cs]
study = [extrapolate(points, n) for n in range(len(points))]
print(f"\nsynthetic study (true zero-damping T2* = {truth:.2f} us):")
for result in study:
    err = result.estimate / truth - 1
    print(f"  order {result.order}: {result.estimate:7.2f} us  ({err:+.2%})")
