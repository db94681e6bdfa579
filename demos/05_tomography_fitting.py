"""Recover T1, T2, and the drive rate from simulated tomography curves.

Generates the standard twelve-curve set (four initial states, three Pauli
observables, thirteen stroboscopic times), then runs the global fit that
searches for the canonical rate triple whose exact dynamics best match
all twelve curves at once. Shown three ways: noiseless curves, curves
with finite sampling shots, and curves produced by a Trotterized run
instead of the exact channel.
"""

import numpy as np

from trottersim import (
    CanonicalRates,
    TrotterSchedule,
    angle_to_rates,
    generate_tomography,
    global_fit,
    run_schedule,
)

truth = CanonicalRates(gamma1=1 / 28.6, gamma_phi=1 / 19.0 - 0.5 / 28.6,
                       omega=0.0401)
tau0, n_steps = 3.56, 13
print(f"ground truth: T1={truth.t1:.2f} us  T2={truth.t2:.2f} us  "
      f"omega={truth.omega} MHz")

# Noiseless curves: the fit recovers the generator almost exactly.
curves = generate_tomography(truth, tau0, n_steps)
fit = global_fit(curves)
print(f"\nnoiseless fit:  T1={fit.t1:.3f}  T2={fit.t2:.3f}  "
      f"omega={fit.omega:.6f}  residual={fit.residual:.2e}")

# Finite sampling: 1000 shots per point adds binomial noise.
noisy = generate_tomography(truth, tau0, n_steps, shots=1000, seed=7)
fit_noisy = global_fit(noisy)
print(f"1000-shot fit:  T1={fit_noisy.t1:.3f}  T2={fit_noisy.t2:.3f}  "
      f"omega={fit_noisy.omega:.6f}")

# Trotterized curves: the fit reports the simulator's effective coherence
# times, which the angle dictionary predicts in closed form.
angles = np.radians([20, 20, 51.4])  # theta1, theta2, theta3
rates = angle_to_rates(*angles, tau0)
schedule = TrotterSchedule(order=2, n_steps=n_steps, dt=tau0)
trotter_curves = generate_tomography(
    rates, tau0, n_steps, evolve=lambda rho0: run_schedule(schedule, rates, rho0))
fit_trotter = global_fit(trotter_curves)
t1_pred, t2_pred = rates.t1, rates.t2
print(f"\norder-2 Trotter fit: T1={fit_trotter.t1:.2f} (formula {t1_pred:.2f})  "
      f"T2={fit_trotter.t2:.2f} (formula {t2_pred:.2f})  "
      f"omega={fit_trotter.omega:.6f} "
      f"(formula {np.degrees(angles[2]) / (360 * tau0):.6f})")

# The curves themselves: one example, the driven ground state under sz.
key = ("0", "z")
print(f"\ncurve {key}: {np.round(curves.curve(*key), 4)}")
