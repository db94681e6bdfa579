"""Evolve a driven, lossy qubit with the exact Lindblad propagator.

Builds the canonical three-generator model (pure dephasing, amplitude
damping, resonant drive), evolves the ground state over a stroboscopic
grid, and checks the observed decay against the closed-form coherence
times T1 = 1/gamma1 and T2 = 1/(gamma1/2 + gamma_phi).
"""

import numpy as np

from trottersim import (
    CanonicalRates,
    lindblad_superop,
    propagator,
    qubit_generators,
    target_trace,
)
from trottersim.linalg import validate_density_matrix

rates = CanonicalRates(gamma1=0.0090, gamma_phi=0.0175, omega=0.0401)
tau0, n_steps = 3.56, 13

print(f"rates: gamma1={rates.gamma1}/us  gamma_phi={rates.gamma_phi}/us  "
      f"omega={rates.omega} MHz")
print(f"implied coherence times: T1={rates.t1:.2f} us  T2={rates.t2:.2f} us")

# The full generator is the sum of the three one-term Liouvillians.
specs = qubit_generators(rates)
full = sum(lindblad_superop([spec]) for spec in specs)
print("generator terms:", ", ".join(spec.label for spec in specs))

# Exact evolution of |0><0| on the stroboscopic grid t = k * tau0.
rho0 = np.diag([1.0, 0.0]).astype(complex)
trace = target_trace(rates, rho0, tau0, n_steps)
print(f"\n{'t (us)':>8}  {'<sx>':>8}  {'<sy>':>8}  {'<sz>':>8}")
for t, sx, sy, sz in zip(trace.times, trace.sx, trace.sy, trace.sz):
    print(f"{t:8.2f}  {sx:8.4f}  {sy:8.4f}  {sz:8.4f}")

# One-shot propagation to the final time agrees with the stepwise trace.
rho_final = (propagator(full, n_steps * tau0) @ rho0.reshape(-1, order="F"))
rho_final = rho_final.reshape(2, 2, order="F")
gap = np.abs(validate_density_matrix(rho_final)[1:]
             - np.array([trace.sx[-1], trace.sy[-1], trace.sz[-1]])).max()
print(f"\nsingle-shot vs stepwise propagation gap: {gap:.2e}")

# With the drive off, populations relax at exactly 1/T1.
undriven = CanonicalRates(rates.gamma1, rates.gamma_phi, 0.0)
decay = target_trace(undriven, np.diag([0.0, 1.0]).astype(complex), tau0, n_steps)
pops = (1.0 - decay.sz) / 2.0
slope = np.polyfit(decay.times, np.log(pops), 1)[0]
print(f"undriven excited-state decay rate: {-slope:.6f}/us "
      f"(gamma1 = {rates.gamma1}/us)")
