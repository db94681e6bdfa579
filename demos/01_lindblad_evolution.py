"""Evolve a driven, lossy qubit by the exact solution of its master equation.

Takes the canonical model (pure dephasing, amplitude damping, resonant
drive), evolves the ground state over a stroboscopic grid by stepping the
exact one-step map that Torrey's closed form gives at t = tau0, compares
the last sample with the closed form evaluated once at the final time,
and checks the observed decay against the coherence times
T1 = 1/gamma1 and T2 = 1/(gamma1/2 + gamma_phi).
"""

import numpy as np

from trottersim import CanonicalRates, bloch_solution, target_trace

rates = CanonicalRates(gamma1=0.0090, gamma_phi=0.0175, omega=0.0401)
tau0, n_steps = 3.56, 13

print(f"rates: gamma1={rates.gamma1}/us  gamma_phi={rates.gamma_phi}/us  "
      f"omega={rates.omega} MHz")
print(f"implied coherence times: T1={rates.t1:.2f} us  T2={rates.t2:.2f} us")

# Exact evolution of |0><0| on the stroboscopic grid t = k * tau0.
rho0 = np.diag([1.0, 0.0]).astype(complex)
trace = target_trace(rates, rho0, tau0, n_steps)
print(f"\n{'t (us)':>8}  {'<sx>':>8}  {'<sy>':>8}  {'<sz>':>8}")
for t, sx, sy, sz in zip(trace.times, trace.sx, trace.sy, trace.sz):
    print(f"{t:8.2f}  {sx:8.4f}  {sy:8.4f}  {sz:8.4f}")

# One-shot evaluation at the final time, from the Bloch vector (0, 0, 1) of
# |0><0|, agrees with the last stepped sample of the trace to rounding.
row = [[rates.gamma1, rates.gamma_phi, rates.omega]]
final = bloch_solution(row, [[0.0, 0.0, 1.0]], [n_steps * tau0])[0, 0, :, 0]
gap = np.abs(final - trace.as_matrix()[-1]).max()
print(f"\nsingle-shot vs sampled trace gap at t = {n_steps * tau0:.2f} us: {gap:.2e}")

# With the drive off, populations relax at exactly 1/T1.
undriven = CanonicalRates(rates.gamma1, rates.gamma_phi, 0.0)
decay = target_trace(undriven, np.diag([0.0, 1.0]).astype(complex), tau0, n_steps)
pops = (1.0 - decay.sz) / 2.0
slope = np.polyfit(decay.times, np.log(pops), 1)[0]
print(f"undriven excited-state decay rate: {-slope:.6f}/us "
      f"(gamma1 = {rates.gamma1}/us)")
