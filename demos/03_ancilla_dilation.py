"""Realize dissipative channels as unitary circuits on a qubit plus ancilla.

Each nonunitary step is dilated to a two-qubit circuit: an ancilla
rotation plus an entangling gate, followed by tracing the ancilla out.
The demo prints each circuit's gates, checks the channels the dilation
backend builds from them against the closed-form Pauli-transfer matrices,
shows the angle -> rate dictionary, and quantifies how depolarizing gate
noise masquerades as extra decay.
"""

import numpy as np

from trottersim import (
    ALL_LABELS,
    CIRCUIT_GATES,
    AngleParams,
    NoiseParams,
    angle_to_rates,
    depolarization_equivalent_time,
    elementary_ptms,
    rates_to_angles,
)

params = AngleParams.from_degrees(theta1=20, theta2=30, theta3=25.7)
rates = angle_to_rates(params)
print(f"angles (deg): theta1=20 theta2=30 theta3=25.7, tau0={params.tau0} us")
print(f"-> gamma_phi={rates.gamma_phi:.6f}/us  gamma1={rates.gamma1:.6f}/us  "
      f"omega={rates.omega:.6f} MHz")
back = rates_to_angles(rates, params.tau0)
print(f"round trip to angles (deg): {np.degrees(back.theta1):.4f} "
      f"{np.degrees(back.theta2):.4f} {np.degrees(back.theta3):.4f}")

# Each circuit's gates are written once, as (gate kind, multiple of the circuit's angle);
# every circuit ends in an ancilla reset.
thetas = dict(zip(ALL_LABELS, (params.theta1, params.theta2, params.theta3)))
print("\ncircuits (angles in degrees), each followed by an ancilla reset:")
for label, gates in CIRCUIT_GATES.items():
    shown = [f"{kind}({np.degrees(m * thetas[label]):.1f})" if m else kind for kind, m in gates]
    print(f"  {label:9s} {' '.join(shown)}")

# The dilation backend chains those gates at the rates' angles; its channels match the
# closed-form channels at the same rates.
closed = elementary_ptms(rates, [params.tau0], "kraus", None)[0]
dilated = elementary_ptms(rates, [params.tau0], "dilation", None)[0]
print("\ncircuit vs closed-form channel (PTM Frobenius distance):")
for label, circuit, exact in zip(ALL_LABELS, dilated, closed):
    print(f"  {label:9s} {np.linalg.norm(circuit - exact):.2e}")

# Gate noise: depolarization with probability p per composite unitary acts
# like an extra relaxation process with a characteristic time scale.
for p in (0.01, 0.02):
    noisy = elementary_ptms(rates, [params.tau0], "dilation+noise", NoiseParams(p_grape=p))[0]
    dist = np.linalg.norm(noisy[0] - closed[0])  # the dephasing circuit
    print(f"p={p}: noisy circuit distance {dist:.4f}, "
          f"equivalent decay time {depolarization_equivalent_time(p):.1f} us")
