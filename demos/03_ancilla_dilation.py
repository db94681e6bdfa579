"""Realize dissipative channels as unitary circuits on a qubit plus ancilla.

Each nonunitary step is dilated to a two-qubit circuit: an ancilla
rotation plus an entangling gate, followed by tracing the ancilla out.
The demo verifies the induced single-qubit channels against the analytic
Kraus families, shows the angle -> rate dictionary, and quantifies how
depolarizing gate noise masquerades as extra decay.
"""

import numpy as np

from trottersim import (
    AngleParams,
    NoiseParams,
    angle_to_rates,
    apply_channel,
    channel_distance,
    damping_channel,
    damping_circuit,
    dephasing_channel,
    dephasing_circuit,
    depolarization_equivalent_time,
    induced_channel,
    rates_to_angles,
    rotation_circuit,
    unitary_channel,
)
from trottersim.linalg import rx

params = AngleParams.from_degrees(theta1=20, theta2=30, theta3=25.7)
rates = angle_to_rates(params)
print(f"angles (deg): theta1=20 theta2=30 theta3=25.7, tau0={params.tau0} us")
print(f"-> gamma_phi={rates.gamma_phi:.6f}/us  gamma1={rates.gamma1:.6f}/us  "
      f"omega={rates.omega:.6f} MHz")
back = rates_to_angles(rates, params.tau0)
print(f"round trip to angles (deg): {np.degrees(back.theta1):.4f} "
      f"{np.degrees(back.theta2):.4f} {np.degrees(back.theta3):.4f}")

# Each circuit's induced channel matches the analytic Kraus channel.
pairs = (
    ("dephasing", dephasing_circuit(params.theta1),
     dephasing_channel(rates.gamma_phi, params.tau0)),
    ("damping", damping_circuit(params.theta2),
     damping_channel(rates.gamma1, params.tau0)),
    ("rotation", rotation_circuit(params.theta3),
     unitary_channel(rx(params.theta3))),
)
print("\ncircuit vs analytic channel (Choi distance):")
for name, circuit, analytic in pairs:
    gates = " ".join(g.kind for g in circuit.gates)
    dist = channel_distance(induced_channel(circuit), analytic)
    print(f"  {name:9s} [{gates}]  {dist:.2e}")

# The damping dilation uses an adaptive correction; both of its
# implementations (coherent feedback vs measure-and-feedforward) agree.
rho = np.array([[0.3, 0.25 - 0.1j], [0.25 + 0.1j, 0.7]])
circuit = damping_circuit(params.theta2)
coherent = apply_channel(induced_channel(circuit, adaptive="coherent"), rho)
measured = apply_channel(induced_channel(circuit, adaptive="feedforward"), rho)
print(f"\nadaptive-correction implementations gap: "
      f"{np.abs(coherent - measured).max():.2e}")

# Gate noise: depolarization with probability p per entangling gate acts
# like an extra relaxation process with a characteristic time scale.
for p in (0.01, 0.02):
    noisy = induced_channel(dephasing_circuit(params.theta1),
                            noise=NoiseParams(p_grape=p, p_ancilla_decay=0.0))
    dist = channel_distance(noisy, pairs[0][2])
    print(f"p={p}: noisy circuit distance {dist:.4f}, "
          f"equivalent decay time {depolarization_equivalent_time(p):.1f} us")
