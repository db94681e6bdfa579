"""Realize dissipative channels as unitary circuits on a qubit plus ancilla.

Each nonunitary step is dilated to a two-qubit circuit: an ancilla
rotation plus an entangling gate, followed by tracing the ancilla out.
The demo verifies the induced single-qubit channels against the closed-form
Pauli-transfer matrices, shows the angle -> rate dictionary, and quantifies
how depolarizing gate noise masquerades as extra decay.
"""

import numpy as np

from trottersim import (
    ALL_LABELS,
    BLOCH_ROWS,
    AngleParams,
    NoiseParams,
    angle_to_rates,
    damping_circuit,
    dephasing_circuit,
    depolarization_equivalent_time,
    elementary_ptms,
    induced_channel,
    rates_to_angles,
    rotation_circuit,
)


def ptm_of(superop):
    """Pauli-transfer matrix Re(P^dag S P)/2 of a column-stacking superoperator S."""
    return np.real(BLOCH_ROWS @ superop @ BLOCH_ROWS.conj().T) / 2


params = AngleParams.from_degrees(theta1=20, theta2=30, theta3=25.7)
rates = angle_to_rates(params)
print(f"angles (deg): theta1=20 theta2=30 theta3=25.7, tau0={params.tau0} us")
print(f"-> gamma_phi={rates.gamma_phi:.6f}/us  gamma1={rates.gamma1:.6f}/us  "
      f"omega={rates.omega:.6f} MHz")
back = rates_to_angles(rates, params.tau0)
print(f"round trip to angles (deg): {np.degrees(back.theta1):.4f} "
      f"{np.degrees(back.theta2):.4f} {np.degrees(back.theta3):.4f}")

# Each circuit's induced channel matches the closed-form channel at the mapped rates.
closed = dict(zip(ALL_LABELS, elementary_ptms(rates, [params.tau0], "kraus", None)[0]))
circuits = {
    "dephasing": dephasing_circuit(params.theta1),
    "damping": damping_circuit(params.theta2),
    "rotation": rotation_circuit(params.theta3),
}
print("\ncircuit vs closed-form channel (PTM Frobenius distance):")
for name, circuit in circuits.items():
    gates = " ".join(g.kind for g in circuit.gates)
    dist = np.linalg.norm(ptm_of(induced_channel(circuit)) - closed[name])
    print(f"  {name:9s} [{gates}]  {dist:.2e}")

# The dilation backend builds the same three channels from the rates alone.
dilated = elementary_ptms(rates, [params.tau0], "dilation", None)[0]
print(f"dilation backend vs closed forms: {np.abs(dilated - list(closed.values())).max():.2e}")

# The damping dilation uses an adaptive correction; both of its
# implementations (coherent feedback vs measure-and-feedforward) agree,
# with injected ancilla decay and depolarization too.
circuit = circuits["damping"]
for noise in (None, NoiseParams(p_grape=0.01, p_ancilla_decay=0.02)):
    coherent = induced_channel(circuit, noise, adaptive="coherent")
    measured = induced_channel(circuit, noise, adaptive="feedforward")
    print(f"\nadaptive-correction implementations gap, noise={noise}: "
          f"{np.abs(coherent - measured).max():.2e}")

# Gate noise: depolarization with probability p per entangling gate acts
# like an extra relaxation process with a characteristic time scale.
for p in (0.01, 0.02):
    noisy = induced_channel(circuits["dephasing"],
                            noise=NoiseParams(p_grape=p, p_ancilla_decay=0.0))
    dist = np.linalg.norm(ptm_of(noisy) - closed["dephasing"])
    print(f"p={p}: noisy circuit distance {dist:.4f}, "
          f"equivalent decay time {depolarization_equivalent_time(p):.1f} us")
