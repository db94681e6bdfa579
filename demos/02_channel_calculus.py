"""Work with quantum channels as Kraus families, superoperators, and Choi states.

Builds the per-step dephasing and damping channels, verifies complete
positivity and trace preservation, composes them, and measures how far
the composition sits from the exact joint channel.
"""

import numpy as np

from trottersim import (
    CanonicalRates,
    apply_channel,
    channel_distance,
    choi_to_kraus,
    compose_channels,
    dephasing_channel,
    damping_channel,
    depolarizing_channel,
    is_cptp,
    target_trace,
    to_choi,
)
from trottersim.linalg import validate_density_matrix

tau0 = 3.56
rates = CanonicalRates(gamma1=0.0190, gamma_phi=0.0175, omega=0.0)

dephase = dephasing_channel(rates.gamma_phi, tau0)
damp = damping_channel(rates.gamma1, tau0)
print(f"dephasing channel: {len(dephase.kraus)} Kraus operators, "
      f"CPTP={is_cptp(dephase)}")
print(f"damping channel:   {len(damp.kraus)} Kraus operators, "
      f"CPTP={is_cptp(damp)}")

# Apply to the maximally coherent state and watch the off-diagonal shrink.
plus = 0.5 * np.ones((2, 2), dtype=complex)
after = apply_channel(dephase, plus)
print(f"\n|+> coherence before {plus[0, 1].real:.4f}, "
      f"after one dephasing step {after[0, 1].real:.4f} "
      f"(expected factor e^-{rates.gamma_phi * tau0:.4f})")

# Dephasing and damping commute, so the composition order is irrelevant
# and the product is one exact step of the undriven master equation.
both_ab = compose_channels(damp, dephase)
both_ba = compose_channels(dephase, damp)
print(f"\ncomposition order gap: "
      f"{channel_distance(both_ab, both_ba):.2e}")

starts = [plus, np.diag([0.0, 1.0]), np.array([[0.5, -0.5j], [0.5j, 0.5]])]
gap = max(np.abs(validate_density_matrix(apply_channel(both_ab, rho))[1:]
                 - target_trace(rates, rho, tau0, 1).as_matrix()[-1]).max() for rho in starts)
print(f"product vs exact step gap on |+>, |1>, |+i>: {gap:.2e}")

# Round trip through the Choi state recovers an equivalent Kraus family.
choi = to_choi(damp)
eigvals = np.linalg.eigvalsh(choi)
rebuilt = choi_to_kraus(choi)
print(f"\ndamping Choi eigenvalues: {np.round(eigvals, 6)}")
print(f"Choi round-trip distance: {channel_distance(damp, rebuilt):.2e}")

# A depolarizing channel contracts the whole Bloch ball uniformly.
depol = depolarizing_channel(0.05)
shrunk = apply_channel(depol, plus)
print(f"\ndepolarizing p=0.05 shrinks |+> coherence to "
      f"{shrunk[0, 1].real:.4f} (expected {0.5 * (1 - 0.05):.4f})")
