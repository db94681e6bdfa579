"""Work with the elementary channels as Pauli-transfer matrices.

A channel acts on the Bloch row (Tr rho, <sx>, <sy>, <sz>) through its real
4x4 Pauli-transfer matrix (PTM). The demo builds the per-step dephasing,
damping and rotation PTMs, checks trace preservation and contraction,
composes them by matrix products, and measures how far each product sits
from one exact step of the master equation.
"""

import numpy as np

from trottersim import ALL_LABELS, CanonicalRates, elementary_ptms, target_trace
from trottersim.linalg import validate_density_matrix

tau0 = 3.56
rates = CanonicalRates(gamma1=0.0190, gamma_phi=0.0175, omega=0.0401)

ptms = dict(zip(ALL_LABELS, elementary_ptms(rates, [tau0], "kraus", None)[0]))
for label, ptm in ptms.items():
    # Row 0 = (1, 0, 0, 0) keeps the trace; the singular values of the Bloch block
    # stay <= 1, so the Bloch ball maps into itself.
    print(f"{label:9s} PTM: trace row {ptm[0].tolist()}, Bloch-block singular values "
          f"{np.round(np.linalg.svd(ptm[1:, 1:], compute_uv=False), 6)}")

# Apply to the maximally coherent state and watch <sx> shrink.
plus = 0.5 * np.ones((2, 2), dtype=complex)
row = validate_density_matrix(plus)
after = ptms["dephasing"] @ row
print(f"\n|+> <sx> before {row[1]:.4f}, after one dephasing step {after[1]:.4f} "
      f"(expected factor e^-{rates.gamma_phi * tau0:.4f})")

# Dephasing and damping commute, so their order is irrelevant; with the drive
# off their product is one exact step of the master equation.
deph, damp, rot = ptms["dephasing"], ptms["damping"], ptms["rotation"]
print(f"\ncomposition order gap: {np.linalg.norm(damp @ deph - deph @ damp):.2e}")

undriven = CanonicalRates(gamma1=rates.gamma1, gamma_phi=rates.gamma_phi)
starts = [plus, np.diag([0.0, 1.0]), np.array([[0.5, -0.5j], [0.5j, 0.5]])]
for name, step, model in (("undriven", damp @ deph, undriven),
                          ("driven", rot @ damp @ deph, rates)):
    gap = max(np.abs((step @ validate_density_matrix(rho))[1:]
                     - target_trace(model, rho, tau0, 1).as_matrix()[-1]).max()
              for rho in starts)
    print(f"{name:8s} product vs exact step gap on |+>, |1>, |+i>: {gap:.2e}")

# Damping drives every state toward |0>: its PTM's fixed point is the Bloch row of |0>.
w, v = np.linalg.eig(damp)
fixed = np.real(v[:, np.argmin(np.abs(w - 1))])
print(f"\ndamping fixed point (Bloch row): {np.round(fixed / fixed[0], 6)}")
