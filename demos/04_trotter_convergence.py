"""Split the qubit Liouvillian into steps and study the splitting error.

Compares first- and second-order product formulas against the exact
channel at a matched budget of elementary channels, scans all orderings of the three generators to show which ones
coincide (commuting pairs) and which order wins, and fits the error
scaling A ~ N^-order as the step count grows at fixed total time.
"""

import numpy as np

from trottersim import (
    TrotterSchedule,
    angle_to_rates,
    compare_orders,
    convergence_order,
    permutation_scan,
    run_schedule,
)

n_steps, tau0 = 13, 3.56
rates = angle_to_rates(*np.radians([20, 30, 25.7]), tau0)

# First vs second order at a matched budget: order 2 runs N steps of tau0,
# order 1 runs 2N steps of tau0/2, so both apply 6N elementary channels.
reports = compare_orders(rates, n_steps=n_steps, dt=tau0)
for order, report in sorted(reports.items()):
    print(f"order {order}: accuracy A={report.a:.6f} "
          f"(worst step residual {report.residuals.max():.6f})")

# All six generator orderings. Dephasing and damping commute, so swapping
# them where they are adjacent changes nothing: the four orderings that start
# or end with the rotation tie in two pairs, and the two that put the rotation
# between them stand alone, so the scan prints four values.
print("\npermutation scan (order 1, N=13):")
scan = permutation_scan(rates, n_steps=n_steps, dt=tau0)
first_order = {perm: rep.a for (order, perm), rep in scan.items() if order == 1}
for perm, a in sorted(first_order.items(), key=lambda kv: kv[1]):
    print(f"  {'-'.join(p[:4] for p in perm):>18s}  A={a:.6f}")
best = min(first_order, key=first_order.get)
print(f"best ordering: {'-'.join(best)}")

# Error scaling at fixed total time: slope -1 for order 1, -2 for order 2.
print("\nconvergence at fixed total time:")
for order in (1, 2):
    template = TrotterSchedule(order=order, n_steps=n_steps, dt=tau0)
    result = convergence_order(template, rates)
    pairs = ", ".join(f"N={n}: {a:.2e}"
                      for n, a in zip(result.n_values, result.accuracies))
    print(f"  order {order}: slope {result.slope:+.3f}  [{pairs}]")

# A second-order run is a physical evolution: states stay in the Bloch ball.
schedule = TrotterSchedule(order=2, n_steps=n_steps, dt=tau0)
trace = run_schedule(schedule, rates)
print(f"\nmax Bloch norm along the order-2 trajectory: "
      f"{np.linalg.norm(trace.rows[:, 1:], axis=1).max():.6f}")
