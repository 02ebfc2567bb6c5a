#!/usr/bin/env python3
"""Solve the combined 98-bus feeder and check the solution two ways.

The host feeder carries five embedded low-voltage networks, each coupled
through its own branch.  We solve the nodal equations, substitute the
solution back into the power balance, and compare a two-bus case against
a bisection oracle that never touches linear algebra.
"""

from pathlib import Path

import numpy as np

from smaspl.grid import Branch, Bus, GridModel, power_mismatch, solve_power_flow
from smaspl.scenario import load_scenario, nominal_loads_98

case = load_scenario(Path(__file__).resolve().parents[1] / "scenarios"
                     / "paper98.yaml")
grid = case.grid
p, q = nominal_loads_98(grid, case.specs)
sol = solve_power_flow(grid, p, q)
print(f"combined network: {grid.n_bus} buses, {grid.n_branch} branches")
print(f"converged in {sol.iterations} Newton steps, "
      f"residual history: {['%.1e' % r for r in sol.residual_history]}")

miss = power_mismatch(grid, sol)
nonslack = [i for i in range(grid.n_bus) if i != grid.slack]
print(f"power-balance recheck (inf norm): "
      f"{np.max(np.abs(miss[nonslack])):.2e} p.u.")
print(f"voltage band: {sol.v_mag.min():.4f} .. {sol.v_mag.max():.4f} p.u.")
worst = int(np.argmin(sol.v_mag))
print(f"weakest bus: {worst} at {sol.v_mag[worst]:.4f} p.u.")

# two-bus cross-check against a scalar oracle
buses = [Bus(0, "slack"), Bus(1)]
g2 = GridModel(buses, [Branch.from_impedance(0, 1, 0.01, 0.01, 10.0)])
sol2 = solve_power_flow(g2, [0.0, 50.0], [0.0, 20.0])
z, s_load = 0.01 + 0.01j, 0.5 + 0.2j
f = lambda m: abs(m * m + z * np.conj(s_load)) - m
a, b = 0.3, 1.2
fa = f(a)
for _ in range(200):
    mid = 0.5 * (a + b)
    if fa * f(mid) <= 0:
        b = mid
    else:
        a, fa = mid, f(mid)
x = 0.5 * (a + b)
v_oracle = x * x / (x * x + z * np.conj(s_load))
v_newton = complex(sol2.v_re[1], sol2.v_im[1])
print(f"\ntwo-bus case: newton {v_newton:.12f}")
print(f"bisection oracle      {v_oracle:.12f}")
print(f"difference            {abs(v_newton - v_oracle):.2e}")
