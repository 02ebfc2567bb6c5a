#!/usr/bin/env python3
"""Analytic network sensitivities against full re-solve differences.

One factorization of the linearized nodal system yields the voltage,
branch-current and coupling-power derivatives for every control of every
agent.  Here we print them side by side with central differences of
complete power-flow re-solves.
"""

import numpy as np

from smaspl.grid import (Branch, Bus, GridModel, PowerFlowStack,
                         solve_power_flow)
from smaspl.gradients import compute_step_sensitivities
from smaspl.microgrid import (
    BusMap, DGSpec, ESSSpec, MicrogridSpec, PCCSpec, PVSpec,
    actions_to_injections, network_observables,
)

buses = [Bus(0, "slack", 0.8, 1.2), Bus(1, "load", 0.8, 1.2),
         Bus(2, "load", 0.8, 1.2, 0), Bus(3, "load", 0.8, 1.2, 0)]
branches = [Branch.from_impedance(0, 1, 0.01, 0.01, 10.0),
            Branch.from_impedance(1, 2, 0.008, 0.015, 10.0),
            Branch.from_impedance(2, 3, 0.005, 0.01, 10.0)]
grid = GridModel(buses, branches)
spec = MicrogridSpec(
    mg_id=0,
    dg=DGSpec(40.0, 20.0, 20.0, 0.57, 0.0001773, 0.1709, 14.67),
    ess=ESSSpec(20.0, 4.0, 4.0, 0.95, 0.90, 0.1, 0.9, 3.0),
    pv=PVSpec(15.0, 8.0),
    pcc=PCCSpec(80.0, 40.0, 0.046),
    bus_map=BusMap(dg=3, ess=3, pv=3, load=3, pcc_mg=2, pcc_host=1),
)
actions = np.array([[15.0, 2.0, 1.0, 3.0, -2.0, 1.0]])
load = np.array([[12.0]])
irr = np.array([[0.7]])


def solve(a):
    p, q = actions_to_injections(a, load, irr, [spec], 4)
    sol = solve_power_flow(grid, p[0], q[0], tol=1e-12)
    assert sol.converged
    return sol


base = solve(actions)
sens = compute_step_sensitivities(grid, base, [spec])

controls = ("p_dg", "p_ch", "p_dis", "q_dg", "q_pv", "q_ess")
h = 0.01  # kW
print(f"{'control':8s} {'quantity':14s} {'analytic':>13s} "
      f"{'finite diff':>13s} {'rel err':>9s}")
for c, name in enumerate(controls):
    up_a = actions.copy()
    up_a[0, c] += h
    dn_a = actions.copy()
    dn_a[0, c] -= h
    s_up, s_dn = solve(up_a), solve(dn_a)
    # export-positive PCC power of both points, kW
    pcc_up, pcc_dn = network_observables(
        grid, PowerFlowStack.of([s_up, s_dn]), [spec]).pcc_p[:, 0]
    rows = [
        ("d|V3|/da", sens.dv_mag[3, c],
         (s_up.v_mag[3] - s_dn.v_mag[3]) / (2 * h)),
        ("dP_pcc/da", sens.dpcc_p[0, c], (pcc_up - pcc_dn) / (2 * h)),
    ]
    for label, an, fd in rows:
        rel = abs(an - fd) / max(abs(fd), 1e-12)
        print(f"{name:8s} {label:14s} {an:13.6e} {fd:13.6e} {rel:9.1e}")
