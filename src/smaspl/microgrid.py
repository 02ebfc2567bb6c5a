"""Microgrid assets, rewards, constraint returns, and nodal injections.

Action vectors are control-major over the decision window: the flattened
layout is [p_dg(0..T-1), p_ch(..), p_dis(..), q_dg(..), q_pv(..),
q_ess(..)], length 6*T.  State vectors are [irradiance(0..T-1),
load_kw(0..T-1)], length 2*T.

Sign conventions (fixed across the package):
  * PCC active power is export-positive (microgrid feeding the host grid).
  * Net nodal load seen by the power flow is
        p = P_D - P_DG - P_PV + P_Ch - P_Dis
        q = Q_D + Q_DG + Q_PV - Q_ESS
    i.e. positive q_dg/q_pv adds to the reactive load while positive
    q_ess relieves it; the network sensitivities use the same convention.
  * A diesel unit dispatched at exactly zero is off and burns no fuel,
    even though the quadratic fuel curve itself has f(0) = c_f.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .grid import GridModel, PowerFlowSolution

__all__ = [
    "CONTROLS",
    "DGSpec",
    "ESSSpec",
    "PVSpec",
    "PCCSpec",
    "BusMap",
    "MicrogridSpec",
    "ConstraintSpec",
    "Observables",
    "DT_HOURS",
    "action_index",
    "action_bounds",
    "window_bounds",
    "make_state_vector",
    "check_action_vector",
    "fuel_consumption",
    "running_fuel",
    "fuel_marginal",
    "reward_return",
    "soc_trajectory",
    "build_constraint_table",
    "constraint_returns",
    "actions_to_injections",
    "network_observables",
    "find_pcc_branch",
    "pcc_branches",
    "geometric_weights",
    "write_constraint_report",
]

DT_HOURS = 0.25  # 15-minute dispatch samples

CONTROLS = ("p_dg", "p_ch", "p_dis", "q_dg", "q_pv", "q_ess")

# constraint kinds whose value comes from the network solution rather than
# directly from the owning agent's action vector
CONSTRAINT_NETWORK_KINDS = frozenset(
    {"voltage", "branch-current", "pcc-p", "pcc-q"})


@dataclass(frozen=True)
class DGSpec:
    p_max_kw: float
    q_max_kvar: float
    ramp_kw: float
    fuel_price: float          # $/L
    a_f: float                 # L/kW^2
    b_f: float                 # L/kW
    c_f: float                 # L


@dataclass(frozen=True)
class ESSSpec:
    e_cap_kwh: float
    p_ch_max_kw: float
    p_dis_max_kw: float
    eta_ch: float
    eta_dis: float
    soc_min: float
    soc_max: float
    q_max_kvar: float
    soc_init: float = 0.5


@dataclass(frozen=True)
class PVSpec:
    p_rated_kw: float
    q_max_kvar: float


@dataclass(frozen=True)
class PCCSpec:
    p_max_kw: float
    q_max_kvar: float
    price_per_kwh: float       # $/kWh paid for exported energy


@dataclass(frozen=True)
class BusMap:
    """Bus assignment of one microgrid's assets within the combined grid."""

    dg: int
    ess: int
    pv: int
    load: int
    pcc_mg: int     # microgrid-side terminal of the coupling branch
    pcc_host: int   # host-feeder-side terminal


@dataclass(frozen=True)
class MicrogridSpec:
    mg_id: int
    dg: DGSpec
    ess: ESSSpec
    pv: PVSpec
    pcc: PCCSpec
    bus_map: BusMap
    q_load_ratio: float = 0.2
    # optional control-range overrides {control: (lo, hi)}; defaults are the
    # asset caps.  Ranges only bound the policy output map, not the
    # constraint table.
    action_ranges: dict = field(default_factory=dict)

    def __post_init__(self):
        e = self.ess
        if not (0.0 <= e.soc_min < e.soc_max <= 1.0):
            raise ValueError(f"mg{self.mg_id}: need 0 <= soc_min < soc_max <= 1")
        for name, eta in (("eta_ch", e.eta_ch), ("eta_dis", e.eta_dis)):
            if not (0.0 < eta <= 1.0):
                raise ValueError(f"mg{self.mg_id}: {name} must be in (0, 1]")
        caps = {
            "dg.p_max_kw": self.dg.p_max_kw,
            "ess.e_cap_kwh": e.e_cap_kwh,
            "ess.p_ch_max_kw": e.p_ch_max_kw,
            "ess.p_dis_max_kw": e.p_dis_max_kw,
            "pcc.p_max_kw": self.pcc.p_max_kw,
        }
        for name, v in caps.items():
            if v <= 0:
                raise ValueError(f"mg{self.mg_id}: {name} must be > 0")


# ---------------------------------------------------------------------------
# Action / state vector helpers
# ---------------------------------------------------------------------------

def action_index(control: str, step: int, horizon: int) -> int:
    """Flat index of one control at one step (control-major layout)."""
    return CONTROLS.index(control) * horizon + step


def check_action_vector(a: np.ndarray, horizon: int) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (6 * horizon,):
        raise ValueError(f"action vector must have length {6 * horizon}")
    if not np.all(np.isfinite(a)):
        raise ValueError("action vector has non-finite entries")
    return a


def action_bounds(spec: MicrogridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-control (lo, hi) arrays of length 6, in action order."""
    defaults = {
        "p_dg": (0.0, spec.dg.p_max_kw),
        "p_ch": (0.0, spec.ess.p_ch_max_kw),
        "p_dis": (0.0, spec.ess.p_dis_max_kw),
        "q_dg": (0.0, spec.dg.q_max_kvar),
        "q_pv": (-spec.pv.q_max_kvar, spec.pv.q_max_kvar),
        "q_ess": (-spec.ess.q_max_kvar, spec.ess.q_max_kvar),
    }
    lo = np.empty(6)
    hi = np.empty(6)
    for c, name in enumerate(CONTROLS):
        lo[c], hi[c] = spec.action_ranges.get(name, defaults[name])
    return lo, hi


def window_bounds(spec: MicrogridSpec, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Action bounds repeated over the window (length 6*T)."""
    lo, hi = action_bounds(spec)
    return np.repeat(lo, horizon), np.repeat(hi, horizon)


def make_state_vector(irradiance, load_kw) -> np.ndarray:
    """Stack forecast irradiance and load into the 2*T policy input."""
    irr = np.asarray(irradiance, dtype=float)
    load = np.asarray(load_kw, dtype=float)
    if irr.shape != load.shape or irr.ndim != 1:
        raise ValueError("irradiance and load forecasts must be equal-length 1-D")
    if np.any(irr < 0) or np.any(irr > 1.2):
        raise ValueError("irradiance forecast outside [0, 1.2]")
    if np.any(load < 0):
        raise ValueError("load forecast must be nonnegative")
    return np.concatenate([irr, load])


def geometric_weights(gamma: float, horizon: int) -> np.ndarray:
    return gamma ** np.arange(horizon, dtype=float)


# ---------------------------------------------------------------------------
# Costs and storage dynamics
# ---------------------------------------------------------------------------

def fuel_consumption(p_dg: float, spec: MicrogridSpec) -> float:
    """Quadratic fuel curve a_f*p^2 + b_f*p + c_f in liters; p_dg >= 0."""
    if p_dg < 0:
        raise ValueError("DG power must be nonnegative")
    d = spec.dg
    return d.a_f * p_dg ** 2 + d.b_f * p_dg + d.c_f


def running_fuel(p_dg: float, spec: MicrogridSpec) -> float:
    """Fuel burned in one step: zero when the unit is off (p <= 0)."""
    if p_dg <= 0:
        return 0.0
    return fuel_consumption(p_dg, spec)


def fuel_marginal(p_dg: float, spec: MicrogridSpec) -> float:
    """d(running fuel)/dP; zero on the off side of the origin."""
    if p_dg <= 0:
        return 0.0
    return 2.0 * spec.dg.a_f * p_dg + spec.dg.b_f


def reward_return(actions: np.ndarray, pcc_power_kw, spec: MicrogridSpec,
                  gamma: float, dt: float = DT_HOURS) -> float:
    """Discounted net operating income over the window for one microgrid.

    Per step: export income price*P_pcc*dt minus fuel cost
    fuel_price*F(P_dg)*dt, discounted by gamma^k.  Export positive.
    """
    pcc = np.asarray(pcc_power_kw, dtype=float)
    horizon = pcc.shape[0]
    a = check_action_vector(actions, horizon)
    p_dg = a[:horizon]
    w = geometric_weights(gamma, horizon)
    total = 0.0
    for k in range(horizon):
        income = spec.pcc.price_per_kwh * pcc[k] * dt
        cost = spec.dg.fuel_price * running_fuel(p_dg[k], spec) * dt
        total += w[k] * (income - cost)
    return total


def soc_trajectory(soc_init: float, p_ch, p_dis, spec: MicrogridSpec,
                   dt: float = DT_HOURS) -> np.ndarray:
    """State of charge after each step of the window.

    SOC_k = SOC_{k-1} + dt*(P_ch*eta_ch - P_dis/eta_dis)/E_cap.  Bound
    violations are left to the constraint returns.
    """
    p_ch = np.asarray(p_ch, dtype=float)
    p_dis = np.asarray(p_dis, dtype=float)
    e = spec.ess
    delta = dt * (p_ch * e.eta_ch - p_dis / e.eta_dis) / e.e_cap_kwh
    return soc_init + np.cumsum(delta)


# ---------------------------------------------------------------------------
# Constraint table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintSpec:
    """One <=-oriented constraint row.

    bound is the per-step limit; the window row compares the discounted
    return against bound * sum(gamma^k).  orientation is +1 for the
    upper-side row and -1 for the lower-side row of a two-sided limit.
    target is a bus index (voltage rows) or branch index (current rows).
    """

    id: str
    scope: str                 # "global" | "local"
    kind: str
    orientation: int
    bound: float
    mg_id: int | None = None
    target: int | None = None

    def window_bound(self, gamma: float, horizon: int) -> float:
        return self.bound * float(np.sum(geometric_weights(gamma, horizon)))


def build_constraint_table(grid: GridModel, specs, *,
                           eps_complementarity: float = 1e-3) -> list[ConstraintSpec]:
    """All global (voltage, branch current) and per-MG local rows."""
    rows: list[ConstraintSpec] = []
    for bus in grid.buses:
        rows.append(ConstraintSpec(f"v_hi[{bus.id}]", "global", "voltage",
                                   +1, bus.v_max, target=bus.id))
        rows.append(ConstraintSpec(f"v_lo[{bus.id}]", "global", "voltage",
                                   -1, -bus.v_min, target=bus.id))
    for k, br in enumerate(grid.branches):
        rows.append(ConstraintSpec(f"i_hi[{k}]", "global", "branch-current",
                                   +1, br.i_max, target=k))
        rows.append(ConstraintSpec(f"i_lo[{k}]", "global", "branch-current",
                                   -1, br.i_max, target=k))
    for spec in specs:
        m = spec.mg_id
        pre = f"mg{m}."
        L = lambda name, kind, orient, bound: rows.append(
            ConstraintSpec(pre + name, "local", kind, orient, bound, mg_id=m))
        L("dg_p_hi", "dg-p", +1, spec.dg.p_max_kw)
        L("dg_p_lo", "dg-p", -1, 0.0)
        L("dg_q_hi", "dg-q", +1, spec.dg.q_max_kvar)
        L("dg_q_lo", "dg-q", -1, 0.0)
        L("dg_ramp_up", "dg-ramp", +1, spec.dg.ramp_kw)
        L("dg_ramp_dn", "dg-ramp", -1, spec.dg.ramp_kw)
        L("pv_q_hi", "pv-q", +1, spec.pv.q_max_kvar)
        L("pv_q_lo", "pv-q", -1, spec.pv.q_max_kvar)
        L("pcc_p_hi", "pcc-p", +1, spec.pcc.p_max_kw)
        L("pcc_p_lo", "pcc-p", -1, spec.pcc.p_max_kw)
        L("pcc_q_hi", "pcc-q", +1, spec.pcc.q_max_kvar)
        L("pcc_q_lo", "pcc-q", -1, spec.pcc.q_max_kvar)
        L("soc_hi", "soc", +1, spec.ess.soc_max)
        L("soc_lo", "soc", -1, -spec.ess.soc_min)
        L("ess_ch_hi", "ess-ch", +1, spec.ess.p_ch_max_kw)
        L("ess_ch_lo", "ess-ch", -1, 0.0)
        L("ess_dis_hi", "ess-dis", +1, spec.ess.p_dis_max_kw)
        L("ess_dis_lo", "ess-dis", -1, 0.0)
        L("ess_q_hi", "ess-q", +1, spec.ess.q_max_kvar)
        L("ess_q_lo", "ess-q", -1, spec.ess.q_max_kvar)
        L("comp_hi", "ess-complementarity", +1, eps_complementarity)
        L("comp_lo", "ess-complementarity", -1, eps_complementarity)
    return rows


# ---------------------------------------------------------------------------
# Network observables
# ---------------------------------------------------------------------------

@dataclass
class Observables:
    """Per-step physical quantities backing the constraint returns.

    v_mag: (T, n_bus) p.u., i_mag: (T, n_branch) p.u.,
    pcc_p/pcc_q: (T, n_mg) kW/kvar export-positive.
    """

    v_mag: np.ndarray
    i_mag: np.ndarray
    pcc_p: np.ndarray
    pcc_q: np.ndarray


def find_pcc_branch(grid: GridModel, spec: MicrogridSpec) -> tuple[int, float]:
    """Index and export-orientation sign of a microgrid's coupling branch.

    sign is +1 when the branch current y*(v_from - v_to) already flows
    microgrid -> host, else -1.
    """
    bm = spec.bus_map
    try:
        return grid.branch_lookup[(bm.pcc_mg, bm.pcc_host)]
    except KeyError:
        raise ValueError(f"mg{spec.mg_id}: no branch between buses "
                         f"{bm.pcc_mg} and {bm.pcc_host}") from None


def pcc_branches(grid: GridModel,
                 specs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coupling-branch index, export sign and microgrid-side bus per MG."""
    pairs = [find_pcc_branch(grid, spec) for spec in specs]
    k = np.array([kk for kk, _ in pairs], dtype=int)
    sign = np.array([sg for _, sg in pairs], dtype=float)
    r = np.array([spec.bus_map.pcc_mg for spec in specs], dtype=int)
    return k, sign, r


def pcc_flow(grid: GridModel, sol: PowerFlowSolution,
             spec: MicrogridSpec) -> tuple[float, float]:
    """(P, Q) transfer in kW/kvar at the PCC, export-positive."""
    k, sign = find_pcc_branch(grid, spec)
    r = spec.bus_map.pcc_mg
    i_re = sign * sol.i_br_re[k]
    i_im = sign * sol.i_br_im[k]
    p = sol.v_re[r] * i_re + sol.v_im[r] * i_im
    q = sol.v_im[r] * i_re - sol.v_re[r] * i_im
    return p * grid.base_power_kva, q * grid.base_power_kva


def network_observables(grid: GridModel, solutions, specs) -> Observables:
    horizon = len(solutions)
    v_mag = np.empty((horizon, grid.n_bus))
    i_mag = np.empty((horizon, grid.n_branch))
    pcc_p = np.empty((horizon, len(specs)))
    pcc_q = np.empty((horizon, len(specs)))
    k, sign, r = pcc_branches(grid, specs)
    for t, sol in enumerate(solutions):
        v_mag[t] = sol.v_mag
        i_mag[t] = np.hypot(sol.i_br_re, sol.i_br_im)
        # pcc_flow for every microgrid at once
        i_re = sign * sol.i_br_re[k]
        i_im = sign * sol.i_br_im[k]
        p = sol.v_re[r] * i_re + sol.v_im[r] * i_im
        q = sol.v_im[r] * i_re - sol.v_re[r] * i_im
        pcc_p[t] = p * grid.base_power_kva
        pcc_q[t] = q * grid.base_power_kva
    return Observables(v_mag, i_mag, pcc_p, pcc_q)


# ---------------------------------------------------------------------------
# Constraint returns
# ---------------------------------------------------------------------------

def _per_step_values(row: ConstraintSpec, actions: np.ndarray, obs: Observables,
                     specs_by_id, horizon: int, prev_dg, dt: float) -> np.ndarray:
    o = row.orientation
    if row.scope == "global":
        if row.kind == "voltage":
            return o * obs.v_mag[:, row.target]
        if row.kind == "branch-current":
            return o * obs.i_mag[:, row.target]
        raise ValueError(f"unknown global constraint kind {row.kind!r}")

    spec = specs_by_id[row.mg_id]
    a = actions[row.mg_id].reshape(6, horizon)
    p_dg, p_ch, p_dis, q_dg, q_pv, q_ess = a
    if row.kind == "dg-p":
        return o * p_dg
    if row.kind == "dg-q":
        return o * q_dg
    if row.kind == "dg-ramp":
        prev = 0.0 if prev_dg is None else float(prev_dg[row.mg_id])
        diffs = np.diff(np.concatenate([[prev], p_dg]))
        return o * diffs
    if row.kind == "pv-q":
        return o * q_pv
    if row.kind == "pcc-p":
        return o * obs.pcc_p[:, row.mg_id]
    if row.kind == "pcc-q":
        return o * obs.pcc_q[:, row.mg_id]
    if row.kind == "soc":
        return o * soc_trajectory(spec.ess.soc_init, p_ch, p_dis, spec, dt)
    if row.kind == "ess-ch":
        return o * p_ch
    if row.kind == "ess-dis":
        return o * p_dis
    if row.kind == "ess-q":
        return o * q_ess
    if row.kind == "ess-complementarity":
        return o * p_ch * p_dis
    raise ValueError(f"unknown constraint kind {row.kind!r}")


def constraint_returns(actions, obs: Observables, specs, table, gamma: float,
                       *, prev_dg=None, dt: float = DT_HOURS,
                       ids=None) -> dict[str, float]:
    """Discounted window return of every constraint row.

    actions: (n_mg, 6T) joint action matrix; obs from converged solutions.
    When ids is given, only those rows are evaluated (unknown ids rejected).
    """
    actions = np.asarray(actions, dtype=float)
    horizon = actions.shape[1] // 6
    specs_by_id = {s.mg_id: s for s in specs}
    w = geometric_weights(gamma, horizon)
    rows = table
    if ids is not None:
        by_id = {r.id: r for r in table}
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise KeyError(f"unknown constraint id(s): {missing}")
        rows = [by_id[i] for i in ids]
    out = {}
    for row in rows:
        vals = _per_step_values(row, actions, obs, specs_by_id, horizon,
                                prev_dg, dt)
        out[row.id] = float(w @ vals)
    return out


# ---------------------------------------------------------------------------
# Nodal injections
# ---------------------------------------------------------------------------

def actions_to_injections(actions, load_kw, irradiance, specs, n_bus: int,
                          host_loads=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus net (P kW, Q kvar) loads per step, shape (T, n_bus).

    load_kw/irradiance: (T, n_mg) forecast-free truths for the window.
    PV active output is irradiance * rating (not a control).  host_loads
    is an optional {bus: (p_kw, q_kvar)} of static feeder loads.
    """
    actions = np.asarray(actions, dtype=float)
    load_kw = np.asarray(load_kw, dtype=float)
    irradiance = np.asarray(irradiance, dtype=float)
    horizon = load_kw.shape[0]
    p = np.zeros((horizon, n_bus))
    q = np.zeros((horizon, n_bus))
    if host_loads:
        for bus, (pk, qk) in host_loads.items():
            p[:, bus] += pk
            q[:, bus] += qk
    for j, spec in enumerate(specs):
        a = actions[j].reshape(6, horizon)
        p_dg, p_ch, p_dis, q_dg, q_pv, q_ess = a
        bm = spec.bus_map
        p[:, bm.load] += load_kw[:, j]
        q[:, bm.load] += spec.q_load_ratio * load_kw[:, j]
        p[:, bm.dg] -= p_dg
        q[:, bm.dg] += q_dg
        p[:, bm.pv] -= irradiance[:, j] * spec.pv.p_rated_kw
        q[:, bm.pv] += q_pv
        p[:, bm.ess] += p_ch - p_dis
        q[:, bm.ess] -= q_ess
    return p, q


def write_constraint_report(path, table, values: dict, gamma: float,
                            horizon: int) -> None:
    """CSV audit dump: id, scope, kind, bound (window), return value."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "scope", "kind", "bound", "return"])
        for row in table:
            w.writerow([row.id, row.scope, row.kind,
                        repr(row.window_bound(gamma, horizon)),
                        repr(values[row.id])])
