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
import operator
from dataclasses import dataclass, field

import numpy as np

from .grid import GridModel, PowerFlowSolution, PowerFlowStack

__all__ = [
    "CONTROLS",
    "DGSpec",
    "ESSSpec",
    "PVSpec",
    "PCCSpec",
    "BusMap",
    "MicrogridSpec",
    "ConstraintSpec",
    "ConstraintIndex",
    "Observables",
    "DT_HOURS",
    "action_index",
    "action_bounds",
    "window_bounds",
    "make_state_vector",
    "check_action_vector",
    "fuel_consumption",
    "reward_return",
    "reward_return_stack",
    "soc_trajectory",
    "build_constraint_table",
    "constraint_returns",
    "constraint_return_stack",
    "actions_to_injections",
    "network_observables",
    "find_pcc_branch",
    "pcc_branches",
    "geometric_weights",
    "spec_column",
    "write_constraint_report",
]

DT_HOURS = 0.25  # 15-minute dispatch samples

CONTROLS = ("p_dg", "p_ch", "p_dis", "q_dg", "q_pv", "q_ess")

# constraint kinds whose value comes from the network solution rather than
# directly from the owning agent's action vector
CONSTRAINT_NETWORK_KINDS = frozenset(
    {"voltage", "branch-current", "pcc-p", "pcc-q"})

# row kinds by scope; global rows target a bus or a branch, local rows
# their microgrid
GLOBAL_KINDS = ("voltage", "branch-current")
LOCAL_KINDS = ("dg-p", "dg-q", "dg-ramp", "pv-q", "pcc-p", "pcc-q", "soc",
               "ess-ch", "ess-dis", "ess-q", "ess-complementarity")


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


def spec_column(specs, path: str) -> np.ndarray:
    """One spec attribute (dotted path, e.g. "dg.a_f") of every
    microgrid, as an (n_mg, 1) column."""
    get = operator.attrgetter(path)
    return np.array([get(s) for s in specs])[:, None]


# ---------------------------------------------------------------------------
# Costs and storage dynamics
# ---------------------------------------------------------------------------

def fuel_consumption(p_dg: float, spec: MicrogridSpec) -> float:
    """Quadratic fuel curve a_f*p^2 + b_f*p + c_f in liters; p_dg >= 0."""
    if p_dg < 0:
        raise ValueError("DG power must be nonnegative")
    d = spec.dg
    return d.a_f * p_dg ** 2 + d.b_f * p_dg + d.c_f


def reward_return(actions: np.ndarray, pcc_power_kw, spec: MicrogridSpec,
                  gamma: float, dt: float = DT_HOURS) -> float:
    """Discounted net operating income over the window for one microgrid.

    Per step: export income price*P_pcc*dt minus fuel cost
    fuel_price*F(P_dg)*dt, discounted by gamma^k.  Export positive.  The
    one-microgrid case of reward_return_stack.
    """
    pcc = np.asarray(pcc_power_kw, dtype=float)
    a = check_action_vector(actions, pcc.shape[0])
    return float(reward_return_stack(a[None], pcc[:, None], [spec], gamma,
                                     dt)[0])


def reward_return_stack(actions, pcc_p, specs, gamma: float,
                        dt: float = DT_HOURS) -> np.ndarray:
    """reward_return of every microgrid at once.

    actions (..., n_mg, 6T) and PCC exports pcc_p (..., T, n_mg) in kW
    give the discounted returns (..., n_mg); a unit that is off (p <= 0)
    burns no fuel.
    """
    actions = np.asarray(actions, dtype=float)
    horizon = actions.shape[-1] // 6
    p_dg = actions[..., :horizon]
    fuel = np.where(p_dg > 0,
                    spec_column(specs, "dg.a_f") * p_dg ** 2
                    + spec_column(specs, "dg.b_f") * p_dg
                    + spec_column(specs, "dg.c_f"), 0.0)
    income = spec_column(specs, "pcc.price_per_kwh") \
        * np.swapaxes(pcc_p, -1, -2) * dt
    cost = spec_column(specs, "dg.fuel_price") * fuel * dt
    return (geometric_weights(gamma, horizon) * (income - cost)).sum(axis=-1)


def soc_trajectory(soc_init: float, p_ch, p_dis, spec: MicrogridSpec,
                   dt: float = DT_HOURS) -> np.ndarray:
    """State of charge after each step of the window (the last axis).

    SOC_k = SOC_{k-1} + dt*(P_ch*eta_ch - P_dis/eta_dis)/E_cap.  Bound
    violations are left to the constraint returns.
    """
    p_ch = np.asarray(p_ch, dtype=float)
    p_dis = np.asarray(p_dis, dtype=float)
    e = spec.ess
    delta = dt * (p_ch * e.eta_ch - p_dis / e.eta_dis) / e.e_cap_kwh
    return soc_init + np.cumsum(delta, axis=-1)


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


@dataclass(frozen=True)
class ConstraintIndex:
    """A constraint table as index arrays, built once per table.

    groups maps each row kind present to (pos, target, orientation):
    the rows' positions in the table, the bus, branch or microgrid each
    row reads, and its orientation (float).  Returns and row gradients
    of a whole stack of samples are fancy-indexes of per-kind arrays.
    """

    ids: tuple
    groups: dict

    @property
    def n_rows(self) -> int:
        return len(self.ids)

    @classmethod
    def of(cls, rows) -> "ConstraintIndex":
        members: dict = {}
        for m, row in enumerate(rows):
            kinds = GLOBAL_KINDS if row.scope == "global" else LOCAL_KINDS
            if row.kind not in kinds:
                raise ValueError(f"unknown {row.scope} constraint kind "
                                 f"{row.kind!r}")
            target = row.target if row.scope == "global" else row.mg_id
            members.setdefault(row.kind, []).append(
                (m, target, float(row.orientation)))
        groups = {}
        for kind, entries in members.items():
            pos, target, orient = zip(*entries)
            groups[kind] = (np.array(pos, dtype=int),
                            np.array(target, dtype=int), np.array(orient))
        return cls(tuple(r.id for r in rows), groups)


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
    """Observables of one solution per step: a sequence of
    PowerFlowSolution, or a PowerFlowStack whose points are the steps."""
    pf = solutions if isinstance(solutions, PowerFlowStack) \
        else PowerFlowStack.of(solutions)
    k, sign, r = pcc_branches(grid, specs)
    # pcc_flow for every step and microgrid at once
    i_re = sign * pf.i_br_re[:, k]
    i_im = sign * pf.i_br_im[:, k]
    p = pf.v_re[:, r] * i_re + pf.v_im[:, r] * i_im
    q = pf.v_im[:, r] * i_re - pf.v_re[:, r] * i_im
    return Observables(pf.v_mag, np.hypot(pf.i_br_re, pf.i_br_im),
                       p * grid.base_power_kva, q * grid.base_power_kva)


# ---------------------------------------------------------------------------
# Constraint returns
# ---------------------------------------------------------------------------

def _step_values(actions: np.ndarray, obs: Observables, specs, prev_dg,
                 dt: float) -> dict:
    """Per-step value of every constraint quantity of a stack of joint
    actions (S, n_mg, 6T) and observables (S, T, ...): kind -> (S, X, T),
    X running over buses, branches or microgrids as the kind targets."""
    samples, n_mg, width = actions.shape
    a = actions.reshape(samples, n_mg, 6, width // 6)
    p_dg, p_ch, p_dis, q_dg, q_pv, q_ess = np.moveaxis(a, 2, 0)
    prev = np.zeros(n_mg) if prev_dg is None \
        else np.asarray(prev_dg, dtype=float)

    soc = np.stack([soc_trajectory(spec.ess.soc_init, p_ch[:, n],
                                   p_dis[:, n], spec, dt)
                    for n, spec in enumerate(specs)], axis=1)
    return {
        "voltage": obs.v_mag.swapaxes(1, 2),
        "branch-current": obs.i_mag.swapaxes(1, 2),
        "pcc-p": obs.pcc_p.swapaxes(1, 2),
        "pcc-q": obs.pcc_q.swapaxes(1, 2),
        "dg-p": p_dg, "dg-q": q_dg, "pv-q": q_pv,
        "ess-ch": p_ch, "ess-dis": p_dis, "ess-q": q_ess,
        "dg-ramp": np.diff(p_dg, axis=-1, prepend=np.broadcast_to(
            prev[:, None], (samples, n_mg, 1))),
        "soc": soc,
        "ess-complementarity": p_ch * p_dis,
    }


def constraint_return_stack(index: ConstraintIndex, actions,
                            obs: Observables, specs, gamma: float, *,
                            prev_dg=None, dt: float = DT_HOURS) -> np.ndarray:
    """Discounted window returns (S, M) of a stack of S joint actions
    (S, n_mg, 6T) with their observables (fields (S, T, ...)), in the
    row order of index."""
    actions = np.asarray(actions, dtype=float)
    w = geometric_weights(gamma, actions.shape[-1] // 6)
    values = _step_values(actions, obs, specs, prev_dg, dt)
    out = np.empty((actions.shape[0], index.n_rows))
    for kind, (pos, target, orient) in index.groups.items():
        out[:, pos] = (values[kind][:, target] * orient[:, None]) @ w
    return out


def constraint_returns(actions, obs: Observables, specs, table, gamma: float,
                       *, prev_dg=None, dt: float = DT_HOURS,
                       ids=None) -> dict[str, float]:
    """Discounted window return of every constraint row.

    actions: (n_mg, 6T) joint action matrix; obs from converged solutions.
    When ids is given, only those rows are evaluated (unknown ids rejected).
    The one-sample case of constraint_return_stack.
    """
    rows = table
    if ids is not None:
        by_id = {r.id: r for r in table}
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise KeyError(f"unknown constraint id(s): {missing}")
        rows = [by_id[i] for i in ids]
    index = ConstraintIndex.of(rows)
    one = Observables(*(x[None] for x in (obs.v_mag, obs.i_mag, obs.pcc_p,
                                          obs.pcc_q)))
    values = constraint_return_stack(index, np.asarray(actions)[None], one,
                                     specs, gamma, prev_dg=prev_dg, dt=dt)
    return dict(zip(index.ids, values[0].tolist()))


# ---------------------------------------------------------------------------
# Nodal injections
# ---------------------------------------------------------------------------

def actions_to_injections(actions, load_kw, irradiance, specs, n_bus: int,
                          host_loads=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus net (P kW, Q kvar) loads per step, shape (T, n_bus).

    load_kw/irradiance: (T, n_mg) forecast-free truths for the window.
    PV active output is irradiance * rating (not a control).  host_loads
    is an optional {bus: (p_kw, q_kvar)} of static feeder loads.  A stack
    of joint actions (..., n_mg, 6T) gives loads (..., T, n_bus).
    """
    actions = np.asarray(actions, dtype=float)
    load_kw = np.asarray(load_kw, dtype=float)
    irradiance = np.asarray(irradiance, dtype=float)
    horizon = load_kw.shape[0]
    lead = actions.shape[:-2]
    p = np.zeros((*lead, horizon, n_bus))
    q = np.zeros((*lead, horizon, n_bus))
    if host_loads:
        for bus, (pk, qk) in host_loads.items():
            p[..., bus] += pk
            q[..., bus] += qk
    for j, spec in enumerate(specs):
        a = actions[..., j, :].reshape(*lead, 6, horizon)
        p_dg, p_ch, p_dis, q_dg, q_pv, q_ess = np.moveaxis(a, -2, 0)
        bm = spec.bus_map
        p[..., bm.load] += load_kw[:, j]
        q[..., bm.load] += spec.q_load_ratio * load_kw[:, j]
        p[..., bm.dg] -= p_dg
        q[..., bm.dg] += q_dg
        p[..., bm.pv] -= irradiance[:, j] * spec.pv.p_rated_kw
        q[..., bm.pv] += q_pv
        p[..., bm.ess] += p_ch - p_dis
        q[..., bm.ess] -= q_ess
    return p, q


def write_constraint_report(path, table, returns, bounds) -> None:
    """CSV audit dump: id, scope, kind, bound (window), return value;
    returns and window bounds are given in table order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "scope", "kind", "bound", "return"])
        for row, bound, value in zip(table, np.asarray(bounds).tolist(),
                                     np.asarray(returns).tolist()):
            w.writerow([row.id, row.scope, row.kind, repr(bound),
                        repr(value)])
