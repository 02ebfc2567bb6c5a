"""Power-flow-based gradient factors for rewards and constraint returns.

The chain from network physics to policy parameters has four links:

  1. partials of the nodal load current w.r.t. each control (closed-form
     entries in the bus voltage, six controls per agent),
  2. voltage sensitivities from one factorization of the linearized
     nodal system per operating point (slack rows pinned to identity),
  3. branch-current, voltage-magnitude and PCC-power sensitivities by
     algebraic composition,
  4. the action gradients of the discounted reward and of every
     constraint-return row.

All action derivatives are per kW (or kvar) of control; network
quantities stay per-unit.  One operating point = one factorization,
shared by every constraint row and every agent.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .grid import (
    GridModel,
    PowerFlowSolution,
    PowerFlowStack,
    power_flow_system_matrix,
    solve_unit_columns,
)
from .microgrid import (
    CONSTRAINT_NETWORK_KINDS,
    CONTROLS,
    DT_HOURS,
    ConstraintIndex,
    MicrogridSpec,
    geometric_weights,
    pcc_branches,
    spec_column,
)
from .policy import PolicyEval, cov_chain_factor

__all__ = [
    "SensitivityError",
    "StepSensitivities",
    "injection_current_jacobian",
    "compute_step_sensitivities",
    "step_sensitivity_stack",
    "reward_action_gradients",
    "reward_gradient_stack",
    "constraint_action_gradients",
    "row_gradient_stack",
    "chain_sample_to_parameters",
    "factorization_count",
]


class SensitivityError(RuntimeError):
    """Sensitivity system could not be solved (singular linearization)."""


_fact_count = 0


def _count_factorization(points: int = 1):
    global _fact_count
    _fact_count += points


def factorization_count() -> int:
    return _fact_count


# ---------------------------------------------------------------------------
# Step 1: load-current partials per control
# ---------------------------------------------------------------------------

# each control's load-current partial is a sign times one of two bases
# at its bus: "p" = (v_re, v_im) / |v|^2 and "q" = (v_im, -v_re) / |v|^2
_CONTROL_PARTIAL = {
    "p_dg": ("p", -1.0), "p_ch": ("p", 1.0), "p_dis": ("p", -1.0),
    "q_dg": ("q", 1.0), "q_pv": ("q", 1.0), "q_ess": ("q", -1.0),
}


def _partial_bases(sol) -> dict:
    v2 = sol.v_re ** 2 + sol.v_im ** 2
    if np.any(v2 < 1e-8):
        raise SensitivityError("zero-voltage bus in converged solution")
    re_p = sol.v_re / v2
    im_p = sol.v_im / v2
    return {"p": (re_p, im_p), "q": (im_p, -re_p)}


def injection_current_jacobian(sol: PowerFlowSolution) -> dict:
    """Per-bus partials of the load current w.r.t. each control (p.u./p.u.).

    Returns {control: (dI_re, dI_im)} arrays indexed by bus, evaluated at
    the solution voltages.  At a flat bus (V = 1 + j0) the p_dg column is
    (-1, 0) and the q_dg column is (0, -1).
    """
    base = _partial_bases(sol)
    return {control: (sign * base[kind][0], sign * base[kind][1])
            for control, (kind, sign) in _CONTROL_PARTIAL.items()}


_CONTROL_BUS = {
    "p_dg": "dg", "p_ch": "ess", "p_dis": "ess",
    "q_dg": "dg", "q_pv": "pv", "q_ess": "ess",
}


def _control_bus(spec: MicrogridSpec, control: str) -> int:
    return getattr(spec.bus_map, _CONTROL_BUS[control])


# ---------------------------------------------------------------------------
# Step 2: voltage sensitivities
# ---------------------------------------------------------------------------

def _voltage_sensitivity_stack(grid: GridModel, pf: PowerFlowStack,
                               specs) -> tuple[np.ndarray, np.ndarray]:
    """d(v_re)/da and d(v_im)/da, per kW, for every agent control at
    every point of pf, (B, n_bus, C) each.

    Columns are agent-major (agent 0 controls p_dg..q_ess, then agent 1,
    ...).  Each control's right-hand side is its load-current partial at
    its own bus, so the 2n x 2n linearizations of all points are solved
    with one solve_unit_columns call: on a radial grid each column is
    carried along its bus's path to the root only, on a meshed one the
    columns go through dense LU.  A control at the slack bus, whose row
    is pinned to identity, gets a zero column.  Controls whose partials
    share a basis and a bus share a column; the solve is exactly odd, so
    their columns are signed copies."""
    base = _partial_bases(pf)
    shared: dict = {}           # (basis, bus) -> right-hand-side column
    cols, signs = [], []
    for spec in specs:
        for control in CONTROLS:
            kind, sign = _CONTROL_PARTIAL[control]
            key = (kind, _control_bus(spec, control))
            cols.append(shared.setdefault(key, len(shared)))
            signs.append(sign)
    bus = np.array([b for _, b in shared], dtype=int)
    kw = 1.0 / grid.base_power_kva
    value = np.empty((len(pf), len(shared)), dtype=complex)
    for col, (kind, b) in enumerate(shared):
        d_re, d_im = base[kind]
        value.real[:, col] = -(d_re[:, b] * kw)
        value.imag[:, col] = -(d_im[:, b] * kw)
    x, solved = solve_unit_columns(grid, pf.p_load_pu, pf.q_load_pu,
                                   pf.v_re, pf.v_im, bus, value)
    _count_factorization(int(solved.sum()))
    bad = ~solved | ~np.isfinite(x).all(axis=(1, 2))
    if bad.any():
        raise SensitivityError(_singular_message(grid, pf,
                                                 np.flatnonzero(bad)[0]))
    signs = np.array(signs)
    return x.real[:, :, cols] * signs, x.imag[:, :, cols] * signs


def _singular_message(grid: GridModel, pf: PowerFlowStack, b: int) -> str:
    cond = np.linalg.cond(power_flow_system_matrix(
        grid, pf.p_load_pu[b], pf.q_load_pu[b], pf.v_re[b], pf.v_im[b]))
    return f"singular sensitivity system (cond={cond:.3e})"


# ---------------------------------------------------------------------------
# Steps 3-4: branch currents, magnitudes, PCC flows
# ---------------------------------------------------------------------------

@dataclass
class StepSensitivities:
    """All per-kW sensitivities at one operating point.

    Column c = 6*agent + control (CONTROLS).  dv_* are p.u./kW,
    d_pcc_* are kW/kW (dimensionless).  For a stack of operating points
    every field carries the stack's leading axes.
    """

    dv_re: np.ndarray       # (n_bus, C)
    dv_im: np.ndarray       # (n_bus, C)
    dibr_re: np.ndarray     # (n_branch, C)
    dibr_im: np.ndarray     # (n_branch, C)
    dv_mag: np.ndarray      # (n_bus, C)
    di_mag: np.ndarray      # (n_branch, C)
    dpcc_p: np.ndarray      # (n_mg, C)
    dpcc_q: np.ndarray      # (n_mg, C)

    def map(self, fn) -> "StepSensitivities":
        """fn applied to every field."""
        return StepSensitivities(*(fn(getattr(self, f.name))
                                   for f in fields(self)))

    @classmethod
    def stack(cls, steps) -> "StepSensitivities":
        """Per-step sensitivities as one stack with a leading step axis."""
        return cls(*(np.stack([getattr(s, f.name) for s in steps])
                     for f in fields(cls)))


def _branch_and_pcc_stack(grid: GridModel, pf: PowerFlowStack, specs,
                          dv_re: np.ndarray,
                          dv_im: np.ndarray) -> StepSensitivities:
    """Branch-current, magnitude and PCC-flow sensitivities of every
    point of pf, composed from its voltage sensitivities dv_*
    (B, n_bus, C).

    Branch currents follow i_br = y_ij (v_i - v_j); magnitude gradients
    of branches carrying |I| < 1e-9 p.u. are defined as zero."""
    f, t = grid.branch_from, grid.branch_to
    y_re = grid.branch_y.real[:, None]
    y_im = grid.branch_y.imag[:, None]
    ddr = dv_re[:, f] - dv_re[:, t]
    ddi = dv_im[:, f] - dv_im[:, t]
    dibr_re = y_re * ddr - y_im * ddi
    dibr_im = y_im * ddr + y_re * ddi

    v_mag = np.maximum(pf.v_mag, 1e-12)
    dv_mag = (pf.v_re[:, :, None] * dv_re
              + pf.v_im[:, :, None] * dv_im) / v_mag[:, :, None]

    i_mag = np.hypot(pf.i_br_re, pf.i_br_im)
    with np.errstate(invalid="ignore", divide="ignore"):
        di_mag = (pf.i_br_re[:, :, None] * dibr_re
                  + pf.i_br_im[:, :, None] * dibr_im) / i_mag[:, :, None]
    di_mag[i_mag < 1e-9] = 0.0

    k, sign, r = pcc_branches(grid, specs)
    base = grid.base_power_kva
    ire = (sign * pf.i_br_re[:, k])[:, :, None]
    iim = (sign * pf.i_br_im[:, k])[:, :, None]
    dire = sign[:, None] * dibr_re[:, k]
    diim = sign[:, None] * dibr_im[:, k]
    v_re = pf.v_re[:, r][:, :, None]
    v_im = pf.v_im[:, r][:, :, None]
    dpcc_p = base * (dv_re[:, r] * ire + v_re * dire
                     + dv_im[:, r] * iim + v_im * diim)
    dpcc_q = base * (dv_im[:, r] * ire + v_im * dire
                     - dv_re[:, r] * iim - v_re * diim)
    return StepSensitivities(dv_re, dv_im, dibr_re, dibr_im,
                             dv_mag, di_mag, dpcc_p, dpcc_q)


def compute_step_sensitivities(grid: GridModel, sol: PowerFlowSolution,
                               specs) -> StepSensitivities:
    """One factorization covering every control of every agent; the
    one-point case of step_sensitivity_stack."""
    return step_sensitivity_stack(grid, PowerFlowStack.of([sol]),
                                  specs).map(lambda x: x[0])


def step_sensitivity_stack(grid: GridModel, pf: PowerFlowStack,
                           specs) -> StepSensitivities:
    """Sensitivities of every (converged) point of pf, fields (B, ...),
    from one solve_unit_columns call; counts one
    factorization per point."""
    dv_re, dv_im = _voltage_sensitivity_stack(grid, pf, specs)
    return _branch_and_pcc_stack(grid, pf, specs, dv_re, dv_im)


# ---------------------------------------------------------------------------
# Action gradients of reward and constraint returns
# ---------------------------------------------------------------------------

def reward_action_gradients(sens_steps, actions, specs,
                            gamma: float) -> np.ndarray:
    """d(J_R_n)/d(a_n) for every agent, shape (n_mg, 6T).

    Per step: discounted export income through the PCC-flow sensitivity
    minus the discounted marginal fuel cost on the own DG coordinate.
    The one-sample case of reward_gradient_stack.
    """
    sens = StepSensitivities.stack(sens_steps).map(lambda x: x[None])
    return reward_gradient_stack(sens, np.asarray(actions)[None], specs,
                                 gamma)[0]


def reward_gradient_stack(sens: StepSensitivities, actions, specs,
                          gamma: float) -> np.ndarray:
    """reward_action_gradients of S samples at once: sens fields
    (S, T, ...), actions (S, n_mg, 6T) -> (S, n_mg, 6T)."""
    samples, horizon, n_mg = sens.dpcc_p.shape[:3]
    w = geometric_weights(gamma, horizon)
    agents = np.arange(n_mg)
    # each agent's own PCC flow against its own six controls
    own = sens.dpcc_p.reshape(samples, horizon, n_mg, n_mg, 6)[
        :, :, agents, agents]                            # (S, T, N, 6)
    laid = (own * w[:, None, None]).transpose(0, 2, 3, 1).reshape(
        samples, n_mg, 6 * horizon)
    grad = spec_column(specs, "pcc.price_per_kwh") * DT_HOURS * laid
    p_dg = np.asarray(actions, dtype=float)[..., :horizon]
    marg = np.where(p_dg > 0, 2.0 * spec_column(specs, "dg.a_f") * p_dg
                    + spec_column(specs, "dg.b_f"), 0.0)
    grad[..., :horizon] -= (w * spec_column(specs, "dg.fuel_price")
                            * DT_HOURS * marg)
    return grad


def _local_row_gradients(index: ConstraintIndex, actions: np.ndarray, specs,
                         w: np.ndarray, out: np.ndarray) -> None:
    """Write the analytic gradients of index's action-driven local rows
    into out (S, n_mg, 6T, M) at their table positions; each row is zero
    off its own agent's controls."""
    horizon = w.size
    steps = np.arange(horizon)
    direct = {"dg-p": 0, "ess-ch": 1, "ess-dis": 2, "dg-q": 3, "pv-q": 4,
              "ess-q": 5}
    ramp = w.copy()
    ramp[:-1] -= w[1:]                       # d/dp_j sum_k w_k (p_k - p_k-1)
    tail = np.cumsum(w[::-1])[::-1]          # sum_{k>=j} w_k
    a = actions.reshape(actions.shape[0], actions.shape[1], 6, horizon)
    for kind, (pos, mg, orient) in index.groups.items():
        if kind in CONSTRAINT_NETWORK_KINDS:
            continue
        o = orient[:, None]
        if kind in direct:
            terms = [(direct[kind], o * w)]
        elif kind == "dg-ramp":
            terms = [(0, o * ramp)]
        elif kind == "soc":
            owners = [specs[m] for m in mg]
            eta_ch, eta_dis, cap = (
                spec_column(owners, path)
                for path in ("ess.eta_ch", "ess.eta_dis", "ess.e_cap_kwh"))
            terms = [(1, o * tail * DT_HOURS * eta_ch / cap),
                     (2, -o * tail * DT_HOURS / (eta_dis * cap))]
        else:                                # ess-complementarity
            terms = [(1, o * w * a[:, mg, 2]), (2, o * w * a[:, mg, 1])]
        out[..., pos] = 0.0
        for control, value in terms:
            out[:, mg[:, None], control * horizon + steps,
                pos[:, None]] = value


def _network_row_gradients(index: ConstraintIndex, sens: StepSensitivities,
                           w: np.ndarray, out: np.ndarray) -> None:
    """Write the gradients of index's voltage, branch-current and PCC rows
    into out (S, n_mg, 6T, M): the sensitivity of each row's target at
    each step, discounted and oriented, in control-major layout."""
    sources = {"voltage": sens.dv_mag, "branch-current": sens.di_mag,
               "pcc-p": sens.dpcc_p, "pcc-q": sens.dpcc_q}
    samples, horizon = sens.dv_mag.shape[:2]
    n_mg = out.shape[1]
    for kind, (pos, target, orient) in index.groups.items():
        if kind not in sources:
            continue
        src = sources[kind]
        # (S, T, X, agent, control) -> (S, agent, control, T, X), then
        # gather the rows' targets
        by_control = src.reshape(samples, horizon, src.shape[2], n_mg,
                                 6).transpose(0, 3, 4, 1, 2)
        laid = np.take(by_control, target, axis=-1)
        laid *= w[:, None] * orient
        out[..., _span(pos)] = laid.reshape(samples, n_mg, 6 * horizon,
                                            pos.size)


def _span(pos: np.ndarray):
    """pos as a slice when it is a run of consecutive positions (a plain
    copy instead of a scatter), else pos itself."""
    if pos.size and np.all(np.diff(pos) == 1):
        return slice(int(pos[0]), int(pos[-1]) + 1)
    return pos


def row_gradient_stack(index: ConstraintIndex, sens: StepSensitivities,
                       actions, specs, gamma: float, *,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Action gradients of every row of index for S samples at once:
    sens fields (S, T, ...), actions (S, n_mg, 6T) -> (S, n_mg, 6T, M),
    written into out when given."""
    actions = np.asarray(actions, dtype=float)
    w = geometric_weights(gamma, sens.dv_mag.shape[1])
    if out is None:
        out = np.empty((*actions.shape, index.n_rows))
    _network_row_gradients(index, sens, w, out)
    _local_row_gradients(index, actions, specs, w, out)
    return out


def constraint_action_gradients(table, sens_steps, actions, specs,
                                gamma: float, *, prev_dg=None) -> np.ndarray:
    """Action gradients of every constraint row, shape (M, n_mg, 6T).

    Rows follow the table order.  Network rows (voltage, branch current,
    PCC transfer) come from the per-step sensitivities; the remaining
    local rows are analytic in the actions.  The one-sample case of
    row_gradient_stack.
    """
    sens = StepSensitivities.stack(sens_steps).map(lambda x: x[None])
    out = row_gradient_stack(ConstraintIndex.of(table), sens,
                             np.asarray(actions)[None], specs, gamma)
    return np.moveaxis(out[0], -1, 0)


# ---------------------------------------------------------------------------
# Chain into parameter space
# ---------------------------------------------------------------------------

def chain_sample_to_parameters(ev: PolicyEval, actions: np.ndarray,
                               dj_cols: np.ndarray) -> np.ndarray:
    """Batch mean of the chained action gradients, shape (P, K):
    J_mu^T mean_s dj_s and J_Sigma^T mean_s (u_s * dj_s), with u_s the
    level-set covariance factor (cov_chain_factor) at sampled action s.

    actions: (S, 6T) sampled actions (or one (6T,) action); dj_cols:
    (S, 6T, K) action gradients at them (or one (6T, K)).  Training
    never forms this chain: it is F^T C for the Fisher rows F and the C
    of training._BatchEval.chain, and this stays as its test oracle.
    """
    actions = np.reshape(actions, (-1, ev.mu.shape[0]))
    n = actions.shape[0]
    dj = np.reshape(dj_cols, (n, actions.shape[1], -1))
    u_sig = cov_chain_factor(actions, ev.mu, ev.sigma2)
    g_mu = ev.jac_mu.T @ (dj.sum(axis=0) / n)
    g_sig = ev.jac_sigma2.T @ (np.einsum("sd,sdk->dk", u_sig, dj) / n)
    return np.vstack([g_mu, g_sig])
