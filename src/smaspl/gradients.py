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

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .grid import GridModel, PowerFlowSolution, power_flow_system_csc
from .microgrid import (
    CONSTRAINT_NETWORK_KINDS,
    DT_HOURS,
    MicrogridSpec,
    fuel_marginal,
    geometric_weights,
    pcc_branches,
)
from .policy import PolicyEval, cov_chain_factor

__all__ = [
    "SensitivityError",
    "StepSensitivities",
    "injection_current_jacobian",
    "voltage_sensitivities",
    "branch_and_pcc_sensitivities",
    "compute_step_sensitivities",
    "local_constraint_gradients",
    "reward_action_gradients",
    "constraint_action_gradients",
    "chain_sample_to_parameters",
    "chain_reward_samples",
    "factorization_count",
    "reset_factorization_count",
]


class SensitivityError(RuntimeError):
    """Sensitivity system could not be solved (singular linearization)."""


_fact_lock = threading.Lock()
_fact_count = 0


def _count_factorization():
    global _fact_count
    with _fact_lock:
        _fact_count += 1


def factorization_count() -> int:
    return _fact_count


def reset_factorization_count() -> None:
    global _fact_count
    with _fact_lock:
        _fact_count = 0


# ---------------------------------------------------------------------------
# Step 1: load-current partials per control
# ---------------------------------------------------------------------------

def injection_current_jacobian(sol: PowerFlowSolution) -> dict:
    """Per-bus partials of the load current w.r.t. each control (p.u./p.u.).

    Returns {control: (dI_re, dI_im)} arrays indexed by bus, evaluated at
    the solution voltages.  At a flat bus (V = 1 + j0) the p_dg column is
    (-1, 0) and the q_dg column is (0, -1).
    """
    v2 = sol.v_re ** 2 + sol.v_im ** 2
    if np.any(v2 < 1e-8):
        raise SensitivityError("zero-voltage bus in converged solution")
    re_p = sol.v_re / v2
    im_p = sol.v_im / v2
    return {
        "p_dg": (-re_p, -im_p),
        "p_ch": (re_p, im_p),
        "p_dis": (-re_p, -im_p),
        "q_dg": (im_p, -re_p),
        "q_pv": (im_p, -re_p),
        "q_ess": (-im_p, re_p),
    }


_CONTROL_BUS = {
    "p_dg": "dg", "p_ch": "ess", "p_dis": "ess",
    "q_dg": "dg", "q_pv": "pv", "q_ess": "ess",
}

CONTROL_ORDER = ("p_dg", "p_ch", "p_dis", "q_dg", "q_pv", "q_ess")


def _control_bus(spec: MicrogridSpec, control: str) -> int:
    return getattr(spec.bus_map, _CONTROL_BUS[control])


# ---------------------------------------------------------------------------
# Step 2: voltage sensitivities
# ---------------------------------------------------------------------------

def voltage_sensitivities(grid: GridModel, sol: PowerFlowSolution,
                          specs) -> tuple[np.ndarray, np.ndarray]:
    """d(v_re)/da and d(v_im)/da for every agent control, per kW.

    Columns are agent-major (agent 0 controls p_dg..q_ess, then agent 1,
    ...).  The 2n x 2n linearization is factorized once (sparse LU);
    slack rows are identity with zero right-hand side, pinning slack
    sensitivities to zero.
    """
    n = grid.n_bus
    cols = 6 * len(specs)
    dI = injection_current_jacobian(sol)
    rhs = np.zeros((2 * n, cols))
    kw = 1.0 / grid.base_power_kva
    for a, spec in enumerate(specs):
        for c, control in enumerate(CONTROL_ORDER):
            bus = _control_bus(spec, control)
            dire, diim = dI[control]
            col = 6 * a + c
            rhs[bus, col] = dire[bus] * kw
            rhs[n + bus, col] = diim[bus] * kw
    J = power_flow_system_csc(grid, sol.p_load_pu, sol.q_load_pu,
                              sol.v_re, sol.v_im)
    s = grid.slack
    rhs[s, :] = 0.0
    rhs[n + s, :] = 0.0
    try:
        lu = scipy.sparse.linalg.splu(J)
    except RuntimeError as exc:  # SuperLU: factor is exactly singular
        raise SensitivityError(_singular_message(J)) from exc
    _count_factorization()
    dv = lu.solve(-rhs)
    if not np.all(np.isfinite(dv)):
        raise SensitivityError(_singular_message(J))
    return dv[:n, :], dv[n:, :]


def _singular_message(J) -> str:
    cond = np.linalg.cond(J.toarray())
    return f"singular sensitivity system (cond={cond:.3e})"


# ---------------------------------------------------------------------------
# Steps 3-4: branch currents, magnitudes, PCC flows
# ---------------------------------------------------------------------------

@dataclass
class StepSensitivities:
    """All per-kW sensitivities at one operating point.

    Column c = 6*agent + control (CONTROL_ORDER).  dv_* are p.u./kW,
    d_pcc_* are kW/kW (dimensionless).
    """

    dv_re: np.ndarray       # (n_bus, C)
    dv_im: np.ndarray       # (n_bus, C)
    dibr_re: np.ndarray     # (n_branch, C)
    dibr_im: np.ndarray     # (n_branch, C)
    dv_mag: np.ndarray      # (n_bus, C)
    di_mag: np.ndarray      # (n_branch, C)
    dpcc_p: np.ndarray      # (n_mg, C)
    dpcc_q: np.ndarray      # (n_mg, C)


def branch_and_pcc_sensitivities(grid: GridModel, sol: PowerFlowSolution,
                                 specs, dv_re: np.ndarray,
                                 dv_im: np.ndarray) -> StepSensitivities:
    """Compose branch-current, magnitude, and PCC-flow sensitivities.

    Branch currents follow i_br = y_ij (v_i - v_j); magnitude gradients
    of branches carrying |I| < 1e-9 p.u. are defined as zero.
    """
    f, t = grid.branch_from, grid.branch_to
    y_re = grid.branch_y.real[:, None]
    y_im = grid.branch_y.imag[:, None]
    ddr = dv_re[f] - dv_re[t]
    ddi = dv_im[f] - dv_im[t]
    dibr_re = y_re * ddr - y_im * ddi
    dibr_im = y_im * ddr + y_re * ddi

    v_mag = np.maximum(sol.v_mag, 1e-12)
    dv_mag = (sol.v_re[:, None] * dv_re + sol.v_im[:, None] * dv_im) / v_mag[:, None]

    i_mag = np.hypot(sol.i_br_re, sol.i_br_im)
    with np.errstate(invalid="ignore", divide="ignore"):
        di_mag = (sol.i_br_re[:, None] * dibr_re
                  + sol.i_br_im[:, None] * dibr_im) / i_mag[:, None]
    di_mag[i_mag < 1e-9, :] = 0.0

    k, sign, r = pcc_branches(grid, specs)
    base = grid.base_power_kva
    ire = (sign * sol.i_br_re[k])[:, None]
    iim = (sign * sol.i_br_im[k])[:, None]
    dire = sign[:, None] * dibr_re[k]
    diim = sign[:, None] * dibr_im[k]
    v_re = sol.v_re[r][:, None]
    v_im = sol.v_im[r][:, None]
    dpcc_p = base * (dv_re[r] * ire + v_re * dire
                     + dv_im[r] * iim + v_im * diim)
    dpcc_q = base * (dv_im[r] * ire + v_im * dire
                     - dv_re[r] * iim - v_re * diim)
    return StepSensitivities(dv_re, dv_im, dibr_re, dibr_im,
                             dv_mag, di_mag, dpcc_p, dpcc_q)


def compute_step_sensitivities(grid: GridModel, sol: PowerFlowSolution,
                               specs) -> StepSensitivities:
    """One factorization covering every control of every agent."""
    dv_re, dv_im = voltage_sensitivities(grid, sol, specs)
    return branch_and_pcc_sensitivities(grid, sol, specs, dv_re, dv_im)


# ---------------------------------------------------------------------------
# Action gradients of reward and constraint returns
# ---------------------------------------------------------------------------

def _per_agent_layout(vals_tc: np.ndarray, w: np.ndarray, n_mg: int,
                      horizon: int) -> np.ndarray:
    """(T, 6*n_mg) per-step column values -> (n_mg, 6T) control-major."""
    scaled = vals_tc * w[:, None]
    out = np.empty((n_mg, 6 * horizon))
    for n in range(n_mg):
        out[n] = scaled[:, 6 * n:6 * n + 6].T.reshape(-1)
    return out


def reward_action_gradients(sens_steps, actions, specs, gamma: float,
                            dt: float = DT_HOURS) -> np.ndarray:
    """d(J_R_n)/d(a_n) for every agent, shape (n_mg, 6T).

    Per step: discounted export income through the PCC-flow sensitivity
    minus the discounted marginal fuel cost on the own DG coordinate.
    """
    n_mg = len(specs)
    horizon = len(sens_steps)
    w = geometric_weights(gamma, horizon)
    out = np.zeros((n_mg, 6 * horizon))
    for n, spec in enumerate(specs):
        pcc_tc = np.stack([s.dpcc_p[n] for s in sens_steps])  # (T, C)
        own = _per_agent_layout(pcc_tc, w, n_mg, horizon)[n]
        grad = spec.pcc.price_per_kwh * dt * own
        p_dg = np.asarray(actions[n]).reshape(6, horizon)[0]
        marg = np.array([fuel_marginal(p, spec) for p in p_dg])
        grad[0:horizon] -= w * spec.dg.fuel_price * dt * marg
        out[n] = grad
    return out


def local_constraint_gradients(table, actions, specs, gamma: float,
                               horizon: int, *, prev_dg=None,
                               dt: float = DT_HOURS) -> dict[str, np.ndarray]:
    """Action gradients of the purely action-driven local rows.

    Returns {row_id: (n_mg, 6T)}; entries on non-owning agents are zero.
    PCC rows are network quantities and are handled with the
    sensitivity-based rows instead.
    """
    w = geometric_weights(gamma, horizon)
    out = {}
    specs_by_id = {s.mg_id: s for s in specs}
    n_mg = len(specs)
    for row in table:
        if row.scope != "local" or row.kind in CONSTRAINT_NETWORK_KINDS:
            continue
        g = np.zeros((n_mg, 6 * horizon))
        m = row.mg_id
        spec = specs_by_id[m]
        o = float(row.orientation)
        blk = np.asarray(actions[m]).reshape(6, horizon)
        if row.kind == "dg-p":
            g[m, 0:horizon] = o * w
        elif row.kind == "dg-q":
            g[m, 3 * horizon:4 * horizon] = o * w
        elif row.kind == "dg-ramp":
            # J = sum_k w_k (p_k - p_{k-1}); d/dp_j = w_j - w_{j+1}
            grad = w.copy()
            grad[:-1] -= w[1:]
            g[m, 0:horizon] = o * grad
        elif row.kind == "pv-q":
            g[m, 4 * horizon:5 * horizon] = o * w
        elif row.kind == "ess-ch":
            g[m, horizon:2 * horizon] = o * w
        elif row.kind == "ess-dis":
            g[m, 2 * horizon:3 * horizon] = o * w
        elif row.kind == "ess-q":
            g[m, 5 * horizon:6 * horizon] = o * w
        elif row.kind == "soc":
            e = spec.ess
            tail = np.cumsum(w[::-1])[::-1]  # sum_{k>=j} w_k
            g[m, horizon:2 * horizon] = o * tail * dt * e.eta_ch / e.e_cap_kwh
            g[m, 2 * horizon:3 * horizon] = -o * tail * dt / (e.eta_dis * e.e_cap_kwh)
        elif row.kind == "ess-complementarity":
            g[m, horizon:2 * horizon] = o * w * blk[2]
            g[m, 2 * horizon:3 * horizon] = o * w * blk[1]
        else:
            raise ValueError(f"unhandled local constraint kind {row.kind!r}")
        out[row.id] = g
    return out


def _rows_layout(vals_rtc: np.ndarray, w: np.ndarray, n_mg: int,
                 horizon: int) -> np.ndarray:
    """(R, T, 6*n_mg) stacked row values -> (R, n_mg, 6T) control-major."""
    scaled = vals_rtc * w[None, :, None]
    r = scaled.shape[0]
    out = np.empty((r, n_mg, 6 * horizon))
    for n in range(n_mg):
        blk = scaled[:, :, 6 * n:6 * n + 6]
        out[:, n] = blk.transpose(0, 2, 1).reshape(r, -1)
    return out


def constraint_action_gradients(table, sens_steps, actions, specs,
                                gamma: float, *, prev_dg=None,
                                dt: float = DT_HOURS) -> np.ndarray:
    """Action gradients of every constraint row, shape (M, n_mg, 6T).

    Rows follow the table order.  Network rows (voltage, branch current,
    PCC transfer) come from the per-step sensitivities; the remaining
    local rows are analytic in the actions.
    """
    horizon = len(sens_steps)
    n_mg = len(specs)
    w = geometric_weights(gamma, horizon)
    local = local_constraint_gradients(table, actions, specs, gamma, horizon,
                                       prev_dg=prev_dg, dt=dt)
    v_mag = np.stack([s.dv_mag for s in sens_steps])    # (T, n_bus, C)
    i_mag = np.stack([s.di_mag for s in sens_steps])    # (T, n_branch, C)
    pcc_p = np.stack([s.dpcc_p for s in sens_steps])    # (T, n_mg, C)
    pcc_q = np.stack([s.dpcc_q for s in sens_steps])
    sources = {"voltage": v_mag, "branch-current": i_mag,
               "pcc-p": pcc_p, "pcc-q": pcc_q}
    out = np.empty((len(table), n_mg, 6 * horizon))
    net_rows = [(m, row) for m, row in enumerate(table)
                if row.id not in local]
    if net_rows:
        sel = np.stack([
            sources[row.kind][:, row.target if row.target is not None
                              else row.mg_id, :]
            for _, row in net_rows
        ])  # (R, T, C)
        orient = np.array([row.orientation for _, row in net_rows],
                          dtype=float)
        laid = _rows_layout(sel, w, n_mg, horizon) * orient[:, None, None]
        for j, (m, _) in enumerate(net_rows):
            out[m] = laid[j]
    for m, row in enumerate(table):
        if row.id in local:
            out[m] = local[row.id]
    return out


# ---------------------------------------------------------------------------
# Chain into parameter space
# ---------------------------------------------------------------------------

def chain_sample_to_parameters(ev: PolicyEval, actions: np.ndarray,
                               dj_cols: np.ndarray) -> np.ndarray:
    """Batch mean of the chained action gradients, shape (P, K).

    actions: (S, 6T) sampled actions (or one (6T,) action); dj_cols:
    (S, 6T, K) action gradients at them (or one (6T, K)).  Per sample,
    columns pass through the level-set policy factors and the network
    Jacobians: the mean part composes with the unit factor, the
    covariance part with u = (delta^2 - sigma^2)/(2 sigma^2 delta) at
    the sampled action, then through d(mu)/d(theta) and
    d(Sigma)/d(theta).  All samples share the Jacobians, so the samples
    are summed in action space and chained once:
    J_mu^T sum_s dj_s and J_Sigma^T sum_s (dj_s * u_s), divided by S.
    """
    actions = np.reshape(actions, (-1, ev.mu.shape[0]))
    n = actions.shape[0]
    dj = np.reshape(dj_cols, (n, actions.shape[1], -1))
    u_sig = cov_chain_factor(actions, ev.mu, ev.sigma2)
    g_mu = ev.jac_mu.T @ (dj.sum(axis=0) / n)
    g_sig = ev.jac_sigma2.T @ (np.einsum("sd,sdk->dk", u_sig, dj) / n)
    return np.vstack([g_mu, g_sig])


def chain_reward_samples(ev: PolicyEval, actions: np.ndarray,
                         dj: np.ndarray) -> np.ndarray:
    """Per-sample chain of one action-gradient column, shape (P, S).

    actions and dj are (S, 6T); column s is what chain_sample_to_parameters
    gives for sample s alone.  Used for the standard error of the
    reward gradient.
    """
    u_sig = cov_chain_factor(actions, ev.mu, ev.sigma2)
    return np.vstack([ev.jac_mu.T @ dj.T, ev.jac_sigma2.T @ (dj * u_sig).T])
