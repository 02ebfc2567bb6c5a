"""Power-flow-based gradient factors for rewards and constraint returns.

The chain from network physics to policy parameters has four links:

  1. partials of the nodal load current w.r.t. each control (closed-form
     entries in the bus voltage, six controls per agent),
  2. voltage sensitivities from one factorization of the linearized
     nodal system per operating point (slack rows pinned to identity),
     on the right-hand-side columns that the controls share,
  3. voltage-magnitude, branch-current-magnitude and PCC-power
     sensitivities composed on those columns, which a control reads by
     an exact gather and sign,
  4. the action gradients of the discounted reward and of every
     constraint-return row.

All action derivatives are per kW (or kvar) of control; network
quantities stay per-unit.  One operating point = one factorization,
shared by every constraint row and every agent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    "control_columns",
    "step_sensitivity_stack",
    "reward_action_gradients",
    "reward_gradient_stack",
    "constraint_action_gradients",
    "row_gradient_stack",
    "per_action_columns",
    "chain_sample_to_parameters",
    "factorization_count",
]


class SensitivityError(RuntimeError):
    """Sensitivity system could not be solved (singular linearization)."""


_fact_count = 0


def _count_factorization(points: int):
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

def control_columns(specs) -> tuple[list, np.ndarray, np.ndarray]:
    """The right-hand-side columns of the agents' controls: the K
    distinct (basis, bus) pairs of their load-current partials, in first
    use, and per control (C,), agent-major (agent 0 controls p_dg..q_ess,
    then agent 1, ...), its column and its sign.  Controls whose partials
    share a basis and a bus share a column; the solve is exactly odd, so
    a control's sensitivities are its column's times its sign."""
    shared: dict = {}           # (basis, bus) -> column
    column, sign = [], []
    for spec in specs:
        for control in CONTROLS:
            kind, s = _CONTROL_PARTIAL[control]
            key = (kind, _control_bus(spec, control))
            column.append(shared.setdefault(key, len(shared)))
            sign.append(s)
    return list(shared), np.array(column, dtype=int), np.array(sign)


def _voltage_sensitivity_stack(grid: GridModel, pf: PowerFlowStack,
                               keys) -> np.ndarray:
    """dV/da per kW, complex (B, n_bus, K), of the K columns keys
    (control_columns) at every point of pf.

    Each column's right-hand side is its load-current partial at its own
    bus, so the 2n x 2n linearizations of all points are solved with one
    solve_unit_columns call: on a radial grid each column is carried
    along its bus's path to the root only, on a meshed one the columns
    go through dense LU.  A column at the slack bus, whose row is pinned
    to identity, solves to zero."""
    base = _partial_bases(pf)
    bus = np.array([b for _, b in keys], dtype=int)
    kw = 1.0 / grid.base_power_kva
    value = np.empty((len(pf), len(keys)), dtype=complex)
    for col, (kind, b) in enumerate(keys):
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
    return x


def _singular_message(grid: GridModel, pf: PowerFlowStack, b: int) -> str:
    cond = np.linalg.cond(power_flow_system_matrix(
        grid, pf.p_load_pu[b], pf.q_load_pu[b], pf.v_re[b], pf.v_im[b]))
    return f"singular sensitivity system (cond={cond:.3e})"


# ---------------------------------------------------------------------------
# Step 3: voltage and current magnitudes, PCC flows
# ---------------------------------------------------------------------------

@dataclass
class StepSensitivities:
    """All per-kW sensitivities at one operating point, on the K columns
    of control_columns.

    dv is complex, p.u./kW; dv_abs and di_abs are the voltage and
    branch-current magnitudes' (p.u./kW), dp_pcc and dq_pcc the PCC
    flows' (kW/kW, dimensionless).  Control c = 6*agent + control reads
    column[c] times sign[c], an exact gather and sign: dv_re, dv_im,
    dv_mag, di_mag, dpcc_p and dpcc_q are those per-control views,
    (..., C).  For a stack of operating points every array carries the
    stack's leading axes; column and sign do not.
    """

    dv: np.ndarray          # (n_bus, K) complex
    dv_abs: np.ndarray      # (n_bus, K)
    di_abs: np.ndarray      # (n_branch, K)
    dp_pcc: np.ndarray      # (n_mg, K)
    dq_pcc: np.ndarray      # (n_mg, K)
    column: np.ndarray      # (C,) each control's column
    sign: np.ndarray        # (C,) and its sign

    _ARRAYS = ("dv", "dv_abs", "di_abs", "dp_pcc", "dq_pcc")

    def map(self, fn) -> "StepSensitivities":
        """fn applied to every array; the columns stay."""
        return replace(self, **{name: fn(getattr(self, name))
                                for name in self._ARRAYS})

    @classmethod
    def stack(cls, steps) -> "StepSensitivities":
        """Per-step sensitivities as one stack with a leading step axis."""
        steps = list(steps)
        return replace(steps[0], **{
            name: np.stack([getattr(s, name) for s in steps])
            for name in cls._ARRAYS})

    def per_control(self, x: np.ndarray) -> np.ndarray:
        """x (..., K) laid out per control, (..., C)."""
        return x[..., self.column] * self.sign

    def of_kind(self, kind: str) -> np.ndarray:
        """The array (..., X, K) that rows of a network kind read."""
        return {"voltage": self.dv_abs, "branch-current": self.di_abs,
                "pcc-p": self.dp_pcc, "pcc-q": self.dq_pcc}[kind]

    # the per-control views
    dv_re = property(lambda self: self.per_control(self.dv.real))
    dv_im = property(lambda self: self.per_control(self.dv.imag))
    dv_mag = property(lambda self: self.per_control(self.dv_abs))
    di_mag = property(lambda self: self.per_control(self.di_abs))
    dpcc_p = property(lambda self: self.per_control(self.dp_pcc))
    dpcc_q = property(lambda self: self.per_control(self.dq_pcc))


def _compose(grid: GridModel, pf: PowerFlowStack, specs,
             dv: np.ndarray) -> tuple[np.ndarray, ...]:
    """The magnitude and PCC-flow sensitivities (B, ..., K) of every
    point of pf from its voltage sensitivities dv (B, n_bus, K), column
    by column with per-point factors:

      d|V| = Re(conj(V/|V|) dV),
      d|I| = Re(gamma (dV_f - dV_t)) with gamma = conj(I) y / |I|, zero
             on a branch that carries |I| < 1e-9 p.u.,

    and the PCC flows from dV and from dI = y (dV_f - dV_t) at the PCC
    branches only."""
    v_mag = np.maximum(pf.v_mag, 1e-12)
    dv_abs = (pf.v_re / v_mag)[:, :, None] * dv.real
    dv_abs += (pf.v_im / v_mag)[:, :, None] * dv.imag

    y = grid.branch_y
    dd = dv[:, grid.branch_from]
    dd -= dv[:, grid.branch_to]

    k, sign, r = pcc_branches(grid, specs)
    base = grid.base_power_kva
    y_re, y_im = y.real[k, None], y.imag[k, None]
    ddr = dd.real[:, k]
    ddi = dd.imag[:, k]
    dire = sign[:, None] * (y_re * ddr - y_im * ddi)
    diim = sign[:, None] * (y_im * ddr + y_re * ddi)
    ire = (sign * pf.i_br_re[:, k])[:, :, None]
    iim = (sign * pf.i_br_im[:, k])[:, :, None]
    v_re = pf.v_re[:, r][:, :, None]
    v_im = pf.v_im[:, r][:, :, None]
    dv_re, dv_im = dv.real[:, r], dv.imag[:, r]
    dp_pcc = base * (dv_re * ire + v_re * dire + dv_im * iim + v_im * diim)
    dq_pcc = base * (dv_im * ire + v_im * dire - dv_re * iim - v_re * diim)

    i_mag = np.hypot(pf.i_br_re, pf.i_br_im)
    inv = np.divide(1.0, i_mag, out=np.zeros_like(i_mag), where=i_mag >= 1e-9)
    gamma_re = (pf.i_br_re * y.real + pf.i_br_im * y.imag) * inv
    gamma_im = (pf.i_br_re * y.imag - pf.i_br_im * y.real) * inv
    di_abs = gamma_re[:, :, None] * dd.real
    dd.imag *= gamma_im[:, :, None]
    di_abs -= dd.imag
    return dv_abs, di_abs, dp_pcc, dq_pcc


def compute_step_sensitivities(grid: GridModel, sol: PowerFlowSolution,
                               specs) -> StepSensitivities:
    """One factorization covering every control of every agent; the
    one-point case of step_sensitivity_stack."""
    return step_sensitivity_stack(grid, PowerFlowStack.of([sol]),
                                  specs).map(lambda x: x[0])


def step_sensitivity_stack(grid: GridModel, pf: PowerFlowStack,
                           specs) -> StepSensitivities:
    """Sensitivities of every (converged) point of pf, arrays (B, ...),
    on the K columns of specs' controls: one solve_unit_columns call
    (one factorization counted per point), then _compose.  No
    per-control copy is formed; the per-control views gather and sign
    on use."""
    keys, column, sign = control_columns(specs)
    dv = _voltage_sensitivity_stack(grid, pf, keys)
    return StepSensitivities(dv, *_compose(grid, pf, specs, dv), column,
                             sign)


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
    dpcc_p = sens.dpcc_p
    samples, horizon, n_mg = dpcc_p.shape[:3]
    w = geometric_weights(gamma, horizon)
    agents = np.arange(n_mg)
    # each agent's own PCC flow against its own six controls
    own = dpcc_p.reshape(samples, horizon, n_mg, n_mg, 6)[
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
    for kind, (pos, target, orient) in index.groups.items():
        if kind not in CONSTRAINT_NETWORK_KINDS:
            continue
        src = sens.per_control(np.take(sens.of_kind(kind), target, axis=-2))
        out[..., _span(pos)] = per_action_columns(src.swapaxes(-1, -2), w,
                                                  orient)


def per_action_columns(x: np.ndarray, weights: np.ndarray,
                       orient: np.ndarray) -> np.ndarray:
    """Network columns per control x (..., T, C, X), each control's
    column gathered and signed, as action-space columns (..., N, 6T, X)
    in control-major layout, discounted by weights (T,) and oriented by
    orient (X,)."""
    *lead, horizon, controls, count = x.shape
    x = x * (weights[:, None, None] * orient)
    x = x.reshape(*lead, horizon, controls // 6, 6, count)
    return np.moveaxis(x, -4, -2).reshape(*lead, controls // 6, 6 * horizon,
                                          count)


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
    w = geometric_weights(gamma, sens.dv.shape[1])
    if out is None:
        out = np.empty((*actions.shape, index.n_rows))
    _network_row_gradients(index, sens, w, out)
    _local_row_gradients(index, actions, specs, w, out)
    return out


def constraint_action_gradients(table, sens_steps, actions, specs,
                                gamma: float) -> np.ndarray:
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
