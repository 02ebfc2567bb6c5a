"""Multi-agent consensus primal-dual training of the dispatch policies.

One training episode anchors every gradient at the current parameters,
then iterates four stages until the parameter change stalls:

  II.  the mean of the agents' prices,
  III. primal step (ascent on reward, descent on the price-weighted
       shared-network constraint gradients),
  IV.  projection onto the agent's linearized local rows inside the
       Fisher-metric trust region,
  V.   projected dual ascent on the shared-network row residuals.

Agents share nothing but dual prices.  An agent's steps read its own
batch columns and Fisher rows, the batch-mean returns, the bounds and
the price mean; so after one iteration, scaling another agent's columns
and Fisher rows leaves its parameters and prices bit-identical
(TestPriceBoundary in tests/test_training.py).
"""

from __future__ import annotations

import ctypes
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import GridModel, PowerFlowStack, solve_power_flow_stack
from .gradients import (
    control_columns,
    per_action_columns,
    reward_gradient_stack,
    row_gradient_stack,
    step_sensitivity_stack,
)
# one-sample views and the parameter-space chain, which training no
# longer calls; the benchmark's tracer (perfbench/tracing.py) still
# looks them up on this module
from .grid import solve_power_flow  # noqa: F401
from .gradients import (  # noqa: F401
    chain_sample_to_parameters,
    compute_step_sensitivities,
    constraint_action_gradients,
    reward_action_gradients,
)
from .microgrid import constraint_returns, reward_return  # noqa: F401
from .microgrid import (
    CONSTRAINT_NETWORK_KINDS,
    ConstraintIndex,
    MicrogridSpec,
    Observables,
    actions_to_injections,
    build_constraint_table,
    constraint_return_stack,
    geometric_weights,
    make_state_vector,
    network_observables,
    reward_return_stack,
    window_bounds,
)
from .policy import ActionScaling, GaussianPolicy, cov_chain_factor
from .scenario import (Scenario, TrainerConfig, forecast_with_error,
                       perturb_network)

__all__ = [
    "TrainingState",
    "EpisodeRecord",
    "World",
    "WindowEval",
    "EpisodeAborted",
    "ProjectionInfeasible",
    "primal_step",
    "trust_quadratic",
    "project_local",
    "dual_step",
    "backtrack_bounds",
    "build_world",
    "build_agents",
    "resolve_removed_rows",
    "train_episode",
    "train",
    "select_actions_online",
    "evaluate_window",
]

# rng stream tags (third entry of the seed sequence)
_STREAM_INIT = 0
_STREAM_FORECAST = 1
_STREAM_SAMPLE = 2
_STREAM_DISPATCH = 3


class EpisodeAborted(RuntimeError):
    """Episode could not be completed (excessive power-flow failures)."""


class ProjectionInfeasible(RuntimeError):
    """Local rows admit no feasible point; caller should escalate."""


try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
except (OSError, AttributeError, TypeError):   # no C library, or no mallopt
    _mallopt = None
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3     # glibc's malloc.h


def _keep_freed_memory() -> None:
    """Have the C allocator keep freed memory for reuse.

    A batch runs stack after stack of draws, each allocating and freeing
    some MB of arrays.  By default glibc maps such blocks afresh (above a
    sliding mmap threshold) or trims them off the heap once freed, so
    every stack page-faults its memory in again: about 60,000 faults in
    a paper98 episode against about 200 with this setting, and some 40 %
    more episode time, a cost that varies with the host's memory load.
    Fixed thresholds, 32 MB (glibc's ceiling) for mmap and 256 MB for
    trimming, keep that memory on the heap for the next stack.  The
    setting holds for the whole process; where the C library has no
    mallopt this does nothing.
    """
    if _mallopt is not None:
        _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        _mallopt(_M_TRIM_THRESHOLD, 256 << 20)


# ---------------------------------------------------------------------------
# Primal / projection / dual stages
# ---------------------------------------------------------------------------

def primal_step(theta: np.ndarray, g: np.ndarray, b_global: np.ndarray,
                lam_bar: np.ndarray, rho1: float) -> np.ndarray:
    """Ascent on the reward gradient, descent on price-weighted rows."""
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(b_global))):
        raise ValueError("non-finite gradient entries in primal step")
    return theta - rho1 * (-g + b_global @ lam_bar)


def trust_quadratic(factor: np.ndarray, d: np.ndarray) -> float:
    """(1/2) d^T (F^T F + 1e-8 I) d from the metric's rows F, (k, P).

    The ridge keeps the trust-region metric positive definite off the
    (at most k-dimensional) span of the Fisher rows.
    """
    r = factor @ d
    return 0.5 * float(r @ r + 1e-8 * (d @ d))


# stopping tolerance and sweep cap of project_local
_PROJECT_TOL = 1e-6
_PROJECT_SWEEPS = 500


def project_local(theta_bar: np.ndarray, theta0: np.ndarray,
                  rows: np.ndarray, rows_c: np.ndarray, factor: np.ndarray,
                  delta: float, nu: np.ndarray):
    """Project onto {b_m^T theta <= c_m} inside the Fisher trust region.

    The region is trust_quadratic(factor, theta - theta0) <= delta, i.e.
    the metric H = F^T F + 1e-8 I given by its rows F = `factor`.  The
    rows b_m are those of `rows`, (m, len(theta)), ideally C-contiguous;
    the inner loop passes span coordinates and factor diag(S).  Cyclic
    row corrections with multiplier memory, warm-started from the
    multipliers nu (m,), followed by radial scaling into the ball after
    each sweep.  Exact on a single halfspace, on a ball-only instance,
    and the identity on already-feasible input when nu is zero.
    Returns (theta, multipliers).

    Rows unreachable inside the trust region yield the stationary
    compromise on the ball boundary (the outer loop keeps shrinking the
    residual episode over episode); a violated row with a zero gradient
    is genuinely inconsistent and raises so the caller can escalate.
    Running out of _PROJECT_SWEEPS sweeps before either stopping rule
    fires emits a RuntimeWarning that states the largest row violation
    and the trust excess, trust_quadratic - delta, at exit.
    """
    tol = _PROJECT_TOL
    m = rows.shape[0]
    norms = np.einsum("mp,mp->m", rows, rows)
    scale = max(1.0, float(np.abs(rows_c).max())) if m else 1.0
    if m:
        dead = (norms < 1e-30) & (rows_c < -tol * scale)
        if np.any(dead):
            raise ProjectionInfeasible(
                f"{int(dead.sum())} local row(s) violated with zero gradient")
    theta = theta_bar - nu @ rows

    # The row sweep is sequential, so it runs on Python floats.  It reads
    # the residuals b_j^T theta - c_j from `res`, kept current by the Gram
    # matrix G = rows rows^T: a step s of row j moves them by -s * G[j],
    # so a row that takes no step costs no dot product.  The stop test
    # recomputes them after each sweep, so rounding drift never outlives
    # a sweep.
    live = [j for j in range(m) if norms[j] >= 1e-30]
    row_list, norm_list = list(rows), norms.tolist()
    gram = rows @ rows.T
    nu_list = nu.tolist()
    resid = rows @ theta - rows_c
    res = resid.tolist()
    prev = None
    for _ in range(_PROJECT_SWEEPS):
        moved = 0.0
        for j in live:
            if res[j] <= 0.0 and nu_list[j] == 0.0:
                continue  # satisfied and inactive: no step
            step = max(-nu_list[j], res[j] / norm_list[j])
            if step != 0.0:
                nu_list[j] += step
                theta -= step * row_list[j]
                resid -= step * gram[j]
                res = resid.tolist()
                moved = max(moved, abs(step) * math.sqrt(norm_list[j]))
        d = theta - theta0
        q = trust_quadratic(factor, d) - delta
        if q > 0:
            shrink = math.sqrt(delta / (q + delta))
            theta = theta0 + d * shrink
            moved = max(moved, math.sqrt(float(d @ d)) * (1 - shrink))
        # the scaling leaves theta on the ball up to rounding, so only the
        # rows and the step size decide convergence
        resid = rows @ theta - rows_c
        res = resid.tolist()
        viol = max(res, default=0.0)
        if moved <= tol and viol <= tol * scale:
            break
        if prev is not None:
            diff = theta - prev
            if math.sqrt(float(diff @ diff)) <= tol:
                break  # stationary compromise between rows and trust region
        prev = theta.copy()
    else:
        excess = trust_quadratic(factor, theta - theta0) - delta
        warnings.warn(f"project_local: {_PROJECT_SWEEPS} sweeps ended before "
                      "either stopping rule fired, at largest row violation "
                      f"{max(viol, 0.0):.3g} and trust excess {excess:.3g}",
                      RuntimeWarning, stacklevel=2)
    return theta, np.array(nu_list)


def dual_step(lam_bar: np.ndarray, j0: np.ndarray, b_global: np.ndarray,
              theta_new: np.ndarray, theta0: np.ndarray, rho2: float,
              d: np.ndarray) -> np.ndarray:
    """Projected ascent on the linearized shared-row residuals."""
    resid = j0 + b_global.T @ (theta_new - theta0) - d
    return np.maximum(lam_bar + rho2 * resid, 0.0)


def backtrack_bounds(d: np.ndarray, violated_indices, tau: float) -> np.ndarray:
    """Tighten only the violated rows: d* = tau * d, 0 < tau < 1."""
    if not (0.0 < tau < 1.0):
        raise ValueError("tightening multiplier must be in (0, 1)")
    out = np.asarray(d, dtype=float).copy()
    idx = list(violated_indices)
    out[idx] = tau * out[idx]
    return out


# ---------------------------------------------------------------------------
# World
# ---------------------------------------------------------------------------

@dataclass
class World:
    """Everything a training run needs, built once from a scenario."""

    grid: GridModel                 # physical network (power flow, PFE)
    sens_grid: GridModel            # believed network (gradient factors)
    specs: list[MicrogridSpec]
    table: list
    profiles: object
    host_loads: dict
    horizon: int
    cfg: TrainerConfig
    forecast_error: object
    seed: int
    index: ConstraintIndex = field(init=False, repr=False, compare=False)
    # every row's ConstraintSpec.window_bound in table order, for the
    # cfg.gamma and horizon the World is built with
    row_bounds: np.ndarray = field(init=False, repr=False, compare=False)
    # evaluate_window's last stack of one: (key, read-only WindowEval)
    window_memo: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        self.index = ConstraintIndex.of(self.table)
        weight = float(np.sum(geometric_weights(self.cfg.gamma,
                                                self.horizon)))
        self.row_bounds = np.array([r.bound for r in self.table],
                                   dtype=float) * weight

    @cached_property
    def quantities(self) -> tuple:
        """index.quantities(), built on first use by a batch: a dispatch
        that passes its gate never needs it."""
        return self.index.quantities()

    @cached_property
    def column_layout(self) -> "_ColumnLayout":
        """Where a batch's gradient columns go (_ColumnLayout), for the
        cfg.gamma and horizon of its first use; built on first use by a
        batch, like quantities."""
        return _ColumnLayout.of(self.quantities, self.specs, self.cfg.gamma,
                                self.horizon)

    @property
    def n_agents(self) -> int:
        return len(self.specs)

    def window_start(self, episode: int) -> int:
        """Episodes cycle through every start 0..n_steps - horizon."""
        span = self.profiles.n_steps - self.horizon
        return episode % max(span + 1, 1)

    def bounds(self, row) -> float:
        return row.window_bound(self.cfg.gamma, self.horizon)

    def over(self, returns: np.ndarray) -> np.ndarray:
        """Mask (..., M) of the window returns (..., M) that exceed their
        row's bound by more than 1e-9."""
        return returns > self.row_bounds + 1e-9

    def violated(self, returns: np.ndarray,
                 removed=frozenset()) -> np.ndarray:
        """Table positions, in order, of the rows whose window returns
        (M,) are over their bounds, rows in removed excepted."""
        over = np.flatnonzero(self.over(returns))
        return np.array([m for m in over if self.index.ids[m] not in removed],
                        dtype=int)


def build_world(scenario: Scenario) -> World:
    cfg = TrainerConfig(**scenario.training)
    table = build_constraint_table(scenario.grid, scenario.specs)
    sens_grid = scenario.grid
    if scenario.network_noise_variance > 0:
        sens_grid = perturb_network(scenario.grid,
                                    scenario.network_noise_variance,
                                    scenario.seed * 1_000_003 + 17)
    return World(
        grid=scenario.grid, sens_grid=sens_grid, specs=scenario.specs,
        table=table, profiles=scenario.profiles,
        host_loads=scenario.host_loads, horizon=scenario.window, cfg=cfg,
        forecast_error=scenario.forecast_error, seed=scenario.seed,
    )


def build_agents(world: World) -> list[GaussianPolicy]:
    """Fresh policies, one per microgrid, seeded by the world's seed."""
    horizon = world.horizon
    agents = []
    for n, spec in enumerate(world.specs):
        lo, hi = window_bounds(spec, horizon)
        span = world.cfg.sigma_span_frac * (hi - lo)
        load_scale = max(float(world.profiles.load_kw[:, n].max()), 1.0)
        scaling = ActionScaling(
            lo=lo, hi=hi, sigma_span=span,
            sigma_floor=world.cfg.sigma_floor,
            state_offset=np.zeros(2 * horizon),
            state_scale=np.concatenate([np.ones(horizon),
                                        np.full(horizon, load_scale)]),
        )
        rng = np.random.default_rng([world.seed, _STREAM_INIT, n])
        agents.append(GaussianPolicy.initialize(
            2 * horizon, 6 * horizon, scaling, rng,
            hidden=world.cfg.hidden_layers))
    return agents


def resolve_removed_rows(table, tokens) -> set[str]:
    """Expand removal tokens into row ids.

    Tokens: 'all', 'global', 'local', exact row id, a kind like 'dg-p',
    or 'kind:mgN' limiting a kind to one microgrid.
    """
    ids = {r.id for r in table}
    out: set[str] = set()
    for tok in tokens:
        tok = tok.strip()
        if not tok:
            continue
        if tok == "all":
            out |= ids
        elif tok in ("global", "local"):
            out |= {r.id for r in table if r.scope == tok}
        elif tok in ids:
            out.add(tok)
        else:
            kind, _, mg = tok.partition(":")
            matched = {r.id for r in table if r.kind == kind
                       and (not mg or f"mg{r.mg_id}" == mg)}
            if not matched:
                raise ValueError(f"constraint-removal token {tok!r} matches "
                                 "no rows")
            out |= matched
    return out


# ---------------------------------------------------------------------------
# Joint action evaluation
# ---------------------------------------------------------------------------

@dataclass
class WindowEval:
    """A stack of S joint actions evaluated over their decision window.

    Every array but `accepted` covers the accepted actions only, in
    stack order: A of them, those whose every step's power flow
    converged.
    """

    accepted: np.ndarray         # (S,)
    actions: np.ndarray          # (A, N, 6T)
    pf: PowerFlowStack           # their A x T operating points, action-major
    obs: Observables             # fields (A, T, ...)
    returns: np.ndarray          # (A, M) window returns in table order
    rewards: np.ndarray          # (A, N) discounted reward per agent

    def cost(self, a: int) -> float:
        """Window operating cost in $ of accepted action a (negative of
        its summed rewards)."""
        return -float(sum(self.rewards[a].tolist()))


def evaluate_window(world: World, actions: np.ndarray, irr_truth, load_truth,
                    prev_dg=None) -> WindowEval:
    """Injections, the S x T power flows as one stack, observables,
    returns and rewards of a stack of joint actions (S, N, 6T).  prev_dg
    (zeros when None) feeds the ramp rows.

    The world keeps the evaluation of the last stack of one action, with
    its arrays made read-only.  A stack of one whose actions, irr_truth,
    load_truth, prev_dg (None read as zeros) and cfg.gamma equal that
    call's bit for bit gets it back and solves nothing, so the cost and
    the audit of a dispatch decision reuse the gate's final check.
    Larger stacks are never kept.
    """
    samples, horizon, n_bus = actions.shape[0], world.horizon, world.grid.n_bus
    key = None
    if samples == 1:
        # the shape and bytes of every value the evaluation reads
        prev = np.zeros(world.n_agents) if prev_dg is None else prev_dg
        key = tuple((np.shape(x), np.asarray(x, dtype=float).tobytes())
                    for x in (actions, irr_truth, load_truth, prev,
                              world.cfg.gamma))
        if world.window_memo is not None and world.window_memo[0] == key:
            return world.window_memo[1]
    p, q = actions_to_injections(actions, load_truth, irr_truth, world.specs,
                                 n_bus, world.host_loads)
    pf = solve_power_flow_stack(world.grid, p.reshape(-1, n_bus),
                                q.reshape(-1, n_bus))
    accepted = pf.converged.reshape(samples, horizon).all(axis=1)
    actions = actions[accepted]
    count = actions.shape[0]
    if count < samples:
        pf = pf.take(np.flatnonzero(np.repeat(accepted, horizon)))
    obs = network_observables(world.grid, pf, world.specs)
    obs = Observables(*(x.reshape(count, horizon, *x.shape[1:]) for x in
                        (obs.v_mag, obs.i_mag, obs.pcc_p, obs.pcc_q)))
    gamma = world.cfg.gamma
    returns = constraint_return_stack(world.index, actions, obs, world.specs,
                                      gamma, prev_dg=prev_dg)
    rewards = reward_return_stack(actions, obs.pcc_p, world.specs, gamma)
    ev = WindowEval(accepted, actions, pf, obs, returns, rewards)
    if key is not None:
        for part in (ev, pf, obs):
            for x in vars(part).values():
                if isinstance(x, np.ndarray):
                    x.flags.writeable = False
        world.window_memo = (key, ev)
    return ev


# ---------------------------------------------------------------------------
# Joint batch evaluation
# ---------------------------------------------------------------------------

# A batch is evaluated in stacks of this many joint draws (x T operating
# points): enough to amortise the Python overhead per stack, few enough
# that a stack's arrays stay small and cache-warm and, with
# _keep_freed_memory, are reused from one stack to the next.
_STACK_DRAWS = 16


@dataclass(frozen=True)
class _ColumnLayout:
    """The constrained quantities (World.quantities) as a batch computes
    and folds their gradient columns.

    The reward's and the action-driven local quantities' columns are
    laid out in action space, (N, 6T, L+1): the reward, then `local`,
    the local quantities indexed on their own.  The X network
    quantities (voltage, branch current, PCC flows) stay on the K
    columns of the sensitivity solve, (T, K, X): the kinds of
    `network`, each (kind, targets), in order.  local_at and network_at
    are their columns of the chain matrix, 0 for the reward and 1 + the
    quantity's position; network_orient is each network quantity's
    orientation.  row_at and row_orient (M+1,) expand the chain matrix
    to the reward and the table's rows: output column 0 is the reward's,
    column 1 + m row m's, its quantity's column times its orientation.
    column and sign (C,) are the controls' columns (control_columns) and
    weights (T,) the discounts.
    """

    quantities: tuple
    local: ConstraintIndex
    local_at: np.ndarray
    network: tuple
    network_at: np.ndarray
    network_orient: np.ndarray
    row_at: np.ndarray
    row_orient: np.ndarray
    column: np.ndarray
    sign: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, quantities, specs, gamma: float,
           horizon: int) -> "_ColumnLayout":
        index, of_row, orientation = quantities
        local, local_pos, network, network_pos, orients = {}, [], [], [], []
        for kind, (pos, target, orient) in index.groups.items():
            if kind in CONSTRAINT_NETWORK_KINDS:
                network.append((kind, target))
                network_pos.append(pos)
                orients.append(orient)
            else:
                first = sum(p.size for p in local_pos)
                local[kind] = (first + np.arange(pos.size), target, orient)
                local_pos.append(pos)
        local_pos = np.concatenate([[], *local_pos]).astype(int)
        network_pos = np.concatenate([[], *network_pos]).astype(int)
        _, column, sign = control_columns(specs)
        return cls(quantities,
                   ConstraintIndex(tuple(index.ids[m] for m in local_pos),
                                   local),
                   np.concatenate([[0], 1 + local_pos]), tuple(network),
                   1 + network_pos, np.concatenate([[], *orients]),
                   np.concatenate([[0], 1 + of_row]),
                   np.concatenate([[1.0], orientation]), column, sign,
                   geometric_weights(gamma, horizon))

    @property
    def n_columns(self) -> int:         # K
        return int(self.column.max()) + 1

    def per_action(self, x: np.ndarray) -> np.ndarray:
        """Network columns per control x (..., T, C, X), each control's
        column gathered, as action-space columns (..., N, 6T, X):
        signed, discounted and oriented (per_action_columns)."""
        return per_action_columns(x * self.sign[:, None], self.weights,
                                  self.network_orient)


def _evaluate_draws(world: World, draws: np.ndarray, irr_truth, load_truth,
                    prev_dg):
    """The window evaluation of S joint draws (S, N, 6T) and, from one
    sensitivity stack over the points of its A accepted draws, their
    gradient columns as World.column_layout lays them out: in action
    space (A, N, 6T, L+1) for the reward and the local quantities, and
    (A, T, K, X) for the network quantities, each quantity's sensitivity
    at each step on the solve's K columns, undiscounted."""
    ev = evaluate_window(world, draws, irr_truth, load_truth, prev_dg)
    layout = world.column_layout
    count, n, width = ev.actions.shape
    horizon = world.horizon
    local = np.empty((count, n, width, layout.local.n_rows + 1))
    shape = (count, horizon, layout.n_columns, layout.network_at.size)
    if not count:
        return ev, (local, np.empty(shape))
    gamma = world.cfg.gamma
    sens = step_sensitivity_stack(world.sens_grid, ev.pf, world.specs).map(
        lambda x: x.reshape(count, horizon, *x.shape[1:]))
    local[..., 0] = reward_gradient_stack(sens, ev.actions, world.specs, gamma)
    row_gradient_stack(layout.local, sens, ev.actions, world.specs, gamma,
                       out=local[..., 1:])
    network = np.empty(shape)
    first = 0
    for kind, target in layout.network:
        done = first + target.size
        source = sens.of_kind(kind).swapaxes(2, 3)
        network[..., first:done] = source[..., target]
        first = done
    return ev, (local, network)


class _BatchEval:
    """A batch's accepted draws, added stack by stack in draw order: each
    draw's returns and rewards, and the sums of their gradient columns
    (_evaluate_draws) that chain() needs.  Per agent, over draws s with
    action-space columns dj_s (6T, L+1) of the reward and the local
    quantities and level-set covariance factors u_s (cov_chain_factor),
    the sums of dj_s and of u_s * dj_s.  Over draws s with network
    columns n_s (T, K, X), the sum of n_s and, per control c, the sum of
    u_s[c, t] * n_s[t, column[c]] (T, C, X): the one per-control
    gather, on one draw's block.  Draws are added one at a time, so the
    sums do not depend on the stacks.  chain() applies the discounts,
    the column signs and the orientations, and lays the network
    quantities into C, once per batch."""

    def __init__(self, evals, layout: _ColumnLayout, size: int):
        self.layout = layout
        self.mu = np.stack([ev.mu for ev in evals])            # (N, 6T)
        self.sigma2 = np.stack([ev.sigma2 for ev in evals])
        n, width = self.mu.shape
        self.dj, self.udj = np.zeros((2, n, width, layout.local.n_rows + 1))
        horizon, count = layout.weights.size, layout.network_at.size
        self.net = np.zeros((horizon, layout.n_columns, count))
        self.unet = np.zeros((horizon, layout.column.size, count))
        self.returns = np.empty((size, layout.row_at.size - 1))   # (S, M)
        self.draw_rewards = np.empty((size, n))
        self.count = self.discards = 0

    def add(self, ev: WindowEval, cols) -> None:
        """Add the accepted draws of ev and their columns (_evaluate_draws)."""
        local, network = cols
        done = self.count + len(local)
        self.returns[self.count:done] = ev.returns
        self.draw_rewards[self.count:done] = ev.rewards
        u = cov_chain_factor(ev.actions, self.mu, self.sigma2)
        count, n, width = u.shape
        horizon = self.layout.weights.size
        # each draw's factors by step and control, (A, T, C, 1)
        u_net = u.reshape(count, n, 6, horizon).transpose(0, 3, 1, 2).reshape(
            count, horizon, 6 * n, 1)
        column = self.layout.column
        for u_s, dj_s, un_s, n_s in zip(u, local, u_net, network):
            self.dj += dj_s
            self.udj += u_s[:, :, None] * dj_s
            self.net += n_s
            per_control = n_s[:, column]
            per_control *= un_s
            self.unet += per_control
        self.count = done

    @property
    def j_values(self) -> np.ndarray:               # (M,) batch means
        return self.returns[:self.count].mean(axis=0)

    @property
    def rewards(self) -> np.ndarray:                # (N,) batch means
        return self.draw_rewards[:self.count].mean(axis=0)

    def chain(self) -> np.ndarray:
        """Per agent, C = [sqrt(sigma^2/2) * mean dj_s; sqrt(2) sigma^2 *
        mean u_s dj_s] (N, 2 * 6T, M+1), the reward then the table's rows,
        so that F^T C is the parameter-space chain of every column (F:
        PolicyEval.fisher_factor).  A network quantity's dj_s at
        step t of control c is weights[t] * sign[c] times its
        sensitivity on column[c].  A row's column is its orientation
        times its quantity's; negation is exact, so it equals the mean of
        the row's own columns bit for bit."""
        layout = self.layout
        n, width = self.mu.shape
        cols = np.empty((n, 2 * width, 1 + layout.quantities[0].n_rows))
        cols[:, :width, layout.local_at] = self.dj
        cols[:, width:, layout.local_at] = self.udj
        cols[:, :width, layout.network_at] = layout.per_action(
            self.net[:, layout.column])
        cols[:, width:, layout.network_at] = layout.per_action(self.unet)
        scale = np.concatenate([np.sqrt(self.sigma2 / 2.0),
                                math.sqrt(2.0) * self.sigma2], axis=1)
        c = scale[:, :, None] * cols
        # + 0.0 turns the -0.0 of a negated zero into the +0.0 that a sum
        # of the row's own columns, started at +0.0, gives
        return (c / self.count)[:, :, layout.row_at] * layout.row_orient + 0.0


def _evaluate_batch(world: World, evals, sample_tag, irr_truth, load_truth,
                    prev_dg) -> _BatchEval:
    _keep_freed_memory()
    cfg = world.cfg
    tag = sample_tag if isinstance(sample_tag, (list, tuple)) else [sample_tag]
    rng = np.random.default_rng([world.seed, _STREAM_SAMPLE, *tag])
    # every round draws what is missing, so exactly cfg.batch are accepted
    batch = _BatchEval(evals, world.column_layout, cfg.batch)
    n, width = batch.mu.shape
    limit = max(4, cfg.batch)
    while batch.count < cfg.batch:
        need = cfg.batch - batch.count
        draws = np.empty((need, n, width))
        for a in range(n):
            draws[:, a, :] = batch.mu[a] + np.sqrt(batch.sigma2[a]) * \
                rng.standard_normal((need, width))
        for first in range(0, need, _STACK_DRAWS):
            part, cols = _evaluate_draws(world,
                                         draws[first:first + _STACK_DRAWS],
                                         irr_truth, load_truth, prev_dg)
            for _ in np.flatnonzero(~part.accepted):
                batch.discards += 1
                if batch.discards > limit:
                    raise EpisodeAborted(
                        f"update {tag}: {batch.discards} power-flow failures "
                        f"exceed the limit of max(4, batch) = {limit}")
            batch.add(part, cols)
            del cols                 # freed before the next stack runs
    return batch


# ---------------------------------------------------------------------------
# Episode record and training state
# ---------------------------------------------------------------------------

@dataclass
class TrainingState:
    """What carries from one episode to the next besides the agents'
    parameters, which the agents hold."""

    episode: int = 0
    prev_dg: np.ndarray | None = None


@dataclass
class EpisodeRecord:
    episode: int
    rewards: list[float]           # batch-mean reward per agent
    rewards_dispatch: list[float]  # reward of the mean action per agent
    j_values: dict[str, float]     # batch-mean return per row
    j_dispatch: dict[str, float]   # mean-action return per row
    lambda_final: list[list[float]]           # per agent, per global row
    # row id -> per-iteration per-agent values
    lambda_traj: dict[str, list[list[float]]]
    theta_change: list[float]      # episode-to-episode norm per agent
    inner_iterations: int
    inner_converged: bool
    backtrack_rounds: int
    pfe_verdict: str
    discards: int
    wall_clock_s: float = 0.0      # written to the timings sidecar only


def postprocess_complementarity(actions: np.ndarray,
                                horizon: int) -> np.ndarray:
    """Zero the smaller of (charge, discharge) per step before dispatch;
    the larger is kept, clipped at zero (charge on a tie)."""
    blk = actions.reshape(-1, 6, horizon)
    ch, dis = blk[:, 1], blk[:, 2]
    keep_ch = ch >= dis
    out = blk.copy()
    out[:, 1] = np.where(keep_ch, np.maximum(ch, 0.0), 0.0)
    out[:, 2] = np.where(keep_ch, 0.0, np.maximum(dis, 0.0))
    return out.reshape(actions.shape)


def _dispatch_actions_mean(agents, states, horizon) -> np.ndarray:
    """The action that would be dispatched: policy mean, post-processed."""
    raw = np.stack([ag.forward_mean(states[n])
                    for n, ag in enumerate(agents)])
    return postprocess_complementarity(raw, horizon)


@dataclass(frozen=True)
class _RowLayout:
    """The table's rows as the inner loop reads them."""

    global_idx: np.ndarray       # positions of the global rows
    local_idx: list              # per agent, positions of its kept local rows
    removed_mask: np.ndarray     # per global row, removed from training

    @classmethod
    def of(cls, world: World, removed) -> "_RowLayout":
        table = world.table
        global_idx = np.array([m for m, r in enumerate(table)
                               if r.scope == "global"], dtype=int)
        local_idx = [np.array([m for m, r in enumerate(table)
                               if r.scope == "local" and r.mg_id == a
                               and r.id not in removed], dtype=int)
                     for a in range(world.n_agents)]
        removed_mask = np.array([table[m].id in removed for m in global_idx])
        return cls(global_idx, local_idx, removed_mask)


def _gram_eigen(factor: np.ndarray):
    """Eigenvectors U (2D, k) and singular values S (k,) of the Fisher
    rows F from the small Gram matrix F F^T, so that V = F^T U / S is an
    orthonormal basis of span(F^T).  Eigenvalues at or below its
    round-off, k * eps * max, are zero to working precision and are
    dropped, so rank-deficient rows give a smaller k and no spurious
    directions."""
    w, u = np.linalg.eigh(factor @ factor.T)
    keep = w > w[-1] * w.size * np.finfo(float).eps
    return u[:, keep], np.sqrt(w[keep])


def _inner_loop(world: World, thetas0, lambdas0, batch: _BatchEval, factors,
                d_vec, layout: _RowLayout):
    """Stages II-V iterated to the parameter-change stopping rule.

    Stage II is the mean of the agents' prices, zero on the removed
    rows; every agent's primal and dual steps read that one vector.

    factors[a] holds the Fisher rows F of agent a at the anchor (see
    PolicyEval.fisher_factor).  Every gradient is F^T c for a column c
    of the batch's chain C, so agent a iterates on the coordinates z of
    theta = thetas0[a] + V z in the orthonormal basis V = F^T U / S of
    span(F^T) (_gram_eigen), at most 2 * 6T of them.  There F^T c reads
    S U^T c, the trust quadratic is trust_quadratic(diag(S), z) and
    |dz| = |dtheta|.  Only the columns an agent reads are reduced, and
    the one parameter-length vector is the result thetas0[a] +
    F^T (U z / S).  The prices start at lambdas0, or at zero when None.
    """
    cfg = world.cfg
    n = world.n_agents
    lambdas = (np.zeros((n, len(layout.global_idx))) if lambdas0 is None
               else lambdas0.copy())
    removed_mask = layout.removed_mask
    d_global = d_vec[layout.global_idx]
    j0_global = batch.j_values[layout.global_idx]
    back, metrics, g, b_glob, rows, rows_c = [], [], [], [], [], []
    chain = batch.chain()
    for a, li in enumerate(layout.local_idx):
        u, s = _gram_eigen(factors[a])
        us, c = u * s, chain[a]
        back.append(u / s)
        metrics.append(np.diag(s))
        g.append(us.T @ c[:, 0])
        b_glob.append(us.T @ c[:, 1 + layout.global_idx])
        # local rows as C-contiguous (m, k) so the projection sweeps read rows
        rows.append(c[:, 1 + li].T @ us)
        rows_c.append(d_vec[li] - batch.j_values[li])
    origins = [np.zeros(w.shape[1]) for w in back]
    zs = [o.copy() for o in origins]
    traj: list[np.ndarray] = []
    converged = False
    iterations = 0
    nus = [np.zeros(len(li)) for li in layout.local_idx]
    for k in range(1, cfg.kmax + 1):
        lam_bar = lambdas.mean(axis=0)
        lam_bar[removed_mask] = 0.0
        change = 0.0
        for a in range(n):
            z_bar = primal_step(zs[a], g[a], b_glob[a], lam_bar, cfg.rho1)
            z_new, nus[a] = project_local(z_bar, origins[a], rows[a],
                                          rows_c[a], metrics[a], cfg.delta,
                                          nus[a])
            lambdas[a] = dual_step(lam_bar, j0_global, b_glob[a], z_new,
                                   origins[a], cfg.rho2, d_global)
            lambdas[a, removed_mask] = 0.0
            dz = z_new - zs[a]
            change = max(change, math.sqrt(float(dz @ dz)))
            zs[a] = z_new
        traj.append(lambdas.copy())
        iterations = k
        if change <= cfg.dtheta:
            converged = True
            break
    thetas = [t0 + f.T @ (w @ z)
              for t0, f, w, z in zip(thetas0, factors, back, zs)]
    return thetas, lambdas, iterations, converged, traj


@dataclass
class _Decision:
    """A decision window and the agents that dispatch in it, as the
    anchored updates and the feasibility gate read them."""

    world: World
    agents: list
    removed: set[str]
    irr_truth: np.ndarray        # (T, N) realised irradiance
    load_truth: np.ndarray       # (T, N) realised load
    states: list                 # per agent, the forecast the policy reads
    prev_dg: np.ndarray          # (N,) DG setpoints before the window

    @classmethod
    def of(cls, world: World, agents, removed, start: int, seed: int,
           forecast_tag: int, prev_dg) -> "_Decision":
        irr_truth, load_truth = world.profiles.window(start, world.horizon)
        rng_fc = np.random.default_rng([seed, _STREAM_FORECAST, forecast_tag])
        irr_f, load_f = forecast_with_error(world.profiles, start,
                                            world.horizon,
                                            world.forecast_error, rng_fc)
        states = [make_state_vector(irr_f[:, a], load_f[:, a])
                  for a in range(world.n_agents)]
        prev_dg = (np.zeros(world.n_agents) if prev_dg is None
                   else np.asarray(prev_dg, float))
        return cls(world, agents, removed, irr_truth, load_truth, states,
                   prev_dg)

    @cached_property
    def layout(self) -> _RowLayout:
        """Built on first use: a dispatch that passes the gate at once
        never runs an update."""
        return _RowLayout.of(self.world, self.removed)


def _anchored_update(dec: _Decision, lambdas0, d_work, sample_tag):
    """Measure a batch at the agents' parameters, which they alone hold,
    iterate stages II-V against the bounds d_work from the prices
    lambdas0 (zero when None) and leave the agents at the result.
    Returns the batch and _inner_loop's (thetas, lambdas, iterations,
    converged, lambda log)."""
    evals = [ag.evaluate(dec.states[a]) for a, ag in enumerate(dec.agents)]
    batch = _evaluate_batch(dec.world, evals, sample_tag, dec.irr_truth,
                            dec.load_truth, dec.prev_dg)
    factors = [ev.fisher_factor() for ev in evals]
    anchor = [ag.get_theta() for ag in dec.agents]
    out = _inner_loop(dec.world, anchor, lambdas0, batch, factors, d_work,
                      dec.layout)
    for ag, theta in zip(dec.agents, out[0]):
        ag.set_theta(theta)
    return batch, out


def _gate(dec: _Decision, draw, lambdas, tag):
    """The power-flow feasibility gate on the agents' dispatch.

    draw() returns the joint action (N, 6T) the agents would dispatch.
    While rows are violated, for at most cfg.backtrack_rounds rounds
    (none when it is 0 or tau is 1), each round tightens the violated
    rows' bounds by tau, re-updates the agents by an _anchored_update
    tagged [*tag, round] and checks the new dispatch.  The prices start
    at lambdas (zero when None) and carry over from round to round; the
    agents hold the parameters each round anchors at.
    Returns (actions, window evaluation, verdict, updates) of the last
    check, the evaluation a stack of that one action, and updates the
    rounds' _inner_loop results in order; the verdict is 'clean',
    'restored', 'violated:<sorted ids>' or 'pf-failure' (a power flow
    diverged; the evaluation is then None).
    """
    world, cfg = dec.world, dec.world.cfg
    d_work = world.row_bounds
    updates = []
    while True:
        actions = draw()
        ev = evaluate_window(world, actions[None], dec.irr_truth,
                             dec.load_truth, dec.prev_dg)
        if not ev.accepted[0]:
            return actions, None, "pf-failure", updates
        violated = world.violated(ev.returns[0], dec.removed)
        if not violated.size:
            return actions, ev, "restored" if updates else "clean", updates
        if len(updates) >= cfg.backtrack_rounds or cfg.tau >= 1.0:
            ids = sorted(world.index.ids[m] for m in violated)
            return actions, ev, "violated:" + ",".join(ids), updates
        d_work = backtrack_bounds(d_work, violated, cfg.tau)
        _, out = _anchored_update(dec, lambdas, d_work,
                                  [*tag, len(updates) + 1])
        lambdas = out[1]
        updates.append(out)


def train_episode(world: World, agents: list[GaussianPolicy],
                  state: TrainingState, *,
                  removed: set[str] = frozenset()) -> EpisodeRecord:
    n = world.n_agents
    episode = state.episode
    before = [ag.get_theta() for ag in agents]
    dec = _Decision.of(world, agents, removed, world.window_start(episode),
                       world.seed, episode, state.prev_dg)
    batch, first = _anchored_update(dec, None, world.row_bounds, [episode])
    # the last check ran on the final policies: its returns and rewards
    # are the dispatch record
    mean_actions, disp, verdict, backtracks = _gate(
        dec, lambda: _dispatch_actions_mean(agents, dec.states,
                                            world.horizon),
        first[1], [episode])
    updates = [first, *backtracks]
    _, lambdas, _, converged, _ = updates[-1]

    disp_rewards, j_dispatch = [float("nan")] * n, {}
    if disp is not None:
        disp_rewards = disp.rewards[0].tolist()
        j_dispatch = dict(zip(world.index.ids, disp.returns[0].tolist()))

    theta_change = [float(np.linalg.norm(ag.get_theta() - theta))
                    for ag, theta in zip(agents, before)]
    state.prev_dg = mean_actions[:, 0].copy()  # step-0 DG dispatch
    state.episode = episode + 1

    lam_traj: dict[str, list] = {}
    traj = [lam for *_, log in updates for lam in log]
    if traj:
        stacked = np.stack(traj)  # (K, N, Mg)
        for j, m in enumerate(dec.layout.global_idx):
            if np.max(stacked[:, :, j]) > 1e-12:
                lam_traj[world.index.ids[m]] = stacked[:, :, j].tolist()

    return EpisodeRecord(
        episode=episode,
        rewards=[float(x) for x in batch.rewards],
        rewards_dispatch=disp_rewards,
        j_values=dict(zip(world.index.ids, batch.j_values.tolist())),
        j_dispatch=j_dispatch,
        lambda_final=lambdas.tolist(),
        lambda_traj=lam_traj,
        theta_change=theta_change,
        inner_iterations=sum(u[2] for u in updates),
        inner_converged=converged,
        backtrack_rounds=len(backtracks),
        pfe_verdict=verdict,
        discards=batch.discards,
    )


def train(world: World, agents: list[GaussianPolicy] | None = None, *,
          episodes: int, mode: str = "smas-pl",
          removed_tokens=()):
    """Run the outer loop; returns (records, agents, state).

    The agents (fresh from build_agents when None) hold the only copy of
    the policy parameters: each episode anchors at their parameters on
    entry and leaves them at its result.  Each episode's prices start at
    zero and carry over its backtracking rounds.
    """
    import time

    if mode not in ("smas-pl", "u-pl"):
        raise ValueError("mode must be 'smas-pl' or 'u-pl'")
    agents = agents or build_agents(world)
    tokens = list(removed_tokens)
    if mode == "u-pl" and not tokens:
        tokens = ["all"]
    removed = resolve_removed_rows(world.table, tokens)
    state = TrainingState(prev_dg=np.zeros(world.n_agents))
    records = []
    for _ in range(episodes):
        t0 = time.perf_counter()
        rec = train_episode(world, agents, state, removed=removed)
        rec.wall_clock_s = time.perf_counter() - t0
        records.append(rec)
    return records, agents, state


# ---------------------------------------------------------------------------
# Online action selection
# ---------------------------------------------------------------------------

def select_actions_online(world: World, agents: list[GaussianPolicy],
                          window_start: int, *, sample_count: int = 100,
                          seed: int | None = None):
    """Dispatch decision: average of policy samples, gated by the PFE.

    Returns (actions (N, 6T), verdict, backtrack_rounds).  Complementarity
    is post-processed by zeroing the smaller of charge/discharge per step.
    Every row is checked, and the ramp rows start from zero DG setpoints.
    The gate's re-updates do not outlive the call: the agents leave with
    the parameters they came with, so a second call for the same window
    returns the same actions.  The gate's final check stays on the world
    (evaluate_window), so the decision's cost and audit solve nothing.
    Raises EpisodeAborted when the power flow will not converge for the
    dispatch (dispatch refused).
    """
    n = world.n_agents
    seed = world.seed if seed is None else seed
    dec = _Decision.of(world, agents, frozenset(), window_start, seed,
                       window_start, None)

    def draw_actions():
        acts = np.empty((n, 6 * world.horizon))
        for a, ag in enumerate(agents):
            rng = np.random.default_rng([seed, _STREAM_DISPATCH,
                                         window_start, a])
            acts[a] = ag.sample_actions(dec.states[a], sample_count,
                                        rng).mean(axis=0)
        return postprocess_complementarity(acts, world.horizon)

    thetas = [ag.get_theta() for ag in agents]
    rounds = None                   # stays None if the gate raises
    try:
        # the prices start at zero and carry over the rounds
        actions, _, verdict, updates = _gate(dec, draw_actions, None,
                                             [window_start])
        rounds = len(updates)
    finally:
        if rounds != 0:             # re-updated, or raised mid-round
            for ag, theta in zip(agents, thetas):
                ag.set_theta(theta)
    if verdict == "pf-failure":
        raise EpisodeAborted("dispatch refused: power flow did not converge")
    return actions, verdict, rounds
