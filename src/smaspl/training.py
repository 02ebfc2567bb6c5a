"""Multi-agent consensus primal-dual training of the dispatch policies.

One training episode anchors every gradient at the current parameters,
then iterates four stages until the parameter change stalls:

  II.  weighted averaging of the neighbours' dual-price vectors,
  III. primal step (ascent on reward, descent on the price-weighted
       shared-network constraint gradients),
  IV.  projection onto the agent's linearized local rows inside the
       Fisher-metric trust region,
  V.   projected dual ascent on the shared-network row residuals.

Agents exchange nothing but dual-price vectors: the message bus type
physically cannot carry parameters or gradients.  A sequential schedule
and the thread-pool schedule produce bit-identical results under a fixed
seed because every reduction is carried out in agent/sample index order.
"""

from __future__ import annotations

import ctypes
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .grid import GridModel, solve_power_flow_stack
from .gradients import (
    chain_reward_samples,
    chain_sample_to_parameters,
    reward_gradient_stack,
    row_gradient_stack,
    step_sensitivity_stack,
)
# one-sample views the stacked evaluations no longer call; the
# benchmark's tracer (perfbench/tracing.py) still looks them up on this
# module
from .grid import solve_power_flow  # noqa: F401
from .gradients import (  # noqa: F401
    compute_step_sensitivities,
    constraint_action_gradients,
    reward_action_gradients,
)
from .microgrid import constraint_returns, reward_return  # noqa: F401
from .microgrid import (
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
from .policy import ActionScaling, GaussianPolicy, PolicyEval
from .scenario import Scenario, forecast_with_error, perturb_network

__all__ = [
    "LambdaMessage",
    "LambdaBus",
    "AgentChannelGraph",
    "TrainerConfig",
    "TrainingState",
    "EpisodeRecord",
    "World",
    "WindowEval",
    "EpisodeAborted",
    "ProjectionInfeasible",
    "consensus_average",
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
    "worker_count",
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


def worker_count() -> int:
    """Workers from SMASPL_THREADS; 0 means sequential deterministic mode."""
    try:
        return max(0, int(os.environ.get("SMASPL_THREADS", "0")))
    except ValueError:
        return 0


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
    some MB of arrays and SuperLU workspace.  By default glibc maps such
    blocks afresh (above a sliding mmap threshold) or trims them off the
    heap once freed, so every stack page-faults its memory in again:
    about 70,000 faults in a paper98 episode, whose cost varies with the
    host's memory load.  Fixed thresholds, 32 MB (glibc's ceiling) for
    mmap and 256 MB for trimming, keep that memory on the heap for the
    next stack.  The setting holds for the whole process; where the C
    library has no mallopt this does nothing.
    """
    if _mallopt is not None:
        _mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        _mallopt(_M_TRIM_THRESHOLD, 256 << 20)


class _Pool:
    """Order-preserving map that is a plain loop when threads == 0."""

    def __init__(self, threads: int):
        self.threads = threads
        self._ex = ThreadPoolExecutor(threads) if threads > 0 else None

    def map(self, fn, items):
        if self._ex is None:
            return [fn(x) for x in items]
        return list(self._ex.map(fn, items))

    def close(self):
        if self._ex is not None:
            self._ex.shutdown()


# ---------------------------------------------------------------------------
# Message bus (privacy boundary)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaMessage:
    """The only inter-agent message: a dual-price vector, nothing else."""

    sender: int
    iteration: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise TypeError("lambda message must carry a flat price vector")
        object.__setattr__(self, "values", v)


class LambdaBus:
    """Bulk-synchronous mailbox; accepts LambdaMessage instances only."""

    def __init__(self, n_agents: int):
        self.n_agents = n_agents
        self._slots: dict[int, dict[int, LambdaMessage]] = {}

    def post(self, msg) -> None:
        if not isinstance(msg, LambdaMessage):
            raise TypeError(
                "bus carries LambdaMessage only; policy parameters and "
                "gradients never cross the agent boundary")
        self._slots.setdefault(msg.iteration, {})[msg.sender] = msg

    def collect(self, iteration: int) -> np.ndarray:
        slot = self._slots.get(iteration, {})
        if len(slot) != self.n_agents:
            missing = sorted(set(range(self.n_agents)) - set(slot))
            raise RuntimeError(
                f"iteration {iteration}: missing messages from {missing}")
        rows = [slot[i].values for i in range(self.n_agents)]
        self._slots.pop(iteration, None)
        return np.stack(rows)


# ---------------------------------------------------------------------------
# Communication graph
# ---------------------------------------------------------------------------

class AgentChannelGraph:
    """Doubly stochastic averaging weights over a connected agent graph."""

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        n = w.shape[0]
        if w.shape != (n, n):
            raise ValueError("weight matrix must be square")
        if np.any(w < -1e-15):
            raise ValueError("weights must be nonnegative")
        if (np.max(np.abs(w.sum(axis=0) - 1.0)) > 1e-12
                or np.max(np.abs(w.sum(axis=1) - 1.0)) > 1e-12):
            raise ValueError("weight matrix must be doubly stochastic")
        adj = (w > 0) | (w.T > 0)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(adj[u]):
                if v not in seen:
                    seen.add(int(v))
                    stack.append(int(v))
        if len(seen) != n:
            raise ValueError("agent graph must be connected")
        self.weights = w

    @property
    def n_agents(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def complete(cls, n: int, weight: float | None = None):
        """Complete graph with uniform weights (self-loops included)."""
        if weight is None:
            weight = 1.0 / n
        if abs(weight * n - 1.0) > 1e-12:
            raise ValueError(
                f"uniform weight {weight} is not doubly stochastic for {n} "
                f"agents (needs 1/{n})")
        return cls(np.full((n, n), weight))

    @classmethod
    def metropolis(cls, n: int, edges):
        """Metropolis-Hastings weights, doubly stochastic on any graph."""
        deg = np.zeros(n, dtype=int)
        for i, j in edges:
            deg[i] += 1
            deg[j] += 1
        w = np.zeros((n, n))
        for i, j in edges:
            w[i, j] = w[j, i] = 1.0 / (1 + max(deg[i], deg[j]))
        np.fill_diagonal(w, 1.0 - w.sum(axis=1))
        return cls(w)


def consensus_average(graph: AgentChannelGraph,
                      lambdas: np.ndarray) -> np.ndarray:
    """Weighted averaging: row n is agent n's blend of received vectors."""
    return graph.weights @ lambdas


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


def project_local(theta_bar: np.ndarray, theta0: np.ndarray,
                  rows_b: np.ndarray, rows_c: np.ndarray,
                  factor: np.ndarray, delta: float, *, tol: float = 1e-6,
                  max_iter: int = 500, nu0: np.ndarray | None = None,
                  return_nu: bool = False):
    """Project onto {b_m^T theta <= c_m} inside the Fisher trust region.

    The region is trust_quadratic(factor, theta - theta0) <= delta, i.e.
    the metric H = F^T F + 1e-8 I given by its rows F = `factor`.
    Cyclic row corrections with multiplier memory (warm-startable via
    nu0), followed by radial scaling into the ball after each sweep.
    Exact on a single halfspace, on a ball-only instance, and the
    identity on already-feasible input.  The sweeps read the rows of
    `rows_b.T`; passing the transpose of a C-contiguous (m, P) array
    spares the copy.

    Rows unreachable inside the trust region yield the stationary
    compromise on the ball boundary (the outer loop keeps shrinking the
    residual episode over episode); a violated row with a zero gradient
    is genuinely inconsistent and raises so the caller can escalate.
    Running out of max_iter sweeps before either stopping rule fires
    emits a RuntimeWarning.
    """
    theta = theta_bar.copy()
    m = rows_b.shape[1] if rows_b.size else 0
    rows = np.ascontiguousarray(rows_b.T)
    nu = np.zeros(m) if nu0 is None else np.asarray(nu0, dtype=float)
    if nu.shape != (m,):
        raise ValueError("nu0 shape mismatch")
    norms = np.einsum("mp,mp->m", rows, rows) if m else np.zeros(0)
    scale = max(1.0, float(np.abs(rows_c).max())) if m else 1.0
    if m:
        dead = (norms < 1e-30) & (rows_c < -tol * scale)
        if np.any(dead):
            raise ProjectionInfeasible(
                f"{int(dead.sum())} local row(s) violated with zero gradient")
    if nu0 is not None and m:
        theta = theta - nu @ rows

    # the row sweep is sequential, so it runs on Python floats
    live = [j for j in range(m) if norms[j] >= 1e-30]
    row_list, norm_list, c_list = list(rows), norms.tolist(), rows_c.tolist()
    nu_list = nu.tolist()
    prev = None
    for _ in range(max_iter):
        moved = 0.0
        for j in live:
            r = float(row_list[j] @ theta) - c_list[j]
            step = max(-nu_list[j], r / norm_list[j])
            if step != 0.0:
                nu_list[j] += step
                theta -= step * row_list[j]
                moved = max(moved, abs(step) * math.sqrt(norm_list[j]))
        d = theta - theta0
        q = trust_quadratic(factor, d) - delta
        if q > 0:
            shrink = np.sqrt(delta / (q + delta))
            theta = theta0 + d * shrink
            moved = max(moved, float(np.linalg.norm(d) * (1 - shrink)))
        # the scaling leaves theta on the ball up to rounding, so only the
        # rows and the step size decide convergence
        viol = float((rows @ theta - rows_c).max()) if m else 0.0
        if moved <= tol and viol <= tol * scale:
            break
        if prev is not None and float(np.linalg.norm(theta - prev)) <= tol:
            break  # stationary compromise between rows and trust region
        prev = theta.copy()
    else:
        warnings.warn(f"project_local: {max_iter} sweeps ended before "
                      "either stopping rule fired", RuntimeWarning,
                      stacklevel=2)
    return (theta, np.array(nu_list)) if return_nu else theta


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
class TrainerConfig:
    gamma: float = 0.99
    delta: float = 1e-3
    kmax: int = 200
    rho1: float = 0.01
    rho2: float = 0.01
    dtheta: float = 1e-4
    tau: float = 0.9
    batch: int = 128
    sigma_floor: float = 0.01
    sigma_span_frac: float = 0.2
    consensus_weight: float | None = 0.2
    eps_complementarity: float = 1e-3
    backtrack_rounds: int = 3
    hidden_layers: tuple = (10, 10, 10)
    dt: float = 0.25

    @classmethod
    def from_dict(cls, d: dict) -> "TrainerConfig":
        kw = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        if "hidden_layers" in kw:
            kw["hidden_layers"] = tuple(kw["hidden_layers"])
        return cls(**kw)


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

    def __post_init__(self):
        self.index = ConstraintIndex.of(self.table)
        weight = float(np.sum(geometric_weights(self.cfg.gamma,
                                                self.horizon)))
        self.row_bounds = np.array([r.bound for r in self.table],
                                   dtype=float) * weight

    @property
    def n_agents(self) -> int:
        return len(self.specs)

    def window_start(self, episode: int) -> int:
        """Episodes cycle through every start 0..n_steps - horizon."""
        span = self.profiles.n_steps - self.horizon
        return episode % max(span + 1, 1)

    def bounds(self, row) -> float:
        return row.window_bound(self.cfg.gamma, self.horizon)

    def violated(self, returns: np.ndarray,
                 removed=frozenset()) -> np.ndarray:
        """Table positions, in order, of the rows whose window returns
        (M,) exceed their bounds by more than 1e-9, rows in removed
        excepted."""
        over = np.flatnonzero(returns > self.row_bounds + 1e-9)
        return np.array([m for m in over if self.index.ids[m] not in removed],
                        dtype=int)


def build_world(scenario: Scenario) -> World:
    cfg = TrainerConfig.from_dict(scenario.training)
    table = build_constraint_table(
        scenario.grid, scenario.specs,
        eps_complementarity=cfg.eps_complementarity)
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


def build_agents(world: World, seed: int | None = None) -> list[GaussianPolicy]:
    """Fresh policies, one per microgrid, seeded deterministically."""
    seed = world.seed if seed is None else seed
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
        rng = np.random.default_rng([seed, _STREAM_INIT, n])
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

def _returns_of(world: World, actions: np.ndarray, pf, prev_dg):
    """Observables (fields (S, T, ...)), returns (S, M) in table order and
    rewards (S, N) of S joint actions (S, N, 6T) whose S x T converged
    operating points, sample-major, are the stack pf."""
    def per_sample(x):
        return x.reshape(actions.shape[0], world.horizon, *x.shape[1:])

    obs = network_observables(world.grid, pf, world.specs)
    obs = Observables(*map(per_sample, (obs.v_mag, obs.i_mag, obs.pcc_p,
                                        obs.pcc_q)))
    gamma, dt = world.cfg.gamma, world.cfg.dt
    j_values = constraint_return_stack(world.index, actions, obs, world.specs,
                                       gamma, prev_dg=prev_dg, dt=dt)
    rewards = reward_return_stack(actions, obs.pcc_p, world.specs, gamma, dt)
    return obs, j_values, rewards


@dataclass
class WindowEval:
    """One joint action evaluated over its decision window."""

    obs: Observables             # fields (T, ...)
    returns: np.ndarray          # (M,) window returns in table order
    rewards: np.ndarray          # (N,) discounted reward per agent

    @property
    def cost(self) -> float:
        """Window operating cost in $ (negative of the summed rewards)."""
        return -float(sum(self.rewards.tolist()))


def evaluate_window(world: World, actions: np.ndarray, irr_truth, load_truth,
                    prev_dg=None) -> WindowEval | None:
    """Injections, the T power flows as one stack, observables, returns
    and rewards of a joint action (N, 6T); None when a step's power flow
    does not converge.  prev_dg (zeros when None) feeds the ramp rows."""
    p, q = actions_to_injections(actions, load_truth, irr_truth, world.specs,
                                 world.grid.n_bus, world.host_loads)
    pf = solve_power_flow_stack(world.grid, p, q)
    if not pf.converged.all():
        return None
    obs, j_values, rewards = _returns_of(world, actions[None], pf, prev_dg)
    return WindowEval(Observables(obs.v_mag[0], obs.i_mag[0], obs.pcc_p[0],
                                  obs.pcc_q[0]), j_values[0], rewards[0])


# ---------------------------------------------------------------------------
# Joint batch evaluation
# ---------------------------------------------------------------------------

# A batch is evaluated in stacks of this many joint draws (x T operating
# points): enough to amortise the Python overhead per stack, few enough
# that a stack's arrays and SuperLU factors stay small and cache-warm
# and, with _keep_freed_memory, are reused from one stack to the next.
_STACK_DRAWS = 16


@dataclass
class _DrawEval:
    """A stack of joint draws evaluated at once; the arrays cover the
    accepted draws only, in draw order."""

    accepted: np.ndarray         # (S,) every step's power flow converged
    actions: np.ndarray          # (A, N, 6T) the accepted draws
    rewards: np.ndarray          # (A, N)
    j_values: np.ndarray         # (A, M) in table order
    cols: np.ndarray             # (A, N, 6T, M+1) gradients: reward, rows


def _evaluate_draws(world: World, draws: np.ndarray, irr_truth, load_truth,
                    prev_dg, cols_out: np.ndarray | None = None) -> _DrawEval:
    """Physics, returns and action-space gradient columns of S joint
    draws (S, N, 6T): all S x T power flows as one stack, then one
    sensitivity stack over the points of the accepted draws.  The
    columns are written into the leading rows of cols_out when given."""
    samples, n, width = draws.shape
    horizon, n_bus = world.horizon, world.grid.n_bus
    p, q = actions_to_injections(draws, load_truth, irr_truth, world.specs,
                                 n_bus, world.host_loads)
    pf = solve_power_flow_stack(world.grid, p.reshape(-1, n_bus),
                                q.reshape(-1, n_bus))
    accepted = pf.converged.reshape(samples, horizon).all(axis=1)
    actions = draws[accepted]
    count = actions.shape[0]
    m = len(world.table)
    if not count:
        return _DrawEval(accepted, actions, np.empty((0, n)),
                         np.empty((0, m)), np.empty((0, n, width, m + 1)))
    if count < samples:
        pf = pf.take(np.flatnonzero(np.repeat(accepted, horizon)))
    _, j_values, rewards = _returns_of(world, actions, pf, prev_dg)
    gamma, dt = world.cfg.gamma, world.cfg.dt
    sens = step_sensitivity_stack(world.sens_grid, pf, world.specs).map(
        lambda x: x.reshape(count, horizon, *x.shape[1:]))
    cols = (np.empty((count, n, width, m + 1)) if cols_out is None
            else cols_out[:count])
    cols[..., 0] = reward_gradient_stack(sens, actions, world.specs, gamma,
                                         dt)
    row_gradient_stack(world.index, sens, actions, world.specs, gamma, dt=dt,
                       out=cols[..., 1:])
    return _DrawEval(accepted, actions, rewards, j_values, cols)


@dataclass
class _BatchEval:
    g: list                      # per agent (P_n,)
    b: list                      # per agent (P_n, M)
    j_values: np.ndarray         # (M,) batch means
    rewards: np.ndarray          # (N,) batch means
    discards: int
    g_se: list = None            # per agent (P_n,) standard error of g


def _evaluate_batch(world: World, agents, evals, sample_tag, irr_truth,
                    load_truth, prev_dg) -> _BatchEval:
    _keep_freed_memory()
    cfg = world.cfg
    n = world.n_agents
    tag = sample_tag if isinstance(sample_tag, (list, tuple)) else [sample_tag]
    rng = np.random.default_rng([world.seed, _STREAM_SAMPLE, *tag])
    width, m = 6 * world.horizon, len(world.table)
    # every round draws what is missing, so exactly cfg.batch are accepted
    actions = np.empty((cfg.batch, n, width))
    rewards = np.empty((cfg.batch, n))
    j_values = np.empty((cfg.batch, m))
    cols = np.empty((cfg.batch, n, width, m + 1))
    count = 0
    discards = 0
    limit = max(4, cfg.batch)
    while count < cfg.batch:
        need = cfg.batch - count
        draws = np.empty((need, n, width))
        for a in range(n):
            mu, s2 = evals[a].mu, evals[a].sigma2
            draws[:, a, :] = mu[None, :] + np.sqrt(s2)[None, :] * \
                rng.standard_normal((need, width))
        for first in range(0, need, _STACK_DRAWS):
            part = _evaluate_draws(world, draws[first:first + _STACK_DRAWS],
                                   irr_truth, load_truth, prev_dg,
                                   cols_out=cols[count:])
            for ok in part.accepted:
                if not ok:
                    discards += 1
                    if discards > limit:
                        raise EpisodeAborted(
                            f"update {tag}: {discards} power-flow failures "
                            f"exceed the limit of max(4, batch) = {limit}")
            done = count + part.actions.shape[0]
            actions[count:done] = part.actions
            rewards[count:done] = part.rewards
            j_values[count:done] = part.j_values
            count = done
    g, b, g_se = _batch_gradients(evals, actions, cols)
    return _BatchEval(g, b, j_values.mean(axis=0), rewards.mean(axis=0),
                      discards, g_se)


def _batch_gradients(evals: list[PolicyEval], actions: np.ndarray,
                     cols: np.ndarray):
    """Per agent: batch-mean reward gradient g (P,), row gradients b
    (P, M), and the standard error of g, chained once per agent from the
    accepted draws (S, N, 6T) and their gradient columns (S, N, 6T, M+1)."""
    g, b, g_se = [], [], []
    for a, ev in enumerate(evals):
        acts = np.ascontiguousarray(actions[:, a])
        mean = chain_sample_to_parameters(ev, acts, cols[:, a])
        per_sample = chain_reward_samples(
            ev, acts, np.ascontiguousarray(cols[:, a, :, 0]))
        var = np.maximum(np.mean(per_sample ** 2, axis=1) - mean[:, 0] ** 2,
                         0.0)
        g.append(mean[:, 0])
        b.append(mean[:, 1:])
        g_se.append(np.sqrt(var / actions.shape[0]))
    return g, b, g_se


# ---------------------------------------------------------------------------
# Episode record and training state
# ---------------------------------------------------------------------------

@dataclass
class TrainingState:
    thetas: list
    lambdas: np.ndarray            # (N, M_global)
    episode: int = 0
    prev_dg: np.ndarray | None = None
    outer_converged: bool = False


@dataclass
class EpisodeRecord:
    episode: int
    rewards: list                  # batch-mean reward per agent
    rewards_dispatch: list         # reward of the mean action per agent
    j_values: dict                 # batch-mean return per row
    j_dispatch: dict               # mean-action return per row
    lambda_final: list             # per agent, per global row
    lambda_traj: dict              # row id -> per-iteration per-agent values
    theta_change: list             # episode-to-episode norm per agent
    inner_iterations: int
    inner_converged: bool
    backtrack_rounds: int
    pfe_verdict: str
    discards: int
    wall_clock_s: float = 0.0      # written to the timings sidecar only


def postprocess_complementarity(actions: np.ndarray,
                                horizon: int) -> np.ndarray:
    """Zero the smaller of (charge, discharge) per step before dispatch."""
    out = actions.copy()
    for a in range(out.shape[0]):
        blk = out[a].reshape(6, horizon)
        ch, dis = blk[1].copy(), blk[2].copy()
        keep_ch = ch >= dis
        blk[1] = np.where(keep_ch, np.maximum(ch, 0.0), 0.0)
        blk[2] = np.where(keep_ch, 0.0, np.maximum(dis, 0.0))
        out[a] = blk.reshape(-1)
    return out


def _dispatch_actions_mean(agents, states, horizon) -> np.ndarray:
    """The action that would be dispatched: policy mean, post-processed."""
    raw = np.stack([ag.forward_mean(states[n])
                    for n, ag in enumerate(agents)])
    return postprocess_complementarity(raw, horizon)


def _pfe_check(world: World, actions, irr_truth, load_truth, prev_dg,
               removed: set[str]):
    """Power-flow-engine verdict on a joint action: its window evaluation
    and the table positions of the violated rows, both None when a power
    flow does not converge."""
    ev = evaluate_window(world, actions, irr_truth, load_truth, prev_dg)
    if ev is None:
        return None, None
    return ev, world.violated(ev.returns, removed)


def _violated_ids(world: World, violated) -> list[str]:
    return [world.index.ids[m] for m in violated]


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


def _inner_loop(world: World, graph, thetas0, lambdas0, batch: _BatchEval,
                factors, d_vec, layout: _RowLayout, pool: _Pool,
                log_lambda: bool):
    """Stages II-V iterated to the parameter-change stopping rule.

    factors[a] holds the Fisher rows of agent a at the anchor (see
    PolicyEval.fisher_factor).  The row algebra that stays fixed over
    the iterations is formed once per agent here.
    """
    cfg = world.cfg
    n = world.n_agents
    bus = LambdaBus(n)
    thetas = [t.copy() for t in thetas0]
    lambdas = lambdas0.copy()
    removed_mask = layout.removed_mask
    d_global = d_vec[layout.global_idx]
    j0_global = batch.j_values[layout.global_idx]
    b_glob = [b[:, layout.global_idx] for b in batch.b]
    # local rows as C-contiguous (m, P) so the projection sweeps read rows
    rows = [np.ascontiguousarray(b.T[li])
            for b, li in zip(batch.b, layout.local_idx)]
    rows_c = [d_vec[li] - batch.j_values[li] + r @ t0
              for r, li, t0 in zip(rows, layout.local_idx, thetas0)]
    traj: list[np.ndarray] = []
    converged = False
    iterations = 0
    nus: list[np.ndarray | None] = [None] * n
    for k in range(1, cfg.kmax + 1):
        for a in range(n):
            bus.post(LambdaMessage(sender=a, iteration=k,
                                   values=lambdas[a]))
        lam_bar = consensus_average(graph, bus.collect(k))
        lam_bar[:, removed_mask] = 0.0

        def agent_update(a):
            theta_bar = primal_step(thetas[a], batch.g[a], b_glob[a],
                                    lam_bar[a], cfg.rho1)
            theta_new, nu = project_local(theta_bar, thetas0[a], rows[a].T,
                                          rows_c[a], factors[a], cfg.delta,
                                          nu0=nus[a], return_nu=True)
            lam_new = dual_step(lam_bar[a], j0_global, b_glob[a], theta_new,
                                thetas0[a], cfg.rho2, d_global)
            lam_new[removed_mask] = 0.0
            return theta_new, lam_new, nu

        outs = pool.map(agent_update, list(range(n)))
        change = 0.0
        for a, (theta_new, lam_new, nu) in enumerate(outs):
            change = max(change, float(np.linalg.norm(theta_new - thetas[a])))
            thetas[a] = theta_new
            lambdas[a] = lam_new
            nus[a] = nu
        if log_lambda:
            traj.append(lambdas.copy())
        iterations = k
        if change <= cfg.dtheta:
            converged = True
            break
    return thetas, lambdas, iterations, converged, traj


def train_episode(world: World, agents: list[GaussianPolicy],
                  state: TrainingState, graph: AgentChannelGraph, *,
                  removed: set[str] = frozenset(), backtracking: bool = True,
                  pool: _Pool | None = None,
                  log_lambda: bool = True) -> EpisodeRecord:
    cfg = world.cfg
    n = world.n_agents
    own_pool = pool is None
    pool = pool or _Pool(worker_count())
    episode = state.episode
    try:
        start = world.window_start(episode)
        irr_truth, load_truth = world.profiles.window(start, world.horizon)
        rng_fc = np.random.default_rng([world.seed, _STREAM_FORECAST, episode])
        irr_f, load_f = forecast_with_error(world.profiles, start,
                                            world.horizon,
                                            world.forecast_error, rng_fc)
        states = [make_state_vector(irr_f[:, a], load_f[:, a])
                  for a in range(n)]
        prev_dg = state.prev_dg if state.prev_dg is not None else np.zeros(n)

        layout = _RowLayout.of(world, removed)

        def anchored_update(anchor, lambdas0, d_work, sample_tag):
            """One full pass: measure at the anchor, then iterate II-V."""
            for a, ag in enumerate(agents):
                ag.set_theta(anchor[a])
            evals = [ag.evaluate(states[a]) for a, ag in enumerate(agents)]
            bat = _evaluate_batch(world, agents, evals, sample_tag,
                                  irr_truth, load_truth, prev_dg)
            factors = [ev.fisher_factor() for ev in evals]
            out = _inner_loop(world, graph, anchor, lambdas0, bat, factors,
                              d_work, layout, pool, log_lambda)
            return bat, out

        thetas0 = [t.copy() for t in state.thetas]
        lambdas = np.zeros((n, len(layout.global_idx)))
        batch, (thetas, lambdas, iters, converged, traj) = anchored_update(
            thetas0, lambdas, world.row_bounds, [episode])

        # power-flow-engine gate with bound tightening on violated rows;
        # each tightening round re-anchors at the freshly updated policies.
        # The last check ran on the final policies: its returns and
        # rewards are the dispatch record.
        rounds = 0
        verdict = "clean"
        d_work = world.row_bounds
        while True:
            for a, ag in enumerate(agents):
                ag.set_theta(thetas[a])
            mean_actions = _dispatch_actions_mean(agents, states, world.horizon)
            disp, violated = _pfe_check(
                world, mean_actions, irr_truth, load_truth, prev_dg, removed)
            if not backtracking:
                break
            if disp is None:
                verdict = "pf-failure"
                break
            if not violated.size:
                verdict = "clean" if rounds == 0 else "restored"
                break
            if rounds >= cfg.backtrack_rounds or cfg.tau >= 1.0:
                verdict = "violated:" + ",".join(
                    sorted(_violated_ids(world, violated)))
                break
            rounds += 1
            d_work = backtrack_bounds(d_work, violated, cfg.tau)
            _, (thetas, lambdas, it2, conv2, traj2) = anchored_update(
                [t.copy() for t in thetas], lambdas, d_work,
                [episode, rounds])
            iters += it2
            converged = conv2
            if log_lambda:
                traj.extend(traj2)

        disp_rewards, j_dispatch = [float("nan")] * n, {}
        if disp is not None:
            disp_rewards = disp.rewards.tolist()
            j_dispatch = dict(zip(world.index.ids, disp.returns.tolist()))

        theta_change = [float(np.linalg.norm(thetas[a] - state.thetas[a]))
                        for a in range(n)]
        state.thetas = thetas
        state.lambdas = lambdas
        state.prev_dg = mean_actions[:, 0].copy()  # step-0 DG dispatch
        state.episode = episode + 1
        state.outer_converged = max(theta_change) <= cfg.dtheta

        lam_traj: dict[str, list] = {}
        if log_lambda and traj:
            stacked = np.stack(traj)  # (K, N, Mg)
            for j, m in enumerate(layout.global_idx):
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
            inner_iterations=iters,
            inner_converged=converged,
            backtrack_rounds=rounds,
            pfe_verdict=verdict,
            discards=batch.discards,
        )
    finally:
        if own_pool:
            pool.close()


def train(world: World, agents: list[GaussianPolicy] | None = None, *,
          episodes: int | None = None, mode: str = "smas-pl",
          removed_tokens=(), backtracking: bool = True,
          log_lambda: bool = True, threads: int | None = None):
    """Run the outer loop; returns (records, agents, state)."""
    import time

    if mode not in ("smas-pl", "u-pl"):
        raise ValueError("mode must be 'smas-pl' or 'u-pl'")
    agents = agents or build_agents(world)
    tokens = list(removed_tokens)
    if mode == "u-pl" and not tokens:
        tokens = ["all"]
    removed = resolve_removed_rows(world.table, tokens)
    n = world.n_agents
    if n == 1:
        graph = AgentChannelGraph.complete(1)
    elif world.cfg.consensus_weight is not None and \
            abs(world.cfg.consensus_weight * n - 1.0) <= 1e-12:
        graph = AgentChannelGraph.complete(n, world.cfg.consensus_weight)
    else:
        graph = AgentChannelGraph.complete(n)
    n_global = sum(1 for r in world.table if r.scope == "global")
    state = TrainingState(
        thetas=[ag.get_theta() for ag in agents],
        lambdas=np.zeros((n, n_global)),
        prev_dg=np.zeros(n),
    )
    pool = _Pool(threads if threads is not None else worker_count())
    records = []
    try:
        for _ in range(episodes if episodes is not None else 50):
            t0 = time.perf_counter()
            rec = train_episode(world, agents, state, graph,
                                removed=removed, backtracking=backtracking,
                                pool=pool, log_lambda=log_lambda)
            rec.wall_clock_s = time.perf_counter() - t0
            records.append(rec)
    finally:
        pool.close()
    return records, agents, state


# ---------------------------------------------------------------------------
# Online action selection
# ---------------------------------------------------------------------------

def select_actions_online(world: World, agents: list[GaussianPolicy],
                          window_start: int, *, sample_count: int = 100,
                          seed: int | None = None, backtracking: bool = True,
                          removed: set[str] = frozenset(), prev_dg=None):
    """Dispatch decision: average of policy samples, gated by the PFE.

    Returns (actions (N, 6T), verdict, backtrack_rounds).  Complementarity
    is post-processed by zeroing the smaller of charge/discharge per step.
    prev_dg carries the previously dispatched DG setpoints for the ramp
    rows (zeros when absent).  Raises EpisodeAborted when the power flow
    will not converge for the dispatch (dispatch refused).
    """
    cfg = world.cfg
    n = world.n_agents
    seed = world.seed if seed is None else seed
    prev_dg = np.zeros(n) if prev_dg is None else np.asarray(prev_dg, float)
    irr_truth, load_truth = world.profiles.window(window_start, world.horizon)
    rng_fc = np.random.default_rng([seed, _STREAM_FORECAST, window_start])
    irr_f, load_f = forecast_with_error(world.profiles, window_start,
                                        world.horizon, world.forecast_error,
                                        rng_fc)
    states = [make_state_vector(irr_f[:, a], load_f[:, a]) for a in range(n)]

    def draw_actions():
        acts = np.empty((n, 6 * world.horizon))
        for a, ag in enumerate(agents):
            rng = np.random.default_rng([seed, _STREAM_DISPATCH,
                                         window_start, a])
            acts[a] = ag.sample_actions(states[a], sample_count,
                                        rng).mean(axis=0)
        return postprocess_complementarity(acts, world.horizon)

    actions = draw_actions()
    disp, violated = _pfe_check(world, actions, irr_truth, load_truth,
                                prev_dg, removed)
    if disp is None:
        raise EpisodeAborted("dispatch refused: power flow did not converge")
    if not violated.size or not backtracking:
        verdict = "clean" if not violated.size else \
            "violated:" + ",".join(_violated_ids(world, violated))
        return actions, verdict, 0

    # re-update with tightened bounds for the violated rows, re-anchoring
    # at the refreshed policies each round, then re-draw the dispatch
    graph = AgentChannelGraph.complete(n)
    rounds = 0
    pool = _Pool(0)
    layout = _RowLayout.of(world, removed)
    d_work = world.row_bounds
    lambdas = np.zeros((n, len(layout.global_idx)))
    while violated.size and rounds < cfg.backtrack_rounds and cfg.tau < 1.0:
        rounds += 1
        d_work = backtrack_bounds(d_work, violated, cfg.tau)
        anchor = [ag.get_theta() for ag in agents]
        evals = [ag.evaluate(states[a]) for a, ag in enumerate(agents)]
        batch = _evaluate_batch(world, agents, evals,
                                [window_start, rounds], irr_truth,
                                load_truth, prev_dg)
        factors = [ev.fisher_factor() for ev in evals]
        thetas, lambdas, _, _, _ = _inner_loop(
            world, graph, anchor, lambdas, batch, factors, d_work, layout,
            pool, False)
        for a, ag in enumerate(agents):
            ag.set_theta(thetas[a])
        actions = draw_actions()
        disp, violated = _pfe_check(world, actions, irr_truth, load_truth,
                                    prev_dg, removed)
        if disp is None:
            raise EpisodeAborted(
                "dispatch refused: power flow did not converge")
    pool.close()
    verdict = "restored" if not violated.size else \
        "violated:" + ",".join(sorted(_violated_ids(world, violated)))
    return actions, verdict, rounds
