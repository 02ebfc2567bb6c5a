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

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grid import GridModel, solve_power_flow
from .gradients import (
    chain_reward_samples,
    chain_sample_to_parameters,
    compute_step_sensitivities,
    constraint_action_gradients,
    reward_action_gradients,
)
from .microgrid import (
    MicrogridSpec,
    actions_to_injections,
    build_constraint_table,
    constraint_returns,
    make_state_vector,
    network_observables,
    reward_return,
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

    @property
    def n_agents(self) -> int:
        return len(self.specs)

    def window_start(self, episode: int) -> int:
        span = self.profiles.n_steps - self.horizon
        return episode % max(span, 1)

    def bounds(self, row) -> float:
        return row.window_bound(self.cfg.gamma, self.horizon)


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
# Joint batch evaluation
# ---------------------------------------------------------------------------

@dataclass
class _SampleResult:
    rewards: np.ndarray          # (N,)
    j_values: np.ndarray         # (M,) in table order
    cols: np.ndarray             # (N, 6T, M+1) action gradients: reward, rows
    actions: np.ndarray          # (N, 6T) the joint draw


def _evaluate_sample(world: World, actions: np.ndarray, irr_truth,
                     load_truth, prev_dg) -> _SampleResult | None:
    """Physics, returns, and action-space gradient columns for one draw."""
    p, q = actions_to_injections(actions, load_truth, irr_truth, world.specs,
                                 world.grid.n_bus, world.host_loads)
    sols = []
    for t in range(world.horizon):
        sol = solve_power_flow(world.grid, p[t], q[t])
        if not sol.converged:
            return None
        sols.append(sol)
    obs = network_observables(world.grid, sols, world.specs)
    gamma, dt = world.cfg.gamma, world.cfg.dt
    jc = constraint_returns(actions, obs, world.specs, world.table, gamma,
                            prev_dg=prev_dg, dt=dt)
    j_values = np.array([jc[r.id] for r in world.table])
    rewards = np.array([
        reward_return(actions[n], obs.pcc_p[:, n], spec, gamma, dt)
        for n, spec in enumerate(world.specs)
    ])
    sens = [compute_step_sensitivities(world.sens_grid, sol, world.specs)
            for sol in sols]
    djr = reward_action_gradients(sens, actions, world.specs, gamma, dt)
    djc = constraint_action_gradients(world.table, sens, actions,
                                      world.specs, gamma, prev_dg=prev_dg,
                                      dt=dt)
    cols = np.concatenate([djr[:, :, None], djc.transpose(1, 2, 0)], axis=2)
    return _SampleResult(rewards, j_values, cols, actions)


@dataclass
class _BatchEval:
    g: list                      # per agent (P_n,)
    b: list                      # per agent (P_n, M)
    j_values: np.ndarray         # (M,) batch means
    rewards: np.ndarray          # (N,) batch means
    discards: int
    g_se: list = None            # per agent (P_n,) standard error of g


def _evaluate_batch(world: World, agents, evals, sample_tag, irr_truth,
                    load_truth, prev_dg, pool: _Pool) -> _BatchEval:
    cfg = world.cfg
    n = world.n_agents
    tag = sample_tag if isinstance(sample_tag, (list, tuple)) else [sample_tag]
    rng = np.random.default_rng([world.seed, _STREAM_SAMPLE, *tag])
    results: list[_SampleResult] = []
    discards = 0
    limit = max(4, cfg.batch)
    while len(results) < cfg.batch:
        need = cfg.batch - len(results)
        draws = np.empty((need, n, 6 * world.horizon))
        for a in range(n):
            mu, s2 = evals[a].mu, evals[a].sigma2
            draws[:, a, :] = mu[None, :] + np.sqrt(s2)[None, :] * \
                rng.standard_normal((need, 6 * world.horizon))
        outs = pool.map(
            lambda s: _evaluate_sample(world, s, irr_truth, load_truth,
                                       prev_dg), list(draws))
        for r in outs:
            if r is None:
                discards += 1
                if discards > limit:
                    raise EpisodeAborted(
                        f"update {tag}: {discards} power-flow failures "
                        f"exceed the limit of max(4, batch) = {limit}")
            else:
                results.append(r)
    g, b, g_se = _batch_gradients(evals, results)
    j_values = np.mean(np.stack([r.j_values for r in results]), axis=0)
    rewards = np.mean(np.stack([r.rewards for r in results]), axis=0)
    return _BatchEval(g, b, j_values, rewards, discards, g_se)


def _batch_gradients(evals: list[PolicyEval], results: list[_SampleResult]):
    """Per agent: batch-mean reward gradient g (P,), row gradients b
    (P, M), and the standard error of g, chained once per agent."""
    g, b, g_se = [], [], []
    for a, ev in enumerate(evals):
        acts = np.stack([r.actions[a] for r in results])    # (S, 6T)
        cols = np.stack([r.cols[a] for r in results])       # (S, 6T, M+1)
        mean = chain_sample_to_parameters(ev, acts, cols)
        per_sample = chain_reward_samples(ev, acts, cols[:, :, 0])
        var = np.maximum(np.mean(per_sample ** 2, axis=1) - mean[:, 0] ** 2,
                         0.0)
        g.append(mean[:, 0])
        b.append(mean[:, 1:])
        g_se.append(np.sqrt(var / len(results)))
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
    """Power-flow-engine verdict on the window returns of a joint action."""
    p, q = actions_to_injections(actions, load_truth, irr_truth, world.specs,
                                 world.grid.n_bus, world.host_loads)
    sols = []
    for t in range(world.horizon):
        sol = solve_power_flow(world.grid, p[t], q[t])
        if not sol.converged:
            return None, None
        sols.append(sol)
    obs = network_observables(world.grid, sols, world.specs)
    jc = constraint_returns(actions, obs, world.specs, world.table,
                            world.cfg.gamma, prev_dg=prev_dg, dt=world.cfg.dt)
    violated = [r.id for r in world.table
                if r.id not in removed
                and jc[r.id] > world.bounds(r) + 1e-9]
    return jc, violated


def _inner_loop(world: World, graph, thetas0, lambdas0, batch: _BatchEval,
                factors, d_vec, global_idx, local_idx_per_agent, removed_mask,
                pool: _Pool, log_lambda: bool):
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
    d_global = d_vec[global_idx]
    j0_global = batch.j_values[global_idx]
    b_glob = [b[:, global_idx] for b in batch.b]
    # local rows as C-contiguous (m, P) so the projection sweeps read rows
    rows = [np.ascontiguousarray(b.T[li])
            for b, li in zip(batch.b, local_idx_per_agent)]
    rows_c = [d_vec[li] - batch.j_values[li] + r @ t0
              for r, li, t0 in zip(rows, local_idx_per_agent, thetas0)]
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

        table = world.table
        d_vec = np.array([world.bounds(r) for r in table])
        global_idx = np.array([m for m, r in enumerate(table)
                               if r.scope == "global"], dtype=int)
        removed_mask = np.array([table[m].id in removed for m in global_idx])
        local_idx_per_agent = [
            np.array([m for m, r in enumerate(table)
                      if r.scope == "local" and r.mg_id == a
                      and r.id not in removed], dtype=int)
            for a in range(n)
        ]

        def anchored_update(anchor, lambdas0, d_work, sample_tag):
            """One full pass: measure at the anchor, then iterate II-V."""
            for a, ag in enumerate(agents):
                ag.set_theta(anchor[a])
            evals = [ag.evaluate(states[a]) for a, ag in enumerate(agents)]
            bat = _evaluate_batch(world, agents, evals, sample_tag,
                                  irr_truth, load_truth, prev_dg, pool)
            factors = [ev.fisher_factor() for ev in evals]
            out = _inner_loop(world, graph, anchor, lambdas0, bat, factors,
                              d_work, global_idx, local_idx_per_agent,
                              removed_mask, pool, log_lambda)
            return bat, out

        thetas0 = [t.copy() for t in state.thetas]
        lambdas = np.zeros((n, len(global_idx)))
        batch, (thetas, lambdas, iters, converged, traj) = anchored_update(
            thetas0, lambdas, d_vec, [episode])

        # power-flow-engine gate with bound tightening on violated rows;
        # each tightening round re-anchors at the freshly updated policies
        rounds = 0
        verdict = "clean"
        if backtracking:
            d_work = d_vec.copy()
            while True:
                for a, ag in enumerate(agents):
                    ag.set_theta(thetas[a])
                mean_actions = _dispatch_actions_mean(agents, states, world.horizon)
                jc_disp, violated = _pfe_check(world, mean_actions, irr_truth,
                                               load_truth, prev_dg, removed)
                if jc_disp is None:
                    verdict = "pf-failure"
                    break
                if not violated:
                    verdict = "clean" if rounds == 0 else "restored"
                    break
                if rounds >= cfg.backtrack_rounds or cfg.tau >= 1.0:
                    verdict = "violated:" + ",".join(sorted(violated))
                    break
                rounds += 1
                idx = [i for i, r in enumerate(table) if r.id in violated]
                d_work = backtrack_bounds(d_work, idx, cfg.tau)
                _, (thetas, lambdas, it2, conv2, traj2) = anchored_update(
                    [t.copy() for t in thetas], lambdas, d_work,
                    [episode, rounds])
                iters += it2
                converged = conv2
                if log_lambda:
                    traj.extend(traj2)

        for a, ag in enumerate(agents):
            ag.set_theta(thetas[a])
        mean_actions = _dispatch_actions_mean(agents, states, world.horizon)
        jc_disp, _ = _pfe_check(world, mean_actions, irr_truth, load_truth,
                                prev_dg, removed)
        disp_rewards = [float("nan")] * n
        if jc_disp is not None:
            p, q = actions_to_injections(mean_actions, load_truth, irr_truth,
                                         world.specs, world.grid.n_bus,
                                         world.host_loads)
            sols = [solve_power_flow(world.grid, p[t], q[t])
                    for t in range(world.horizon)]
            obs = network_observables(world.grid, sols, world.specs)
            disp_rewards = [
                float(reward_return(mean_actions[a], obs.pcc_p[:, a],
                                    world.specs[a], cfg.gamma, cfg.dt))
                for a in range(n)
            ]

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
            for j, m in enumerate(global_idx):
                if np.max(stacked[:, :, j]) > 1e-12:
                    lam_traj[table[m].id] = stacked[:, :, j].tolist()

        return EpisodeRecord(
            episode=episode,
            rewards=[float(x) for x in batch.rewards],
            rewards_dispatch=disp_rewards,
            j_values={r.id: float(batch.j_values[m])
                      for m, r in enumerate(table)},
            j_dispatch={k: float(v) for k, v in (jc_disp or {}).items()},
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
    jc, violated = _pfe_check(world, actions, irr_truth, load_truth, prev_dg,
                              removed)
    if jc is None:
        raise EpisodeAborted("dispatch refused: power flow did not converge")
    if not violated or not backtracking:
        verdict = "clean" if not violated else "violated:" + ",".join(violated)
        return actions, verdict, 0

    # re-update with tightened bounds for the violated rows, re-anchoring
    # at the refreshed policies each round, then re-draw the dispatch
    graph = AgentChannelGraph.complete(n)
    rounds = 0
    pool = _Pool(0)
    table = world.table
    d_work = np.array([world.bounds(r) for r in table])
    global_idx = np.array([m for m, r in enumerate(table)
                           if r.scope == "global"], dtype=int)
    removed_mask = np.array([table[m].id in removed for m in global_idx])
    local_idx = [np.array([m for m, r in enumerate(table)
                           if r.scope == "local" and r.mg_id == a
                           and r.id not in removed], dtype=int)
                 for a in range(n)]
    lambdas = np.zeros((n, len(global_idx)))
    while violated and rounds < cfg.backtrack_rounds and cfg.tau < 1.0:
        rounds += 1
        idx = [i for i, r in enumerate(table) if r.id in violated]
        d_work = backtrack_bounds(d_work, idx, cfg.tau)
        anchor = [ag.get_theta() for ag in agents]
        evals = [ag.evaluate(states[a]) for a, ag in enumerate(agents)]
        batch = _evaluate_batch(world, agents, evals,
                                [window_start, rounds], irr_truth,
                                load_truth, prev_dg, pool)
        factors = [ev.fisher_factor() for ev in evals]
        thetas, lambdas, _, _, _ = _inner_loop(
            world, graph, anchor, lambdas, batch, factors, d_work, global_idx,
            local_idx, removed_mask, pool, False)
        for a, ag in enumerate(agents):
            ag.set_theta(thetas[a])
        actions = draw_actions()
        jc, violated = _pfe_check(world, actions, irr_truth, load_truth,
                                  prev_dg, removed)
        if jc is None:
            raise EpisodeAborted(
                "dispatch refused: power flow did not converge")
    pool.close()
    verdict = "restored" if not violated else \
        "violated:" + ",".join(sorted(violated))
    return actions, verdict, rounds
