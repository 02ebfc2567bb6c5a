"""Command-line entry point: train, dispatch, verify-gradients, report.

Exit codes are a stable contract: 0 success, 1 validation failure
(bad arguments, files, or scenario contents), 2 numerical failure
(non-convergence, tolerance breach, refused dispatch).  `main` maps
the exception classes in VALIDATION_FAILURES and NUMERICAL_FAILURES
to a one-line message and the matching code.

Artifacts written by ``train``:

  run_config.json     echo of the resolved run configuration
  agent_<n>.json      policy checkpoint per agent
  episodes.jsonl      one record per episode (field order documented in
                      the README; excludes wall-clock so reruns with the
                      same seed are bit-identical)
  timings.csv         wall-clock per episode (sidecar, non-deterministic)
  summary_reward.csv / summary_constraints.csv / summary_lambda.csv
  summary.txt         small text table of the run outcome
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from .gradients import SensitivityError
from .grid import GridError
from .microgrid import window_bounds, write_constraint_report
# one-sample views the window evaluation replaced; the benchmark's tracer
# (perfbench/tracing.py) still looks them up on this module
from .grid import solve_power_flow  # noqa: F401
from .microgrid import actions_to_injections, reward_return  # noqa: F401
from .policy import load_checkpoint, save_checkpoint
from .scenario import ScenarioError, load_scenario
from .training import (
    EpisodeAborted,
    EpisodeRecord,
    ProjectionInfeasible,
    WindowEval,
    World,
    build_world,
    evaluate_window,
    select_actions_online,
    train,
    worker_count,
)
from .verify import FAULTS, run_all_audits

__all__ = [
    "main",
    "BruteForceResult",
    "brute_force_opf",
    "dispatch_cost",
    "write_episode_jsonl",
    "read_episode_jsonl",
    "write_summaries",
]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

# exception classes `main` maps to each nonzero exit code
NUMERICAL_FAILURES = (EpisodeAborted, ProjectionInfeasible, SensitivityError,
                      np.linalg.LinAlgError)
VALIDATION_FAILURES = (ScenarioError, GridError, FileNotFoundError,
                       ValueError, yaml.YAMLError)

# serialized field order of one episodes.jsonl record
EPISODE_FIELDS = (
    "episode", "rewards", "rewards_dispatch", "j_values", "j_dispatch",
    "lambda_final", "lambda_traj", "theta_change", "inner_iterations",
    "inner_converged", "backtrack_rounds", "pfe_verdict", "discards",
)


# ---------------------------------------------------------------------------
# Episode log persistence
# ---------------------------------------------------------------------------

def write_episode_jsonl(records, path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            d = asdict(rec)
            row = {k: d[k] for k in EPISODE_FIELDS}
            fh.write(json.dumps(row) + "\n")


def read_episode_jsonl(path) -> list[EpisodeRecord]:
    out = []
    with open(path) as fh:
        for line in fh:
            out.append(EpisodeRecord(**json.loads(line)))
    return out


def write_timings(records, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["episode", "wall_clock_s"])
        for rec in records:
            w.writerow([rec.episode, f"{rec.wall_clock_s:.6f}"])


def write_summaries(records, world: World, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    n = world.n_agents
    with open(out_dir / "summary_reward.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["episode"] + [f"reward_mg{a}" for a in range(n)]
                   + ["reward_mean"])
        for rec in records:
            w.writerow([rec.episode] + [repr(x) for x in rec.rewards]
                       + [repr(float(np.mean(rec.rewards)))])
    with open(out_dir / "summary_constraints.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["episode", "row_id", "value", "bound"])
        bounds = dict(zip(world.index.ids, world.row_bounds.tolist()))
        for rec in records:
            for rid, val in rec.j_values.items():
                w.writerow([rec.episode, rid, repr(val), repr(bounds[rid])])
    with open(out_dir / "summary_lambda.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["episode", "iteration", "row_id", "agent", "value"])
        for rec in records:
            for rid, traj in rec.lambda_traj.items():
                for k, per_agent in enumerate(traj, start=1):
                    for a, val in enumerate(per_agent):
                        w.writerow([rec.episode, k, rid, a, repr(val)])
    with open(out_dir / "summary_theta.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["episode", "agent", "theta_change", "inner_iterations",
                    "inner_converged"])
        for rec in records:
            for a, val in enumerate(rec.theta_change):
                w.writerow([rec.episode, a, repr(val),
                            rec.inner_iterations, rec.inner_converged])
    last = records[-1]
    lines = [
        "run summary",
        "-----------",
        f"episodes             {len(records)}",
        f"final rewards        {[round(x, 4) for x in last.rewards]}",
        f"final verdict        {last.pfe_verdict}",
        f"backtrack rounds     {sum(r.backtrack_rounds for r in records)}",
        f"inner converged      "
        f"{sum(1 for r in records if r.inner_converged)}/{len(records)}",
        f"power-flow discards  {sum(r.discards for r in records)}",
    ]
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Exhaustive dispatch oracle (desk scale)
# ---------------------------------------------------------------------------

@dataclass
class BruteForceResult:
    feasible: bool
    actions: np.ndarray | None
    cost: float
    n_evaluated: int
    n_feasible: int


DEFAULT_GRID_POINTS = {"p_dg": 9, "p_ch": 2, "p_dis": 2,
                       "q_dg": 3, "q_pv": 3, "q_ess": 3}


def _dispatched_window(world: World, actions: np.ndarray,
                       window_start: int, what: str) -> WindowEval:
    """The window evaluation of dispatched actions; a power flow that does
    not converge aborts `what`."""
    irr, load = world.profiles.window(window_start, world.horizon)
    ev = evaluate_window(world, actions, irr, load)
    if ev is None:
        raise EpisodeAborted(f"{what}: power flow diverged")
    return ev


def dispatch_cost(world: World, actions: np.ndarray,
                  window_start: int = 0) -> float:
    """Window operating cost in $ (negative of the summed agent rewards)."""
    return _dispatched_window(world, actions, window_start,
                              "cost evaluation").cost


def brute_force_opf(world: World, *, window_start: int = 0,
                    grid_points: dict | None = None,
                    max_evaluations: int = 200_000) -> BruteForceResult:
    """Exhaustive grid search over discretized single-step dispatches.

    Desk-scale stand-in for a centralized solver: at most 2 microgrids,
    5 buses, a one-step window, and at most 9 points per control.  Every
    candidate is power-flow checked against the full constraint table;
    the cheapest feasible point wins.  Infeasibility of the entire grid
    is reported explicitly rather than raised.
    """
    if world.horizon != 1:
        raise ValueError("oracle requires a single-step window")
    if world.n_agents > 2 or world.grid.n_bus > 5:
        raise ValueError("oracle is restricted to <= 2 MGs and <= 5 buses")
    pts = dict(DEFAULT_GRID_POINTS)
    pts.update(grid_points or {})
    if any(v < 1 or v > 9 for v in pts.values()):
        raise ValueError("grid points per control must be in 1..9")

    axes = []
    for spec in world.specs:
        lo, hi = window_bounds(spec, 1)
        for c, name in enumerate(("p_dg", "p_ch", "p_dis",
                                  "q_dg", "q_pv", "q_ess")):
            k = pts[name]
            axes.append(np.linspace(lo[c], hi[c], k) if hi[c] > lo[c]
                        else np.array([lo[c]]))
    total = int(np.prod([len(a) for a in axes]))
    if total > max_evaluations:
        raise ValueError(f"{total} grid points exceed the evaluation cap")

    irr, load = world.profiles.window(window_start, 1)
    n = world.n_agents
    best_cost = np.inf
    best_actions = None
    n_feasible = 0
    for combo in itertools.product(*axes):
        actions = np.asarray(combo, dtype=float).reshape(n, 6)
        ev = evaluate_window(world, actions, irr, load)
        if ev is None or world.violated(ev.returns).size:
            continue
        n_feasible += 1
        if ev.cost < best_cost:
            best_cost = ev.cost
            best_actions = actions
    return BruteForceResult(best_actions is not None, best_actions,
                            float(best_cost), total, n_feasible)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    if args.network_noise is not None:
        scenario.network_noise_variance = args.network_noise
    world = build_world(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    episodes = args.episodes if args.episodes is not None else scenario.episodes
    removed = [t for t in (args.remove_constraints or "").split(",") if t]
    records, agents, state = train(
        world, episodes=episodes, mode=args.mode, removed_tokens=removed,
        backtracking=not args.no_backtracking)
    for a, ag in enumerate(agents):
        save_checkpoint(ag, out / f"agent_{a}.json")
    write_episode_jsonl(records, out / "episodes.jsonl")
    write_timings(records, out / "timings.csv")
    write_summaries(records, world, out)
    config_echo = {
        "scenario": str(args.scenario),
        "seed": scenario.seed,
        "mode": args.mode,
        "episodes": episodes,
        "remove_constraints": removed,
        "backtracking": not args.no_backtracking,
        "network_noise_variance": scenario.network_noise_variance,
        "threads": worker_count(),
    }
    (out / "run_config.json").write_text(json.dumps(config_echo, indent=2))
    print(f"trained {episodes} episodes -> {out}")
    print((out / "summary.txt").read_text(), end="")
    return EXIT_OK


def _cmd_dispatch(args) -> int:
    scenario = load_scenario(args.scenario)
    world = build_world(scenario)
    ckpt_dir = Path(args.checkpoints)
    agents = []
    for a in range(world.n_agents):
        path = ckpt_dir / f"agent_{a}.json"
        if not path.exists():
            print(f"missing checkpoint {path}", file=sys.stderr)
            return EXIT_VALIDATION
        agents.append(load_checkpoint(path))
    seed = args.seed if args.seed is not None else scenario.seed
    try:
        actions, verdict, rounds = select_actions_online(
            world, agents, args.window, seed=seed,
            backtracking=not args.no_backtracking)
    except EpisodeAborted as exc:
        print(f"dispatch refused: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mg", "control", "step", "value"])
        controls = ("p_dg", "p_ch", "p_dis", "q_dg", "q_pv", "q_ess")
        for a in range(world.n_agents):
            blk = actions[a].reshape(6, world.horizon)
            for c, name in enumerate(controls):
                for t in range(world.horizon):
                    w.writerow([a, name, t, repr(float(blk[c, t]))])
    # constraint audit and operating cost of the dispatched window
    ev = _dispatched_window(world, actions, args.window, "dispatch audit")
    write_constraint_report(out.with_name(out.stem + "_constraints.csv"),
                            world.table, ev.returns, world.row_bounds)
    print(f"dispatch verdict: {verdict} (backtrack rounds: {rounds})")
    print(f"window operating cost: {ev.cost:.4f} $")
    print(f"actions -> {out}")
    return EXIT_OK if not verdict.startswith("violated") else EXIT_NUMERICAL


def _cmd_verify(args) -> int:
    dump: list | None = [] if args.dump else None
    results = run_all_audits(seed=args.seed, trials_network=args.trials,
                             fault=args.inject_fault, dump=dump)
    width = max(len(r.family) for r in results)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.family:<{width}}  trials={r.trials:<4d} "
              f"max-rel-err={r.max_rel_err:.3e}  tol={r.tolerance:.0e}  "
              f"{status}")
        ok &= r.passed
    if args.dump:
        with open(args.dump, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["quantity", "index", "analytic", "finite_difference",
                        "rel_error"])
            for row in dump:
                w.writerow(row)
        print(f"audit dump -> {args.dump}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_report(args) -> int:
    records = read_episode_jsonl(args.log)
    scenario = load_scenario(args.scenario)
    world = build_world(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_summaries(records, world, out)
    print(f"report CSVs -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="smaspl",
        description="Safe multi-agent dispatch policy learning for "
                    "networked microgrids")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train policies on a scenario")
    t.add_argument("--scenario", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--mode", choices=["smas-pl", "u-pl"], default="smas-pl")
    t.add_argument("--episodes", type=int, default=None)
    t.add_argument("--remove-constraints", default="",
                   help="comma list: row ids, kinds, kind:mgN, all")
    t.add_argument("--no-backtracking", action="store_true")
    t.add_argument("--network-noise", type=float, default=None,
                   help="override the R/X noise variance")
    t.set_defaults(fn=_cmd_train)

    d = sub.add_parser("dispatch", help="select actions from checkpoints")
    d.add_argument("--scenario", required=True)
    d.add_argument("--checkpoints", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--window", type=int, default=0)
    d.add_argument("--seed", type=int, default=None)
    d.add_argument("--no-backtracking", action="store_true")
    d.set_defaults(fn=_cmd_dispatch)

    v = sub.add_parser("verify-gradients",
                       help="finite-difference audit of every derivative")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=50)
    v.add_argument("--dump", default=None,
                   help="CSV path for the per-quantity audit dump")
    v.add_argument("--inject-fault", choices=list(FAULTS), default=None,
                   help="flip a known entry to prove the audit catches it")
    v.set_defaults(fn=_cmd_verify)

    r = sub.add_parser("report", help="episode log to CSV series")
    r.add_argument("--log", required=True)
    r.add_argument("--scenario", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    # numerical classes first: LinAlgError is a ValueError subclass
    except NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {_one_line(exc)}", file=sys.stderr)
        return EXIT_NUMERICAL
    except VALIDATION_FAILURES as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_VALIDATION


def _one_line(exc: BaseException) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
