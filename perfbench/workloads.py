"""The three benchmark workloads and the operations they time.

Every operation is one closed-loop call into the public API: a caller
waits for each result before issuing the next.  Program calls go through
module attributes (`training.train`, `cli.dispatch_cost`, ...) so that a
traced run sees the wrappers that `tracing.Tracer` installs there.

  paper98-train    one training episode from fresh policies on
                   scenarios/paper98.yaml (98 buses, 5 MGs, batch 128, T=4)
  lineflow5-train  one training episode from fresh policies on
                   scenarios/five_mg_lineflow.yaml, where the shared line
                   binds and every episode backtracks three times
  dispatch98       one online dispatch decision plus its operating cost on
                   scenarios/paper98.yaml, for a sweep of window starts

Each workload has a fixed panel of inputs with stored reference outputs.
Workload seed n starts at panel entry n mod len(panel); each round runs
the next ops_per_round entries.  Where the cost of an input depends
strongly on its scenario seed (lineflow5-train, dispatch98) a round is
the whole panel, so that every run measures the same mix of inputs.
"""

from __future__ import annotations

import copy
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

PAPER98_SEEDS = (98, 1, 2, 3, 4, 5, 6, 7)
# The shipped seed 5150 and seeds 0 and 7 converge in 8-9 inner
# iterations per episode, seeds 1 and 2 need 150-175.  A round trains
# all five, so the median is a typical episode and the maximum a slow one.
LINEFLOW_SEEDS = (5150, 0, 7, 1, 2)
DISPATCH_WINDOWS = 16           # window starts swept per scenario seed
DISPATCH_SAMPLES = 100          # policy draws per agent per decision

# Reduced training configuration for the untimed warm-up episode.
WARMUP_CFG = {"batch": 4, "kmax": 5, "backtrack_rounds": 1}


@dataclass
class OpResult:
    """One timed operation."""

    seed: int
    wall_s: float
    samples: int                 # joint action samples the op processed
    output: dict | None          # compared with the stored reference
    failure: str | None = None   # why the op failed, None when it did not
    inner_iterations: int = 0
    backtrack_rounds: int = 0
    key: str = ""                # names the op among the seed's references
    correct: bool = True         # output matched the reference


def failed_op(seed: int, t0: float, exc: Exception) -> OpResult:
    wall = time.perf_counter() - t0
    traceback.print_exc()
    return OpResult(seed, wall, 0, None, f"{type(exc).__name__}: {exc}")


def program():
    """The smaspl modules the benchmark calls, imported on first use."""
    import smaspl.cli as cli
    import smaspl.scenario as scenario
    import smaspl.training as training
    return scenario, training, cli


def build(path: Path, seed: int, overrides: dict | None = None):
    """load_scenario + seed override + build_world + build_agents."""
    scenario, training, _ = program()
    sc = scenario.load_scenario(path)
    sc.seed = seed
    world = training.build_world(sc)
    for key, value in (overrides or {}).items():
        setattr(world.cfg, key, value)
    return world, training.build_agents(world)


def episode_output(rec) -> dict:
    return {
        "rewards": list(rec.rewards),
        "j_values": dict(rec.j_values),
        "lambda_final": [list(row) for row in rec.lambda_final],
        "pfe_verdict": rec.pfe_verdict,
        "inner_iterations": rec.inner_iterations,
        "backtrack_rounds": rec.backtrack_rounds,
    }


class Workload:
    """A panel of inputs, run in rounds of ops_per_round operations."""

    name: str
    path: Path
    panel: list
    ops_per_round: int

    def begin(self, seed: int) -> None:
        self.start = seed % len(self.panel)

    def round_inputs(self, k: int) -> list:
        first = self.start + k * self.ops_per_round
        return [self.panel[(first + i) % len(self.panel)]
                for i in range(self.ops_per_round)]

    def setup_seed(self) -> int:
        """Scenario seed of the run's first input."""
        return self.scenario_seed(self.panel[self.start])


class TrainWorkload(Workload):
    """Each operation trains one episode from freshly built policies."""

    def __init__(self, name: str, scenario: str, seeds: tuple,
                 ops_per_round: int):
        self.name = name
        self.path = SCENARIOS / scenario
        self.panel = list(seeds)
        self.ops_per_round = ops_per_round

    def scenario_seed(self, seed: int) -> int:
        return seed

    def warm_up(self) -> None:
        _, training, _ = program()
        world, agents = build(self.path, self.setup_seed(), WARMUP_CFG)
        training.train(world, agents, episodes=1)

    def prepare(self, seed: int):
        return build(self.path, seed)

    def run(self, seed: int, prepared) -> OpResult:
        _, training, _ = program()
        world, agents = prepared
        t0 = time.perf_counter()
        try:
            records, _, _ = training.train(world, agents, episodes=1)
        except Exception as exc:    # a failed episode is a failed operation
            return failed_op(seed, t0, exc)
        wall = time.perf_counter() - t0
        rec = records[0]
        samples = world.cfg.batch * (1 + rec.backtrack_rounds)
        return OpResult(
            seed, wall, samples, episode_output(rec),
            "pf-failure" if rec.pfe_verdict == "pf-failure" else None,
            rec.inner_iterations, rec.backtrack_rounds, key="ep0")


class DispatchWorkload(Workload):
    """Each operation is one `smaspl dispatch` decision and its cost.

    The panel is every (scenario seed, window start) pair; the policies
    of a scenario seed are the fresh ones `build_agents` makes for it.
    """

    name = "dispatch98"

    def __init__(self):
        self.path = SCENARIOS / "paper98.yaml"
        self.panel = [(s, w) for s in PAPER98_SEEDS
                      for w in range(DISPATCH_WINDOWS)]
        self.ops_per_round = len(self.panel)
        self.built: dict = {}

    def scenario_seed(self, x) -> int:
        return x[0]

    def begin(self, seed: int) -> None:
        super().begin(seed)
        self.built = {s: build(self.path, s) for s in PAPER98_SEEDS}
        world = self.built[PAPER98_SEEDS[0]][0]
        span = world.profiles.n_steps - world.horizon
        self.starts = [j * span // DISPATCH_WINDOWS
                       for j in range(DISPATCH_WINDOWS)]

    def warm_up(self) -> None:
        for x in self.round_inputs(0)[:3]:
            self.run(x, self.prepare(x))

    def prepare(self, x):
        # a tripped gate retrains the policies in place: start each
        # decision from the pristine ones
        return copy.deepcopy(self.built[x[0]][1])

    def run(self, x, agents) -> OpResult:
        _, training, cli = program()
        seed, window = x
        world, start = self.built[seed][0], self.starts[window]
        t0 = time.perf_counter()
        try:
            actions, verdict, rounds = training.select_actions_online(
                world, agents, start, sample_count=DISPATCH_SAMPLES)
            cost = cli.dispatch_cost(world, actions, start)
        except Exception as exc:    # EpisodeAborted: dispatch refused
            return failed_op(seed, t0, exc)
        wall = time.perf_counter() - t0
        out = {"window_start": start, "actions": actions.tolist(),
               "verdict": verdict, "cost": cost}
        samples = DISPATCH_SAMPLES * (1 + rounds)
        return OpResult(seed, wall, samples, out, None, 0, rounds,
                        key=f"w{window}")


WORKLOADS = {
    "paper98-train": lambda: TrainWorkload(
        "paper98-train", "paper98.yaml", PAPER98_SEEDS, 2),
    "lineflow5-train": lambda: TrainWorkload(
        "lineflow5-train", "five_mg_lineflow.yaml", LINEFLOW_SEEDS,
        len(LINEFLOW_SEEDS)),
    "dispatch98": DispatchWorkload,
}
