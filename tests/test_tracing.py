"""The benchmark's tracer (perfbench/tracing.py) against the program.

The tracer swaps program attributes for timing wrappers by name and
reads `.iterations` and `.converged` from every power-flow result it
times; a renamed attribute or a changed return type breaks the
benchmark, not the program, so this guards both from the test suite.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import smaspl.training as training
from smaspl.scenario import load_scenario

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_through_a_training_episode():
    tracing = load_tracing()
    sc = load_scenario("scenarios/tiny_oracle.yaml")
    sc.training.update(batch=4, kmax=5, backtrack_rounds=1)
    world = training.build_world(sc)
    original = training.solve_power_flow
    tracer = tracing.Tracer()
    tracer.install(tracing.TRACED)     # every traced attribute resolves
    try:
        records, _, _ = training.train(world, episodes=1)
        n = world.grid.n_bus
        direct = training.solve_power_flow(world.grid, np.zeros(n),
                                           np.zeros(n))
    finally:
        tracer.uninstall()
    assert training.solve_power_flow is original
    assert len(records) == 1
    assert type(direct.iterations) is int and bool(direct.converged)
    solves = [s for s in tracer.spans if s.name == "grid.solve_power_flow"]
    # training solves whole windows as stacks (solve_power_flow_stack),
    # so the direct solve above is the traced one
    assert len(solves) >= 1
    for span in solves:
        assert type(span.attrs["iterations"]) is int
        assert type(span.attrs["converged"]) is bool
    names = {s.name for s in tracer.spans}
    assert {"training.train_episode", "training.project_local"} <= names
