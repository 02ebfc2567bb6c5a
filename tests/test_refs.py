"""Training output against the benchmark's stored references.

The two slow lineflow episodes of the benchmark panel (seeds 1 and 2,
150 and 173 inner iterations against a binding shared line) are trained
here and compared with `perfbench/refs/lineflow5-train.json` through the
benchmark's own check: floats within its tolerance, iteration counts,
backtrack rounds and verdicts exactly.  The reference file is only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from smaspl import training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


check = load("check")
workloads = load("workloads")


@pytest.mark.parametrize("seed, iterations", [(1, 150), (2, 173)])
def test_lineflow_episode_matches_reference(seed, iterations):
    ref = check.load_refs("lineflow5-train")[check.ref_key(seed, "ep0")]
    world, agents = workloads.build(
        workloads.SCENARIOS / "five_mg_lineflow.yaml", seed)
    records, _, _ = training.train(world, agents, episodes=1)
    out = workloads.episode_output(records[0])
    assert out["inner_iterations"] == iterations
    assert check.mismatches(ref, out, check.ref_key(seed, "ep0")) == []
