"""The settable options of the program's entry points.

Each entry point's keyword parameters (those with a default) are listed
here.  An option is added only when two callers need different values,
so adding one means editing this census.
"""

import dataclasses
import inspect
import types

import numpy as np
import pytest

import smaspl
from smaspl import (cli, gradients, grid, microgrid, policy, scenario,
                    training, verify)

CENSUS = [
    (training.train, {"agents", "mode", "removed_tokens"}),
    (training.train_episode, {"removed"}),
    (training.select_actions_online, {"sample_count", "seed"}),
    (training.project_local, set()),
    (training.build_agents, set()),
    (grid.solve_power_flow, {"tol"}),
    (grid.solve_power_flow_stack, {"tol"}),
    (grid.power_flow_system_matrix, set()),
    (grid.solve_unit_columns, set()),
    (gradients.control_columns, set()),
    (gradients.constraint_action_gradients, set()),
    (gradients._count_factorization, set()),
    (policy.cov_chain_factor, set()),
    (policy.GaussianPolicy.initialize, set()),
    (microgrid.constraint_returns, {"prev_dg"}),
    (microgrid.build_constraint_table, set()),
    (scenario.synth_profiles, {"load_base_kw", "load_peak_kw"}),
    (scenario.constant_profiles, set()),
    (verify.audit_injection_jacobian, {"trials", "fault", "dump"}),
    (verify.audit_network_sensitivities, {"trials", "dump"}),
    (verify.audit_chain_factors, {"trials", "dump"}),
    (verify.audit_dnn_jacobian, {"trials", "dump"}),
    (verify.audit_local_row_gradients, {"trials", "dump"}),
    (cli.brute_force_opf, {"window_start", "grid_points"}),
]


@pytest.mark.parametrize("fn, expected", CENSUS,
                         ids=[fn.__name__ for fn, _ in CENSUS])
def test_keyword_parameters(fn, expected):
    params = inspect.signature(fn).parameters.values()
    assert {p.name for p in params if p.default is not p.empty} == expected


def test_config_object_fields():
    # each field of a config object is a setting, counted like a keyword
    assert [f.name for f in dataclasses.fields(scenario.TrainerConfig)] == [
        "gamma", "delta", "kmax", "rho1", "rho2", "dtheta", "tau", "batch",
        "sigma_floor", "sigma_span_frac", "backtrack_rounds",
        "hidden_layers"]
    assert [f.name for f in dataclasses.fields(grid.GridModel)
            if f.init] == ["buses", "branches", "base_power_kva"]


def test_deleted_names_stay_deleted():
    for name in ("LambdaMessage", "LambdaBus", "AgentChannelGraph",
                 "consensus_average"):
        assert not hasattr(training, name)
    assert not hasattr(smaspl, "AgentChannelGraph")
    assert "AgentChannelGraph" not in smaspl.__all__
    assert not hasattr(gradients, "reset_factorization_count")
    # helpers and settings no program path read
    assert not hasattr(microgrid, "fuel_consumption")
    assert not hasattr(smaspl, "fuel_consumption")
    assert not hasattr(scenario, "case33_loads")
    assert "base_kv" not in {f.name for f in dataclasses.fields(grid.GridModel)}
    assert "eps_complementarity" not in {
        f.name for f in dataclasses.fields(scenario.TrainerConfig)}
    for name in ("_system_template", "power_flow_system_values",
                 "system_block_diagonal", "_splu", "_solve_superlu"):
        assert not hasattr(grid, name)
        assert name not in grid.__all__
    assert not hasattr(grid.GridModel, "system_template")
    assert "thetas" not in {f.name for f in
                            dataclasses.fields(training.TrainingState)}
    assert not hasattr(scenario, "TRAINING_DEFAULTS")
    assert "TRAINING_DEFAULTS" not in scenario.__all__
    # the density, its three gradients and the point gradient's reciprocal
    for prefix in ("gaussian_pdf", "action_policy_"):
        assert not [n for n in dir(policy) if n.startswith(prefix)]
    for name in ("_prep", "_clamped_delta"):
        assert not hasattr(policy, name)
    assert not hasattr(policy.GaussianPolicy, "pdf")
    assert not hasattr(verify, "audit_pdf_gradients")
    # the batch folds the chain alone: no reward second moment, no
    # standard error from it
    assert not hasattr(training._BatchEval, "reward_se")
    world = training.build_world(
        scenario.load_scenario("scenarios/tiny_oracle.yaml"))
    ev = types.SimpleNamespace(mu=np.zeros(6), sigma2=np.ones(6))
    batch = training._BatchEval([ev], world.column_layout, 1)
    assert not hasattr(batch, "ww")
