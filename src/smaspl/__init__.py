"""Safe multi-agent dispatch policy learning for networked microgrids.

High-level flow: load a scenario, build the world, train, dispatch.

    from smaspl import load_scenario, build_world, train
    world = build_world(load_scenario("scenarios/two_mg_binding.yaml"))
    records, agents, state = train(world, episodes=50)
"""

from .grid import (
    Branch,
    Bus,
    GridModel,
    PowerFlowSolution,
    PowerFlowStack,
    branch_current_magnitudes,
    build_admittance,
    load_grid_file,
    solve_power_flow,
    solve_power_flow_stack,
)
from .microgrid import (
    BusMap,
    ConstraintSpec,
    DGSpec,
    ESSSpec,
    MicrogridSpec,
    PCCSpec,
    PVSpec,
    build_constraint_table,
    constraint_returns,
    fuel_consumption,
    reward_return,
    soc_trajectory,
)
from .policy import (
    ActionScaling,
    FeedforwardNet,
    GaussianPolicy,
    load_checkpoint,
    save_checkpoint,
)
from .scenario import (
    ForecastErrorParams,
    ProfileSeries,
    Scenario,
    load_profiles,
    load_scenario,
    perturb_network,
    synth_profiles,
)
from .training import (
    AgentChannelGraph,
    TrainerConfig,
    World,
    build_agents,
    build_world,
    select_actions_online,
    train,
)
from .verify import run_all_audits

__version__ = "0.1.0"

__all__ = [
    "Branch", "Bus", "GridModel", "PowerFlowSolution", "PowerFlowStack",
    "branch_current_magnitudes", "build_admittance", "load_grid_file",
    "solve_power_flow", "solve_power_flow_stack",
    "BusMap", "ConstraintSpec", "DGSpec", "ESSSpec", "MicrogridSpec",
    "PCCSpec", "PVSpec", "build_constraint_table", "constraint_returns",
    "fuel_consumption", "reward_return", "soc_trajectory",
    "ActionScaling", "FeedforwardNet", "GaussianPolicy",
    "load_checkpoint", "save_checkpoint",
    "ForecastErrorParams", "ProfileSeries", "Scenario", "load_profiles",
    "load_scenario", "perturb_network", "synth_profiles",
    "AgentChannelGraph", "TrainerConfig", "World", "build_agents",
    "build_world", "select_actions_online", "train",
    "run_all_audits",
]
