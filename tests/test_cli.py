"""End-to-end CLI contract tests: artifacts, schemas, exit codes."""

import csv
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from smaspl import cli
from smaspl.cli import (
    EPISODE_FIELDS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    brute_force_opf,
    main,
    read_episode_jsonl,
)
from smaspl.gradients import SensitivityError
from smaspl.scenario import load_scenario
from smaspl.training import ProjectionInfeasible, build_world
from smaspl.verify import run_all_audits

TINY = "scenarios/tiny_oracle.yaml"
BACKTRACK = "scenarios/two_mg_backtrack.yaml"


def scenario_copy(tmp_path, old, new, source=TINY):
    """A shipped scenario with one text replaced, written under tmp_path."""
    grids = Path(source).resolve().parent / "grids"
    text = Path(source).read_text().replace(
        "grid_file: grids/", f"grid_file: {grids}/")
    assert old in text
    path = tmp_path / "scenario.yaml"
    path.write_text(text.replace(old, new))
    return path


def grid_copy(tmp_path, old, new):
    """tiny_oracle.yaml and its grid written under tmp_path, one text of
    the grid replaced; returns the scenario and the grid path."""
    text = Path("scenarios/grids/tiny.yaml").read_text()
    assert text.count(old) == 1
    grid = tmp_path / "grids" / "tiny.yaml"
    grid.parent.mkdir()
    grid.write_text(text.replace(old, new))
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(Path(TINY).read_text())
    return scenario, grid


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


def run_train(tmp_path, name, extra=()):
    out = tmp_path / name
    code = main(["train", "--scenario", TINY, "--out", str(out),
                 "--episodes", "3", *extra])
    assert code == EXIT_OK
    return out


class TestTrainArtifacts:
    def test_artifact_set_and_roundtrips(self, tmp_path):
        out = run_train(tmp_path, "run1")
        for name in ("run_config.json", "agent_0.json", "episodes.jsonl",
                     "timings.csv", "summary_reward.csv",
                     "summary_constraints.csv", "summary_lambda.csv",
                     "summary_theta.csv", "summary.txt"):
            assert (out / name).exists(), name
        records = read_episode_jsonl(out / "episodes.jsonl")
        assert len(records) == 3
        assert [r.episode for r in records] == [0, 1, 2]
        # documented field order on disk
        first = json.loads((out / "episodes.jsonl").read_text().splitlines()[0])
        assert tuple(first.keys()) == EPISODE_FIELDS
        with open(out / "summary_reward.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["episode", "reward_mg0", "reward_mean"]
        assert len(rows) == 4

    def test_rerun_same_seed_bit_identical(self, tmp_path):
        a = run_train(tmp_path, "a")
        b = run_train(tmp_path, "b")
        assert (a / "episodes.jsonl").read_bytes() == \
            (b / "episodes.jsonl").read_bytes()
        assert (a / "agent_0.json").read_bytes() == \
            (b / "agent_0.json").read_bytes()

    def test_upl_mode_same_schema(self, tmp_path):
        out = run_train(tmp_path, "upl", ["--mode", "u-pl"])
        first = json.loads((out / "episodes.jsonl").read_text().splitlines()[0])
        assert tuple(first.keys()) == EPISODE_FIELDS

    def test_bad_scenario_is_validation_failure(self, tmp_path):
        code = main(["train", "--scenario", "nope.yaml",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION

    def test_retired_consensus_weight_is_validation_failure(self, tmp_path,
                                                           capsys):
        old = scenario_copy(
            tmp_path, "sigma_span_frac: 0.15}",
            "sigma_span_frac: 0.15, consensus_weight: 1.0}")
        code = main(["train", "--scenario", str(old),
                     "--out", str(tmp_path / "x"), "--episodes", "1"])
        assert code == EXIT_VALIDATION
        assert_one_error_line(
            capsys, "unknown key(s) training.consensus_weight")

    def test_zero_episodes_flag_is_validation_failure(self, tmp_path,
                                                      capsys):
        code = main(["train", "--scenario", TINY,
                     "--out", str(tmp_path / "x"), "--episodes", "0"])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, "--episodes must be >= 1, got 0")

    def test_zero_episodes_in_scenario_is_validation_failure(self, tmp_path,
                                                             capsys):
        path = scenario_copy(tmp_path, "episodes: 60", "episodes: 0")
        code = main(["train", "--scenario", str(path),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, "episode count must be >= 1, got 0")

    @pytest.mark.parametrize("old, new, message", [
        ("sigma_span_frac: 0.15}", "sigma_span_frac: 0.15, tau: 0.0}",
         "training.tau = 0.0, must be in (0, 1)"),
        ("batch: 64", "batch: 0", "training.batch = 0, must be >= 1"),
        ("sigma_span_frac: 0.15}", "sigma_span_frac: 0.15, kmax: 0}",
         "training.kmax = 0, must be >= 1"),
        ("window: 1", "window: [4]", "window = [4], must be an integer"),
        ("sigma_span_frac: 0.15}",
         "sigma_span_frac: 0.15, hidden_layers: 5}",
         "training.hidden_layers = 5, must be a non-empty list of positive "
         "integers"),
        ("sigma_span_frac: 0.15}", "sigma_span_frac: 0.15, rho1: fast}",
         "training.rho1 = 'fast', must be a number"),
        ("seed: 777", "seed: abc", "seed = 'abc', must be an integer"),
        ("host_loads: {1: [3, 1]}", "host_loads: {1: 5}",
         "host_loads.1 = 5, must be a pair of numbers"),
        ("solar_scale: 0.0", "solar_scale: [1]",
         "forecast_error.solar_scale = [1], must be a number"),
        ("batch: 64", "batch: 64.5",
         "training.batch = 64.5, must be an integer"),
        ("sigma_span_frac: 0.15}", "sigma_span_frac: 0.15, kmax: 2.5}",
         "training.kmax = 2.5, must be an integer"),
        ("dg: {p_max_kw: 60, q_max_kvar: 6, ramp_kw: 60, fuel_price: 0.57,\n"
         "         a_f: 0.004, b_f: 0.1709, c_f: 2.0}", "dg: 5",
         "mgs[0].dg = 5, must be a mapping"),
        ("profiles:\n  constant: {steps: 96, load_kw: 5.0, irradiance: 0.5}",
         "profiles: 5", "profiles = 5, must be a mapping"),
        # a later duplicate key replaces the earlier value in PyYAML
        ("network_noise_variance: 0.0", "network_noise_variance: 0.0\nmgs: 3",
         "mgs = 3, must be a list"),
        ("window: 1", "window: 1.9", "window = 1.9, must be an integer"),
        ("window: 1", "window: true", "window = True, must be an integer"),
        ("solar_scale: 0.0", "solar_scal: 0.0",
         "unknown key(s) forecast_error.solar_scal"),
        ("p_max_kw: 60,", "p_max_kw: lots,",
         "mgs[0].dg.p_max_kw = 'lots', must be a number"),
        ("steps: 96", "steps: many",
         "profiles.constant.steps = 'many', must be an integer"),
        ("solar_scale: 0.0", "solar_scale: big",
         "forecast_error.solar_scale = 'big', must be a number"),
        ("network_noise_variance: 0.0",
         "network_noise_variance: 0.0\ngrid_file: 5",
         "grid_file = 5, must be a file name"),
        ("constant: {steps: 96, load_kw: 5.0, irradiance: 0.5}", "file: 5",
         "profiles.file = 5, must be a file name"),
        ("network_noise_variance: 0.0", "network_noise_variance: 0.0\n"
         "episode: 5", "unknown key(s) episode"),
        ("seed: 777", "seed: -4", "seed = -4, must be >= 0"),
        ("constant: {steps: 96, load_kw: 5.0, irradiance: 0.5}",
         "synthetic: {seed: -3}",
         "profiles.synthetic.seed = -3, must be >= 0"),
        ("constant: {steps: 96, load_kw: 5.0, irradiance: 0.5}",
         "synthetic: {days: -1}",
         "profiles.synthetic.days = -1, must be >= 1"),
        ("load_kw: 5.0", "load_kw: -5.0",
         "profiles.constant.load_kw = -5.0, must be a finite number >= 0"),
        ("irradiance: 0.5", "irradiance: 7.5",
         "profiles.constant.irradiance = 7.5, must be in [0, 1.2]"),
        ("network_noise_variance: 0.0", "network_noise_variance: .nan",
         "network_noise_variance = nan, must be >= 0"),
        ("solar_scale: 0.0", "solar_scale: .nan",
         "forecast_error.solar_scale = nan, must be >= 0"),
        ("p_max_kw: 60,", "p_max_kw: .nan,",
         "mgs[0].dg.p_max_kw = nan, must be a finite number"),
        ("e_cap_kwh: 20,", "e_cap_kwh: .inf,",
         "mgs[0].ess.e_cap_kwh = inf, must be a finite number"),
        ("price_per_kwh: 0.30}", "price_per_kwh: -.inf}",
         "mgs[0].pcc.price_per_kwh = -inf, must be a finite number"),
        ("q_load_ratio: 0.2", "q_load_ratio: .nan",
         "mgs[0].q_load_ratio = nan, must be a finite number"),
        ("q_load_ratio: 0.2",
         "q_load_ratio: 0.2\n    action_ranges: {p_dg: [0, .inf]}",
         "mgs[0].action_ranges.p_dg[1] = inf, must be a finite number"),
        ("q_load_ratio: 0.2",
         "q_load_ratio: 0.2\n    action_ranges: {p_dgg: [0, 60]}",
         "unknown key(s) mgs[0].action_ranges.p_dgg"),
        ("q_load_ratio: 0.2",
         "q_load_ratio: 0.2\n    action_ranges: {q_pv: [5, -5]}",
         "mgs[0].action_ranges.q_pv = [5.0, -5.0], must have lo <= hi"),
        ("host_loads: {1: [3, 1]}", "host_loads: {1: [.nan, 1]}",
         "host_loads.1[0] = nan, must be a finite number"),
    ], ids=["tau", "batch", "kmax", "window-list", "hidden-layers-int",
            "rho1-string", "seed-string", "host-load-scalar",
            "solar-scale-list", "batch-fraction", "kmax-fraction",
            "dg-scalar", "profiles-scalar", "mgs-scalar", "window-fraction",
            "window-bool", "forecast-error-unknown-key", "p-max-string",
            "steps-string", "solar-scale-string", "grid-file-int",
            "profile-file-int", "top-level-unknown-key", "seed-negative",
            "synthetic-seed-negative", "synthetic-days-negative",
            "constant-load-negative", "constant-irradiance-high",
            "noise-nan", "solar-scale-nan", "dg-p-max-nan", "ess-cap-inf",
            "pcc-price-minus-inf", "q-load-ratio-nan", "action-range-inf",
            "action-range-unknown", "action-range-reversed", "host-load-nan"])
    def test_training_value_out_of_range_is_validation_failure(
            self, tmp_path, capsys, old, new, message):
        path = scenario_copy(tmp_path, old, new)
        code = main(["train", "--scenario", str(path),
                     "--out", str(tmp_path / "x"), "--episodes", "1"])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, str(path), message)
        assert not (tmp_path / "x").exists()

    def test_bad_removal_token_is_validation_failure(self, tmp_path):
        code = main(["train", "--scenario", TINY,
                     "--out", str(tmp_path / "x"), "--episodes", "1",
                     "--remove-constraints", "not-a-row"])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("old, new, message", [
        ("units: pu, i_max: 10.0}\n  - {from: 2",
         "units: pu, i_mx: 0.01}\n  - {from: 2",
         "unknown key(s) branches[1].i_mx"),
        ("{id: 1, kind: load, base_kv: 12.66, v_min: 0.90,",
         '{id: 1, kind: load, base_kv: 12.66, v_min: "0.90",',
         "buses[1].v_min = '0.90', must be a number"),
        ("{id: 3,", "{id: 3.7,", "buses[3].id = 3.7, must be an integer"),
        ("base_power_kva: 100", "base_power_kva: true",
         "base_power_kva = True, must be a number"),
        # a later duplicate key replaces the earlier value in PyYAML
        ("{from: 2, to: 3, r: 0.005, x: 0.010, units: pu, i_max: 10.0}",
         "{from: 2, to: 3, r: 0.005, x: 0.010, units: pu, i_max: 10.0}\n"
         "buses: 3", "buses = 3, must be a list"),
        ("r: 0.010, x: 0.020,", "r: 0.010,",
         "missing required key 'branches[1].x'"),
        ("mg_owner: 0}\n  - {id: 3", "mg_owner: zero}\n  - {id: 3",
         "buses[2].mg_owner = 'zero', must be an integer"),
    ], ids=["misspelt-i-max", "v-min-string", "id-fraction", "base-bool",
            "buses-scalar", "branch-without-x", "mg-owner-string"])
    def test_malformed_grid_is_validation_failure(self, tmp_path, capsys,
                                                  old, new, message):
        scenario, grid = grid_copy(tmp_path, old, new)
        code = main(["train", "--scenario", str(scenario),
                     "--out", str(tmp_path / "x"), "--episodes", "1"])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, f"{grid}: {message}")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("source, old, new, message", [
        (TINY, "steps: 96", "steps: 0",
         "profiles hold 0 steps, window = 1 needs at least 1"),
        ("scenarios/two_mg_binding.yaml", "steps: 96", "steps: 1",
         "profiles hold 1 steps, window = 4 needs at least 4"),
    ], ids=["no-steps", "shorter-than-window"])
    def test_profile_shorter_than_window_is_validation_failure(
            self, tmp_path, capsys, source, old, new, message):
        path = scenario_copy(tmp_path, old, new, source)
        code = main(["train", "--scenario", str(path),
                     "--out", str(tmp_path / "x"), "--episodes", "1"])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, f"{path}: {message}")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("column, value, message", [
        (1, "nan", "mg0_load_kw = nan, must be a finite number >= 0"),
        (1, "inf", "mg0_load_kw = inf, must be a finite number >= 0"),
        (2, "7.5", "mg0_irradiance = 7.5, must be in [0, 1.2]"),
        (2, "-0.1", "mg0_irradiance = -0.1, must be in [0, 1.2]"),
    ], ids=["load-nan", "load-inf", "irradiance-high", "irradiance-negative"])
    def test_profile_csv_value_is_validation_failure(self, tmp_path, capsys,
                                                     column, value, message):
        from smaspl.scenario import constant_profiles, save_profiles
        csv_path = tmp_path / "profile.csv"
        save_profiles(csv_path, constant_profiles(96, 1, 5.0, 0.5))
        lines = csv_path.read_text().splitlines()
        row = lines[4].split(",")
        row[column] = value
        lines[4] = ",".join(row)
        csv_path.write_text("\n".join(lines) + "\n")
        path = scenario_copy(
            tmp_path, "constant: {steps: 96, load_kw: 5.0, irradiance: 0.5}",
            "file: profile.csv")
        code = main(["train", "--scenario", str(path),
                     "--out", str(tmp_path / "x"), "--episodes", "1"])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, f"{csv_path}:5: {message}")
        assert not (tmp_path / "x").exists()


class TestPathMistakes:
    @pytest.mark.parametrize("argv", [
        ["train", "--scenario", "scenarios", "--out", "{tmp}/x"],
        ["train", "--scenario", TINY, "--out", "{tmp}/file"],
        ["report", "--log", "{tmp}", "--scenario", TINY, "--out", "{tmp}/x"],
        ["dispatch", "--scenario", TINY, "--checkpoints", "{tmp}/file",
         "--out", "{tmp}/x.csv"],
    ], ids=["train-scenario-is-a-directory", "train-out-is-a-file",
            "report-log-is-a-directory", "dispatch-checkpoints-is-a-file"])
    def test_path_mistake_is_validation_failure(self, tmp_path, capsys,
                                                argv):
        (tmp_path / "file").write_text("")
        code = main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


class TestFlagRanges:
    @pytest.mark.parametrize("argv, message", [
        (["train", "--network-noise", "-0.5"],
         "--network-noise must be >= 0, got -0.5"),
        (["train", "--network-noise", "nan"],
         "--network-noise must be >= 0, got nan"),
        (["train", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["dispatch", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["verify-gradients", "--trials", "0"],
         "--trials must be >= 1, got 0"),
        (["verify-gradients", "--trials", "-3"],
         "--trials must be >= 1, got -3"),
        (["verify-gradients", "--seed", "-2"], "--seed must be >= 0, got -2"),
    ], ids=["train-noise-negative", "train-noise-nan", "train-seed-negative",
            "dispatch-seed-negative", "verify-trials-zero",
            "verify-trials-negative", "verify-seed-negative"])
    def test_flag_out_of_range_is_validation_failure(self, tmp_path, capsys,
                                                     argv, message):
        from smaspl.policy import save_checkpoint
        from smaspl.training import build_agents
        out = tmp_path / "out"
        world = build_world(load_scenario(TINY))
        for a, ag in enumerate(build_agents(world)):
            save_checkpoint(ag, tmp_path / f"agent_{a}.json")
        extra = {"train": ["--scenario", TINY, "--out", str(out),
                           "--episodes", "1"],
                 "dispatch": ["--scenario", TINY, "--checkpoints",
                              str(tmp_path), "--out", str(out / "a.csv")],
                 "verify-gradients": []}[argv[0]]
        code = main([*argv, *extra])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, message)
        assert not out.exists()


class TestDispatch:
    def test_dispatch_writes_readable_actions(self, tmp_path):
        out = run_train(tmp_path, "train")
        actions_csv = tmp_path / "actions.csv"
        code = main(["dispatch", "--scenario", TINY,
                     "--checkpoints", str(out), "--out", str(actions_csv)])
        assert code == EXIT_OK
        with open(actions_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # one MG, six controls, one step
        vals = {r["control"]: float(r["value"]) for r in rows}
        assert set(vals) == {"p_dg", "p_ch", "p_dis", "q_dg", "q_pv", "q_ess"}
        assert vals["p_ch"] * vals["p_dis"] == 0.0
        # constraint audit emitted alongside, value vs bound per row
        with open(tmp_path / "actions_constraints.csv") as fh:
            audit = list(csv.DictReader(fh))
        assert {r["id"] for r in audit} >= {"mg0.dg_p_hi", "v_hi[0]"}
        assert all(float(r["return"]) <= float(r["bound"]) + 1e-6
                   for r in audit)

    def test_dispatch_deterministic(self, tmp_path):
        out = run_train(tmp_path, "train")
        f1 = tmp_path / "a1.csv"
        f2 = tmp_path / "a2.csv"
        assert main(["dispatch", "--scenario", TINY, "--checkpoints",
                     str(out), "--out", str(f1), "--seed", "9"]) == EXIT_OK
        assert main(["dispatch", "--scenario", TINY, "--checkpoints",
                     str(out), "--out", str(f2), "--seed", "9"]) == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

    def test_seed_zero_reaches_selection(self, tmp_path, monkeypatch):
        # --seed 0 must not fall back to the scenario seed (777)
        import smaspl.cli as cli
        from smaspl.policy import save_checkpoint
        from smaspl.training import EpisodeAborted, build_agents

        world = build_world(load_scenario(TINY))
        for a, ag in enumerate(build_agents(world)):
            save_checkpoint(ag, tmp_path / f"agent_{a}.json")
        seen = []

        def fake_select(world, agents, window, *, seed, **kwargs):
            seen.append(seed)
            raise EpisodeAborted("stopped after recording the seed")

        monkeypatch.setattr(cli, "select_actions_online", fake_select)
        code = main(["dispatch", "--scenario", TINY, "--checkpoints",
                     str(tmp_path), "--out", str(tmp_path / "a.csv"),
                     "--seed", "0"])
        assert seen == [0]
        assert code == EXIT_NUMERICAL

    def test_diverged_audit_exits_two(self, tmp_path, monkeypatch, capsys):
        from smaspl.policy import save_checkpoint
        from smaspl.training import build_agents

        world = build_world(load_scenario(TINY))
        for a, ag in enumerate(build_agents(world)):
            save_checkpoint(ag, tmp_path / f"agent_{a}.json")

        def diverging_select(world, agents, window, **kwargs):
            actions = np.zeros((world.n_agents, 6 * world.horizon))
            actions[:, world.horizon:2 * world.horizon] = 1e7  # p_ch, kW
            return actions, "clean", 0

        monkeypatch.setattr(cli, "select_actions_online", diverging_select)
        code = main(["dispatch", "--scenario", TINY, "--checkpoints",
                     str(tmp_path), "--out", str(tmp_path / "a.csv")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: dispatch audit")
        assert err.count("\n") == 1

    def test_refused_dispatch_exits_two(self, tmp_path, monkeypatch, capsys):
        from smaspl import training
        from smaspl.policy import save_checkpoint

        world = build_world(load_scenario(TINY))
        for a, ag in enumerate(training.build_agents(world)):
            save_checkpoint(ag, tmp_path / f"agent_{a}.json")
        # every window the gate checks diverges: nothing is accepted
        def nothing_accepted(world, actions, *args, **kwargs):
            return training.WindowEval(
                accepted=np.zeros(len(actions), dtype=bool),
                actions=actions[:0], pf=None, obs=None,
                returns=np.empty((0, len(world.table))),
                rewards=np.empty((0, world.n_agents)))

        monkeypatch.setattr(training, "evaluate_window", nothing_accepted)
        code = main(["dispatch", "--scenario", TINY, "--checkpoints",
                     str(tmp_path), "--out", str(tmp_path / "a.csv")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: dispatch refused")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scenario, edit, message", [
        (TINY, "drop-lo", "checkpoint has no key 'lo'"),
        ("scenarios/two_mg_binding.yaml", "copy",
         "checkpoint maps 2 inputs to 6 controls, window = 4 needs 8 to 24"),
        (TINY, "not-json", "not JSON"),
        (TINY, "json-list", "unsupported checkpoint format None"),
        (TINY, "sizes-int",
         "checkpoint key 'mean_sizes' must be a list of positive integers"),
        (TINY, "floor-string",
         "checkpoint key 'sigma_floor' must be a finite number"),
        (TINY, "theta-short", "parameter vector must have length"),
    ], ids=["missing-key", "other-window", "not-json", "json-list",
            "sizes-int", "floor-string", "theta-short"])
    def test_broken_checkpoint_is_validation_failure(self, tmp_path, capsys,
                                                     scenario, edit, message):
        from smaspl.policy import save_checkpoint
        from smaspl.training import build_agents

        # the policy of the one-step tiny_oracle window
        path = tmp_path / "agent_0.json"
        save_checkpoint(build_agents(build_world(load_scenario(TINY)))[0],
                        path)
        data = json.loads(path.read_text())
        if edit == "drop-lo":
            del data["lo"]
        elif edit == "sizes-int":
            data["mean_sizes"] = 5
        elif edit == "floor-string":
            data["sigma_floor"] = "0.01"
        elif edit == "theta-short":
            data["theta_mu"] = data["theta_mu"][:-1]
        if edit in ("drop-lo", "sizes-int", "floor-string", "theta-short"):
            path.write_text(json.dumps(data))
        elif edit == "copy":
            (tmp_path / "agent_1.json").write_text(path.read_text())
        else:
            path.write_text("[1]" if edit == "json-list" else "not json")
        code = main(["dispatch", "--scenario", scenario,
                     "--checkpoints", str(tmp_path),
                     "--out", str(tmp_path / "a.csv")])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, f"{path}: {message}")

    def test_missing_checkpoints(self, tmp_path, capsys):
        code = main(["dispatch", "--scenario", TINY,
                     "--checkpoints", str(tmp_path / "void"),
                     "--out", str(tmp_path / "a.csv")])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, str(tmp_path / "void" / "agent_0.json"))


class TestNoBacktracking:
    """--no-backtracking is the scenario's training backtrack_rounds: 0."""

    def test_train_flag_equals_zero_backtrack_rounds(self, tmp_path):
        flag, field = tmp_path / "flag", tmp_path / "field"
        assert main(["train", "--scenario", BACKTRACK, "--out", str(flag),
                     "--no-backtracking"]) == EXIT_OK
        path = scenario_copy(tmp_path, "sigma_span_frac: 0.15}",
                             "sigma_span_frac: 0.15, backtrack_rounds: 0}",
                             source=BACKTRACK)
        assert main(["train", "--scenario", str(path),
                     "--out", str(field)]) == EXIT_OK
        log = (flag / "episodes.jsonl").read_bytes()
        assert log == (field / "episodes.jsonl").read_bytes()
        first = read_episode_jsonl(flag / "episodes.jsonl")[0]
        assert (first.pfe_verdict, first.backtrack_rounds) == \
            ("violated:mg0.pcc_p_hi", 0)
        for out in (flag, field):
            echo = json.loads((out / "run_config.json").read_text())
            assert echo["backtracking"] is False

    def test_dispatch_flag_checks_once(self, tmp_path, capsys):
        from smaspl.policy import save_checkpoint
        from smaspl.training import build_agents

        world = build_world(load_scenario(BACKTRACK))
        for a, ag in enumerate(build_agents(world)):
            save_checkpoint(ag, tmp_path / f"agent_{a}.json")
        code = main(["dispatch", "--scenario", BACKTRACK, "--checkpoints",
                     str(tmp_path), "--out", str(tmp_path / "a.csv"),
                     "--no-backtracking"])
        assert code == EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert "verdict: violated:mg0.pcc_p_hi (backtrack rounds: 0)" in out


class TestReport:
    def test_report_reproduces_training_summaries(self, tmp_path):
        out = run_train(tmp_path, "train")
        rep = tmp_path / "rep"
        code = main(["report", "--log", str(out / "episodes.jsonl"),
                     "--scenario", TINY, "--out", str(rep)])
        assert code == EXIT_OK
        for name in ("summary_reward.csv", "summary_constraints.csv",
                     "summary_lambda.csv", "summary_theta.csv"):
            assert (rep / name).read_bytes() == (out / name).read_bytes()

    # a well-typed record of the tiny_oracle case (one agent, 14 global
    # rows)
    FIELDS = {
        "episode": 0, "rewards": [1.0], "rewards_dispatch": [1.0],
        "j_values": {}, "j_dispatch": {}, "lambda_final": [[0.0] * 14],
        "lambda_traj": {}, "theta_change": [0.0], "inner_iterations": 1,
        "inner_converged": True, "backtrack_rounds": 0,
        "pfe_verdict": "clean", "discards": 0,
    }
    RECORD = json.dumps(FIELDS) + "\n"

    @pytest.mark.parametrize("log, where", [
        ('{"episode": 0, "rewards": [1.0]}\n', "log.jsonl:1: not an episode"),
        ("[1, 2]\n", "log.jsonl:1: not an episode record"),
        ("{\"episode\": \n", "log.jsonl:1: not JSON"),
        ("", "log.jsonl: episode log holds no records"),
        (RECORD + json.dumps({**FIELDS, "wall_clock_s": 0.5}) + "\n",
         "log.jsonl:2: not an episode record"),
        (RECORD + json.dumps({**FIELDS, "theta_change": 3}) + "\n",
         "log.jsonl:2: field 'theta_change' must be list[float]"),
        (json.dumps({**FIELDS, "rewards": None}) + "\n",
         "log.jsonl:1: field 'rewards' must be list[float]"),
        (json.dumps({**FIELDS, "backtrack_rounds": None}) + "\n",
         "log.jsonl:1: field 'backtrack_rounds' must be int"),
        (json.dumps({**FIELDS, "episode": "x"}) + "\n",
         "log.jsonl:1: field 'episode' must be int"),
        (json.dumps({**FIELDS, "pfe_verdict": 5}) + "\n",
         "log.jsonl:1: field 'pfe_verdict' must be str"),
        (json.dumps({**FIELDS, "inner_converged": 1}) + "\n",
         "log.jsonl:1: field 'inner_converged' must be bool"),
        (json.dumps({**FIELDS, "lambda_traj": {"v_hi[1]": [1.0]}}) + "\n",
         "log.jsonl:1: field 'lambda_traj' must be "
         "dict[str, list[list[float]]]"),
    ], ids=["missing-fields", "json-list", "not-json", "empty", "extra-field",
            "theta-change-int", "rewards-null", "backtrack-rounds-null",
            "episode-string", "verdict-int", "converged-int",
            "lambda-traj-flat"])
    def test_malformed_log_is_validation_failure(self, tmp_path, capsys,
                                                 log, where):
        path = tmp_path / "log.jsonl"
        path.write_text(log)
        code = main(["report", "--log", str(path), "--scenario", TINY,
                     "--out", str(tmp_path / "rep")])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, where)

    def test_log_of_another_scenario_is_validation_failure(self, tmp_path,
                                                          capsys):
        # a row id of a larger grid, unknown to the 4-bus tiny case
        row = {**self.FIELDS, "j_values": {"v_hi[4]": 1.0}}
        path = tmp_path / "log.jsonl"
        path.write_text(json.dumps(row) + "\n")
        code = main(["report", "--log", str(path), "--scenario", TINY,
                     "--out", str(tmp_path / "rep")])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, f"{path}: row id 'v_hi[4]'", TINY)
        assert not (tmp_path / "rep").exists()


    @pytest.mark.parametrize("field, value, where", [
        ("rewards", [1.0, 2.0], "'rewards' lists 2 values where"),
        ("rewards_dispatch", [], "'rewards_dispatch' lists 0 values where"),
        ("theta_change", [0.0, 0.0], "'theta_change' lists 2 values where"),
        ("lambda_final", [[0.0] * 14] * 2,
         "'lambda_final' lists 2 values where"),
        ("lambda_final", [[0.0] * 3], "'lambda_final' lists 3 values where"),
        ("lambda_traj", {"v_hi[1]": [[0.1], [0.1, 0.2]]},
         "'lambda_traj' lists 2 values where"),
    ], ids=["rewards", "rewards-dispatch", "theta-change", "lambda-agents",
            "lambda-rows", "lambda-traj"])
    def test_log_of_another_agent_count_is_validation_failure(
            self, tmp_path, capsys, field, value, where):
        # the tiny case has one agent and 14 global rows
        path = tmp_path / "log.jsonl"
        path.write_text(self.RECORD + json.dumps({**self.FIELDS,
                                                  field: value}) + "\n")
        code = main(["report", "--log", str(path), "--scenario", TINY,
                     "--out", str(tmp_path / "rep")])
        assert code == EXIT_VALIDATION
        assert_one_error_line(capsys, f"{path}:2: field {where} {TINY}")
        assert not (tmp_path / "rep").exists()


class TestVerify:
    def test_default_audit_passes(self, tmp_path, capsys):
        dump = tmp_path / "audit.csv"
        code = main(["verify-gradients", "--trials", "6",
                     "--dump", str(dump)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert text.count("pass") >= 6  # at least six derivative families
        with open(dump) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["quantity", "index", "analytic",
                           "finite_difference", "rel_error"]
        assert len(rows) > 6

    def test_local_row_dump_is_the_worst_entry(self):
        dump = []
        results = run_all_audits(seed=0, trials_network=2, dump=dump)
        family = "local-constraint-gradients"
        worst = next(r.max_rel_err for r in results if r.family == family)
        rows = [row for row in dump if row[0] == family]
        assert len(rows) == 25  # one per trial
        assert max(row[4] for row in rows) == worst

    def test_fault_injection_fails_audit(self):
        code = main(["verify-gradients", "--trials", "4",
                     "--inject-fault", "table3-qdg-sign"])
        assert code == EXIT_NUMERICAL


class TestBruteForce:
    def world(self, **training):
        sc = load_scenario(TINY)
        sc.training.update(training)
        return build_world(sc)

    def test_boundary_optimum_with_linear_fuel(self):
        # flatten the quadratic so the marginal profit stays positive all
        # the way: the optimum must land on the last grid point
        sc = load_scenario(TINY)
        object.__setattr__(sc.specs[0].dg, "a_f", 0.0)
        world = build_world(sc)
        res = brute_force_opf(world)
        assert res.feasible
        assert res.actions[0, 0] == pytest.approx(60.0)

    def test_all_infeasible_reported(self):
        sc = load_scenario(TINY)
        # voltage band no dispatch can reach (slack is pinned at 1.0)
        from smaspl.grid import Bus, GridModel
        buses = [Bus(b.id, b.kind, 1.02, 1.03, b.mg_owner)
                 if b.kind != "slack" else b for b in sc.grid.buses]
        sc.grid = GridModel(buses, sc.grid.branches, sc.grid.base_power_kva)
        world = build_world(sc)
        res = brute_force_opf(world, grid_points={"p_dg": 3})
        assert not res.feasible
        assert res.actions is None
        assert res.n_feasible == 0

    def test_window_restriction(self):
        sc = load_scenario("scenarios/two_mg_binding.yaml")
        world = build_world(sc)
        with pytest.raises(ValueError, match="single-step"):
            brute_force_opf(world)

    @pytest.mark.parametrize("a_f", [0.004, 0.0], ids=["quadratic", "linear"])
    @pytest.mark.parametrize("chunk", [7, None], ids=["chunk-7", "default"])
    def test_matches_one_candidate_at_a_time(self, monkeypatch, a_f, chunk):
        from smaspl.microgrid import CONTROLS, window_bounds
        from smaspl.training import evaluate_window
        sc = load_scenario(TINY)
        object.__setattr__(sc.specs[0].dg, "a_f", a_f)
        world = build_world(sc)
        if chunk is not None:
            monkeypatch.setattr(cli, "_ORACLE_CHUNK", chunk)
        points = {**cli.DEFAULT_GRID_POINTS, "p_dg": 5}
        res = brute_force_opf(world, window_start=30, grid_points=points)
        # reference: every candidate on its own, in itertools.product
        # order; the first of the cheapest feasible ones wins
        lo, hi = window_bounds(world.specs[0], 1)
        axes = [np.linspace(lo[c], hi[c], points[name]) if hi[c] > lo[c]
                else np.array([lo[c]]) for c, name in enumerate(CONTROLS)]
        irr, load = world.profiles.window(30, 1)
        best, best_cost, n_feasible = None, np.inf, 0
        for combo in itertools.product(*axes):
            actions = np.array(combo).reshape(1, 6)
            ev = evaluate_window(world, actions[None], irr, load)
            if not ev.accepted[0] or world.violated(ev.returns[0]).size:
                continue
            n_feasible += 1
            if ev.cost(0) < best_cost:
                best, best_cost = actions, ev.cost(0)
        assert (res.n_evaluated, res.n_feasible) == (540, n_feasible)
        assert res.feasible and res.cost == best_cost
        assert res.actions.tobytes() == best.tobytes()

    def test_grid_point_cap(self):
        world = self.world()
        with pytest.raises(ValueError, match="1..9"):
            brute_force_opf(world, grid_points={"p_dg": 12})

    def test_evaluation_cap(self, monkeypatch):
        # the default grid has 972 candidates: a cap of 972 runs them,
        # one less refuses before any power flow is solved
        world = self.world()
        monkeypatch.setattr(cli, "_ORACLE_MAX_EVALUATIONS", 972)
        assert brute_force_opf(world).n_evaluated == 972
        monkeypatch.setattr(cli, "_ORACLE_MAX_EVALUATIONS", 971)
        monkeypatch.setattr(cli, "evaluate_window", None)
        with pytest.raises(ValueError, match="exceed the evaluation cap"):
            brute_force_opf(world)


class TestExitCodes:
    @pytest.mark.parametrize("exc", [
        ProjectionInfeasible("local rows admit no point"),
        SensitivityError("singular sensitivity system"),
        np.linalg.LinAlgError("singular\nmatrix"),
    ], ids=lambda e: type(e).__name__)
    def test_numerical_failure_exits_two(self, monkeypatch, capsys, exc):
        def fail(args):
            raise exc
        monkeypatch.setattr(cli, "_cmd_verify", fail)
        assert main(["verify-gradients"]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert err.count("\n") == 1

    def test_malformed_yaml_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("window: 4\nmgs: [1, 2\n")
        code = main(["train", "--scenario", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
