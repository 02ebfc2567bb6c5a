"""End-to-end CLI contract tests: artifacts, schemas, exit codes."""

import csv
import json

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

    def test_bad_removal_token_is_validation_failure(self, tmp_path):
        code = main(["train", "--scenario", TINY,
                     "--out", str(tmp_path / "x"), "--episodes", "1",
                     "--remove-constraints", "not-a-row"])
        assert code == EXIT_VALIDATION


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

    def test_missing_checkpoints(self, tmp_path):
        code = main(["dispatch", "--scenario", TINY,
                     "--checkpoints", str(tmp_path / "void"),
                     "--out", str(tmp_path / "a.csv")])
        assert code == EXIT_VALIDATION


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
        sc.grid = GridModel(tuple(buses), sc.grid.branches, sc.grid.y_re,
                            sc.grid.y_im, sc.grid.base_power_kva,
                            sc.grid.base_kv)
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

    def test_grid_point_cap(self):
        world = self.world()
        with pytest.raises(ValueError, match="1..9"):
            brute_force_opf(world, grid_points={"p_dg": 12})


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
