"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <id> ... PASS/FAIL` line.  Fixture
training runs use the shipped scenario files with their fixed seeds, so
every number here is reproducible byte-for-byte.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from smaspl.cli import brute_force_opf, dispatch_cost
from smaspl.grid import Bus, Branch, GridModel, power_mismatch, solve_power_flow
from smaspl.policy import fisher_information
from smaspl.scenario import load_scenario, nominal_loads_98
from smaspl.training import build_world, select_actions_online, train
from smaspl.verify import run_all_audits

SCENARIOS = Path("scenarios")


def report(cid: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {cid}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{cid}: {detail}"


def mann_kendall_p(series) -> float:
    """Two-sided Mann-Kendall trend test p-value."""
    x = np.asarray(series, dtype=float)
    n = x.size
    s = sum(np.sign(x[j] - x[i]) for i in range(n - 1)
            for j in range(i + 1, n))
    var = n * (n - 1) * (2 * n + 5) / 18.0
    if s > 0:
        z = (s - 1) / math.sqrt(var)
    elif s < 0:
        z = (s + 1) / math.sqrt(var)
    else:
        z = 0.0
    return float(2.0 * (1.0 - 0.5 * (1.0 + math.erf(abs(z) / math.sqrt(2)))))


class TestCriterion1DerivativeAudit:
    def test_all_families_within_tolerance(self):
        t0 = time.perf_counter()
        results = run_all_audits(seed=0, trials_network=50)
        elapsed = time.perf_counter() - t0
        failures = [f"{r.family}={r.max_rel_err:.2e}" for r in results
                    if not r.passed]
        detail = (f"{len(results)} families, worst "
                  f"{max(r.max_rel_err / r.tolerance for r in results):.3f}x "
                  f"of tolerance, {elapsed:.1f}s")
        report("1-derivative-audit",
               not failures and elapsed < 120.0, detail)


class TestCriterion2PowerFlow:
    def test_98_bus_and_oracle_case(self):
        t0 = time.perf_counter()
        case = load_scenario(SCENARIOS / "paper98.yaml")
        grid = case.grid
        p, q = nominal_loads_98(grid, case.specs)
        sol = solve_power_flow(grid, p, q)
        miss = power_mismatch(grid, sol)
        nonslack = [i for i in range(grid.n_bus) if i != grid.slack]
        resid = float(np.max(np.abs(miss[nonslack])))

        buses = [Bus(0, "slack"), Bus(1)]
        g2 = GridModel(
            buses, [Branch.from_impedance(0, 1, 0.01, 0.01, 10.0)])
        sol2 = solve_power_flow(g2, [0.0, 50.0], [0.0, 20.0])
        # independent scalar oracle: bisection on |V1|
        z, s_load = 0.01 + 0.01j, 0.5 + 0.2j
        f = lambda m: abs(m * m + z * np.conj(s_load)) - m
        a, b = 0.3, 1.2
        fa = f(a)
        for _ in range(200):
            mid = 0.5 * (a + b)
            if fa * f(mid) <= 0:
                b = mid
            else:
                a, fa = mid, f(mid)
        x = 0.5 * (a + b)
        v_oracle = x * x / (x * x + z * np.conj(s_load))
        gap = abs(complex(sol2.v_re[1], sol2.v_im[1]) - v_oracle)
        elapsed = time.perf_counter() - t0
        ok = (sol.converged and resid <= 1e-8 and sol2.converged
              and gap <= 1e-8 and elapsed < 10.0)
        report("2-power-flow-fidelity", ok,
               f"98-bus residual {resid:.2e}, oracle gap {gap:.2e}, "
               f"{elapsed:.1f}s")


class TestCriterion3FIM:
    def test_closed_form_vs_monte_carlo(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        mu, sigma = 0.4, 0.9
        x = rng.normal(mu, sigma, 100_000)
        score_mu = (x - mu) / sigma ** 2
        score_ls = ((x - mu) ** 2 / sigma ** 2) - 1.0
        mc = np.array([
            [np.mean(score_mu ** 2), np.mean(score_mu * score_ls)],
            [np.mean(score_mu * score_ls), np.mean(score_ls ** 2)],
        ])
        H = fisher_information(np.array([[1.0, 0.0]]),
                               np.array([[0.0, 2.0 * sigma ** 2]]),
                               np.array([sigma ** 2]))
        # documented factor-2 convention on the mean block
        err_mean = abs(H[0, 0] - 2.0 * mc[0, 0]) / (2.0 * mc[0, 0])
        err_cov = abs(H[1, 1] - mc[1, 1]) / mc[1, 1]
        sym = float(np.max(np.abs(H - H.T)))
        eig = float(np.linalg.eigvalsh(H).min())
        elapsed = time.perf_counter() - t0
        ok = (err_mean <= 0.05 and err_cov <= 0.05 and sym <= 1e-10
              and eig >= -1e-8 and elapsed < 60.0)
        report("3-fim-correctness", ok,
               f"mean-block err {err_mean:.3f}, cov err {err_cov:.3f}, "
               f"min eig {eig:.1e}, {elapsed:.1f}s")


class TestCriterion4ConstraintSafety:
    def test_binding_cap_separation(self):
        t0 = time.perf_counter()
        sc = load_scenario(SCENARIOS / "two_mg_binding.yaml")
        world = build_world(sc)
        row = next(r for r in world.table if r.id == "mg0.dg_p_hi")
        d = world.bounds(row)

        recs_s, _, _ = train(world, episodes=50)
        recs_u, _, _ = train(world, episodes=50, mode="u-pl",
                             removed_tokens=["dg-p:mg0"])
        j_safe = recs_s[-1].j_dispatch["mg0.dg_p_hi"]
        j_free = recs_u[-1].j_dispatch["mg0.dg_p_hi"]
        rew_s = float(np.mean(recs_s[-1].rewards))
        rew_u = float(np.mean(recs_u[-1].rewards))
        # run_train trend contract: moving-average reward has a monotone
        # trend (Mann-Kendall) on this fixture
        ma = np.convolve([np.mean(r.rewards) for r in recs_s],
                         np.ones(5) / 5, mode="valid")
        p_trend = mann_kendall_p(ma)
        elapsed = time.perf_counter() - t0
        ok = (j_safe <= d + 1e-3 and j_free >= 1.05 * d
              and rew_u >= rew_s and p_trend < 0.05 and elapsed < 300.0)
        report("4-constraint-safety", ok,
               f"safe {j_safe:.2f} <= d {d:.2f}, baseline {j_free:.2f} >= "
               f"{1.05 * d:.2f}, rewards {rew_u:.2f} >= {rew_s:.2f}, "
               f"trend p {p_trend:.4f}, {elapsed:.0f}s")


class TestCriterion5LambdaDynamics:
    def test_feasible_prices_vanish(self):
        t0 = time.perf_counter()
        sc = load_scenario(SCENARIOS / "five_mg_feasible.yaml")
        world = build_world(sc)
        recs, _, _ = train(world, episodes=3)
        worst = max(float(np.max(np.abs(np.asarray(r.lambda_final))))
                    for r in recs)
        kmax_ok = all(r.inner_iterations <= 200 for r in recs)
        elapsed = time.perf_counter() - t0
        ok = worst < 1e-4 and kmax_ok and elapsed < 300.0
        report("5a-lambda-feasible", ok,
               f"max price {worst:.1e}, {elapsed:.0f}s")

    def test_binding_line_consensus(self):
        t0 = time.perf_counter()
        sc = load_scenario(SCENARIOS / "five_mg_lineflow.yaml")
        world = build_world(sc)
        recs, _, _ = train(world, episodes=8)
        traj = np.asarray(recs[-1].lambda_traj["i_hi[0]"])
        final = traj[-1]
        spread = float(final.max() - final.min())
        rel = spread / float(final.mean())
        elapsed = time.perf_counter() - t0
        ok = rel <= 0.01 and float(final.min()) >= 1e-3 and elapsed < 300.0
        report("5b-lambda-consensus", ok,
               f"5 agents at {final.mean():.4f} +- {spread:.2e} "
               f"(rel {rel:.2%}), {elapsed:.0f}s")


class TestCriterion6Backtracking:
    def test_tightening_restores_marginal_violation(self):
        t0 = time.perf_counter()
        sc = load_scenario(SCENARIOS / "two_mg_backtrack.yaml")
        world = build_world(sc)
        recs, _, _ = train(world, episodes=1)
        restored = recs[0].pfe_verdict == "restored"
        rounds = recs[0].backtrack_rounds

        sc2 = load_scenario(SCENARIOS / "two_mg_backtrack.yaml")
        sc2.training["tau"] = 1.0
        world2 = build_world(sc2)
        recs2, _, _ = train(world2, episodes=1)
        still_violated = recs2[0].pfe_verdict.startswith("violated")
        elapsed = time.perf_counter() - t0
        ok = restored and rounds <= 2 and still_violated and elapsed < 120.0
        report("6-backtracking", ok,
               f"tau=0.9 -> {recs2[0].pfe_verdict!r} vs "
               f"{recs[0].pfe_verdict!r} in {rounds} round(s), {elapsed:.0f}s")


class TestCriterion7NearOracle:
    def test_trained_dispatch_within_ten_percent(self):
        t0 = time.perf_counter()
        sc = load_scenario(SCENARIOS / "tiny_oracle.yaml")
        world = build_world(sc)
        oracle = brute_force_opf(world)
        assert oracle.feasible
        recs, agents, _ = train(world, episodes=60)
        actions, verdict, _ = select_actions_online(world, agents, 0)
        cost = dispatch_cost(world, actions, 0)
        gap = abs(cost - oracle.cost) / abs(oracle.cost)
        elapsed = time.perf_counter() - t0
        ok = gap <= 0.10 and not verdict.startswith("violated") \
            and elapsed < 600.0
        report("7-near-oracle", ok,
               f"dispatch {cost:.4f} vs oracle {oracle.cost:.4f} "
               f"(gap {gap:.1%}, verdict {verdict}), {elapsed:.0f}s")


class TestCriterion8BadNetworkData:
    def test_noisy_training_stays_close(self):
        t0 = time.perf_counter()

        def run(noise):
            sc = load_scenario(SCENARIOS / "two_mg_feasible.yaml")
            sc.network_noise_variance = noise
            world = build_world(sc)
            return train(world, episodes=40)[0]

        clean = run(0.0)
        noisy = run(0.1)
        r_clean = float(np.mean([np.mean(r.rewards) for r in clean[-5:]]))
        r_noisy = float(np.mean([np.mean(r.rewards) for r in noisy[-5:]]))
        rel = abs(r_noisy - r_clean) / abs(r_clean)
        converged = noisy[-1].inner_converged
        elapsed = time.perf_counter() - t0
        ok = rel <= 0.15 and converged and elapsed < 600.0
        report("8-bad-network-data", ok,
               f"clean {r_clean:.4f} vs noisy {r_noisy:.4f} "
               f"(rel {rel:.2%}), converged={converged}, {elapsed:.0f}s")


class TestCriterion9Determinism:
    def test_bit_identical_rerun_logs(self, tmp_path):
        t0 = time.perf_counter()
        scen = str(SCENARIOS / "tiny_oracle.yaml")

        def run(out):
            cmd = [sys.executable, "-m", "smaspl.cli", "train",
                   "--scenario", scen, "--out", str(out),
                   "--episodes", "3"]
            subprocess.run(cmd, check=True, capture_output=True)
            return (Path(out) / "episodes.jsonl").read_bytes()

        a = run(tmp_path / "a")
        b = run(tmp_path / "b")
        elapsed = time.perf_counter() - t0
        ok = a == b and elapsed < 300.0
        report("9-determinism", ok,
               f"rerun identical: {a == b}; {elapsed:.0f}s")
