"""Consensus primal-dual stage tests and small training-loop contracts."""

import copy
import warnings
from dataclasses import replace

import numpy as np
import pytest

from smaspl import training
from smaspl.scenario import load_scenario
from smaspl.training import (
    ProjectionInfeasible,
    backtrack_bounds,
    build_agents,
    build_world,
    dual_step,
    primal_step,
    project_local,
    resolve_removed_rows,
    select_actions_online,
    train,
    train_episode,
    trust_quadratic,
)


def small_world(name="two_mg_binding.yaml", **training):
    sc = load_scenario(f"scenarios/{name}")
    sc.training.update(training)
    return build_world(sc)


def quantity_columns(layout, cols):
    """_evaluate_draws' gradient columns as action-space columns
    (A, N, 6T, Q+1) of the reward and the constrained quantities: each
    network quantity's sensitivity on its control's column, signed and
    discounted (layout.per_action)."""
    local, network = cols
    out = np.empty(local.shape[:-1] + (1 + layout.quantities[0].n_rows,))
    out[..., layout.local_at] = local
    out[..., layout.network_at] = layout.per_action(
        network[..., layout.column, :])
    return out


def row_columns(world, cols):
    """_evaluate_draws' gradient columns as the reward's and the table
    rows' action-space columns (A, N, 6T, M+1)."""
    cols = quantity_columns(world.column_layout, cols)
    _, of_row, orientation = world.quantities
    return np.concatenate([cols[..., :1], cols[..., 1 + of_row] * orientation],
                          axis=-1)


class TestPriceBoundary:
    """Only prices cross the boundary between MGs: one iteration of an
    agent's update reads its own batch columns and Fisher rows, the
    batch-mean returns, the bounds and the mean of the prices."""

    def test_update_reads_no_other_agents_columns(self):
        sc = load_scenario("scenarios/five_mg_lineflow.yaml")
        sc.seed = 2
        sc.training["kmax"] = 1
        world = build_world(sc)
        agents = build_agents(world)
        dec = training._Decision.of(world, agents, frozenset(),
                                    world.window_start(0), world.seed, 0,
                                    None)
        evals = [ag.evaluate(dec.states[a]) for a, ag in enumerate(agents)]
        batch = training._evaluate_batch(world, evals, [0], dec.irr_truth,
                                         dec.load_truth, dec.prev_dg)
        thetas0 = [ag.get_theta() for ag in agents]
        factors = [ev.fisher_factor() for ev in evals]
        rng = np.random.default_rng(0)
        lambdas0 = rng.uniform(0.5, 2.0, (world.n_agents,
                                          len(dec.layout.global_idx)))

        def update():
            thetas, lambdas, iters, _, _ = training._inner_loop(
                world, thetas0, lambdas0, batch, factors, world.row_bounds,
                dec.layout)
            assert iters == 1
            return thetas, lambdas

        thetas, lambdas = update()
        batch.dj[1] *= 3.0
        batch.udj[1] *= 3.0
        factors[1] = 2.0 * factors[1]
        moved_thetas, moved_lambdas = update()
        assert np.array_equal(moved_thetas[0], thetas[0])
        assert np.array_equal(moved_lambdas[0], lambdas[0])
        assert not np.array_equal(moved_thetas[1], thetas[1])
        assert not np.array_equal(moved_lambdas[1], lambdas[1])


class TestPrimalStep:
    def test_frozen_when_inactive(self):
        theta = np.array([1.0, -2.0])
        out = primal_step(theta, np.zeros(2), np.zeros((2, 3)), np.zeros(3),
                          0.01)
        assert np.array_equal(out, theta)

    def test_pure_ascent_length(self):
        theta = np.zeros(3)
        g = np.array([3.0, 0.0, 4.0])
        out = primal_step(theta, g, np.zeros((3, 1)), np.zeros(1), 0.01)
        assert np.linalg.norm(out - theta) == pytest.approx(0.01 * 5.0)
        assert np.allclose(out, 0.01 * g)

    def test_quadratic_toy_geometric_rate(self):
        # maximize -c/2 (theta - t*)^2: error contracts by (1 - rho1*c)
        c, t_star, rho1 = 4.0, 2.0, 0.05
        theta = np.array([0.0])
        errs = []
        for _ in range(20):
            g = -c * (theta - t_star)
            theta = primal_step(theta, g, np.zeros((1, 1)), np.zeros(1), rho1)
            errs.append(abs(theta[0] - t_star))
        ratios = [errs[i + 1] / errs[i] for i in range(10)]
        assert all(r == pytest.approx(1 - rho1 * c, rel=1e-9) for r in ratios)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            primal_step(np.zeros(2), np.array([np.nan, 0.0]),
                        np.zeros((2, 1)), np.zeros(1), 0.01)


def dense_project_local(theta_bar, theta0, rows, rows_c, H, delta, nu,
                        tol=1e-6, max_iter=500):
    """Projection with a dense (P, P) metric H: the reference that the
    factored metric of `project_local` must reproduce."""
    m = rows.shape[0]
    nu = nu.copy()
    norms = np.einsum("mp,mp->m", rows, rows)
    scale = max(1.0, float(np.abs(rows_c).max())) if m else 1.0
    theta = theta_bar - rows.T @ nu

    def ball_excess(th):
        d = th - theta0
        return 0.5 * float(d @ (H @ d)) - delta

    prev = None
    for _ in range(max_iter):
        moved = 0.0
        for j in range(m):
            if norms[j] < 1e-30:
                continue
            r = float(rows[j] @ theta - rows_c[j])
            step = max(-nu[j], r / norms[j])
            if step != 0.0:
                nu[j] += step
                theta = theta - step * rows[j]
                moved = max(moved, abs(step) * np.sqrt(norms[j]))
        q = ball_excess(theta)
        if q > 0:
            d = theta - theta0
            shrink = np.sqrt(delta / (q + delta))
            theta = theta0 + d * shrink
            moved = max(moved, float(np.linalg.norm(d) * (1 - shrink)))
        viol = float((rows @ theta - rows_c).max()) if m else 0.0
        if moved <= tol and viol <= tol * scale and ball_excess(theta) <= tol:
            break
        if prev is not None and float(np.linalg.norm(theta - prev)) <= tol:
            break
        prev = theta.copy()
    return theta, nu


class TestProjection:
    """The metric is passed by its rows F (H = F^T F); a diagonal H has
    the factor diag(sqrt(h)).  The constraint rows are (m, P)."""

    def test_identity_when_feasible(self):
        theta_bar = np.array([0.1, 0.2])
        theta0 = np.zeros(2)
        rows = np.array([[1.0, 0.0]])
        rows_c = np.array([10.0])
        out, _ = project_local(theta_bar, theta0, rows, rows_c, np.eye(2),
                               10.0, np.zeros(1))
        assert np.allclose(out, theta_bar, atol=1e-12)

    def test_single_halfspace_closed_form(self):
        rng = np.random.default_rng(1)
        theta_bar = rng.normal(size=4)
        b = rng.normal(size=4)
        c = b @ theta_bar - 1.3  # violated by 1.3
        out, _ = project_local(theta_bar, np.zeros(4), b[None, :],
                               np.array([c]), np.eye(4), 1e9, np.zeros(1))
        expect = theta_bar - (b @ theta_bar - c) / (b @ b) * b
        assert np.allclose(out, expect, atol=1e-9)

    def test_ball_only_closed_form(self):
        theta0 = np.zeros(3)
        theta_bar = np.array([3.0, 0.0, 4.0])
        delta = 0.5
        out, _ = project_local(theta_bar, theta0, np.zeros((0, 3)),
                               np.zeros(0), np.eye(3), delta, np.zeros(0))
        expect = theta_bar * min(1.0, np.sqrt(2 * delta) / 5.0)
        assert np.allclose(out, expect, rtol=1e-6)

    def test_trust_region_respected(self):
        rng = np.random.default_rng(5)
        H = np.diag(rng.uniform(0.5, 4.0, 6))
        theta0 = rng.normal(size=6)
        theta_bar = theta0 + rng.normal(size=6)
        rows = rng.normal(size=(6, 3)).T
        out, _ = project_local(theta_bar, theta0, rows, rng.normal(size=3),
                               np.sqrt(H), 0.01, np.zeros(3))
        q = 0.5 * (out - theta0) @ H @ (out - theta0)
        assert q <= 0.01 + 1e-8

    def test_inconsistent_zero_row_raises(self):
        with pytest.raises(ProjectionInfeasible):
            project_local(np.zeros(2), np.zeros(2), np.zeros((1, 2)),
                          np.array([-1.0]), np.eye(2), 1.0, np.zeros(1))

    def test_matches_dense_metric_oracle(self):
        rng = np.random.default_rng(11)
        p, m, k, delta = 60, 8, 12, 0.05
        factor = rng.normal(size=(k, p))
        H = factor.T @ factor + 1e-8 * np.eye(p)
        theta0 = rng.normal(size=p)
        theta_bar = theta0 + rng.normal(size=p)
        rows = np.ascontiguousarray(rng.normal(size=(p, m)).T)
        rows_c = rows @ theta_bar - rng.uniform(0.5, 2.0, m)
        for warm in (np.zeros(m), rng.uniform(0.0, 0.05, m)):
            out, nu = project_local(theta_bar, theta0, rows, rows_c, factor,
                                    delta, warm)
            ref, ref_nu = dense_project_local(theta_bar, theta0, rows,
                                              rows_c, H, delta, warm)
            # both the ball and some rows bind at the oracle's answer
            d = ref - theta0
            assert 0.5 * d @ H @ d == pytest.approx(delta, rel=1e-9)
            assert np.any(ref_nu > 0)
            assert np.allclose(out, ref, rtol=0, atol=1e-10)
            assert np.allclose(nu, ref_nu, rtol=0, atol=1e-10)

    def test_sweep_cap_warns(self, monkeypatch):
        # two violated rows at 45 degrees: cyclic projection needs many
        # sweeps, so one sweep ends with neither stopping rule met
        monkeypatch.setattr(training, "_PROJECT_SWEEPS", 1)
        rows = np.array([[1.0, 0.0], [1.0, 1.0]])
        rows_c = np.array([-1.0, -1.0])
        with pytest.warns(RuntimeWarning, match="1 sweeps"):
            project_local(np.zeros(2), np.zeros(2), rows, rows_c,
                          np.eye(2), 1e9, np.zeros(2))

    def test_closed_form_cases_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.test_identity_when_feasible()
            self.test_single_halfspace_closed_form()
            self.test_ball_only_closed_form()


def dense_of_factor(theta_bar, theta0, rows, rows_c, factor, delta, nu,
                    max_iter=500):
    """dense_project_local on the metric F^T F + 1e-8 I of a factor F."""
    H = factor.T @ factor + 1e-8 * np.eye(factor.shape[1])
    return dense_project_local(theta_bar, theta0, rows, rows_c, H, delta, nu,
                               max_iter=max_iter)


def lineflow_episode(project):
    """One five_mg_lineflow episode at scenario seed 2 (its binding line
    makes the episode backtrack three times), with `project` as the
    inner loop's projection."""
    sc = load_scenario("scenarios/five_mg_lineflow.yaml")
    sc.seed = 2
    world = build_world(sc)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mp.setattr(training, "project_local", project)
        records, _, _ = train(world, build_agents(world), episodes=1)
    return records[0]


@pytest.fixture(scope="module")
def lineflow_calls():
    """The episode's record and every projection call it made:
    (inputs, outputs, whether the call hit the sweep cap)."""
    calls = []

    def recording(*args):
        inputs = tuple(np.array(x) if isinstance(x, np.ndarray) else x
                       for x in args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = project_local(*args)
        calls.append((inputs, out, bool(caught)))
        return out

    return lineflow_episode(recording), calls


class TestProjectionOnTrainingInputs:
    """The sweep on Gram-updated residuals against the fresh-dot sweep
    of dense_project_local, on the inputs training produces."""

    def test_lineflow_calls_match_dense_oracle(self, lineflow_calls):
        _, calls = lineflow_calls
        both_bind = 0
        for inputs, (out, nu), capped in calls:
            _, theta0, _, _, factor, delta, warm = inputs
            ref, ref_nu = dense_of_factor(*inputs)
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-10)
            np.testing.assert_allclose(nu, ref_nu, rtol=0, atol=1e-10)
            excess = trust_quadratic(factor, out - theta0) - delta
            both_bind += bool(warm.any() and abs(excess) <= 1e-9 * delta
                              and np.any(nu > 0))
        # warm-started calls where the ball and a row bind are the rule
        assert both_bind > len(calls) // 2
        capped = [inputs for inputs, _, cap in calls if cap]
        assert capped
        for inputs in capped:
            # the oracle also runs all 500 sweeps: its 500th still moves
            at_cap, _ = dense_of_factor(*inputs)
            before, _ = dense_of_factor(*inputs, max_iter=499)
            assert not np.array_equal(at_cap, before)

    def test_random_instances_with_unreachable_rows(self):
        rng = np.random.default_rng(26)
        unreachable = 0
        for _ in range(60):
            k, m = int(rng.integers(2, 16)), int(rng.integers(1, 10))
            s = rng.uniform(0.2, 3.0, k)
            factor, delta = np.diag(s), float(rng.uniform(0.01, 1.0))
            theta0 = rng.normal(size=k)
            theta_bar = theta0 + rng.normal(size=k)
            rows = rng.normal(size=(m, k))
            if rng.random() < 0.3:
                rows[0] = 0.0   # a zero row that holds takes no part
            # the largest decrease of each row inside the ball; below -1
            # times it a row cannot be met there
            reach = np.sqrt(2 * delta * np.sum(rows ** 2 / (s ** 2 + 1e-8),
                                               axis=1))
            rows_c = rows @ theta0 + reach * rng.uniform(-2.0, 1.5, m)
            rows_c[reach == 0.0] = 1.0
            unreachable += int(np.sum(rows_c < rows @ theta0 - reach))
            warm = (np.zeros(m) if rng.random() < 0.5
                    else rng.uniform(0.0, 0.1, m))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                out, nu = project_local(theta_bar, theta0, rows, rows_c,
                                        factor, delta, warm)
            ref, ref_nu = dense_of_factor(theta_bar, theta0, rows, rows_c,
                                          factor, delta, warm)
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-10)
            np.testing.assert_allclose(nu, ref_nu, rtol=0, atol=1e-10)
        assert unreachable >= 20

    def test_episode_matches_the_fresh_dot_sweep(self, lineflow_calls):
        rec, _ = lineflow_calls
        ref = lineflow_episode(dense_of_factor)
        assert rec.inner_iterations == ref.inner_iterations
        assert rec.backtrack_rounds == ref.backtrack_rounds == 3
        assert rec.pfe_verdict == ref.pfe_verdict
        np.testing.assert_allclose(rec.rewards, ref.rewards, rtol=1e-12,
                                   atol=0)
        assert rec.j_values.keys() == ref.j_values.keys()
        np.testing.assert_allclose(list(rec.j_values.values()),
                                   list(ref.j_values.values()), rtol=1e-12,
                                   atol=0)


class TestTrustQuadratic:
    def test_factored_form_equals_dense_fisher(self):
        from smaspl.microgrid import make_state_vector
        world = small_world()
        ag = build_agents(world)[0]
        assert ag.n_params == 1148
        irr, load = world.profiles.window(0, world.horizon)
        s = make_state_vector(irr[:, 0], load[:, 0])
        factor = ag.evaluate(s).fisher_factor()
        H = ag.fisher(s) + 1e-8 * np.eye(ag.n_params)
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = rng.normal(scale=1e-2, size=ag.n_params)
            assert trust_quadratic(factor, d) == pytest.approx(
                0.5 * d @ H @ d, rel=1e-12, abs=0)


class TestDualStep:
    def test_satisfied_row_stays_zero(self):
        lam = dual_step(np.zeros(1), np.array([0.5]), np.zeros((2, 1)),
                        np.zeros(2), np.zeros(2), 0.01, np.array([1.0]))
        assert lam[0] == 0.0

    def test_violated_row_ascends_by_violation(self):
        lam = dual_step(np.array([0.2]), np.array([1.5]), np.zeros((2, 1)),
                        np.zeros(2), np.zeros(2), 0.01, np.array([1.0]))
        assert lam[0] == pytest.approx(0.2 + 0.01 * 0.5)

    def test_nonbinding_rows_decay_to_zero(self):
        # feasible toy: residual strictly negative, lambda drains away
        lam = np.array([0.3])
        for _ in range(100):
            lam = dual_step(lam, np.array([0.5]), np.zeros((2, 1)),
                            np.zeros(2), np.zeros(2), 0.05, np.array([1.0]))
        assert lam[0] == 0.0


class TestBacktrackBounds:
    def test_table_value(self):
        out = backtrack_bounds(np.array([1.0, 2.0]), [0], 0.9)
        assert np.allclose(out, [0.9, 2.0])

    def test_no_violation_no_change(self):
        d = np.array([1.0, 2.0])
        out = backtrack_bounds(d, [], 0.9)
        assert np.array_equal(out, d)

    def test_tau_range_enforced(self):
        with pytest.raises(ValueError):
            backtrack_bounds(np.array([1.0]), [0], 1.0)


class TestRemovedRows:
    def test_tokens(self):
        world = small_world()
        table = world.table
        assert resolve_removed_rows(table, ["all"]) == {r.id for r in table}
        glob = resolve_removed_rows(table, ["global"])
        assert all(r.scope == "global" for r in table if r.id in glob)
        one = resolve_removed_rows(table, ["dg-p:mg0"])
        assert one == {"mg0.dg_p_hi", "mg0.dg_p_lo"}
        kind = resolve_removed_rows(table, ["dg-p"])
        assert kind == {"mg0.dg_p_hi", "mg0.dg_p_lo",
                        "mg1.dg_p_hi", "mg1.dg_p_lo"}
        with pytest.raises(ValueError, match="matches no rows"):
            resolve_removed_rows(table, ["unobtanium"])


class TestTrainingLoop:
    def test_zero_step_sizes_freeze_everything(self):
        # feasible anchor (the complementarity product rows are violated
        # by any stochastic initialization, so they are excluded here):
        # zero step sizes leave parameters and prices untouched
        world = small_world("two_mg_feasible.yaml", rho1=0.0, rho2=0.0,
                            batch=8, backtrack_rounds=0)
        agents = build_agents(world)
        theta_before = [ag.get_theta().copy() for ag in agents]
        records, agents, _ = train(world, agents=agents, episodes=1,
                                   removed_tokens=["ess-complementarity"])
        assert records[0].inner_iterations == 1
        assert records[0].inner_converged
        for a, before in enumerate(theta_before):
            assert np.array_equal(before, agents[a].get_theta())
        assert not np.any(np.asarray(records[0].lambda_final))

    def test_episode_trains_from_the_agents_parameters(self):
        # the agents hold the only copy of the parameters: a change made
        # to one between two episodes is where the next episode starts
        world = small_world(batch=8, backtrack_rounds=0)
        _, agents, state = train(world, episodes=1)
        kept = copy.deepcopy((agents, state))
        rng = np.random.default_rng(5)
        moved = agents[0].get_theta() + 0.01 * rng.standard_normal(
            agents[0].n_params)
        agents[0].set_theta(moved)
        rec = train_episode(world, agents, state)
        assert rec.theta_change[0] == float(
            np.linalg.norm(agents[0].get_theta() - moved))
        train_episode(world, *kept)
        assert not np.array_equal(agents[0].get_theta(),
                                  kept[0][0].get_theta())

    def test_upl_all_removed_is_plain_ascent(self):
        world = small_world("tiny_oracle.yaml", batch=32, backtrack_rounds=0)
        records, _, _ = train(world, episodes=8, mode="u-pl")
        # unconstrained profit seeking: reward trend strictly improves
        first = np.mean(records[0].rewards)
        last = np.mean(records[-1].rewards)
        assert last >= first
        assert all(not np.any(np.asarray(r.lambda_final)) for r in records)

    def test_lambda_nonnegative_always(self):
        world = small_world("five_mg_lineflow.yaml", batch=16, kmax=60)
        records, _, _ = train(world, episodes=2)
        for r in records:
            assert np.min(np.asarray(r.lambda_final)) >= 0.0
            for traj in r.lambda_traj.values():
                assert np.min(np.asarray(traj)) >= 0.0

    def test_monotone_pressure_on_violated_row(self):
        # one binding shared row: its price never decreases while the
        # linearized residual stays positive (it stays binding here)
        world = small_world("five_mg_lineflow.yaml", batch=16, kmax=60)
        records, _, _ = train(world, episodes=1)
        traj = np.asarray(records[0].lambda_traj["i_hi[0]"])
        diffs = np.diff(traj, axis=0)
        assert np.min(diffs) >= -1e-12

    def test_dense_solver_trains_the_same_episodes(self):
        # without its tree schedule a radial grid goes through the dense
        # LU solve: the same episodes up to rounding
        def run(dense):
            world = small_world(batch=16)
            if dense:
                for g in (world.grid, world.sens_grid):
                    object.__setattr__(g, "tree", None)
            records, _, _ = train(world, episodes=3)
            return records

        def close(got, want):
            got, want = np.asarray(got), np.asarray(want)
            big = np.abs(want) > 1e-9
            np.testing.assert_allclose(got[big], want[big], rtol=1e-9)

        for got, want in zip(run(True), run(False)):
            for name in ("inner_iterations", "backtrack_rounds",
                         "pfe_verdict", "discards"):
                assert getattr(got, name) == getattr(want, name)
            for name in ("rewards", "rewards_dispatch", "theta_change"):
                close(getattr(got, name), getattr(want, name))
            for name in ("j_values", "j_dispatch"):
                assert getattr(got, name).keys() == getattr(want, name).keys()
                close(list(getattr(got, name).values()),
                      list(getattr(want, name).values()))


class TestEpisodeInvariants:
    def test_trust_region_respected_at_episode_end(self):
        from smaspl.microgrid import make_state_vector
        world = small_world(batch=16, kmax=60, backtrack_rounds=0)
        agents = build_agents(world)
        theta0 = [ag.get_theta().copy() for ag in agents]
        irr, load = world.profiles.window(0, world.horizon)
        states = [make_state_vector(irr[:, a], load[:, a]) for a in range(2)]
        fims = []
        for a, ag in enumerate(agents):
            ag.set_theta(theta0[a])
            fims.append(ag.fisher(states[a]) + 1e-8 * np.eye(ag.n_params))
        _, agents, _ = train(world, agents=agents, episodes=1)
        for a in range(2):
            d = agents[a].get_theta() - theta0[a]
            q = 0.5 * d @ fims[a] @ d
            assert q <= world.cfg.delta + 1e-8

    def test_batch_mean_stability(self, monkeypatch):
        # two batches' reduced reward gradients differ by at most a
        # generous multiple of their combined standard error, taken from
        # the per-draw gradients of the draws each batch accepted
        from smaspl.gradients import chain_sample_to_parameters
        from smaspl.microgrid import make_state_vector
        from smaspl.training import _evaluate_batch, _gram_eigen
        world = small_world(batch=32)
        agents = build_agents(world)
        irr, load = world.profiles.window(0, 4)
        states = [make_state_vector(irr[:, a], load[:, a]) for a in range(2)]
        evals = [ag.evaluate(states[a]) for a, ag in enumerate(agents)]
        evaluate, seen = training._evaluate_draws, []

        def recording(*args):
            ev, cols = evaluate(*args)
            seen.append((ev.actions, quantity_columns(world.column_layout,
                                                      cols)))
            return ev, cols

        def batch(tag):
            seen.clear()
            monkeypatch.setattr(training, "_evaluate_draws", recording)
            got = _evaluate_batch(world, evals, [tag], irr, load, np.zeros(2))
            monkeypatch.undo()
            return got, (np.concatenate([a for a, _ in seen]),
                         np.concatenate([c for _, c in seen]))

        b32, draws32 = batch(0)
        world.cfg.batch = 64
        b64, draws64 = batch(1)
        assert len(draws32[0]) == 32 and len(draws64[0]) == 64

        def variance_of_mean(a, basis, draws):
            # agent a's per-draw reward gradients in the span coordinates
            # V^T g
            g = np.stack([basis.T @ chain_sample_to_parameters(
                evals[a], acts, col)[:, 0] for acts, col in zip(
                    draws[0][:, a], draws[1][:, a])])
            return np.mean((g - g.mean(axis=0)) ** 2, axis=0) / len(g)

        for a, ev in enumerate(evals):
            # in the span coordinates the inner loop runs in
            u, s = _gram_eigen(ev.fisher_factor())
            basis = ev.fisher_factor().T @ (u / s)
            se = np.sqrt(variance_of_mean(a, basis, draws32)
                         + variance_of_mean(a, basis, draws64))
            c64, c32 = b64.chain()[a], b32.chain()[a]
            diff = np.abs(s * (u.T @ (c64[:, 0] - c32[:, 0])))
            # entrywise within a generous multiple of the combined error
            assert np.all(diff <= 6.0 * se + 1e-12)

    def test_reward_noise_matches_the_parameter_space_chain(self):
        # the reduced reward gradient has the norm of the parameter-space
        # one: V^T is an isometry on the span it lies in; and the batch's
        # noise is of the order of its mean
        from smaspl.microgrid import make_state_vector
        from smaspl.gradients import chain_sample_to_parameters
        from smaspl.training import _BatchEval, _evaluate_draws, _gram_eigen
        world = small_world()
        agents = build_agents(world)
        irr, load = world.profiles.window(0, world.horizon)
        states = [make_state_vector(irr[:, a], load[:, a]) for a in range(2)]
        evals = [ag.evaluate(states[a]) for a, ag in enumerate(agents)]
        rng = np.random.default_rng(4)
        draws = np.stack([
            np.stack([ev.mu + np.sqrt(ev.sigma2)
                      * rng.standard_normal(ev.mu.size) for ev in evals])
            for _ in range(24)])
        res, cols = _evaluate_draws(world, draws, irr, load, np.zeros(2))
        assert res.accepted.all()
        batch = _BatchEval(evals, world.column_layout, len(draws))
        batch.add(res, cols)
        c = batch.chain()
        cols = quantity_columns(world.column_layout, cols)
        for a, ev in enumerate(evals):
            per_sample = np.stack([
                chain_sample_to_parameters(ev, acts, col)[:, 0]
                for acts, col in zip(res.actions[:, a], cols[:, a])])
            g = per_sample.mean(axis=0)
            var = np.mean((per_sample - g) ** 2, axis=0)
            se = np.sqrt(var / len(per_sample))
            u, s = _gram_eigen(ev.fisher_factor())
            g_red = s * (u.T @ c[a][:, 0])
            assert np.linalg.norm(g_red) == pytest.approx(
                np.linalg.norm(g), rel=1e-12)
            assert 0.05 < np.linalg.norm(se) / np.linalg.norm(g) < 5.0

    def test_batch_memory_does_not_grow_with_the_batch(self):
        # the batch streams each stack of draws into sums: a batch four
        # times larger adds only its (batch, M) returns and (batch, N)
        # rewards (about 0.09 MB here) to a peak of about 1.1 MB, while a
        # buffer of every draw's gradient columns would grow it 2.7 times
        import tracemalloc
        from smaspl.microgrid import make_state_vector
        from smaspl.training import _evaluate_batch

        def peak(batch):
            world = small_world(batch=batch)
            agents = build_agents(world)
            irr, load = world.profiles.window(0, world.horizon)
            states = [make_state_vector(irr[:, a], load[:, a])
                      for a in range(2)]
            evals = [ag.evaluate(states[a]) for a, ag in enumerate(agents)]
            tracemalloc.start()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                _evaluate_batch(world, evals, [0], irr, load, np.zeros(2))
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        small, large = peak(32), peak(128)
        assert large <= 1.25 * small, (small, large)

    def test_one_factorization_per_sample_step(self):
        from smaspl.gradients import factorization_count
        from smaspl.microgrid import make_state_vector
        from smaspl.training import _evaluate_batch
        world = small_world(batch=4)
        agents = build_agents(world)
        irr, load = world.profiles.window(0, 4)
        states = [make_state_vector(irr[:, a], load[:, a]) for a in range(2)]
        evals = [ag.evaluate(states[a]) for a, ag in enumerate(agents)]
        before = factorization_count()
        _evaluate_batch(world, evals, [0], irr, load, np.zeros(2))
        # batch x window steps
        assert factorization_count() - before == 4 * 4


class TestBatchChain:
    def test_batch_chain_matches_per_sample_loop(self):
        from smaspl.gradients import chain_sample_to_parameters
        from smaspl.microgrid import make_state_vector
        from smaspl.policy import cov_chain_factor
        from smaspl.training import _BatchEval, _evaluate_draws
        world = small_world(batch=6)
        agents = build_agents(world)
        irr, load = world.profiles.window(0, world.horizon)
        states = [make_state_vector(irr[:, a], load[:, a]) for a in range(2)]
        evals = [ag.evaluate(states[a]) for a, ag in enumerate(agents)]
        rng = np.random.default_rng(21)
        draws = np.stack([
            np.stack([ev.mu + np.sqrt(ev.sigma2)
                      * rng.standard_normal(ev.mu.size) for ev in evals])
            for _ in range(6)])
        res, res_cols = _evaluate_draws(world, draws, irr, load, np.zeros(2))
        assert res.accepted.all()
        batch = _BatchEval(evals, world.column_layout, len(draws))
        batch.add(res, res_cols)
        c = batch.chain()
        res_cols = row_columns(world, res_cols)
        s = len(draws)
        for a, ev in enumerate(evals):
            got = ev.fisher_factor().T @ c[a]
            # reference: chain every sample, then average (unit mean
            # factor).  Summing in action space and chaining through the
            # Fisher rows reorders the arithmetic, so entries agree to
            # 1e-12 relative to the magnitude sum |J|^T |columns| they
            # are computed from.
            acc = 0.0
            mag = 0.0
            for acts, cols in zip(res.actions[:, a], res_cols[:, a]):
                u = cov_chain_factor(acts, ev.mu, ev.sigma2)
                acc = acc + chain_sample_to_parameters(ev, acts, cols)
                mag = mag + np.vstack([
                    np.abs(ev.jac_mu.T) @ np.abs(cols),
                    np.abs(ev.jac_sigma2.T) @ np.abs(cols * u[:, None])])
            acc = acc / s
            mag = mag / s
            assert np.all(np.abs(got - acc) <= 1e-12 * mag)

    def test_abort_message_states_the_limit(self, monkeypatch):
        import smaspl.training as training
        from smaspl.microgrid import make_state_vector
        world = small_world(batch=2)
        agents = build_agents(world)
        irr, load = world.profiles.window(0, world.horizon)
        states = [make_state_vector(irr[:, a], load[:, a]) for a in range(2)]
        evals = [ag.evaluate(states[a]) for a, ag in enumerate(agents)]
        solve = training.solve_power_flow_stack

        def never_converges(grid, p, q, **kwargs):
            pf = solve(grid, p, q, **kwargs)
            pf.converged[:] = False
            return pf

        monkeypatch.setattr(training, "solve_power_flow_stack",
                            never_converges)
        with pytest.raises(training.EpisodeAborted,
                           match=r"5 power-flow failures exceed the limit "
                                 r"of max\(4, batch\) = 4"):
            training._evaluate_batch(world, evals, [0], irr, load,
                                     np.zeros(2))


class TestQuantityColumns:
    """The batch computes and folds one gradient column per constrained
    quantity, its (kind, target) at orientation +1, and chain() expands
    them to the table's rows: bit for bit the fold of the rows' own
    columns."""

    @staticmethod
    def batch_pair(world, count, seed):
        """A batch of count draws folded by quantity, and the same draws
        folded by row as the reference; with the quantities' and the
        rows' action-space columns."""
        from smaspl.gradients import (reward_gradient_stack,
                                      row_gradient_stack,
                                      step_sensitivity_stack)
        from smaspl.microgrid import make_state_vector
        agents = build_agents(world)
        irr, load = world.profiles.window(0, world.horizon)
        n = world.n_agents
        states = [make_state_vector(irr[:, a], load[:, a]) for a in range(n)]
        evals = [ag.evaluate(states[a]) for a, ag in enumerate(agents)]
        draws = TestStackedBatch.draw(np.random.default_rng(seed), evals,
                                      count)
        ev, cols = training._evaluate_draws(world, draws, irr, load,
                                            np.zeros(n))
        assert ev.accepted.all()
        batch = training._BatchEval(evals, world.column_layout, count)
        batch.add(ev, cols)
        gamma, m = world.cfg.gamma, len(world.table)
        # every row its own quantity, at its own orientation
        by_row = replace(world)
        vars(by_row)["quantities"] = (world.index, np.arange(m), np.ones(m))
        ref_ev, ref_cols = training._evaluate_draws(by_row, draws, irr, load,
                                                    np.zeros(n))
        ref = training._BatchEval(evals, by_row.column_layout, count)
        ref.add(ref_ev, ref_cols)
        # the rows' columns through the public stack functions
        sens = step_sensitivity_stack(world.sens_grid, ev.pf,
                                      world.specs).map(
            lambda x: x.reshape(count, world.horizon, *x.shape[1:]))
        rows = np.empty(ev.actions.shape + (m + 1,))
        rows[..., 0] = reward_gradient_stack(sens, ev.actions, world.specs,
                                             gamma)
        row_gradient_stack(world.index, sens, ev.actions, world.specs, gamma,
                           out=rows[..., 1:])
        assert np.array_equal(quantity_columns(by_row.column_layout,
                                               ref_cols), rows)
        return (batch, ref, quantity_columns(world.column_layout, cols),
                rows)

    @pytest.mark.parametrize("name, count", [("paper98.yaml", 4),
                                             ("two_mg_binding.yaml", 8)])
    def test_chain_equals_the_fold_of_the_rows(self, name, count):
        world = small_world(name)
        assert "quantities" not in vars(world)      # built on first use
        assert "column_layout" not in vars(world)
        batch, ref, cols, rows = self.batch_pair(world, count, 11)
        # every limit is a _hi/_lo pair: half as many quantities as rows
        assert cols.shape[-1] - 1 == len(world.table) // 2
        got, want = batch.chain(), ref.chain()
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        ids = {r.id: m for m, r in enumerate(world.table)}
        pairs = [(m, ids[i.replace("_hi", "_lo").replace("_up", "_dn")])
                 for i, m in ids.items() if "_hi" in i or "_up" in i]
        assert len(pairs) == len(world.table) // 2
        for hi, lo in pairs:
            assert np.array_equal(rows[..., 1 + lo], -rows[..., 1 + hi])
            assert np.array_equal(got[..., 1 + lo], -got[..., 1 + hi])
        assert np.abs(got[..., 1:]).max() > 0

    def test_layout_is_built_on_first_use_by_a_batch(self):
        # set-up builds neither the quantities nor their column layout,
        # and a dispatch decision that passes its gate runs no batch
        world = small_world("tiny_oracle.yaml", batch=16)
        assert "quantities" not in vars(world)
        assert "column_layout" not in vars(world)
        agents = build_agents(world)
        _, verdict, rounds = select_actions_online(world, agents, 0)
        assert (verdict, rounds) == ("clean", 0)
        assert "column_layout" not in vars(world)
        train(world, agents=agents, episodes=1)
        layout = vars(world)["column_layout"]
        assert layout.quantities is world.quantities

    def test_a_quantity_with_only_a_lower_row(self):
        world = small_world()
        keep = {"v_lo[3]", "i_lo[2]", "mg0.dg_p_lo", "mg1.pcc_p_lo",
                "mg0.soc_lo"}
        hand = replace(world, table=[r for r in world.table if r.id in keep])
        index, of_row, orientation = hand.quantities
        assert index.n_rows == len(keep) and (orientation == -1.0).all()
        batch, ref, cols, rows = self.batch_pair(hand, 6, 12)
        got, want = batch.chain(), ref.chain()
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        # the quantity column is the row's negation, and neither is zero
        assert np.array_equal(cols[..., 1 + of_row], -rows[..., 1:])
        assert (np.abs(rows[..., 1:]).max(axis=(0, 1, 2)) > 0).all()


def one_sample_reference(world, actions, irr, load, prev_dg):
    """Returns and gradient columns of one joint draw through the public
    one-sample functions; None when a step's power flow fails."""
    from smaspl.gradients import (compute_step_sensitivities,
                                  constraint_action_gradients,
                                  reward_action_gradients)
    from smaspl.grid import PowerFlowStack, solve_power_flow
    from smaspl.microgrid import (actions_to_injections, constraint_returns,
                                  network_observables, reward_return)
    gamma = world.cfg.gamma
    p, q = actions_to_injections(actions, load, irr, world.specs,
                                 world.grid.n_bus, world.host_loads)
    sols = [solve_power_flow(world.grid, p[t], q[t])
            for t in range(world.horizon)]
    if not all(s.converged for s in sols):
        return None
    obs = network_observables(world.grid, PowerFlowStack.of(sols),
                              world.specs)
    jc = constraint_returns(actions, obs, world.specs, world.table, gamma,
                            prev_dg=prev_dg)
    rewards = [reward_return(actions[n], obs.pcc_p[:, n], spec, gamma)
               for n, spec in enumerate(world.specs)]
    sens = [compute_step_sensitivities(world.sens_grid, s, world.specs)
            for s in sols]
    djr = reward_action_gradients(sens, actions, world.specs, gamma)
    djc = constraint_action_gradients(world.table, sens, actions,
                                      world.specs, gamma)
    cols = np.concatenate([djr[:, :, None], djc.transpose(1, 2, 0)], axis=2)
    return (np.array(rewards), np.array([jc[r.id] for r in world.table]),
            cols)


class TestStackedBatch:
    """One stacked evaluation of a batch against a loop of one-sample
    calls, on a batch that mixes converged draws with a failing one."""

    @staticmethod
    def setup_batch(noise=0.0):
        from smaspl.microgrid import make_state_vector
        sc = load_scenario("scenarios/two_mg_binding.yaml")
        sc.network_noise_variance = noise
        world = build_world(sc)
        agents = build_agents(world)
        irr, load = world.profiles.window(3, world.horizon)
        states = [make_state_vector(irr[:, a], load[:, a]) for a in range(2)]
        evals = [ag.evaluate(states[a]) for a, ag in enumerate(agents)]
        return world, agents, evals, irr, load

    @staticmethod
    def draw(rng, evals, count):
        draws = np.empty((count, len(evals), evals[0].mu.size))
        for a, ev in enumerate(evals):
            draws[:, a, :] = ev.mu[None, :] + np.sqrt(ev.sigma2)[None, :] * \
                rng.standard_normal((count, ev.mu.size))
        return draws

    def test_stack_matches_one_sample_loop(self):
        from smaspl.training import _evaluate_draws
        world, _, evals, irr, load = self.setup_batch(noise=0.01)
        assert world.sens_grid is not world.grid
        draws = self.draw(np.random.default_rng(5), evals, 6)
        T = world.horizon
        draws[2, 1, T:2 * T] = 1e6          # a charge no feeder can carry
        prev = np.array([3.0, 1.0])
        got, got_cols = _evaluate_draws(world, draws, irr, load, prev)
        got_cols = row_columns(world, got_cols)
        refs = [one_sample_reference(world, d, irr, load, prev)
                for d in draws]
        assert got.accepted.tolist() == [r is not None for r in refs]
        assert not got.accepted[2]
        kept = [r for r in refs if r is not None]
        np.testing.assert_array_equal(got.actions, draws[got.accepted])
        for s, (rewards, j_values, cols) in enumerate(kept):
            np.testing.assert_allclose(got.rewards[s], rewards, rtol=1e-10)
            np.testing.assert_allclose(got.returns[s], j_values, rtol=1e-10,
                                       atol=1e-12)
            np.testing.assert_allclose(got_cols[s], cols, rtol=1e-10,
                                       atol=1e-12 * np.abs(cols).max())

    def test_discards_keep_draw_order(self, monkeypatch):
        import smaspl.training as training
        world, agents, evals, irr, load = self.setup_batch()
        world.cfg.batch = 4
        T = world.horizon
        solve = training.solve_power_flow_stack
        calls = []

        def fail_second_draw(grid, p, q, **kwargs):
            pf = solve(grid, p, q, **kwargs)
            if not calls:
                pf.converged[T:2 * T] = False   # draw 1 of the first round
            calls.append(len(p))
            return pf

        monkeypatch.setattr(training, "solve_power_flow_stack",
                            fail_second_draw)
        prev = np.zeros(2)
        got = training._evaluate_batch(world, evals, [0], irr, load, prev)
        monkeypatch.undo()
        assert calls == [4 * T, 1 * T]
        assert got.discards == 1
        # the accepted draws are draws 0, 2, 3 of the first round, then
        # the one draw of the second
        rng = np.random.default_rng([world.seed, training._STREAM_SAMPLE, 0])
        first = self.draw(rng, evals, 4)
        second = self.draw(rng, evals, 1)
        kept = np.concatenate([first[[0, 2, 3]], second])
        ref, ref_cols = training._evaluate_draws(world, kept, irr, load, prev)
        ref_batch = training._BatchEval(evals, world.column_layout,
                                        len(kept))
        ref_batch.add(ref, ref_cols)
        c = ref_batch.chain()
        got_c = got.chain()
        np.testing.assert_allclose(got.j_values, ref.returns.mean(axis=0),
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got.rewards, ref.rewards.mean(axis=0),
                                   rtol=1e-10)
        for a in range(2):
            np.testing.assert_allclose(got_c[a], c[a], rtol=1e-10,
                                       atol=1e-12 * np.abs(c[a]).max())

    def test_stacks_of_draws_match_one_stack(self, monkeypatch):
        import smaspl.training as training
        world, agents, evals, irr, load = self.setup_batch()
        world.cfg.batch = 5
        T = world.horizon
        solve = training.solve_power_flow_stack

        def run(stack_draws):
            seen = []       # draws per power-flow stack

            def fail_draw_1(grid, p, q, **kwargs):
                pf = solve(grid, p, q, **kwargs)
                first = sum(seen)
                if first <= 1 < first + len(p) // T:
                    k = (1 - first) * T
                    pf.converged[k:k + T] = False
                seen.append(len(p) // T)
                return pf

            monkeypatch.setattr(training, "solve_power_flow_stack",
                                fail_draw_1)
            monkeypatch.setattr(training, "_STACK_DRAWS", stack_draws)
            got = training._evaluate_batch(world, evals, [0], irr, load,
                                           np.zeros(2))
            monkeypatch.undo()
            return got, seen

        whole, seen_whole = run(16)
        split, seen_split = run(2)
        assert seen_whole == [5, 1]
        assert seen_split == [2, 2, 1, 1]
        assert whole.discards == split.discards == 1
        np.testing.assert_array_equal(split.j_values, whole.j_values)
        np.testing.assert_array_equal(split.rewards, whole.rewards)
        np.testing.assert_array_equal(split.chain(), whole.chain())


class TestWindowStart:
    def test_every_start_is_used(self):
        world = small_world()
        span = world.profiles.n_steps - world.horizon
        assert world.window_start(span) == span
        assert world.window_start(span + 1) == 0
        world.horizon = world.profiles.n_steps
        assert world.window_start(0) == 0
        assert world.window_start(7) == 0


class TestOnlineSelection:
    def test_fixed_seed_deterministic(self):
        world = small_world("tiny_oracle.yaml", batch=16)
        agents = build_agents(world)
        a1, v1, _ = select_actions_online(world, agents, 0, seed=5)
        a2, v2, _ = select_actions_online(world, agents, 0, seed=5)
        assert np.array_equal(a1, a2) and v1 == v2

    def test_degenerate_spread_dispatches_mean(self):
        world = small_world("tiny_oracle.yaml", sigma_span_frac=0.0,
                            sigma_floor=1e-6, batch=16)
        agents = build_agents(world)
        actions, verdict, rounds = select_actions_online(world, agents, 0)
        mu = agents[0].forward_mean(
            np.concatenate([[0.5], [5.0]]))
        # complementarity post-processing may zero one ESS coordinate
        assert actions[0][0] == pytest.approx(mu[0], abs=1e-4)
        assert rounds == 0

    def test_complementarity_postprocessing(self):
        # three agents, four steps; rows 1 and 2 are charge and discharge
        horizon = 4
        blk = np.random.default_rng(3).uniform(-2.0, 2.0, (3, 6, horizon))
        blk[0, 1:3] = [[1.0, -0.5, 0.0, 2.0],     # ties at 1 and 0
                       [1.0, 0.5, 0.0, -1.0]]
        blk[1, 1:3] = [[-1.0, -2.0, 3.0, -0.5],   # a negative tie
                       [-1.0, 1.5, -3.0, -0.7]]
        actions = blk.reshape(3, 6 * horizon)
        out = training.postprocess_complementarity(actions, horizon)
        assert np.array_equal(actions, blk.reshape(3, -1))  # not written
        out = out.reshape(3, 6, horizon)
        ch, dis = blk[:, 1], blk[:, 2]
        assert np.all(out[:, 1] * out[:, 2] == 0.0)
        # the larger one is kept, clipped at zero; charge on a tie
        assert np.array_equal(np.maximum(out[:, 1], out[:, 2]),
                              np.maximum(np.maximum(ch, dis), 0.0))
        assert np.all(out[:, 1:3] >= 0.0)
        assert np.all(out[:, 1][ch < dis] == 0.0)
        assert np.all(out[:, 2][ch >= dis] == 0.0)
        assert np.array_equal(out[:, [0, 3, 4, 5]], blk[:, [0, 3, 4, 5]])


class TestFeasibilityGate:
    """The one gate behind train_episode and select_actions_online."""

    @staticmethod
    def two_rows_over():
        # mg0's PV reactive cap is halved while its action range stays
        # [-2, 2] kvar: the fresh dispatch then violates mg0.pv_q_hi and
        # mg0.pcc_p_hi, which the table lists in that (unsorted) order;
        # the gate checks once
        sc = load_scenario("scenarios/two_mg_backtrack.yaml")
        sc.training["backtrack_rounds"] = 0
        mg0 = sc.specs[0]
        sc.specs[0] = replace(mg0, pv=replace(mg0.pv, q_max_kvar=1.0),
                              action_ranges={"q_pv": (-2.0, 2.0)})
        return build_world(sc)

    def test_training_without_backtracking_reports_its_check(self):
        world = small_world("two_mg_backtrack.yaml", backtrack_rounds=0)
        records, _, _ = train(world, episodes=1)
        rec = records[0]
        assert rec.pfe_verdict == "violated:mg0.pcc_p_hi"
        assert rec.backtrack_rounds == 0
        returns = np.array([rec.j_dispatch[i] for i in world.index.ids])
        assert [world.index.ids[m] for m in world.violated(returns)] == \
            ["mg0.pcc_p_hi"]

    def test_violated_ids_are_sorted_for_both_callers(self):
        world = self.two_rows_over()
        ids = [world.table[m].id for m in range(len(world.table))]
        assert ids.index("mg0.pv_q_hi") < ids.index("mg0.pcc_p_hi")
        expected = "violated:mg0.pcc_p_hi,mg0.pv_q_hi"
        _, verdict, rounds = select_actions_online(
            world, build_agents(world), 0)
        assert (verdict, rounds) == (expected, 0)
        records, _, _ = train(world, episodes=1)
        assert (records[0].pfe_verdict, records[0].backtrack_rounds) == \
            (expected, 0)

    # verdict, rounds and dispatch_cost of a decision at window 0 from
    # fresh agents, recorded before training and dispatch shared the gate
    @pytest.mark.parametrize("name, tau, verdict, rounds, cost", [
        ("two_mg_backtrack.yaml", 0.9, "restored", 3, 13.759249073678737),
        ("two_mg_binding.yaml", 0.9, "violated:mg0.dg_p_hi", 3,
         13.752431009281569),
        ("two_mg_backtrack.yaml", 1.0, "violated:mg0.pcc_p_hi", 0,
         13.452062440125566),
    ])
    def test_online_tightening(self, name, tau, verdict, rounds, cost):
        from smaspl.cli import dispatch_cost
        world = small_world(name, tau=tau)
        actions, got, got_rounds = select_actions_online(
            world, build_agents(world), 0)
        assert (got, got_rounds) == (verdict, rounds)
        assert dispatch_cost(world, actions, 0) == \
            pytest.approx(cost, rel=1e-9, abs=0.0)

    def test_dispatch_leaves_the_policies_unchanged(self):
        # the gate backtracks three rounds from fresh agents (above)
        world = small_world("two_mg_backtrack.yaml", tau=0.9)
        agents = build_agents(world)
        thetas = [ag.get_theta() for ag in agents]
        first = select_actions_online(world, agents, 0)
        assert first[1:] == ("restored", 3)
        assert all(ag.get_theta().tobytes() == theta.tobytes()
                   for ag, theta in zip(agents, thetas))
        second = select_actions_online(world, agents, 0)
        assert second[0].tobytes() == first[0].tobytes()
        assert second[1:] == first[1:]

    def test_dispatch_that_raises_mid_round_restores_the_policies(
            self, monkeypatch):
        world = small_world("two_mg_backtrack.yaml", tau=0.9)
        agents = build_agents(world)
        thetas = [ag.get_theta() for ag in agents]
        update = training._anchored_update
        calls = []

        def second_round_fails(*args):
            calls.append(1)
            if len(calls) == 2:
                raise ProjectionInfeasible("round 2")
            return update(*args)

        monkeypatch.setattr(training, "_anchored_update", second_round_fails)
        with pytest.raises(ProjectionInfeasible):
            select_actions_online(world, agents, 0)
        assert all(ag.get_theta().tobytes() == theta.tobytes()
                   for ag, theta in zip(agents, thetas))


class TestWindowEvaluation:
    """evaluate_window against the one-step path it replaced."""

    @staticmethod
    def mean_dispatch(world, start=0):
        from smaspl.microgrid import make_state_vector
        from smaspl.training import _dispatch_actions_mean
        irr, load = world.profiles.window(start, world.horizon)
        states = [make_state_vector(irr[:, a], load[:, a])
                  for a in range(world.n_agents)]
        actions = _dispatch_actions_mean(build_agents(world), states,
                                         world.horizon)
        return actions, irr, load

    def test_stacked_window_matches_per_step_solves_on_98_buses(self):
        from smaspl.grid import PowerFlowStack, solve_power_flow
        from smaspl.microgrid import actions_to_injections, network_observables
        from smaspl.training import evaluate_window
        world = build_world(load_scenario("scenarios/paper98.yaml"))
        actions, irr, load = self.mean_dispatch(world)
        ev = evaluate_window(world, actions[None], irr, load)
        p, q = actions_to_injections(actions, load, irr, world.specs,
                                     world.grid.n_bus, world.host_loads)
        sols = [solve_power_flow(world.grid, p[t], q[t])
                for t in range(world.horizon)]
        assert all(s.converged for s in sols)
        ref = network_observables(world.grid, PowerFlowStack.of(sols),
                                  world.specs)
        assert ev.obs.v_mag.shape == (1, world.horizon, world.grid.n_bus)
        for name in ("v_mag", "pcc_p", "pcc_q"):
            np.testing.assert_allclose(getattr(ev.obs, name)[0],
                                       getattr(ref, name), rtol=1e-10)

    def test_returns_and_rewards_match_the_one_sample_views(self):
        from smaspl.microgrid import (Observables, constraint_returns,
                                      reward_return)
        from smaspl.training import evaluate_window
        world = small_world()
        actions, irr, load = self.mean_dispatch(world)
        prev = np.array([3.0, 7.0])
        ev = evaluate_window(world, actions[None], irr, load, prev)
        obs = Observables(ev.obs.v_mag[0], ev.obs.i_mag[0], ev.obs.pcc_p[0],
                          ev.obs.pcc_q[0])
        jc = constraint_returns(actions, obs, world.specs, world.table,
                                world.cfg.gamma, prev_dg=prev)
        assert list(jc) == [r.id for r in world.table]
        assert ev.returns[0].tolist() == list(jc.values())
        rewards = [reward_return(actions[a], obs.pcc_p[:, a], spec,
                                 world.cfg.gamma)
                   for a, spec in enumerate(world.specs)]
        assert ev.rewards[0].tolist() == rewards
        assert ev.cost(0) == -sum(rewards)

    def test_bound_vector_is_the_per_row_window_bound(self):
        for name in ("two_mg_binding.yaml", "paper98.yaml"):
            world = small_world(name, gamma=0.93)
            assert world.row_bounds.tolist() == \
                [world.bounds(r) for r in world.table]

    def test_violated_matches_the_per_row_comparison(self):
        world = small_world()
        table = world.table
        rng = np.random.default_rng(4)
        returns = world.row_bounds + rng.choice(
            [-1.0, 5e-10, 2e-9, 1.0], size=len(table))
        over = [m for m in range(len(table)) if returns[m] >
                world.row_bounds[m] + 1e-9]
        removed = {table[over[0]].id, table[over[-1]].id, "v_hi[0]"}
        jc = dict(zip(world.index.ids, returns.tolist()))
        expected = [r.id for r in table if r.id not in removed
                    and jc[r.id] > world.bounds(r) + 1e-9]
        got = [table[m].id for m in world.violated(returns, removed)]
        assert got == expected and len(expected) > 2
        assert world.violated(world.row_bounds).size == 0

    def test_diverged_window_refuses_dispatch(self):
        from smaspl.cli import dispatch_cost
        from smaspl.training import EpisodeAborted, evaluate_window
        world = small_world()
        actions, irr, load = self.mean_dispatch(world)
        actions[:, world.horizon:2 * world.horizon] = 1e7   # p_ch, kW
        ev = evaluate_window(world, actions[None], irr, load)
        assert ev.accepted.tolist() == [False]
        # the gate then has no returns to check
        assert ev.returns.shape == (0, len(world.table))
        assert ev.rewards.shape == (0, world.n_agents)
        with pytest.raises(EpisodeAborted, match="diverged"):
            dispatch_cost(world, actions, 0)


class TestWindowMemo:
    """evaluate_window keeps the last stack of one action on the world."""

    @staticmethod
    def count_solves(monkeypatch):
        calls = []
        solve = training.solve_power_flow_stack

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(training, "solve_power_flow_stack", counted)
        return calls

    def test_dispatch_cost_reuses_the_gates_final_check(self, monkeypatch):
        from smaspl.cli import dispatch_cost
        world = small_world("two_mg_backtrack.yaml", tau=0.9)
        actions, verdict, _ = select_actions_online(
            world, build_agents(world), 0)
        assert verdict == "restored"
        calls = self.count_solves(monkeypatch)
        cost = dispatch_cost(world, actions, 0)
        assert calls == []
        irr, load = world.profiles.window(0, world.horizon)
        fresh = training.evaluate_window(
            small_world("two_mg_backtrack.yaml", tau=0.9), actions[None],
            irr, load)
        assert len(calls) == 1
        assert cost == fresh.cost(0)
        assert world.window_memo[1].returns.tobytes() == \
            fresh.returns.tobytes()

    @pytest.mark.parametrize("part", ["action", "start", "prev_dg", "gamma"])
    def test_any_changed_part_of_the_key_solves_again(self, monkeypatch,
                                                      part):
        # the small fixtures' profiles are flat: every window is the same
        world = small_world("paper98.yaml")
        actions, irr, load = TestWindowEvaluation.mean_dispatch(world)
        prev = np.zeros(world.n_agents)
        first = training.evaluate_window(world, actions[None], irr, load)
        calls = self.count_solves(monkeypatch)
        # prev_dg None reads as zeros
        assert training.evaluate_window(world, actions[None], irr, load,
                                        prev) is first
        assert calls == []
        if part == "action":
            actions = actions.copy()
            actions[1, 0] += 1e-6
        elif part == "start":
            irr, load = world.profiles.window(12, world.horizon)
        elif part == "prev_dg":
            prev[1] = 1.0
        else:
            world.cfg.gamma = 0.9
        ev = training.evaluate_window(world, actions[None], irr, load, prev)
        assert len(calls) == 1 and ev is not first
        assert ev.accepted[0] and not np.array_equal(ev.returns,
                                                     first.returns)

    def test_stack_of_two_is_never_kept(self, monkeypatch):
        world = small_world()
        actions, irr, load = TestWindowEvaluation.mean_dispatch(world)
        pair = np.stack([actions, actions])
        ev = training.evaluate_window(world, pair, irr, load)
        assert ev.accepted.tolist() == [True, True]
        assert world.window_memo is None
        assert ev.returns.flags.writeable
        calls = self.count_solves(monkeypatch)
        training.evaluate_window(world, actions[None], irr, load)
        assert len(calls) == 1

    def test_kept_arrays_are_read_only(self):
        world = small_world()
        actions, irr, load = TestWindowEvaluation.mean_dispatch(world)
        ev = training.evaluate_window(world, actions[None], irr, load)
        arrays = [ev.accepted, ev.actions, ev.returns, ev.rewards,
                  ev.pf.v_re, ev.pf.v_im, ev.pf.i_br_re, ev.pf.i_br_im,
                  ev.pf.converged, ev.pf.p_load_pu, ev.obs.v_mag,
                  ev.obs.i_mag, ev.obs.pcc_p, ev.obs.pcc_q]
        assert not any(x.flags.writeable for x in arrays)
        with pytest.raises(ValueError, match="read-only"):
            ev.returns[0, 0] = 0.0
