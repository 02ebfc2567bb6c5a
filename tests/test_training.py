"""Consensus primal-dual stage tests and small training-loop contracts."""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from smaspl import training
from smaspl.scenario import load_scenario
from smaspl.training import (
    AgentChannelGraph,
    LambdaBus,
    LambdaMessage,
    ProjectionInfeasible,
    backtrack_bounds,
    build_agents,
    build_world,
    consensus_average,
    dual_step,
    primal_step,
    project_local,
    resolve_removed_rows,
    select_actions_online,
    train,
    trust_quadratic,
)


def small_world(name="two_mg_binding.yaml", **training):
    sc = load_scenario(f"scenarios/{name}")
    sc.training.update(training)
    return build_world(sc)


def metropolis_graph(n, edges):
    """Metropolis-Hastings weights (Xiao & Boyd 2004), doubly stochastic
    on any connected graph."""
    deg = np.zeros(n, dtype=int)
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    w = np.zeros((n, n))
    for i, j in edges:
        w[i, j] = w[j, i] = 1.0 / (1 + max(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return AgentChannelGraph(w)


class TestLambdaBus:
    def test_only_price_messages_cross_the_boundary(self):
        bus = LambdaBus(2)
        with pytest.raises(TypeError, match="LambdaMessage"):
            bus.post({"sender": 0, "theta": np.zeros(5)})
        with pytest.raises(TypeError, match="LambdaMessage"):
            bus.post(np.zeros(3))

    def test_message_carries_nothing_but_prices(self):
        names = {f.name for f in fields(LambdaMessage)}
        assert names == {"sender", "iteration", "values"}
        with pytest.raises(TypeError, match="flat"):
            LambdaMessage(0, 1, np.zeros((3, 3)))  # no matrix payloads

    def test_bulk_synchronous_collect(self):
        bus = LambdaBus(2)
        bus.post(LambdaMessage(0, 1, np.array([1.0])))
        with pytest.raises(RuntimeError, match="missing"):
            bus.collect(1)
        bus.post(LambdaMessage(0, 1, np.array([1.0])))
        bus.post(LambdaMessage(1, 1, np.array([2.0])))
        got = bus.collect(1)
        assert np.array_equal(got, [[1.0], [2.0]])


class TestChannelGraph:
    def test_non_doubly_stochastic_rejected(self):
        assert np.array_equal(AgentChannelGraph.complete(5).weights,
                              np.full((5, 5), 0.2))
        for w in (np.array([[0.9, 0.1], [0.3, 0.7]]), np.full((5, 5), 0.3)):
            with pytest.raises(ValueError, match="doubly stochastic"):
                AgentChannelGraph(w)

    def test_disconnected_rejected(self):
        w = np.eye(4)  # doubly stochastic but no edges
        with pytest.raises(ValueError, match="connected"):
            AgentChannelGraph(w)

    def test_metropolis_on_irregular_graph(self):
        g = metropolis_graph(4, [(0, 1), (1, 2), (1, 3)])
        assert np.allclose(g.weights.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(g.weights.sum(axis=1), 1.0, atol=1e-12)


class TestConsensus:
    def test_fixed_point(self):
        g = AgentChannelGraph.complete(3)
        lam = np.full((3, 4), 2.5)
        assert np.allclose(consensus_average(g, lam), 2.5)

    def test_five_agent_single_holder(self):
        g = AgentChannelGraph.complete(5)
        lam = np.array([[0.0], [0.0], [0.0], [0.0], [5.0]])
        assert np.allclose(consensus_average(g, lam), 1.0)

    def test_spread_contracts_geometrically(self):
        # frozen-parameter price dynamics on a (non-complete) connected
        # graph: the max-min spread of each row shrinks by at least the
        # graph's mixing factor every averaging round
        g = metropolis_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        rng = np.random.default_rng(2)
        lam = rng.uniform(0, 4, (5, 3))
        spreads = []
        for _ in range(30):
            spreads.append(lam.max(axis=0) - lam.min(axis=0))
            lam = consensus_average(g, lam)
        spreads = np.array(spreads)
        eig = np.sort(np.abs(np.linalg.eigvals(g.weights)))[-2]
        late = spreads[10:] / spreads[:-10]
        assert np.all(late <= eig ** 10 * 1.5)

    def test_repeated_averaging_reaches_mean(self):
        # power-iteration oracle on the weight matrix
        g = metropolis_graph(4, [(0, 1), (1, 2), (2, 3)])
        rng = np.random.default_rng(0)
        lam = rng.uniform(0, 3, (4, 2))
        target = lam.mean(axis=0)
        w_inf = np.linalg.matrix_power(g.weights, 200)
        assert np.allclose(w_inf @ lam, target, atol=1e-10)
        cur = lam
        for _ in range(200):
            cur = consensus_average(g, cur)
        assert np.allclose(cur, target, atol=1e-10)


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
        records, agents, state = train(world, agents=agents, episodes=1,
                                       removed_tokens=["ess-complementarity"])
        assert records[0].inner_iterations == 1
        assert records[0].inner_converged
        for before, after in zip(theta_before, state.thetas):
            assert np.array_equal(before, after)
        assert not np.any(np.asarray(records[0].lambda_final))

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
        _, agents, state = train(world, agents=agents, episodes=1)
        for a in range(2):
            d = state.thetas[a] - theta0[a]
            q = 0.5 * d @ fims[a] @ d
            assert q <= world.cfg.delta + 1e-8

    def test_batch_mean_stability(self):
        from smaspl.microgrid import make_state_vector
        from smaspl.training import _evaluate_batch, _gram_eigen
        world = small_world(batch=32)
        agents = build_agents(world)
        irr, load = world.profiles.window(0, 4)
        states = [make_state_vector(irr[:, a], load[:, a]) for a in range(2)]
        evals = [ag.evaluate(states[a]) for a, ag in enumerate(agents)]
        b32 = _evaluate_batch(world, agents, evals, [0], irr, load,
                              np.zeros(2))
        world.cfg.batch = 64
        b64 = _evaluate_batch(world, agents, evals, [1], irr, load,
                              np.zeros(2))
        for a in range(2):
            # in the span coordinates the inner loop runs in
            u, s = _gram_eigen(evals[a].fisher_factor())
            se = np.sqrt(b32.reward_se(a, u, s) ** 2
                         + b64.reward_se(a, u, s) ** 2)
            c64, c32 = b64.chain()[0][a], b32.chain()[0][a]
            diff = np.abs(s * (u.T @ (c64[:, 0] - c32[:, 0])))
            # entrywise within a generous multiple of the combined error
            assert np.all(diff <= 6.0 * se + 1e-12)

    def test_reward_noise_matches_the_parameter_space_chain(self):
        # the reduced reward gradient and its standard error have the
        # norms of the parameter-space ones: V^T is an isometry on the
        # span they lie in, and the trace of a covariance does not depend
        # on the orthonormal basis
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
        batch = _BatchEval(evals, len(world.table), len(draws))
        batch.add(res, cols)
        c, _ = batch.chain()
        for a, ev in enumerate(evals):
            per_sample = np.stack([
                chain_sample_to_parameters(ev, acts, col)[:, 0]
                for acts, col in zip(res.actions[:, a], cols[:, a])])
            g = per_sample.mean(axis=0)
            var = np.mean((per_sample - g) ** 2, axis=0)
            se = np.sqrt(var / len(per_sample))
            u, s = _gram_eigen(ev.fisher_factor())
            g_red = s * (u.T @ c[a][:, 0])
            se_red = batch.reward_se(a, u, s)
            assert np.linalg.norm(g_red) == pytest.approx(
                np.linalg.norm(g), rel=1e-12)
            assert np.linalg.norm(se_red) == pytest.approx(
                np.linalg.norm(se), rel=1e-9)
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
                _evaluate_batch(world, agents, evals, [0], irr, load,
                                np.zeros(2))
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
        _evaluate_batch(world, agents, evals, [0], irr, load, np.zeros(2))
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
        batch = _BatchEval(evals, len(world.table), len(draws))
        batch.add(res, res_cols)
        c, _ = batch.chain()
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
            training._evaluate_batch(world, agents, evals, [0], irr, load,
                                     np.zeros(2))


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
                                      world.specs, gamma, prev_dg=prev_dg)
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
        got = training._evaluate_batch(world, agents, evals, [0], irr, load,
                                       prev)
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
        ref_batch = training._BatchEval(evals, len(world.table), len(kept))
        ref_batch.add(ref, ref_cols)
        c, _ = ref_batch.chain()
        got_c, _ = got.chain()
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
            got = training._evaluate_batch(world, agents, evals, [0], irr,
                                           load, np.zeros(2))
            monkeypatch.undo()
            return got, seen

        whole, seen_whole = run(16)
        split, seen_split = run(2)
        assert seen_whole == [5, 1]
        assert seen_split == [2, 2, 1, 1]
        assert whole.discards == split.discards == 1
        np.testing.assert_array_equal(split.j_values, whole.j_values)
        np.testing.assert_array_equal(split.rewards, whole.rewards)
        for got, ref in zip(split.chain(), whole.chain()):
            np.testing.assert_array_equal(got, ref)


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
        world = small_world("tiny_oracle.yaml", batch=16)
        agents = build_agents(world)
        actions, _, _ = select_actions_online(world, agents, 0)
        blk = actions[0].reshape(6, 1)
        assert blk[1, 0] * blk[2, 0] == 0.0


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
