"""Sensitivity-chain tests against re-solve and common-random-number oracles."""

import numpy as np
import pytest

from smaspl.grid import (Branch, Bus, GridModel, PowerFlowStack,
                         solve_power_flow, solve_power_flow_stack)
from smaspl.gradients import (
    chain_sample_to_parameters,
    compute_step_sensitivities,
    factorization_count,
    injection_current_jacobian,
    reward_action_gradients,
    row_gradient_stack,
    step_sensitivity_stack,
)
from smaspl.microgrid import (
    CONSTRAINT_NETWORK_KINDS,
    BusMap,
    ConstraintIndex,
    DGSpec,
    ESSSpec,
    MicrogridSpec,
    PCCSpec,
    PVSpec,
    actions_to_injections,
    build_constraint_table,
    geometric_weights,
    network_observables,
)
from smaspl.policy import PolicyEval
from smaspl.verify import audit_network_sensitivities, run_all_audits


def flat_solution(n=2):
    class S:
        v_re = np.ones(n)
        v_im = np.zeros(n)
    return S()


class TestInjectionJacobian:
    def test_flat_bus_entries(self):
        e = injection_current_jacobian(flat_solution())
        assert e["p_dg"][0][0] == -1.0      # dI_re/dP_dg
        assert e["q_dg"][1][0] == -1.0      # dI_im/dQ_dg
        assert e["q_dg"][0][0] == 0.0       # dI_re/dQ_dg

    def test_charge_discharge_antisymmetry(self):
        rng = np.random.default_rng(0)
        class S:
            v_re = rng.uniform(0.9, 1.1, 4)
            v_im = rng.uniform(-0.2, 0.2, 4)
        e = injection_current_jacobian(S())
        assert np.allclose(e["p_ch"][0], -e["p_dis"][0])
        assert np.allclose(e["p_ch"][1], -e["p_dis"][1])

    def test_zero_voltage_rejected(self):
        class S:
            v_re = np.array([1.0, 0.0])
            v_im = np.array([0.0, 0.0])
        with pytest.raises(Exception, match="zero-voltage"):
            injection_current_jacobian(S())


def tiny_mg_case():
    """slack 0 - host 1 - mg root 2 - asset bus 3."""
    buses = [Bus(0, "slack", 0.8, 1.2), Bus(1, "load", 0.8, 1.2),
             Bus(2, "load", 0.8, 1.2, 0), Bus(3, "load", 0.8, 1.2, 0)]
    branches = [
        Branch.from_impedance(0, 1, 0.01, 0.01, 10.0),
        Branch.from_impedance(1, 2, 0.008, 0.015, 10.0),
        Branch.from_impedance(2, 3, 0.005, 0.01, 10.0),
    ]
    grid = GridModel(buses, branches)
    spec = MicrogridSpec(
        mg_id=0,
        dg=DGSpec(40.0, 20.0, 20.0, 0.57, 0.0001773, 0.1709, 14.67),
        ess=ESSSpec(20.0, 4.0, 4.0, 0.95, 0.90, 0.1, 0.9, 3.0),
        pv=PVSpec(15.0, 8.0),
        pcc=PCCSpec(80.0, 40.0, 0.046),
        bus_map=BusMap(dg=3, ess=3, pv=3, load=3, pcc_mg=2, pcc_host=1),
    )
    return grid, spec


def pcc_power(grid, sols, spec):
    """(P, Q) at the PCC of each solution, kW/kvar, export-positive."""
    obs = network_observables(grid, PowerFlowStack.of(sols), [spec])
    return obs.pcc_p[:, 0], obs.pcc_q[:, 0]


class TestVoltageSensitivities:
    def test_slack_rows_pinned(self):
        grid, spec = tiny_mg_case()
        actions = np.array([[10.0, 1.0, 0.5, 3.0, -2.0, 1.0]])
        load = np.array([[8.0]])
        irr = np.array([[0.5]])
        p, q = actions_to_injections(actions, load, irr, [spec], 4)
        sol = solve_power_flow(grid, p[0], q[0], tol=1e-12)
        sens = compute_step_sensitivities(grid, sol, [spec])
        assert np.all(sens.dv_re[0] == 0.0)
        assert np.all(sens.dv_im[0] == 0.0)

    def test_two_bus_vs_resolve_oracle(self):
        buses = [Bus(0, "slack", 0.8, 1.2), Bus(1, "load", 0.8, 1.2, 0)]
        branches = [Branch.from_impedance(0, 1, 0.01, 0.01, 10.0)]
        grid = GridModel(buses, branches)
        spec = MicrogridSpec(
            mg_id=0, dg=DGSpec(40, 20, 20, 0.57, 1.773e-4, 0.1709, 14.67),
            ess=ESSSpec(20, 4, 4, 0.95, 0.9, 0.1, 0.9, 3.0),
            pv=PVSpec(15, 8), pcc=PCCSpec(80, 40, 0.046),
            bus_map=BusMap(1, 1, 1, 1, 1, 0))
        actions = np.array([[12.0, 2.0, 1.0, 4.0, -1.0, 0.5]])
        load = np.array([[20.0]])
        irr = np.array([[0.6]])
        p, q = actions_to_injections(actions, load, irr, [spec], 2)
        sol = solve_power_flow(grid, p[0], q[0], tol=1e-12)
        sens = compute_step_sensitivities(grid, sol, [spec])
        h = 0.01  # 1e-4 p.u.
        for c in range(6):
            up = actions.copy(); up[0, c] += h
            dn = actions.copy(); dn[0, c] -= h
            pu, qu = actions_to_injections(up, load, irr, [spec], 2)
            pd_, qd = actions_to_injections(dn, load, irr, [spec], 2)
            su = solve_power_flow(grid, pu[0], qu[0], tol=1e-12)
            sd = solve_power_flow(grid, pd_[0], qd[0], tol=1e-12)
            fd = (su.v_re - sd.v_re) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-9)
            assert np.abs(sens.dv_re[:, c] - fd).max() / scale <= 1e-4

    def test_magnitude_reduces_to_real_part_on_resistive_net(self):
        # purely resistive network with purely active load keeps v_im = 0,
        # so d|V|/da must equal dV_re/da and d|I| must equal dI_re
        buses = [Bus(0, "slack", 0.8, 1.2), Bus(1, "load", 0.8, 1.2, 0)]
        branches = [Branch(0, 1, 1.0 / 0.02, 0.0, 10.0)]
        grid = GridModel(buses, branches)
        spec = MicrogridSpec(
            mg_id=0, dg=DGSpec(40, 20, 20, 0.57, 1.773e-4, 0.1709, 14.67),
            ess=ESSSpec(20, 4, 4, 0.95, 0.9, 0.1, 0.9, 3.0),
            pv=PVSpec(15, 8), pcc=PCCSpec(80, 40, 0.046),
            bus_map=BusMap(1, 1, 1, 1, 1, 0), q_load_ratio=0.0)
        actions = np.array([[10.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        load = np.array([[25.0]])
        irr = np.array([[0.0]])
        p, q = actions_to_injections(actions, load, irr, [spec], 2)
        sol = solve_power_flow(grid, p[0], q[0], tol=1e-12)
        assert abs(sol.v_im[1]) < 1e-12
        sens = compute_step_sensitivities(grid, sol, [spec])
        assert np.allclose(sens.dv_mag[1], sens.dv_re[1], atol=1e-12)
        assert np.allclose(sens.di_mag[0], sens.dibr_re[0], atol=1e-12)

    def test_factorization_reuse(self):
        grid, spec = tiny_mg_case()
        actions = np.array([[5.0, 1.0, 0.0, 2.0, 0.0, 0.0]])
        load = np.array([[10.0]])
        irr = np.array([[0.3]])
        p, q = actions_to_injections(actions, load, irr, [spec], 4)
        sol = solve_power_flow(grid, p[0], q[0])
        before = factorization_count()
        compute_step_sensitivities(grid, sol, [spec])
        assert factorization_count() - before == 1

    def test_full_audit_families(self):
        rng = np.random.default_rng(42)
        for res in audit_network_sensitivities(rng, trials=10):
            assert res.passed, f"{res.family}: {res.max_rel_err}"


class TestPCCSensitivity:
    def test_vs_resolve_oracle(self):
        grid, spec = tiny_mg_case()
        actions = np.array([[15.0, 2.0, 1.0, 3.0, -2.0, 1.0]])
        load = np.array([[12.0]])
        irr = np.array([[0.7]])
        p, q = actions_to_injections(actions, load, irr, [spec], 4)
        sol = solve_power_flow(grid, p[0], q[0], tol=1e-12)
        sens = compute_step_sensitivities(grid, sol, [spec])
        h = 0.01
        for c in range(6):
            up = actions.copy(); up[0, c] += h
            dn = actions.copy(); dn[0, c] -= h
            pu, qu = actions_to_injections(up, load, irr, [spec], 4)
            pd_, qd = actions_to_injections(dn, load, irr, [spec], 4)
            su = solve_power_flow(grid, pu[0], qu[0], tol=1e-12)
            sd = solve_power_flow(grid, pd_[0], qd[0], tol=1e-12)
            pcc_p = pcc_power(grid, [su, sd], spec)[0]
            fd = (pcc_p[0] - pcc_p[1]) / (2 * h)
            assert sens.dpcc_p[0, c] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_dg_raises_export(self):
        grid, spec = tiny_mg_case()
        actions = np.array([[15.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        load = np.array([[12.0]])
        irr = np.array([[0.5]])
        p, q = actions_to_injections(actions, load, irr, [spec], 4)
        sol = solve_power_flow(grid, p[0], q[0])
        sens = compute_step_sensitivities(grid, sol, [spec])
        # more DG power exports more through the coupling, nearly 1:1
        assert sens.dpcc_p[0, 0] == pytest.approx(1.0, abs=0.05)


class TestLocalConstraintGradients:
    """The action-driven local rows of row_gradient_stack."""

    def setup_method(self):
        self.grid, self.spec = tiny_mg_case()
        self.T = 4
        self.index = ConstraintIndex.of(
            [r for r in build_constraint_table(self.grid, [self.spec])
             if r.scope == "local" and r.kind not in CONSTRAINT_NETWORK_KINDS])
        self.actions = np.random.default_rng(5).uniform(0, 4, (1, 24))

    def grads(self, gamma=0.99):
        """{row id: (1, 6T)} gradients at a solved window."""
        p, q = actions_to_injections(self.actions, np.full((self.T, 1), 8.0),
                                     np.zeros((self.T, 1)), [self.spec], 4)
        pf = solve_power_flow_stack(self.grid, p, q)
        assert pf.converged.all()
        sens = step_sensitivity_stack(self.grid, pf, [self.spec]).map(
            lambda x: x[None])
        out = row_gradient_stack(self.index, sens, self.actions[None],
                                 [self.spec], gamma)[0]
        return {rid: out[..., m] for m, rid in enumerate(self.index.ids)}

    def test_dg_cap_row_discounted_unit(self):
        g = self.grads()["mg0.dg_p_hi"]
        w = geometric_weights(0.99, 4)
        assert g[0, 0] == 1.0
        assert np.allclose(g[0, :4], w)
        assert not g[0, 4:].any()

    def test_soc_row_hand_derived(self):
        # d(sum_k w_k SOC_k)/d p_ch_j = sum_{k>=j} w_k dt eta / E
        g = self.grads()["mg0.soc_hi"]
        w = geometric_weights(0.99, 4)
        e = self.spec.ess
        for j in range(4):
            expect = w[j:].sum() * 0.25 * e.eta_ch / e.e_cap_kwh
            assert g[0, 4 + j] == pytest.approx(expect, rel=1e-12)
            expect_dis = -w[j:].sum() * 0.25 / (e.eta_dis * e.e_cap_kwh)
            assert g[0, 8 + j] == pytest.approx(expect_dis, rel=1e-12)

    def test_complementarity_product_rule(self):
        g = self.grads(gamma=1.0)["mg0.comp_hi"]
        blk = self.actions[0].reshape(6, 4)
        assert np.allclose(g[0, 4:8], blk[2])   # d/dp_ch = p_dis
        assert np.allclose(g[0, 8:12], blk[1])  # d/dp_dis = p_ch

    def test_ramp_telescoping_pattern(self):
        g = self.grads(gamma=1.0)["mg0.dg_ramp_up"]
        # with gamma = 1 interior steps cancel, only the last survives
        assert np.allclose(g[0, :4], [0.0, 0.0, 0.0, 1.0])


class TestChainAssembly:
    def test_zero_action_gradient_annihilates(self):
        ev = PolicyEval(mu=np.zeros(2), sigma2=np.ones(2),
                        jac_mu=np.ones((2, 3)), jac_sigma2=np.ones((2, 4)))
        out = chain_sample_to_parameters(ev, np.array([0.5, -0.3]),
                                         np.zeros((2, 5)))
        assert out.shape == (7, 5)
        assert not out.any()

    def test_linearity_in_objective(self):
        rng = np.random.default_rng(8)
        ev = PolicyEval(mu=rng.normal(size=3), sigma2=rng.uniform(0.5, 2, 3),
                        jac_mu=rng.normal(size=(3, 4)),
                        jac_sigma2=rng.normal(size=(3, 5)))
        a = ev.mu + rng.normal(size=3)
        cols = rng.normal(size=(3, 2))
        one = chain_sample_to_parameters(ev, a, cols)
        scaled = chain_sample_to_parameters(ev, a, 3.0 * cols)
        assert np.allclose(scaled, 3.0 * one, rtol=1e-12)

    def test_one_d_toy_vs_crn_finite_difference(self):
        # one action, one parameter feeding the mean directly: the full
        # chain must match a common-random-number finite difference of the
        # sampled-return estimate
        rng = np.random.default_rng(99)
        sigma2 = np.array([0.04])
        eps = rng.standard_normal(256)

        def j_fn(a):
            return np.sin(1.3 * a) + 0.2 * a * a  # smooth scalar return

        def dj_fn(a):
            return 1.3 * np.cos(1.3 * a) + 0.4 * a

        theta = 0.7  # equals mu directly
        ev = PolicyEval(mu=np.array([theta]), sigma2=sigma2,
                        jac_mu=np.array([[1.0]]),
                        jac_sigma2=np.zeros((1, 0)))
        chain = np.zeros(1)
        for e in eps:
            a = np.array([theta + np.sqrt(sigma2[0]) * e])
            contrib = chain_sample_to_parameters(
                ev, a, np.array([[dj_fn(a[0])]]))
            chain += contrib[:1, 0]
        chain /= eps.size

        h = 1e-5
        up = np.mean([j_fn(theta + h + np.sqrt(sigma2[0]) * e) for e in eps])
        dn = np.mean([j_fn(theta - h + np.sqrt(sigma2[0]) * e) for e in eps])
        fd = (up - dn) / (2 * h)
        assert chain[0] == pytest.approx(fd, rel=1e-3)

    def test_reward_gradient_layout(self):
        grid, spec = tiny_mg_case()
        T = 2
        actions = np.array([np.concatenate([np.full(T, 10.0), np.zeros(5 * T)])])
        load = np.full((T, 1), 8.0)
        irr = np.zeros((T, 1))
        p, q = actions_to_injections(actions, load, irr, [spec], 4)
        sols = [solve_power_flow(grid, p[t], q[t]) for t in range(T)]
        sens = [compute_step_sensitivities(grid, s, [spec]) for s in sols]
        djr = reward_action_gradients(sens, actions, [spec], gamma=0.99)
        assert djr.shape == (1, 6 * T)
        # dg coordinate: export income sensitivity minus marginal fuel
        marg = 2 * spec.dg.a_f * 10.0 + spec.dg.b_f
        expect0 = (spec.pcc.price_per_kwh * sens[0].dpcc_p[0, 0]
                   - spec.dg.fuel_price * marg) * 0.25
        assert djr[0, 0] == pytest.approx(expect0, rel=1e-12)
        # discounting on the second step
        expect1 = 0.99 * (spec.pcc.price_per_kwh * sens[1].dpcc_p[0, 0]
                          - spec.dg.fuel_price * marg) * 0.25
        assert djr[0, 1] == pytest.approx(expect1, rel=1e-12)


class TestWindowRowGradients:
    def test_discounted_network_rows_vs_resolve_fd(self):
        # window-level composition: voltage and coupling rows with
        # discounting, checked against re-solved return differences
        from smaspl.gradients import constraint_action_gradients
        from smaspl.microgrid import constraint_returns
        grid, spec = tiny_mg_case()
        T = 2
        gamma = 0.9
        rng = np.random.default_rng(2)
        actions = rng.uniform(0, 6, (1, 6 * T))
        load = np.full((T, 1), 9.0)
        irr = np.full((T, 1), 0.4)
        table = [r for r in build_constraint_table(grid, [spec])
                 if r.id in ("v_hi[3]", "i_hi[1]", "mg0.pcc_p_hi",
                             "mg0.pcc_q_hi", "v_lo[3]", "i_lo[1]",
                             "mg0.pcc_p_lo", "mg0.pcc_q_lo")]

        def evaluate(a):
            p, q = actions_to_injections(a, load, irr, [spec], 4)
            sols = [solve_power_flow(grid, p[t], q[t], tol=1e-12)
                    for t in range(T)]
            obs = network_observables(grid, PowerFlowStack.of(sols), [spec])
            jc = constraint_returns(a, obs, [spec], table, gamma,
                                    prev_dg=[0.0])
            return jc, sols

        base_jc, sols = evaluate(actions)
        sens = [compute_step_sensitivities(grid, s, [spec]) for s in sols]
        grads = constraint_action_gradients(table, sens, actions, [spec],
                                            gamma, prev_dg=[0.0])
        h = 0.01
        for i in range(6 * T):
            up = actions.copy(); up[0, i] += h
            dn = actions.copy(); dn[0, i] -= h
            jc_up, _ = evaluate(up)
            jc_dn, _ = evaluate(dn)
            for m, row in enumerate(table):
                fd = (jc_up[row.id] - jc_dn[row.id]) / (2 * h)
                an = grads[m, 0, i]
                assert an == pytest.approx(fd, rel=1e-4, abs=1e-7), \
                    (row.id, i)

    def test_reactive_coupling_flow_vs_fd(self):
        grid, spec = tiny_mg_case()
        actions = np.array([[12.0, 1.0, 2.0, 4.0, -3.0, 1.5]])
        load = np.array([[10.0]])
        irr = np.array([[0.6]])
        p, q = actions_to_injections(actions, load, irr, [spec], 4)
        sol = solve_power_flow(grid, p[0], q[0], tol=1e-12)
        sens = compute_step_sensitivities(grid, sol, [spec])
        h = 0.01
        for c in range(6):
            up = actions.copy(); up[0, c] += h
            dn = actions.copy(); dn[0, c] -= h
            pu, qu = actions_to_injections(up, load, irr, [spec], 4)
            pd_, qd = actions_to_injections(dn, load, irr, [spec], 4)
            su = solve_power_flow(grid, pu[0], qu[0], tol=1e-12)
            sd = solve_power_flow(grid, pd_[0], qd[0], tol=1e-12)
            pcc_q = pcc_power(grid, [su, sd], spec)[1]
            fd = (pcc_q[0] - pcc_q[1]) / (2 * h)
            assert sens.dpcc_q[0, c] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestBundleEndToEnd:
    def test_parameter_bundle_vs_crn_finite_difference(self):
        # the assembled mean-head gradients of both the reward and a
        # constraint row must match common-random-number differences of
        # the batch estimates computed through full power flows
        from smaspl.microgrid import (constraint_returns, make_state_vector,
                                      reward_return)
        from smaspl.scenario import load_scenario
        from smaspl.training import (_BatchEval, _evaluate_draws,
                                     build_agents, build_world)

        sc = load_scenario("scenarios/tiny_oracle.yaml")
        sc.training["batch"] = 8
        world = build_world(sc)
        agent = build_agents(world)[0]
        irr, load = world.profiles.window(0, 1)
        state = make_state_vector(irr[:, 0], load[:, 0])
        eps = np.random.default_rng(5).standard_normal((8, 6))
        row_id = "mg0.dg_p_hi"
        m_row = next(i for i, r in enumerate(world.table) if r.id == row_id)

        def batch_estimates(theta_mu):
            agent.mean_net.unflatten(theta_mu)
            ev = agent.evaluate(state)
            acts = ev.mu[None, :] + np.sqrt(ev.sigma2)[None, :] * eps
            rewards, j_rows = [], []
            for a in acts:
                p, q = actions_to_injections(a[None, :], load, irr,
                                             world.specs, world.grid.n_bus,
                                             world.host_loads)
                sol = solve_power_flow(world.grid, p[0], q[0], tol=1e-12)
                assert sol.converged
                obs = network_observables(world.grid,
                                          PowerFlowStack.of([sol]),
                                          world.specs)
                rewards.append(reward_return(a, obs.pcc_p[:, 0],
                                             world.specs[0],
                                             world.cfg.gamma))
                jc = constraint_returns(a[None, :], obs, world.specs,
                                        world.table, world.cfg.gamma)
                j_rows.append(jc[row_id])
            return float(np.mean(rewards)), float(np.mean(j_rows))

        theta0 = agent.mean_net.flatten()
        ev0 = agent.evaluate(state)
        acts0 = ev0.mu[None, :] + np.sqrt(ev0.sigma2)[None, :] * eps
        p_mu = agent.mean_net.n_params
        # the trainer's path: stacked action columns streamed into the
        # batch sums, then F^T C through the Fisher rows
        res, cols = _evaluate_draws(world, acts0[:, None, :], irr, load,
                                    np.zeros(1))
        assert res.accepted.all()
        batch = _BatchEval([ev0], len(world.table), len(eps))
        batch.add(res, cols)
        c, _ = batch.chain()
        full = ev0.fisher_factor().T @ c[0]
        g = full[:p_mu, 0]
        b = full[:p_mu, 1 + m_row]

        h = 1e-5
        rng = np.random.default_rng(9)
        coords = rng.choice(p_mu, size=6, replace=False)
        for i in coords:
            up = theta0.copy(); up[i] += h
            dn = theta0.copy(); dn[i] -= h
            r_up, j_up = batch_estimates(up)
            r_dn, j_dn = batch_estimates(dn)
            fd_r = (r_up - r_dn) / (2 * h)
            fd_j = (j_up - j_dn) / (2 * h)
            assert g[i] == pytest.approx(fd_r, rel=1e-3, abs=1e-8), i
            assert b[i] == pytest.approx(fd_j, rel=1e-5, abs=1e-9), i
        agent.mean_net.unflatten(theta0)


class TestIncidenceAlgebra:
    """Vectorised branch and PCC sensitivities against per-branch and
    per-microgrid loop references, on the 98-bus, five-microgrid case."""

    @staticmethod
    def scan_pcc_branch(grid, spec):
        bm = spec.bus_map
        for k, br in enumerate(grid.branches):
            if (br.from_bus, br.to_bus) == (bm.pcc_mg, bm.pcc_host):
                return k, +1.0
            if (br.from_bus, br.to_bus) == (bm.pcc_host, bm.pcc_mg):
                return k, -1.0
        raise AssertionError("no coupling branch")

    def loop_reference(self, grid, sol, specs, dv_re, dv_im):
        """Branch-current and PCC sensitivities, and the PCC power, one
        branch and one microgrid at a time."""
        dibr_re = np.empty((grid.n_branch, dv_re.shape[1]))
        dibr_im = np.empty_like(dibr_re)
        for k, br in enumerate(grid.branches):
            ddr = dv_re[br.from_bus] - dv_re[br.to_bus]
            ddi = dv_im[br.from_bus] - dv_im[br.to_bus]
            dibr_re[k] = br.y_re * ddr - br.y_im * ddi
            dibr_im[k] = br.y_im * ddr + br.y_re * ddi
        dpcc_p = np.empty((len(specs), dv_re.shape[1]))
        dpcc_q = np.empty_like(dpcc_p)
        pcc_p = np.empty(len(specs))
        pcc_q = np.empty(len(specs))
        base = grid.base_power_kva
        for m, spec in enumerate(specs):
            k, sign = self.scan_pcc_branch(grid, spec)
            r = spec.bus_map.pcc_mg
            ire, iim = sign * sol.i_br_re[k], sign * sol.i_br_im[k]
            dire, diim = sign * dibr_re[k], sign * dibr_im[k]
            dpcc_p[m] = base * (dv_re[r] * ire + sol.v_re[r] * dire
                                + dv_im[r] * iim + sol.v_im[r] * diim)
            dpcc_q[m] = base * (dv_im[r] * ire + sol.v_im[r] * dire
                                - dv_re[r] * iim - sol.v_re[r] * diim)
            pcc_p[m] = (sol.v_re[r] * ire + sol.v_im[r] * iim) * base
            pcc_q[m] = (sol.v_im[r] * ire - sol.v_re[r] * iim) * base
        return dibr_re, dibr_im, dpcc_p, dpcc_q, pcc_p, pcc_q

    def test_branch_and_pcc_sensitivities_match_loop(self):
        from smaspl.microgrid import find_pcc_branch
        from smaspl.scenario import load_scenario

        sc = load_scenario("scenarios/paper98.yaml")
        grid, specs = sc.grid, sc.specs
        irr, load = sc.profiles.window(40, 1)
        actions = np.random.default_rng(13).uniform(0.0, 5.0, (len(specs), 6))
        p, q = actions_to_injections(actions, load, irr, specs, grid.n_bus,
                                     sc.host_loads)
        sol = solve_power_flow(grid, p[0], q[0])
        assert sol.converged
        sens = compute_step_sensitivities(grid, sol, specs)
        *ref, pcc_p, pcc_q = self.loop_reference(grid, sol, specs,
                                                 sens.dv_re, sens.dv_im)
        for got, want in zip((sens.dibr_re, sens.dibr_im, sens.dpcc_p,
                              sens.dpcc_q), ref):
            assert np.array_equal(got, want)
        obs = network_observables(grid, PowerFlowStack.of([sol]), specs)
        assert np.array_equal(obs.pcc_p[0], pcc_p)
        assert np.array_equal(obs.pcc_q[0], pcc_q)
        for spec in specs:
            assert find_pcc_branch(grid, spec) == \
                self.scan_pcc_branch(grid, spec)

    def test_exactly_singular_system_raises(self):
        from smaspl.gradients import SensitivityError
        # bus 1 hangs on a zero-admittance branch and carries no load, so
        # the power flow converges at the flat start while its rows of
        # the sensitivity system are exactly zero
        grid = GridModel(
            [Bus(0, "slack"), Bus(1, "load")], [Branch(0, 1, 0.0, 0.0, 1.0)])
        _, spec = tiny_mg_case()
        spec = MicrogridSpec(
            mg_id=0, dg=spec.dg, ess=spec.ess, pv=spec.pv, pcc=spec.pcc,
            bus_map=BusMap(dg=1, ess=1, pv=1, load=1, pcc_mg=1, pcc_host=0))
        sol = solve_power_flow(grid, [0.0, 0.0], [0.0, 0.0])
        assert sol.converged
        with pytest.raises(SensitivityError, match="singular"):
            compute_step_sensitivities(grid, sol, [spec])


class TestLocality:
    def test_local_rows_vanish_on_other_agents(self):
        from smaspl.gradients import constraint_action_gradients
        grid, spec0 = tiny_mg_case()
        spec1 = MicrogridSpec(
            mg_id=1, dg=spec0.dg, ess=spec0.ess, pv=spec0.pv, pcc=spec0.pcc,
            bus_map=BusMap(dg=3, ess=3, pv=3, load=3, pcc_mg=2, pcc_host=1))
        specs = [spec0, spec1]
        T = 2
        actions = np.random.default_rng(0).uniform(0, 3, (2, 12))
        load = np.full((T, 2), 6.0)
        irr = np.zeros((T, 2))
        p, q = actions_to_injections(actions, load, irr, specs, 4)
        sols = [solve_power_flow(grid, p[t], q[t]) for t in range(T)]
        sens = [compute_step_sensitivities(grid, s, specs) for s in sols]
        table = build_constraint_table(grid, specs)
        grads = constraint_action_gradients(table, sens, actions, specs,
                                            0.99, prev_dg=[0.0, 0.0])
        from smaspl.microgrid import CONSTRAINT_NETWORK_KINDS
        for m, row in enumerate(table):
            if row.scope != "local" or row.kind in CONSTRAINT_NETWORK_KINDS:
                continue
            other = 1 - row.mg_id
            assert not grads[m, other].any(), row.id


class TestFullAudit:
    def test_all_families_pass(self):
        for res in run_all_audits(seed=7, trials_network=12):
            assert res.passed, f"{res.family}: {res.max_rel_err:.2e}"

    def test_low_current_branch_seed_42(self):
        # seed 42 draws a 3-bus trial whose branch 0 carries about 1e-3
        # p.u.; near zero current |I| curves sharply and a plain central
        # difference misses the analytic derivative by 6e-4 relative
        for res in run_all_audits(seed=42, trials_network=50):
            assert res.passed, f"{res.family}: {res.max_rel_err:.2e}"

    def test_fault_injection_caught(self):
        res = run_all_audits(seed=7, trials_network=4,
                             fault="table3-qdg-sign")
        by_family = {r.family: r for r in res}
        assert not by_family["injection-jacobian"].passed


class TestStackedSensitivities:
    """step_sensitivity_stack against a loop of one-point factorizations."""

    def test_stack_matches_one_point_sensitivities(self):
        from smaspl.scenario import load_scenario

        sc = load_scenario("scenarios/paper98.yaml")
        grid, specs = sc.grid, sc.specs
        irr, load = sc.profiles.window(40, 3)
        actions = np.random.default_rng(17).uniform(0.0, 5.0,
                                                    (len(specs), 18))
        p, q = actions_to_injections(actions, load, irr, specs, grid.n_bus,
                                     sc.host_loads)
        sols = [solve_power_flow(grid, p[t], q[t]) for t in range(3)]
        assert all(s.converged for s in sols)
        before = factorization_count()
        stack = step_sensitivity_stack(grid, PowerFlowStack.of(sols), specs)
        assert factorization_count() - before == 3
        for t, sol in enumerate(sols):
            one = compute_step_sensitivities(grid, sol, specs)
            for name in ("dv_re", "dv_im", "dibr_re", "dibr_im", "dv_mag",
                         "di_mag", "dpcc_p", "dpcc_q"):
                want = getattr(one, name)
                np.testing.assert_allclose(getattr(stack, name)[t], want,
                                           rtol=1e-10,
                                           atol=1e-12 * np.abs(want).max())

    def test_exactly_singular_point_raises(self):
        from smaspl.gradients import SensitivityError
        grid = GridModel(
            [Bus(0, "slack"), Bus(1, "load")], [Branch(0, 1, 0.0, 0.0, 1.0)])
        _, spec = tiny_mg_case()
        spec = MicrogridSpec(
            mg_id=0, dg=spec.dg, ess=spec.ess, pv=spec.pv, pcc=spec.pcc,
            bus_map=BusMap(dg=1, ess=1, pv=1, load=1, pcc_mg=1, pcc_host=0))
        sol = solve_power_flow(grid, [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(SensitivityError, match="singular"):
            step_sensitivity_stack(grid, PowerFlowStack.of([sol, sol]),
                                   [spec])
