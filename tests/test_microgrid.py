"""Asset model, reward, SOC, and constraint-return tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaspl.grid import (Branch, Bus, GridModel, PowerFlowStack,
                         solve_power_flow)
from smaspl.microgrid import (
    BusMap,
    DGSpec,
    ESSSpec,
    MicrogridSpec,
    PCCSpec,
    PVSpec,
    action_index,
    actions_to_injections,
    build_constraint_table,
    constraint_returns,
    geometric_weights,
    make_state_vector,
    network_observables,
    reward_return,
    soc_trajectory,
    window_bounds,
)

T = 4


def make_spec(mg_id=0, **over):
    kw = dict(
        dg=DGSpec(p_max_kw=60.0, q_max_kvar=30.0, ramp_kw=30.0,
                  fuel_price=0.57, a_f=0.0001773, b_f=0.1709, c_f=14.67),
        ess=ESSSpec(e_cap_kwh=20.0, p_ch_max_kw=4.0, p_dis_max_kw=4.0,
                    eta_ch=0.95, eta_dis=0.90, soc_min=0.1, soc_max=0.9,
                    q_max_kvar=3.0, soc_init=0.5),
        pv=PVSpec(p_rated_kw=25.0, q_max_kvar=10.0),
        pcc=PCCSpec(p_max_kw=120.0, q_max_kvar=60.0, price_per_kwh=0.046),
        bus_map=BusMap(dg=3, ess=3, pv=3, load=3, pcc_mg=2, pcc_host=1),
    )
    kw.update(over)
    return MicrogridSpec(mg_id=mg_id, **kw)


def small_grid():
    """slack 0 - 1 - 2(mg root) - 3(mg assets)."""
    buses = [Bus(0, "slack"), Bus(1), Bus(2, mg_owner=0), Bus(3, mg_owner=0)]
    branches = [
        Branch.from_impedance(0, 1, 0.01, 0.01, 10.0),
        Branch.from_impedance(1, 2, 0.01, 0.02, 10.0),
        Branch.from_impedance(2, 3, 0.005, 0.01, 10.0),
    ]
    return GridModel(buses, branches)


def zero_actions(n_mg=1):
    return np.zeros((n_mg, 6 * T))


class TestFuel:
    """The fuel curve F(p) = a_f*p^2 + b_f*p + c_f, read off a one-step
    charge: gamma 0 and zero export leave -fuel_price*F(p)*dt."""

    @staticmethod
    def fuel_charge(p, spec):
        a = zero_actions()[0]
        a[action_index("p_dg", 0, T)] = p
        return reward_return(a, np.zeros(T), spec, gamma=0.0)

    def test_quadratic_at_60(self):
        # 0.0001773*3600 + 0.1709*60 + 14.67, evaluated by hand
        assert self.fuel_charge(60.0, make_spec()) == pytest.approx(
            -0.57 * 25.56228 * 0.25)

    def test_degenerate_constant(self):
        spec = make_spec(dg=DGSpec(60, 30, 30, 0.57, 0.0, 0.0, 14.67))
        for p in (17.3, 60.0):
            assert self.fuel_charge(p, spec) == pytest.approx(
                -0.57 * 14.67 * 0.25)


class TestReward:
    def test_idle_unit_burns_nothing(self):
        # all actions zero, zero PCC transfer: the unit is off at exactly
        # zero output, so there is no standing fuel charge
        spec = make_spec()
        r = reward_return(zero_actions()[0], np.zeros(T), spec, gamma=0.99)
        assert r == 0.0

    def test_myopic_discount(self):
        spec = make_spec()
        pcc = np.array([10.0, 999.0, 999.0, 999.0])
        r = reward_return(zero_actions()[0], pcc, spec, gamma=0.0)
        assert r == pytest.approx(spec.pcc.price_per_kwh * 10.0 * 0.25)

    def test_geometric_sum_of_unit_income(self):
        # per-step net income of exactly 1 $: price*pcc*dt = 1
        spec = make_spec(pcc=PCCSpec(1e6, 60, 1.0))
        pcc = np.full(T, 4.0)  # 1.0 $/kWh * 4 kW * 0.25 h = 1 $
        r = reward_return(zero_actions()[0], pcc, spec, gamma=0.99)
        assert r == pytest.approx(3.940399)

    def test_price_monotonicity(self):
        a = zero_actions()[0]
        a[action_index("p_dg", 0, T)] = 10.0
        pcc = np.array([5.0, 3.0, 0.0, 2.0])
        r_lo = reward_return(a, pcc, make_spec(pcc=PCCSpec(120, 60, 0.046)), 0.99)
        r_hi = reward_return(a, pcc, make_spec(pcc=PCCSpec(120, 60, 0.146)), 0.99)
        assert r_hi >= r_lo


class TestSOC:
    def test_single_charge_step(self):
        soc = soc_trajectory(0.5, [4.0], [0.0], make_spec())
        assert soc[0] == pytest.approx(0.5475)

    def test_idle_constant(self):
        soc = soc_trajectory(0.37, np.zeros(T), np.zeros(T), make_spec())
        assert np.allclose(soc, 0.37)

    def test_unit_efficiency_symmetry(self):
        spec = make_spec(ess=ESSSpec(20, 4, 4, 1.0, 1.0, 0.0, 1.0, 3.0, 0.5))
        soc = soc_trajectory(0.5, [4.0, 0.0], [0.0, 4.0], spec)
        assert soc[-1] == pytest.approx(0.5)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_telescoping(self, seed):
        rng = np.random.default_rng(seed)
        spec = make_spec()
        p_ch = rng.uniform(0, 4, T)
        p_dis = rng.uniform(0, 4, T)
        soc = soc_trajectory(0.5, p_ch, p_dis, spec)
        e = spec.ess
        expect = 0.25 * np.sum(p_ch * e.eta_ch - p_dis / e.eta_dis) / e.e_cap_kwh
        assert soc[-1] - 0.5 == pytest.approx(expect, abs=1e-12)


def solve_window(grid, specs, actions, load, irr, host_loads=None):
    p, q = actions_to_injections(actions, load, irr, specs, grid.n_bus,
                                 host_loads)
    sols = [solve_power_flow(grid, p[t], q[t]) for t in range(load.shape[0])]
    assert all(s.converged for s in sols)
    return network_observables(grid, PowerFlowStack.of(sols), specs)


class TestConstraintReturns:
    def setup_method(self):
        self.grid = small_grid()
        self.spec = make_spec()
        self.table = build_constraint_table(self.grid, [self.spec])

    def test_flat_network_voltage_rows(self):
        obs = solve_window(self.grid, [self.spec], zero_actions(),
                           np.zeros((T, 1)), np.zeros((T, 1)))
        vals = constraint_returns(zero_actions(), obs, [self.spec],
                                  self.table, gamma=0.99)
        expect = float(np.sum(geometric_weights(0.99, T)))
        for bus in range(4):
            assert vals[f"v_hi[{bus}]"] == pytest.approx(expect)
            assert vals[f"v_lo[{bus}]"] == pytest.approx(-expect)

    def test_dg_cap_row_plain_sum(self):
        a = zero_actions()
        a[0, 0:T] = 20.0
        obs = solve_window(self.grid, [self.spec], a,
                           np.zeros((T, 1)), np.zeros((T, 1)))
        vals = constraint_returns(a, obs, [self.spec], self.table, gamma=1.0)
        assert vals["mg0.dg_p_hi"] == pytest.approx(80.0)
        assert vals["mg0.dg_p_lo"] == pytest.approx(-80.0)

    def test_complementarity_product(self):
        a = zero_actions()
        a[0, action_index("p_ch", 1, T)] = 2.0
        a[0, action_index("p_dis", 1, T)] = 3.0
        obs = solve_window(self.grid, [self.spec], a,
                           np.zeros((T, 1)), np.zeros((T, 1)))
        vals = constraint_returns(a, obs, [self.spec], self.table, gamma=1.0)
        assert vals["mg0.comp_hi"] == pytest.approx(6.0)
        assert vals["mg0.comp_lo"] == pytest.approx(-6.0)

    def test_dg_monotonicity_and_locality(self):
        # two MGs on separate laterals of the host bus
        buses = [Bus(0, "slack"), Bus(1), Bus(2, mg_owner=0), Bus(3, mg_owner=1)]
        branches = [
            Branch.from_impedance(0, 1, 0.01, 0.01, 10.0),
            Branch.from_impedance(1, 2, 0.01, 0.02, 10.0),
            Branch.from_impedance(1, 3, 0.01, 0.02, 10.0),
        ]
        grid = GridModel(buses, branches)
        spec0 = make_spec(0, bus_map=BusMap(2, 2, 2, 2, 2, 1))
        spec1 = make_spec(1, bus_map=BusMap(3, 3, 3, 3, 3, 1))
        table = build_constraint_table(grid, [spec0, spec1])
        load = np.zeros((T, 2))
        irr = np.zeros((T, 2))
        a = np.zeros((2, 6 * T))
        obs = solve_window(grid, [spec0, spec1], a, load, irr)
        v0 = constraint_returns(a, obs, [spec0, spec1], table, 0.99)
        a2 = a.copy()
        a2[0, action_index("p_dg", 2, T)] = 5.0
        obs2 = solve_window(grid, [spec0, spec1], a2, load, irr)
        v1 = constraint_returns(a2, obs2, [spec0, spec1], table, 0.99)
        assert v1["mg0.dg_p_hi"] > v0["mg0.dg_p_hi"]
        # action-driven local rows of the other agent are untouched; its
        # PCC rows are network quantities and may drift with losses
        for rid in v0:
            if rid.startswith("mg1.") and "pcc" not in rid:
                assert v1[rid] == pytest.approx(v0[rid], abs=1e-12)

    def test_discount_linearity(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 3, (1, 6 * T))
        obs = solve_window(self.grid, [self.spec], a,
                           np.full((T, 1), 5.0), np.zeros((T, 1)))
        vals = constraint_returns(a, obs, [self.spec], self.table, gamma=1.0)
        w = geometric_weights(1.0, T)
        p_dg = a[0, :T]
        assert vals["mg0.dg_p_hi"] == pytest.approx(float(w @ p_dg))

    def test_ramp_uses_carried_previous_value(self):
        a = zero_actions()
        a[0, 0:T] = [10.0, 10.0, 10.0, 10.0]
        obs = solve_window(self.grid, [self.spec], a,
                           np.zeros((T, 1)), np.zeros((T, 1)))
        with_prev = constraint_returns(a, obs, [self.spec], self.table, 1.0,
                                       prev_dg=[10.0])
        assert with_prev["mg0.dg_ramp_up"] == pytest.approx(0.0)
        cold = constraint_returns(a, obs, [self.spec], self.table, 1.0)
        assert cold["mg0.dg_ramp_up"] == pytest.approx(10.0)


def per_row_returns(actions, obs, specs, table, gamma, prev_dg):
    """Reference: every row's per-step values one row at a time."""
    horizon = actions.shape[1] // 6
    w = geometric_weights(gamma, horizon)
    out = {}
    for row in table:
        o = row.orientation
        a = actions[row.mg_id].reshape(6, horizon) if row.mg_id is not None \
            else None
        if row.kind == "voltage":
            vals = o * obs.v_mag[:, row.target]
        elif row.kind == "branch-current":
            vals = o * obs.i_mag[:, row.target]
        elif row.kind in ("pcc-p", "pcc-q"):
            src = obs.pcc_p if row.kind == "pcc-p" else obs.pcc_q
            vals = o * src[:, row.mg_id]
        elif row.kind == "dg-ramp":
            vals = o * np.diff(np.concatenate([[prev_dg[row.mg_id]], a[0]]))
        elif row.kind == "soc":
            spec = specs[row.mg_id]
            vals = o * soc_trajectory(spec.ess.soc_init, a[1], a[2], spec)
        elif row.kind == "ess-complementarity":
            vals = o * a[1] * a[2]
        else:
            control = {"dg-p": 0, "ess-ch": 1, "ess-dis": 2, "dg-q": 3,
                       "pv-q": 4, "ess-q": 5}[row.kind]
            vals = o * a[control]
        out[row.id] = float(w @ vals)
    return out


class TestStackedReturns:
    def test_matches_per_row_reference_on_the_98_bus_table(self):
        from smaspl.scenario import load_scenario
        sc = load_scenario("scenarios/paper98.yaml")
        table = build_constraint_table(sc.grid, sc.specs)
        assert {r.kind for r in table} >= {
            "voltage", "branch-current", "pcc-p", "pcc-q", "dg-ramp", "soc",
            "ess-complementarity", "dg-p", "dg-q", "pv-q", "ess-ch",
            "ess-dis", "ess-q"}
        rng = np.random.default_rng(8)
        n = len(sc.specs)
        actions = rng.uniform(-1.0, 6.0, (n, 6 * T))
        irr, load = sc.profiles.window(20, T)
        obs = solve_window(sc.grid, sc.specs, actions, load, irr,
                           sc.host_loads)
        prev = rng.uniform(0.0, 20.0, n)
        got = constraint_returns(actions, obs, sc.specs, table, 0.97,
                                 prev_dg=prev)
        want = per_row_returns(actions, obs, sc.specs, table, 0.97, prev)
        assert list(got) == list(want)
        for rid in want:
            assert got[rid] == pytest.approx(want[rid], rel=1e-12,
                                             abs=1e-12), rid


class TestInjections:
    def test_zero_actions_load_minus_pv(self):
        spec = make_spec()
        load = np.full((T, 1), 12.0)
        irr = np.full((T, 1), 0.4)
        p, q = actions_to_injections(zero_actions(), load, irr, [spec], 4)
        assert p[0, 3] == pytest.approx(12.0 - 0.4 * 25.0)
        assert q[0, 3] == pytest.approx(12.0 * spec.q_load_ratio)

    def test_dg_cancels_load(self):
        spec = make_spec()
        a = zero_actions()
        a[0, 0:T] = 12.0
        load = np.full((T, 1), 12.0)
        irr = np.zeros((T, 1))
        p, _ = actions_to_injections(a, load, irr, [spec], 4)
        assert np.allclose(p[:, 3], 0.0)

    def test_accounting_oracle(self):
        rng = np.random.default_rng(11)
        specs = [make_spec(0), make_spec(1, bus_map=BusMap(1, 2, 3, 1, 2, 0))]
        a = rng.uniform(-3, 5, (2, 6 * T))
        load = rng.uniform(0, 20, (T, 2))
        irr = rng.uniform(0, 1, (T, 2))
        host = {0: (7.0, 3.0)}
        p, q = actions_to_injections(a, load, irr, specs, 4, host)
        for t in range(T):
            # independent re-accumulation of every component
            expect_p = 7.0 + load[t].sum()
            expect_q = 3.0 + sum(load[t, j] * specs[j].q_load_ratio
                                 for j in range(2))
            for j, s in enumerate(specs):
                blk = a[j].reshape(6, T)
                expect_p += -blk[0, t] + blk[1, t] - blk[2, t] \
                    - irr[t, j] * s.pv.p_rated_kw
                expect_q += blk[3, t] + blk[4, t] - blk[5, t]
            assert p[t].sum() == pytest.approx(expect_p, rel=1e-12)
            assert q[t].sum() == pytest.approx(expect_q, rel=1e-12)


class TestVectors:
    def test_state_vector_bands(self):
        s = make_state_vector([0.1, 0.5, 1.1, 0.0], [5, 6, 7, 8])
        assert s.shape == (8,)
        with pytest.raises(ValueError, match="irradiance"):
            make_state_vector([1.3, 0, 0, 0], [1, 2, 3, 4])
        with pytest.raises(ValueError, match="load"):
            make_state_vector([0, 0, 0, 0], [1, 2, 3, -1])

    def test_window_bounds_layout(self):
        lo, hi = window_bounds(make_spec(), T)
        assert lo.shape == hi.shape == (6 * T,)
        assert hi[action_index("p_dg", 0, T)] == 60.0
        assert lo[action_index("q_pv", 2, T)] == -10.0

    def test_action_range_override(self):
        spec = make_spec(action_ranges={"p_dg": (0.0, 90.0)})
        _, hi = window_bounds(spec, T)
        assert hi[0] == 90.0

    def test_spec_invariants(self):
        with pytest.raises(ValueError, match="soc"):
            make_spec(ess=ESSSpec(20, 4, 4, 0.95, 0.9, 0.9, 0.2, 3.0, 0.5))
        with pytest.raises(ValueError, match="eta"):
            make_spec(ess=ESSSpec(20, 4, 4, 1.2, 0.9, 0.1, 0.9, 3.0, 0.5))
