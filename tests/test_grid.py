"""Network model and power-flow tests, checked against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaspl.grid import (
    Branch,
    Bus,
    GridError,
    GridModel,
    branch_current_magnitudes,
    build_admittance,
    grid_from_dict,
    load_grid_file,
    power_flow_system_csc,
    power_flow_system_matrix,
    power_mismatch,
    solve_power_flow,
)


def two_bus(r=0.01, x=0.01):
    buses = [Bus(0, "slack"), Bus(1, "load")]
    branches = [Branch.from_impedance(0, 1, r, x, 10.0)]
    return GridModel.from_branches(buses, branches)


def two_bus_voltage_oracle(z, s_load, lo=0.3, hi=1.2, iters=200):
    """Bisection on |V1| for slack 1+0j, series z, load s_load at bus 1.

    |V1| = x solves |x^2 + z*conj(S)| = x; then V1 = x^2/(x^2 + z*conj(S)).
    Independent of any linear-algebra solve.
    """
    f = lambda m: abs(m * m + z * np.conj(s_load)) - m
    a, b = lo, hi
    fa = f(a)
    assert fa * f(b) < 0
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if fa * f(mid) <= 0:
            b = mid
        else:
            a, fa = mid, f(mid)
    x = 0.5 * (a + b)
    return x * x / (x * x + z * np.conj(s_load))


# Frozen from the oracle above with z=0.01+0.01j, S=0.5+0.2j p.u.
ORACLE_V1 = 0.9929411729608312 - 0.0030000000000000005j


class TestBuildAdmittance:
    def test_single_branch_by_definition(self):
        br = [Branch(0, 1, 1.0, -2.0, 1.0)]
        y_re, y_im = build_admittance(br, 2)
        assert np.allclose(y_re, [[1, -1], [-1, 1]])
        assert np.allclose(y_im, [[-2, 2], [2, -2]])

    def test_degenerate_single_bus(self):
        y_re, y_im = build_admittance([], 1)
        assert y_re.shape == (1, 1) and not y_re.any() and not y_im.any()

    def test_disconnected_rejected_with_component(self):
        br = [Branch(0, 1, 1.0, -1.0, 1.0)]
        with pytest.raises(GridError, match=r"\[2\]"):
            build_admittance(br, 3)

    def test_out_of_range_bus(self):
        with pytest.raises(GridError, match="outside"):
            build_admittance([Branch(0, 5, 1.0, 0.0, 1.0)], 2)

    def test_paper_topology_98_bus(self):
        from smaspl.scenario import networked_feeder_case

        grid, specs = networked_feeder_case()
        assert grid.n_bus == 98
        assert grid.y_re.shape == (98, 98)
        # per-branch stamping oracle: rebuild Y entry-by-entry
        y = np.zeros((98, 98), dtype=complex)
        for br in grid.branches:
            y[br.from_bus, br.from_bus] += br.y
            y[br.to_bus, br.to_bus] += br.y
            y[br.from_bus, br.to_bus] -= br.y
            y[br.to_bus, br.from_bus] -= br.y
        assert np.max(np.abs(y.real - grid.y_re)) < 1e-12
        assert np.max(np.abs(y.imag - grid.y_im)) < 1e-12
        # each MG couples to the host through exactly one PCC branch
        host = {b.id for b in grid.buses if b.mg_owner is None}
        for mg in range(5):
            own = {b.id for b in grid.buses if b.mg_owner == mg}
            pcc = [br for br in grid.branches
                   if (br.from_bus in host) != (br.to_bus in host)
                   and (br.from_bus in own or br.to_bus in own)]
            assert len(pcc) == 1

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_order_independent(self, rnd):
        branches = [
            Branch(0, 1, 1.0, -2.0, 1.0),
            Branch(1, 2, 2.0, -1.0, 1.0),
            Branch(0, 2, 0.5, -0.5, 1.0),
            Branch(2, 3, 1.5, -2.5, 1.0),
        ]
        shuffled = branches[:]
        rnd.shuffle(shuffled)
        a = build_admittance(branches, 4)
        b = build_admittance(shuffled, 4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestGridModel:
    def test_rejects_two_slacks(self):
        buses = [Bus(0, "slack"), Bus(1, "slack")]
        with pytest.raises(GridError, match="slack"):
            GridModel.from_branches(buses, [Branch(0, 1, 1.0, -1.0, 1.0)])

    def test_rejects_tampered_admittance(self):
        g = two_bus()
        y_re = g.y_re.copy()
        y_re[0, 0] += 1e-6
        with pytest.raises(GridError, match="inconsistent"):
            GridModel(g.buses, g.branches, y_re, g.y_im,
                      g.base_power_kva, g.base_kv)

    def test_bus_voltage_band_invariant(self):
        with pytest.raises(GridError):
            Bus(0, "load", v_min=1.1, v_max=1.0)


class TestPowerFlow:
    def test_no_load_flat_fixed_point(self):
        g = two_bus()
        sol = solve_power_flow(g, [0.0, 0.0], [0.0, 0.0])
        assert sol.converged and sol.iterations == 0
        assert np.array_equal(sol.v_re, [1.0, 1.0])
        assert np.array_equal(sol.v_im, [0.0, 0.0])
        assert not np.any(sol.i_br_re) and not np.any(sol.i_br_im)

    def test_matches_bisection_oracle(self):
        g = two_bus()
        sol = solve_power_flow(g, [0.0, 50.0], [0.0, 20.0])
        assert sol.converged
        v1 = complex(sol.v_re[1], sol.v_im[1])
        assert abs(v1 - ORACLE_V1) < 1e-8
        # and the in-test oracle reproduces the frozen constant
        assert abs(two_bus_voltage_oracle(0.01 + 0.01j, 0.5 + 0.2j)
                   - ORACLE_V1) < 1e-12

    def test_slack_pinned_exactly(self):
        g = two_bus()
        sol = solve_power_flow(g, [0.0, 50.0], [0.0, 20.0])
        assert sol.v_re[0] == 1.0 and sol.v_im[0] == 0.0

    def test_residual_recheck_98_bus(self):
        from smaspl.scenario import networked_feeder_case, nominal_loads_98

        grid, specs = networked_feeder_case()
        p, q = nominal_loads_98(grid, specs)
        sol = solve_power_flow(grid, p, q)
        assert sol.converged
        miss = power_mismatch(grid, sol)
        nonslack = [i for i in range(grid.n_bus) if i != grid.slack]
        assert np.max(np.abs(miss[nonslack])) <= 1e-8
        assert np.all((sol.v_mag > 0.5) & (sol.v_mag < 1.5))

    def test_doubling_load_drops_voltage(self):
        g = two_bus()
        v1 = solve_power_flow(g, [0.0, 30.0], [0.0, 10.0]).v_mag[1]
        v2 = solve_power_flow(g, [0.0, 60.0], [0.0, 20.0]).v_mag[1]
        assert v2 < v1

    def test_nonconvergence_failure_value(self):
        g = two_bus()
        # absurd load far beyond the feeder's transfer capability
        sol = solve_power_flow(g, [0.0, 20000.0], [0.0, 8000.0])
        assert not sol.converged
        assert sol.failure in ("max_iterations", "voltage_collapse")
        assert len(sol.residual_history) >= 1

    def test_singular_jacobian_failure_value(self):
        buses = [Bus(0, "slack"), Bus(1, "load")]
        # zero-admittance branch makes the system matrix singular
        branches = (Branch(0, 1, 0.0, 1e-30, 1.0),)
        g = GridModel.from_branches(buses, branches)
        sol = solve_power_flow(g, [0.0, 50.0], [0.0, 0.0])
        assert not sol.converged
        assert sol.failure in ("singular_jacobian", "voltage_collapse",
                               "max_iterations")
        assert sol.failure is not None

    def test_system_matrix_reduces_at_zero_injection(self):
        g = two_bus()
        J = power_flow_system_matrix(g, np.zeros(2), np.zeros(2),
                                     np.ones(2), np.zeros(2), pin_slack=False)
        expect = np.vstack([
            np.hstack([g.y_re, -g.y_im]),
            np.hstack([g.y_im, g.y_re]),
        ])
        assert np.allclose(J, expect, atol=1e-15)


class TestBranchCurrents:
    def test_pythagorean(self):
        sol = solve_power_flow(two_bus(), [0.0, 0.0], [0.0, 0.0])
        sol.i_br_re = np.array([3.0])
        sol.i_br_im = np.array([4.0])
        assert branch_current_magnitudes(sol) == pytest.approx([5.0])

    def test_zero(self):
        sol = solve_power_flow(two_bus(), [0.0, 0.0], [0.0, 0.0])
        assert np.array_equal(branch_current_magnitudes(sol), [0.0])

    def test_matches_direct_recomputation(self):
        g = two_bus()
        sol = solve_power_flow(g, [0.0, 50.0], [0.0, 20.0])
        v0 = complex(sol.v_re[0], sol.v_im[0])
        v1 = complex(sol.v_re[1], sol.v_im[1])
        expect = abs(g.branches[0].y * (v0 - v1))
        assert branch_current_magnitudes(sol)[0] == pytest.approx(expect, rel=1e-12)


class TestGridFile:
    def test_load_and_units(self, tmp_path):
        text = """
base_power_kva: 100
buses:
  - {id: 0, kind: slack, base_kv: 12.66}
  - {id: 1, kind: load, base_kv: 12.66, v_min: 0.9, v_max: 1.1}
branches:
  - {from: 0, to: 1, r: 160.2756, x: 160.2756, units: ohm, i_max: 2.0}
"""
        path = tmp_path / "grid.yaml"
        path.write_text(text)
        g = load_grid_file(path)
        # 160.2756 ohm at 12.66 kV / 100 kVA is exactly 0.1 p.u.
        z = 1.0 / g.branches[0].y
        assert z.real == pytest.approx(0.1, rel=1e-9)
        assert z.imag == pytest.approx(0.1, rel=1e-9)
        assert g.buses[1].v_min == 0.9

    def test_missing_section(self):
        with pytest.raises(GridError, match="missing"):
            grid_from_dict({"base_power_kva": 100})

    def test_bad_units_flag(self):
        data = {
            "base_power_kva": 100,
            "buses": [{"id": 0, "kind": "slack"}, {"id": 1}],
            "branches": [{"from": 0, "to": 1, "r": 1, "x": 1, "units": "furlong"}],
        }
        with pytest.raises(GridError, match="units"):
            grid_from_dict(data)


class TestSparsePaths:
    """The sparse system matrix and incidence algebra against dense and
    per-branch loop references."""

    @staticmethod
    def grid98():
        return load_grid_file("scenarios/grids/networked_98.yaml")

    @pytest.mark.parametrize("which", ["98-bus", "two-bus"])
    def test_csc_equals_dense_system_matrix(self, which):
        g = self.grid98() if which == "98-bus" else two_bus()
        rng = np.random.default_rng(11)
        n = g.n_bus
        points = [
            (np.zeros(n), np.zeros(n), np.ones(n), np.zeros(n)),
            (rng.normal(size=n), rng.normal(size=n),
             1.0 + 0.05 * rng.normal(size=n), 0.05 * rng.normal(size=n)),
        ]
        for p, q, v_re, v_im in points:
            dense = power_flow_system_matrix(g, p, q, v_re, v_im)
            sparse = power_flow_system_csc(g, p, q, v_re, v_im)
            assert sparse.format == "csc"
            assert np.array_equal(sparse.toarray(), dense)
            s = g.slack
            for k in (s, n + s):
                assert sparse[k, k] == 1.0
                assert sparse[[k], :].count_nonzero() == 1

    def test_incidence_branch_currents_match_loop(self):
        g = self.grid98()
        rng = np.random.default_rng(12)
        p_kw = np.abs(rng.normal(20.0, 5.0, g.n_bus))
        sol = solve_power_flow(g, p_kw, 0.3 * p_kw)
        assert sol.converged
        v = sol.v_re + 1j * sol.v_im
        loop = np.array([br.y * (v[br.from_bus] - v[br.to_bus])
                         for br in g.branches])
        assert np.array_equal(sol.i_br_re, loop.real)
        assert np.array_equal(sol.i_br_im, loop.imag)

    def test_exactly_singular_newton_step(self):
        # bus 1 hangs on a zero-admittance branch: its rows of the system
        # matrix are exactly zero, which SuperLU reports as singular
        buses = [Bus(0, "slack"), Bus(1, "load"), Bus(2, "load")]
        branches = (Branch(0, 1, 0.0, 0.0, 1.0),
                    Branch.from_impedance(0, 2, 0.01, 0.01, 10.0))
        g = GridModel.from_branches(buses, branches)
        sol = solve_power_flow(g, [0.0, 0.0, 50.0], [0.0, 0.0, 20.0])
        assert not sol.converged
        assert sol.failure == "singular_jacobian"


class TestStackedNewton:
    """solve_power_flow_stack against a loop of one-point solves."""

    @staticmethod
    def assert_same_points(g, p, q):
        from smaspl.grid import solve_power_flow_stack
        stack = solve_power_flow_stack(g, p, q)
        assert len(stack) == len(p)
        for b in range(len(p)):
            one = solve_power_flow(g, p[b], q[b])
            got = stack.point(b)
            assert got.converged == one.converged
            assert got.iterations == one.iterations
            assert got.failure == one.failure
            assert len(got.residual_history) == len(one.residual_history)
            # residuals near convergence are rounding noise
            np.testing.assert_allclose(got.residual_history,
                                       one.residual_history, rtol=1e-6,
                                       atol=1e-10)
            if one.converged:
                for name in ("v_re", "v_im", "i_br_re", "i_br_im"):
                    np.testing.assert_allclose(getattr(got, name),
                                               getattr(one, name),
                                               rtol=1e-10, atol=1e-14)
        return stack

    def test_mixed_stack_matches_one_point_solves(self):
        g = load_grid_file("scenarios/grids/networked_98.yaml")
        rng = np.random.default_rng(31)
        p = np.abs(rng.normal(20.0, 5.0, (6, g.n_bus)))
        q = 0.3 * p
        p[2] *= 400.0                       # far beyond the feeder's capacity
        stack = self.assert_same_points(g, p, q)
        assert not stack.converged[2]
        assert stack.converged[[0, 1, 3, 4, 5]].all()
        assert len({int(i) for i in stack.iterations}) >= 2

    def test_exactly_singular_block_fails_only_its_point(self):
        # at the flat start the column of v_re[1] is
        # (G - p, B + q) = (0.5 - p, -0.25 + q) in p.u.: exactly zero at
        # 50 kW / 25 kvar on a 100 kVA base
        buses = [Bus(0, "slack"), Bus(1, "load")]
        g = GridModel.from_branches(buses, [Branch(0, 1, 0.5, -0.25, 10.0)])
        p = np.array([[0.0, 5.0], [0.0, 50.0], [0.0, 10.0]])
        q = np.array([[0.0, 2.0], [0.0, 25.0], [0.0, 4.0]])
        stack = self.assert_same_points(g, p, q)
        assert stack.failure == [None, "singular_jacobian", None]
        assert stack.converged.tolist() == [True, False, True]
        assert stack.iterations[1] == 0 and stack.iterations[0] > 0

    def test_shape_is_checked(self):
        from smaspl.grid import solve_power_flow_stack
        g = two_bus()
        with pytest.raises(GridError, match="shape"):
            solve_power_flow_stack(g, np.zeros(2), np.zeros(2))
