"""Network model and power-flow tests, checked against independent oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaspl.grid import (
    Branch,
    Bus,
    GridError,
    GridModel,
    PowerFlowStack,
    power_flow_system_matrix,
    power_mismatch,
    solve_power_flow,
)
from smaspl.microgrid import network_observables
from smaspl.scenario import (ScenarioError, load_grid_file, load_scenario,
                             nominal_loads_98)


GRID_FILES = ["five_mg_binding.yaml", "five_mg_feasible.yaml",
              "networked_98.yaml", "tiny.yaml", "two_mg.yaml"]


def two_bus(r=0.01, x=0.01):
    buses = [Bus(0, "slack"), Bus(1, "load")]
    branches = [Branch.from_impedance(0, 1, r, x, 10.0)]
    return GridModel(buses, branches)


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


def stamped_admittance(grid):
    """Per-branch stamping oracle: Y rebuilt entry by entry, in branch
    order."""
    y = np.zeros((grid.n_bus, grid.n_bus), dtype=complex)
    for br in grid.branches:
        y[br.from_bus, br.from_bus] += br.y
        y[br.to_bus, br.to_bus] += br.y
        y[br.from_bus, br.to_bus] -= br.y
        y[br.to_bus, br.from_bus] -= br.y
    return y


# the shipped grid files, all radial
GRIDS = ["five_mg_binding", "five_mg_feasible", "networked_98", "tiny",
         "two_mg"]


def grid_of(n, branches):
    """Buses 0..n-1, slack at 0, joined by branches."""
    return GridModel([Bus(0, "slack")] + [Bus(i) for i in range(1, n)],
                     branches)


class TestBuildAdmittance:
    """The sparse admittance GridModel derives from its branch list."""

    def test_single_branch_by_definition(self):
        g = grid_of(2, [Branch(0, 1, 1.0, -2.0, 1.0)])
        assert g.y_bus.format == "csr"
        assert np.array_equal(g.y_bus.toarray(),
                              [[1 - 2j, -1 + 2j], [-1 + 2j, 1 - 2j]])

    def test_degenerate_single_bus(self):
        g = grid_of(1, [])
        assert g.y_bus.shape == (1, 1) and g.y_bus.nnz == 0

    def test_disconnected_rejected_with_component(self):
        br = [Branch(0, 1, 1.0, -1.0, 1.0)]
        with pytest.raises(GridError, match=r"\[\[2\]\]"):
            grid_of(3, br)
        br += [Branch(3, 4, 1.0, -1.0, 1.0)]
        with pytest.raises(GridError, match=r"\[\[2\], \[3, 4\]\]"):
            grid_of(5, br)

    def test_out_of_range_bus(self):
        with pytest.raises(GridError, match="branch 0-5: bus 5 outside 0..1"):
            grid_of(2, [Branch(0, 5, 1.0, 0.0, 1.0)])

    @pytest.mark.parametrize("which", GRIDS)
    def test_equals_stamping_oracle(self, which):
        grid = load_grid_file(f"scenarios/grids/{which}.yaml")
        assert np.array_equal(grid.y_bus.toarray(), stamped_admittance(grid))

    def test_paper_topology_98_bus(self):
        case = load_scenario("scenarios/paper98.yaml")
        grid, specs = case.grid, case.specs
        assert grid.n_bus == 98
        assert grid.y_bus.shape == (98, 98)
        assert grid.y_bus.nnz == 98 + 2 * grid.n_branch
        # each MG couples to the host through exactly one PCC branch
        host = {b.id for b in grid.buses if b.mg_owner is None}
        for mg in range(5):
            own = {b.id for b in grid.buses if b.mg_owner == mg}
            pcc = [br for br in grid.branches
                   if (br.from_bus in host) != (br.to_bus in host)
                   and (br.from_bus in own or br.to_bus in own)]
            assert len(pcc) == 1
            assert specs[mg].bus_map.pcc_mg in own
            assert specs[mg].bus_map.pcc_host in host

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
        a = grid_of(4, branches).y_bus.toarray()
        b = grid_of(4, shuffled).y_bus.toarray()
        assert np.array_equal(a, b)


class TestGridModel:
    def test_rejects_two_slacks(self):
        buses = [Bus(0, "slack"), Bus(1, "slack")]
        with pytest.raises(GridError, match="slack"):
            GridModel(buses, [Branch(0, 1, 1.0, -1.0, 1.0)])

    def test_rejects_bad_ids_and_bases(self):
        br = [Branch(0, 1, 1.0, -1.0, 1.0)]
        with pytest.raises(GridError, match="bus ids"):
            GridModel([Bus(0, "slack"), Bus(2)], br)
        with pytest.raises(GridError, match="base_power_kva"):
            GridModel([Bus(0, "slack"), Bus(1)], br, 0.0)

    def test_defaults_and_derived_facts(self):
        g = GridModel([Bus(0), Bus(1, "slack")],
                      [Branch.from_impedance(0, 1, 0.01, 0.01, 10.0)])
        assert isinstance(g.buses, tuple) and isinstance(g.branches, tuple)
        assert g.base_power_kva == 100.0
        assert g.slack == 1 and g.nonslack.tolist() == [0]
        # replacing the branches re-derives every topology fact
        h = replace(g, branches=[Branch(1, 0, 2.0, -1.0, 10.0)])
        assert np.array_equal(h.y_bus.toarray(), stamped_admittance(h))
        assert h.branch_lookup[(0, 1)] == (0, -1.0)

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
        case = load_scenario("scenarios/paper98.yaml")
        grid = case.grid
        p, q = nominal_loads_98(grid, case.specs)
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
        g = GridModel(buses, branches)
        sol = solve_power_flow(g, [0.0, 50.0], [0.0, 0.0])
        assert not sol.converged
        assert sol.failure in ("singular_jacobian", "voltage_collapse",
                               "max_iterations")
        assert sol.failure is not None

    def test_system_matrix_reduces_at_zero_injection(self):
        g = two_bus()
        J = power_flow_system_matrix(g, np.zeros(2), np.zeros(2),
                                     np.ones(2), np.zeros(2))
        y = stamped_admittance(g)
        expect = np.vstack([
            np.hstack([y.real, -y.imag]),
            np.hstack([y.imag, y.real]),
        ])
        pinned = [g.slack, g.n_bus + g.slack]
        rest = np.setdiff1d(np.arange(2 * g.n_bus), pinned)
        assert np.allclose(J[np.ix_(rest, rest)], expect[np.ix_(rest, rest)],
                           atol=1e-15)
        for k in pinned:
            assert np.array_equal(J[k], np.eye(2 * g.n_bus)[k])
            assert np.array_equal(J[:, k], np.eye(2 * g.n_bus)[:, k])


def current_magnitudes(g, sol):
    """|I_ij| per branch, as the constraint returns read it."""
    return network_observables(g, PowerFlowStack.of([sol]), []).i_mag[0]


class TestBranchCurrents:
    def test_pythagorean(self):
        sol = solve_power_flow(two_bus(), [0.0, 0.0], [0.0, 0.0])
        sol.i_br_re = np.array([3.0])
        sol.i_br_im = np.array([4.0])
        assert current_magnitudes(two_bus(), sol) == \
            pytest.approx([5.0])

    def test_zero(self):
        g = two_bus()
        sol = solve_power_flow(g, [0.0, 0.0], [0.0, 0.0])
        assert np.array_equal(current_magnitudes(g, sol), [0.0])

    def test_matches_direct_recomputation(self):
        g = two_bus()
        sol = solve_power_flow(g, [0.0, 50.0], [0.0, 20.0])
        v0 = complex(sol.v_re[0], sol.v_im[0])
        v1 = complex(sol.v_re[1], sol.v_im[1])
        expect = abs(g.branches[0].y * (v0 - v1))
        assert current_magnitudes(g, sol)[0] == \
            pytest.approx(expect, rel=1e-12)


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

    def test_missing_section(self, tmp_path):
        path = tmp_path / "grid.yaml"
        path.write_text("base_power_kva: 100\n")
        with pytest.raises(ScenarioError,
                           match="missing required key 'buses'"):
            load_grid_file(path)

    def test_bad_units_flag(self, tmp_path):
        path = tmp_path / "grid.yaml"
        path.write_text("""
base_power_kva: 100
buses: [{id: 0, kind: slack}, {id: 1}]
branches: [{from: 0, to: 1, r: 1, x: 1, units: furlong}]
""")
        with pytest.raises(ScenarioError, match=r"branches\[0\]\.units"):
            load_grid_file(path)


    @pytest.mark.parametrize("name", GRID_FILES)
    def test_grid_is_a_value(self, name):
        # equality and hash read the buses, branches and power base alone
        g, h = (load_grid_file(f"scenarios/grids/{name}") for _ in range(2))
        assert g is not h
        assert g == h and hash(g) == hash(h)
        assert replace(g) == g


class TestSparsePaths:
    """The incidence algebra against a per-branch loop, and an exactly
    singular Newton step."""

    @staticmethod
    def grid98():
        return load_grid_file("scenarios/grids/networked_98.yaml")

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
        # matrix are exactly zero, a zero pivot of the tree elimination
        buses = [Bus(0, "slack"), Bus(1, "load"), Bus(2, "load")]
        branches = (Branch(0, 1, 0.0, 0.0, 1.0),
                    Branch.from_impedance(0, 2, 0.01, 0.01, 10.0))
        g = GridModel(buses, branches)
        sol = solve_power_flow(g, [0.0, 0.0, 50.0], [0.0, 0.0, 20.0])
        assert not sol.converged
        assert sol.failure == "singular_jacobian"


class TestStackedNewton:
    """solve_power_flow_stack against a loop of one-point solves, which
    it matches bit for bit."""

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
            assert got.residual_history == one.residual_history
            for name in ("v_re", "v_im", "i_br_re", "i_br_im"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(one, name))
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
        g = GridModel(buses, [Branch(0, 1, 0.5, -0.25, 10.0)])
        p = np.array([[0.0, 5.0], [0.0, 50.0], [0.0, 10.0]])
        q = np.array([[0.0, 2.0], [0.0, 25.0], [0.0, 4.0]])
        stack = self.assert_same_points(g, p, q)
        assert stack.failure == [None, "singular_jacobian", None]
        assert stack.converged.tolist() == [True, False, True]
        assert stack.iterations[1] == 0 and stack.iterations[0] > 0

    def test_solution_does_not_depend_on_stack_size(self):
        # a training stack of 16 draws x T = 4 steps on paper98
        g = load_grid_file("scenarios/grids/networked_98.yaml")
        rng = np.random.default_rng(5)
        p = np.abs(rng.normal(20.0, 5.0, (64, g.n_bus)))
        assert self.assert_same_points(g, p, 0.3 * p).converged.all()

    def test_shape_is_checked(self):
        from smaspl.grid import solve_power_flow_stack
        g = two_bus()
        with pytest.raises(GridError, match="shape"):
            solve_power_flow_stack(g, np.zeros(2), np.zeros(2))


def operating_points(rng, n, points, load=1.0):
    """(p, q, v_re, v_im) of random operating points near a flat start,
    with loads of about `load` p.u."""
    return (load * rng.normal(size=(points, n)),
            load * rng.normal(size=(points, n)),
            1.0 + 0.05 * rng.normal(size=(points, n)),
            0.05 * rng.normal(size=(points, n)))


def dense_solve(g, p, q, v_re, v_im, rhs):
    """The dense path of solve_system_stack, whatever the grid."""
    from smaspl.grid import _solve_dense
    return _solve_dense(g, p, q, v_re, v_im, rhs)


def unit_columns(rng, g, points):
    """Unit columns (bus, value) for solve_unit_columns: two on one bus,
    one on that bus's parent (on the first two's path), one at the slack
    and three at random buses, with random complex values."""
    buses = [g.slack] + list(rng.integers(g.n_bus, size=3))
    tree = g.tree
    if tree is not None:
        m = tree.order.size
        below = np.flatnonzero(tree.parent < m)     # buses with a parent
        k = int(rng.choice(below)) if below.size else int(rng.integers(m))
        buses += [tree.order[k], tree.order[k]]
        if below.size:
            buses.append(tree.order[tree.parent[k]])
    bus = np.array(buses)
    return bus, (rng.normal(size=(points, bus.size))
                 + 1j * rng.normal(size=(points, bus.size)))


def unit_rhs(g, bus, value):
    """The dense right-hand side (B, 2n, K) of unit columns, with the
    slack rows pinned to zero."""
    n = g.n_bus
    rhs = np.zeros((len(value), 2 * n, bus.size))
    col = np.arange(bus.size)
    rhs[:, bus, col] = value.real
    rhs[:, n + bus, col] = value.imag
    rhs[:, [g.slack, n + g.slack]] = 0.0
    return rhs


def assert_unit_columns_match_tree(g, op, bus, value):
    """solve_unit_columns against _solve_tree on the same columns as a
    dense right-hand side: bit-equal, the same mask.  Returns both."""
    from smaspl.grid import _solve_tree, solve_unit_columns
    n = g.n_bus
    x, solved = solve_unit_columns(g, *op, bus, value)
    want, want_solved = _solve_tree(g, *op, unit_rhs(g, bus, value))
    assert x.shape == (len(value), n, bus.size)
    assert np.array_equal(solved, want_solved)
    assert np.array_equal(x.real, want[:, :n], equal_nan=True)
    assert np.array_equal(x.imag, want[:, n:], equal_nan=True)
    # the slack's voltage and a column at the slack are zero
    assert not x[solved][:, g.slack].any()
    assert not x[solved][..., bus == g.slack].any()
    return x, solved


def random_radial_grid(rng, n):
    """n buses joined by a random tree (each bus after the first hangs on
    an earlier one), relabelled at random, slack anywhere, branch
    directions and order shuffled; line impedances of 0.01-0.1 p.u."""
    label = rng.permutation(n)
    pairs = [(label[i], label[rng.integers(i)]) for i in range(1, n)]
    branches = [Branch.from_impedance(*(pair if rng.random() < 0.5
                                        else pair[::-1]),
                                      rng.uniform(0.01, 0.1),
                                      rng.uniform(0.01, 0.1), 10.0)
                for pair in pairs]
    slack = int(rng.integers(n))
    buses = [Bus(i, "slack" if i == slack else "load") for i in range(n)]
    return GridModel(buses, [branches[k] for k in rng.permutation(n - 1)])


def assert_schedule_invariants(g):
    """Every non-slack bus once, parents in earlier levels, children and
    branch entries consistent with the parents, and no more levels than
    the deepest component's radius + 1 (its centre as the root)."""
    import scipy.sparse
    import scipy.sparse.csgraph
    tree, m = g.tree, g.n_bus - 1
    assert sorted(tree.order.tolist()) == g.nonslack.tolist()
    assert tree.levels[0][0] == 0 and tree.levels[-1][1] == m
    level = np.empty(m + 1, dtype=int)
    level[m] = -1
    for depth, (lo, hi) in enumerate(tree.levels):
        assert lo < hi or m == 0
        level[lo:hi] = depth
    assert all(b[0] == a[1] for a, b in zip(tree.levels, tree.levels[1:]))
    roots = tree.parent == m
    assert (level[tree.parent[~roots]] == level[:m][~roots] - 1).all()
    assert (level[:m][roots] == 0).all() and not tree.y_parent[roots].any()
    y = g.y_bus.toarray()
    bus = tree.order
    assert np.array_equal(tree.y_diag, np.diag(y)[bus])
    assert np.array_equal(tree.y_parent[~roots],
                          y[bus[~roots], bus[tree.parent[~roots]]])
    for (lo, hi), kids in zip(tree.levels, tree.children):
        for k in range(lo, hi):
            got = sorted(c for c in kids[k - lo].tolist() if c != m)
            assert got == np.flatnonzero(tree.parent == k).tolist()
    keep = (g.branch_from != g.slack) & (g.branch_to != g.slack)
    pos = np.empty(g.n_bus, dtype=int)
    pos[g.nonslack] = np.arange(m)
    links = scipy.sparse.csr_matrix(
        (np.ones(keep.sum()), (pos[g.branch_from[keep]],
                               pos[g.branch_to[keep]])), shape=(m, m))
    dist = scipy.sparse.csgraph.shortest_path(links, directed=False,
                                              unweighted=True)
    ecc = np.where(np.isfinite(dist), dist, -1).max(axis=1)
    _, label = scipy.sparse.csgraph.connected_components(links,
                                                         directed=False)
    radius = max(ecc[label == c].min() for c in np.unique(label))
    assert len(tree.levels) == radius + 1


class TestTreeElimination:
    """solve_system_stack: tree elimination on radial grids against the
    dense LU solve of the same matrices, and the dense solve on meshed
    grids."""

    @pytest.mark.parametrize("columns", [None, 25])
    @pytest.mark.parametrize("points", [1, 4, 64])
    @pytest.mark.parametrize("which", GRIDS)
    def test_matches_superlu(self, which, points, columns):
        # the reference was SuperLU's and is now the dense LU solve
        from smaspl.grid import solve_system_stack
        g = load_grid_file(f"scenarios/grids/{which}.yaml")
        assert g.tree is not None
        rng = np.random.default_rng(points * 7 + (columns or 1))
        op = operating_points(rng, g.n_bus, points)
        shape = (points, 2 * g.n_bus) + ((columns,) if columns else ())
        rhs = rng.normal(size=shape)
        x, solved = solve_system_stack(g, *op, rhs)
        want, want_solved = dense_solve(g, *op, rhs)
        assert x.shape == rhs.shape
        assert solved.all() and want_solved.all()
        np.testing.assert_allclose(x, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("points", [1, 4, 64])
    @pytest.mark.parametrize("which", GRIDS)
    def test_unit_columns(self, which, points):
        # the path sweep against the full elimination and dense LU
        g = load_grid_file(f"scenarios/grids/{which}.yaml")
        rng = np.random.default_rng(points * 11)
        op = operating_points(rng, g.n_bus, points)
        bus, value = unit_columns(rng, g, points)
        x, solved = assert_unit_columns_match_tree(g, op, bus, value)
        want, _ = dense_solve(g, *op, unit_rhs(g, bus, value))
        assert solved.all()
        n = g.n_bus
        for part, ref in ((x.real, want[:, :n]), (x.imag, want[:, n:])):
            np.testing.assert_allclose(part, ref, rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    def test_unit_columns_leave_a_zero_pivot_unsolved(self):
        # bus 1 hangs on a zero-admittance branch: at zero load its rows
        # are exactly zero, a zero pivot in the middle point only
        buses = [Bus(0, "slack"), Bus(1, "load"), Bus(2, "load"),
                 Bus(3, "load")]
        g = GridModel(buses, [Branch(0, 1, 0.0, 0.0, 1.0),
                              Branch.from_impedance(0, 2, 0.01, 0.01, 10.0),
                              Branch.from_impedance(2, 3, 0.02, 0.01, 10.0)])
        rng = np.random.default_rng(6)
        op = operating_points(rng, 4, 3)
        op[0][1, 1] = op[1][1, 1] = 0.0
        bus, value = unit_columns(rng, g, 3)
        x, solved = assert_unit_columns_match_tree(g, op, bus, value)
        assert solved.tolist() == [True, False, True]
        assert np.isnan(x[1].real).all() and np.isnan(x[1].imag).all()
        assert not np.isnan(x[[0, 2]]).any()

    def test_unit_columns_on_a_meshed_grid(self):
        from smaspl.grid import solve_unit_columns
        g = grid_of(4, [Branch.from_impedance(i, (i + 1) % 4, 0.02, 0.04,
                                              10.0) for i in range(4)])
        assert g.tree is None
        rng = np.random.default_rng(8)
        op = operating_points(rng, 4, 3)
        bus, value = unit_columns(rng, g, 3)
        x, solved = solve_unit_columns(g, *op, bus, value)
        want, _ = dense_solve(g, *op, unit_rhs(g, bus, value))
        assert solved.all()
        assert np.array_equal(x.real, want[:, :4])
        assert np.array_equal(x.imag, want[:, 4:])

    def test_meshed_ring_goes_through_superlu(self, monkeypatch):
        # the meshed path was SuperLU's and is now the dense LU solve
        import smaspl.grid as grid_mod
        g = grid_of(4, [Branch.from_impedance(i, (i + 1) % 4, 0.02, 0.04,
                                              10.0) for i in range(4)])
        assert g.tree is None
        calls = []
        dense = grid_mod._solve_dense
        monkeypatch.setattr(grid_mod, "_solve_dense",
                            lambda *a: calls.append(1) or dense(*a))
        monkeypatch.setattr(grid_mod, "_solve_tree", None)
        rng = np.random.default_rng(3)
        op = operating_points(rng, 4, 3)
        rhs = rng.normal(size=(3, 8, 2))
        rhs[:, [0, 4]] = 0.0                # slack rows pinned
        x, solved = grid_mod.solve_system_stack(g, *op, rhs)
        assert calls == [1] and solved.all()
        for b in range(3):
            matrix = power_flow_system_matrix(g, *(a[b] for a in op))
            np.testing.assert_allclose(x[b], np.linalg.solve(matrix, rhs[b]),
                                       rtol=1e-12, atol=1e-12)
            one, _ = grid_mod.solve_system_stack(
                g, *(a[b:b + 1] for a in op), rhs[b:b + 1])
            assert np.array_equal(one[0], x[b])     # stack size: bit-equal

    def test_meshed_singular_point_stays_unsolved(self):
        # a ring 0-1-2-0 and bus 3 on a zero-admittance branch: bus 3's
        # rows hold only its load partials, exactly zero at zero load
        from smaspl.grid import solve_system_stack
        ring = [Branch.from_impedance(i, (i + 1) % 3, 0.02, 0.04, 10.0)
                for i in range(3)]
        g = grid_of(4, ring + [Branch(2, 3, 0.0, 0.0, 1.0)])
        assert g.tree is None
        rng = np.random.default_rng(4)
        op = operating_points(rng, 4, 3)
        op[0][1, 3] = op[1][1, 3] = 0.0     # the middle point: no load
        rhs = rng.normal(size=(3, 8, 2))
        x, solved = solve_system_stack(g, *op, rhs)
        assert solved.tolist() == [True, False, True]
        assert np.isnan(x[1]).all()
        for b in (0, 2):
            one, one_solved = solve_system_stack(
                g, *(a[b:b + 1] for a in op), rhs[b:b + 1])
            assert one_solved.all() and np.array_equal(one[0], x[b])

    @pytest.mark.parametrize("which", GRIDS)
    def test_schedule_invariants(self, which):
        assert_schedule_invariants(
            load_grid_file(f"scenarios/grids/{which}.yaml"))

    def test_paper_feeder_has_17_levels(self):
        g = load_grid_file("scenarios/grids/networked_98.yaml")
        assert len(g.tree.levels) == 17

    @given(st.integers(2, 60), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_trees(self, n, seed):
        from smaspl.grid import solve_power_flow_stack, solve_system_stack
        rng = np.random.default_rng(seed)
        g = random_radial_grid(rng, n)
        assert_schedule_invariants(g)
        # arbitrary voltages under light loads, and the power-flow
        # solutions of loads up to twice the base, where the sensitivity
        # systems are solved.  The elimination does not pivot: arbitrary
        # voltages under loads near 1 p.u. can make a subtree's pivot
        # nearly singular, and its error then grows past LU with partial
        # pivoting.
        p_kw = rng.uniform(0.0, 200.0, (3, n))
        pf = solve_power_flow_stack(g, p_kw, 0.3 * p_kw)
        solved_pf = (pf.p_load_pu, pf.q_load_pu, pf.v_re, pf.v_im)
        op = tuple(np.concatenate([light, at_pf[pf.converged]])
                   for light, at_pf in zip(
                       operating_points(rng, n, 5, load=0.1), solved_pf))
        points = len(op[0])
        rhs = rng.normal(size=(points, 2 * n, 3))
        x, solved = solve_system_stack(g, *op, rhs)
        want, _ = dense_solve(g, *op, rhs)
        assert solved.all()
        for b in range(points):
            # a long random feeder is worse conditioned than the shipped
            # ones: allow the forward error of one rounding, cond * eps
            cond = np.linalg.cond(power_flow_system_matrix(
                g, *(a[b] for a in op)))
            np.testing.assert_allclose(
                x[b], want[b], rtol=0,
                atol=cond * np.finfo(float).eps * np.abs(want[b]).max())
            one, _ = solve_system_stack(g, *(a[b:b + 1] for a in op),
                                        rhs[b:b + 1])
            assert np.array_equal(one[0], x[b])     # stack size: bit-equal
        # unit columns: the path sweep is the elimination bit for bit, so
        # within the same bound of the dense solve
        bus, value = unit_columns(rng, g, points)
        xu, _ = assert_unit_columns_match_tree(g, op, bus, value)
        want, _ = dense_solve(g, *op, unit_rhs(g, bus, value))
        for b in range(points):
            cond = np.linalg.cond(power_flow_system_matrix(
                g, *(a[b] for a in op)))
            np.testing.assert_allclose(
                np.concatenate([xu[b].real, xu[b].imag]), want[b], rtol=0,
                atol=cond * np.finfo(float).eps * np.abs(want[b]).max())
