"""Distribution network model and rectangular-coordinate AC power flow.

The network couples a host feeder with the internal networks of several
microgrids into one nodal model.  Loads follow the consumption-positive
convention: at every bus the net load (p, q) draws the current

    I_load^Re = (p*V^Re + q*V^Im) / |V|^2
    I_load^Im = (p*V^Im - q*V^Re) / |V|^2

and the nodal balance is Y*V + I_load(V) = 0, so the slack bus supplies
the system.  All electrical quantities are per-unit; kW/kvar appear only
at the API boundary.

Everything here is a pure function of immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
import yaml

__all__ = [
    "Bus",
    "Branch",
    "GridModel",
    "PowerFlowSolution",
    "PowerFlowStack",
    "GridError",
    "build_admittance",
    "solve_power_flow",
    "solve_power_flow_stack",
    "branch_current_magnitudes",
    "power_mismatch",
    "load_current_voltage_jacobian",
    "power_flow_system_matrix",
    "power_flow_system_csc",
    "power_flow_system_values",
    "system_block_diagonal",
    "solve_system_stack",
    "load_grid_file",
    "grid_from_dict",
]


class GridError(ValueError):
    """Invalid network description (topology, parameters, or file contents)."""


@dataclass(frozen=True)
class Bus:
    """One network node.

    kind is "slack" (voltage reference, exactly one per network) or "load".
    mg_owner tags buses that belong to a microgrid's internal network.
    """

    id: int
    kind: str = "load"
    v_min: float = 0.95
    v_max: float = 1.05
    mg_owner: int | None = None

    def __post_init__(self):
        if self.kind not in ("slack", "load"):
            raise GridError(f"bus {self.id}: unknown kind {self.kind!r}")
        if not (0.0 < self.v_min < self.v_max):
            raise GridError(
                f"bus {self.id}: voltage band must satisfy 0 < v_min < v_max, "
                f"got [{self.v_min}, {self.v_max}]"
            )


@dataclass(frozen=True)
class Branch:
    """Series element between two buses with admittance y = y_re + j*y_im (p.u.)."""

    from_bus: int
    to_bus: int
    y_re: float
    y_im: float
    i_max: float

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise GridError(f"branch {self.from_bus}-{self.to_bus}: self-loop")
        if not (np.isfinite(self.y_re) and np.isfinite(self.y_im)):
            raise GridError(
                f"branch {self.from_bus}-{self.to_bus}: non-finite admittance"
            )
        if self.i_max <= 0:
            raise GridError(
                f"branch {self.from_bus}-{self.to_bus}: i_max must be > 0"
            )

    @property
    def y(self) -> complex:
        return complex(self.y_re, self.y_im)

    @classmethod
    def from_impedance(cls, from_bus, to_bus, r, x, i_max):
        z = complex(r, x)
        if z == 0:
            raise GridError(f"branch {from_bus}-{to_bus}: zero impedance")
        y = 1.0 / z
        return cls(from_bus, to_bus, y.real, y.imag, i_max)


def _connected_components(n_bus: int, branches) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n_bus)]
    for br in branches:
        adj[br.from_bus].append(br.to_bus)
        adj[br.to_bus].append(br.from_bus)
    seen = [False] * n_bus
    comps = []
    for start in range(n_bus):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def build_admittance(branches, n_bus: int) -> tuple[np.ndarray, np.ndarray]:
    """Assemble dense nodal admittance matrices (real, imag) from branches.

    Diagonal entries are the sum of incident branch admittances, the
    (i, j) off-diagonal is -y_ij.  Rejects out-of-range endpoints and
    disconnected topologies (naming the stranded component).
    """
    y_re = np.zeros((n_bus, n_bus))
    y_im = np.zeros((n_bus, n_bus))
    for br in branches:
        for b in (br.from_bus, br.to_bus):
            if not (0 <= b < n_bus):
                raise GridError(
                    f"branch {br.from_bus}-{br.to_bus}: bus {b} outside 0..{n_bus - 1}"
                )
        i, j = br.from_bus, br.to_bus
        y_re[i, i] += br.y_re
        y_re[j, j] += br.y_re
        y_re[i, j] -= br.y_re
        y_re[j, i] -= br.y_re
        y_im[i, i] += br.y_im
        y_im[j, j] += br.y_im
        y_im[i, j] -= br.y_im
        y_im[j, i] -= br.y_im
    comps = _connected_components(n_bus, branches)
    if len(comps) > 1:
        stranded = [c for c in comps if 0 not in c]
        raise GridError(
            f"network is disconnected: isolated component(s) {stranded}"
        )
    return y_re, y_im


def _system_template(n: int, slack: int, nonslack: np.ndarray, branches,
                     y_re: np.ndarray, y_im: np.ndarray) -> tuple:
    """power_flow_system_matrix at zero load, slack pinned, as a CSC
    matrix that also stores every non-slack diagonal entry, and the
    positions in its data of the four block diagonals (re-re, re-im,
    im-re, im-im), where the load partials add on."""
    pairs = {(b, b) for b in nonslack.tolist()}
    for br in branches:
        if slack not in (br.from_bus, br.to_bus):
            pairs |= {(br.from_bus, br.to_bus), (br.to_bus, br.from_bus)}
    i, j = np.array(sorted(pairs), dtype=int).reshape(-1, 2).T
    blocks = ((0, 0, y_re), (0, 1, -y_im), (1, 0, y_im), (1, 1, y_re))
    pinned = [slack, n + slack]
    rows = np.concatenate([r * n + i for r, _, _ in blocks] + [pinned])
    cols = np.concatenate([c * n + j for _, c, _ in blocks] + [pinned])
    vals = np.concatenate([y[i, j] for _, _, y in blocks] + [[1.0, 1.0]])
    order = np.lexsort((rows, cols))        # by column, rows ascending
    rows, cols, vals = rows[order], cols[order], vals[order]
    slot = np.full((2 * n, 2 * n), -1)
    slot[rows, cols] = np.arange(rows.size)
    diag = tuple(slot[r * n + nonslack, c * n + nonslack]
                 for r, c, _ in blocks)
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(cols, minlength=2 * n))])
    template = scipy.sparse.csc_matrix((vals, rows, indptr),
                                       shape=(2 * n, 2 * n))
    return template, diag


@dataclass(frozen=True)
class GridModel:
    """Immutable network: buses, branches, admittance, and per-unit bases.

    base_kv holds the voltage base of each bus's zone; base_power_kva is
    the common power base.  The remaining attributes are topology facts
    derived once from the branch list: the complex admittance y_bus, the
    branch-bus incidence as (branch_from, branch_to) bus indices with the
    branch admittances branch_y, branch_lookup mapping an ordered bus
    pair to (branch index, +1 along / -1 against the branch direction),
    and the sparse template of the power-flow system matrix.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    y_re: np.ndarray
    y_im: np.ndarray
    base_power_kva: float
    base_kv: np.ndarray
    y_bus: np.ndarray = field(init=False, repr=False, compare=False)
    branch_from: np.ndarray = field(init=False, repr=False, compare=False)
    branch_to: np.ndarray = field(init=False, repr=False, compare=False)
    branch_y: np.ndarray = field(init=False, repr=False, compare=False)
    branch_lookup: dict = field(init=False, repr=False, compare=False)
    nonslack: np.ndarray = field(init=False, repr=False, compare=False)
    system_template: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.buses)
        slack = [b.id for b in self.buses if b.kind == "slack"]
        if len(slack) != 1:
            raise GridError(f"need exactly one slack bus, found {slack}")
        if sorted(b.id for b in self.buses) != list(range(n)):
            raise GridError("bus ids must be 0..n-1 without gaps")
        if self.base_power_kva <= 0:
            raise GridError("base_power_kva must be positive")
        if len(self.base_kv) != n:
            raise GridError("base_kv must have one entry per bus")
        y_re, y_im = build_admittance(self.branches, n)
        if (np.max(np.abs(y_re - self.y_re), initial=0.0) > 1e-12
                or np.max(np.abs(y_im - self.y_im), initial=0.0) > 1e-12):
            raise GridError("stored admittance inconsistent with branch list")
        if (np.max(np.abs(self.y_re - self.y_re.T), initial=0.0) > 1e-12
                or np.max(np.abs(self.y_im - self.y_im.T), initial=0.0) > 1e-12):
            raise GridError("admittance matrix must be symmetric")
        s = slack[0]
        nonslack = np.array([i for i in range(n) if i != s], dtype=int)
        lookup: dict = {}
        for k, br in enumerate(self.branches):
            lookup.setdefault((br.from_bus, br.to_bus), (k, +1.0))
            lookup.setdefault((br.to_bus, br.from_bus), (k, -1.0))
        derived = {
            "y_bus": self.y_re + 1j * self.y_im,
            "branch_from": np.array([br.from_bus for br in self.branches],
                                    dtype=int),
            "branch_to": np.array([br.to_bus for br in self.branches],
                                  dtype=int),
            "branch_y": np.array([br.y for br in self.branches],
                                 dtype=complex),
            "branch_lookup": lookup,
            "nonslack": nonslack,
            "system_template": _system_template(n, s, nonslack,
                                                self.branches, self.y_re,
                                                self.y_im),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_branches(cls, buses, branches, base_power_kva=100.0, base_kv=None):
        buses = tuple(buses)
        branches = tuple(branches)
        y_re, y_im = build_admittance(branches, len(buses))
        if base_kv is None:
            base_kv = np.ones(len(buses))
        return cls(buses, branches, y_re, y_im, float(base_power_kva),
                   np.asarray(base_kv, dtype=float))

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_branch(self) -> int:
        return len(self.branches)

    @property
    def slack(self) -> int:
        return next(b.id for b in self.buses if b.kind == "slack")

    def kw_to_pu(self, kw):
        return np.asarray(kw, dtype=float) / self.base_power_kva

    def with_branches(self, branches) -> "GridModel":
        branches = tuple(branches)
        y_re, y_im = build_admittance(branches, self.n_bus)
        return replace(self, branches=branches, y_re=y_re, y_im=y_im)


@dataclass
class PowerFlowSolution:
    """Rectangular power-flow result in p.u.

    i_inj is the nodal current Y*V (equals minus the load current at
    convergence); i_br follows i_br = y_ij*(v_from - v_to).  failure is
    None, "max_iterations", "singular_jacobian" or "voltage_collapse".
    """

    v_re: np.ndarray
    v_im: np.ndarray
    i_inj_re: np.ndarray
    i_inj_im: np.ndarray
    i_br_re: np.ndarray
    i_br_im: np.ndarray
    converged: bool
    iterations: int
    residual_history: list[float] = field(default_factory=list)
    failure: str | None = None
    p_load_pu: np.ndarray | None = None
    q_load_pu: np.ndarray | None = None

    @property
    def v_mag(self) -> np.ndarray:
        return np.hypot(self.v_re, self.v_im)


@dataclass
class PowerFlowStack:
    """Power-flow results of B operating points, point on the first axis.

    Voltages, nodal currents and net loads are (B, n_bus), branch
    currents (B, n_branch), converged and iterations (B,).
    residuals[k, b] is point b's residual at Newton iterate k for
    k < n_residuals[b] (NaN beyond); failure[b] is as in
    PowerFlowSolution.
    """

    v_re: np.ndarray
    v_im: np.ndarray
    i_inj_re: np.ndarray
    i_inj_im: np.ndarray
    i_br_re: np.ndarray
    i_br_im: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    residuals: np.ndarray
    n_residuals: np.ndarray
    failure: list
    p_load_pu: np.ndarray
    q_load_pu: np.ndarray

    def __len__(self) -> int:
        return self.v_re.shape[0]

    @property
    def v_mag(self) -> np.ndarray:
        return np.hypot(self.v_re, self.v_im)

    def point(self, b: int) -> PowerFlowSolution:
        """Point b as a PowerFlowSolution."""
        return PowerFlowSolution(
            v_re=self.v_re[b], v_im=self.v_im[b],
            i_inj_re=self.i_inj_re[b], i_inj_im=self.i_inj_im[b],
            i_br_re=self.i_br_re[b], i_br_im=self.i_br_im[b],
            converged=bool(self.converged[b]),
            iterations=int(self.iterations[b]),
            residual_history=self.residuals[:self.n_residuals[b], b].tolist(),
            failure=self.failure[b],
            p_load_pu=self.p_load_pu[b], q_load_pu=self.q_load_pu[b],
        )

    def take(self, idx) -> "PowerFlowStack":
        """The points idx, in that order, as a new stack."""
        idx = np.asarray(idx, dtype=int)
        per_point = {f.name: getattr(self, f.name)[idx] for f in fields(self)
                     if f.name not in ("residuals", "failure")}
        return PowerFlowStack(**per_point, residuals=self.residuals[:, idx],
                              failure=[self.failure[b] for b in idx])

    @classmethod
    def of(cls, solutions) -> "PowerFlowStack":
        """PowerFlowSolution objects, in order, as one stack."""
        sols = list(solutions)
        n_res = np.array([len(s.residual_history) for s in sols], dtype=int)
        residuals = np.full((max(n_res, default=0), len(sols)), np.nan)
        for b, s in enumerate(sols):
            residuals[:n_res[b], b] = s.residual_history
        per_point = {name: np.array([getattr(s, name) for s in sols])
                     for name in ("v_re", "v_im", "i_inj_re", "i_inj_im",
                                  "i_br_re", "i_br_im", "converged",
                                  "iterations", "p_load_pu", "q_load_pu")}
        return cls(**per_point, residuals=residuals, n_residuals=n_res,
                   failure=[s.failure for s in sols])


def load_current_voltage_jacobian(p, q, v_re, v_im):
    """Derivatives of the load current w.r.t. rectangular voltage, per bus.

    Returns the four diagonal vectors (d I_re/d V_re, d I_re/d V_im,
    d I_im/d V_re, d I_im/d V_im) of the consumption-convention current.
    """
    v2 = v_re ** 2 + v_im ** 2
    v4 = v2 ** 2
    num_re = p * v_re + q * v_im
    num_im = p * v_im - q * v_re
    d_rere = p / v2 - 2.0 * v_re * num_re / v4
    d_reim = q / v2 - 2.0 * v_im * num_re / v4
    d_imre = -q / v2 - 2.0 * v_re * num_im / v4
    d_imim = p / v2 - 2.0 * v_im * num_im / v4
    return d_rere, d_reim, d_imre, d_imim


def power_flow_system_matrix(grid: GridModel, p, q, v_re, v_im,
                             pin_slack: bool = True) -> np.ndarray:
    """2n x 2n linearization of Y*V + I_load(V) around (v_re, v_im).

    The same matrix serves as the Newton Jacobian and, factorized at the
    solution, as the system matrix for all voltage sensitivities.  With
    p = q = 0 it reduces to [[Y_re, -Y_im], [Y_im, Y_re]].  Slack rows
    and columns are replaced by identity when pin_slack is set.
    """
    n = grid.n_bus
    d_rere, d_reim, d_imre, d_imim = load_current_voltage_jacobian(p, q, v_re, v_im)
    top = np.hstack([grid.y_re + np.diag(d_rere), -grid.y_im + np.diag(d_reim)])
    bot = np.hstack([grid.y_im + np.diag(d_imre), grid.y_re + np.diag(d_imim)])
    J = np.vstack([top, bot])
    if pin_slack:
        s = grid.slack
        for k in (s, n + s):
            J[k, :] = 0.0
            J[:, k] = 0.0
            J[k, k] = 1.0
    return J


def power_flow_system_values(grid: GridModel, p, q, v_re,
                             v_im) -> np.ndarray:
    """Values of B slack-pinned system matrices on the template pattern.

    p, q, v_re, v_im are (B, n_bus); row b of the (B, nnz) result holds
    the data of point b's matrix in the order of grid.system_template:
    the template's values with the load partials added on the diagonals.
    """
    template, diag = grid.system_template
    data = np.tile(template.data, (np.shape(p)[0], 1))
    partials = load_current_voltage_jacobian(p, q, v_re, v_im)
    for pos, d in zip(diag, partials):
        data[:, pos] += d[:, grid.nonslack]
    return data


def system_block_diagonal(grid: GridModel,
                          values: np.ndarray) -> scipy.sparse.csc_matrix:
    """Block-diagonal CSC matrix of the (B, nnz) template values, block b
    holding row b, built by tiling the template's pattern."""
    template, _ = grid.system_template
    blocks, nnz = values.shape
    size = template.shape[0]
    offset = np.arange(blocks)[:, None]
    indices = (template.indices + size * offset).ravel()
    indptr = np.append((template.indptr[:-1] + nnz * offset).ravel(),
                       blocks * nnz)
    return scipy.sparse.csc_matrix((values.ravel(), indices, indptr),
                                   shape=(blocks * size, blocks * size))


def power_flow_system_csc(grid: GridModel, p, q, v_re,
                          v_im) -> scipy.sparse.csc_matrix:
    """power_flow_system_matrix with slack pinning, as a sparse CSC matrix.

    Only the load partials are computed per call and added onto the
    grid's precomputed system_template; toarray() equals the dense
    matrix exactly.
    """
    points = (np.asarray(x, dtype=float)[None] for x in (p, q, v_re, v_im))
    return system_block_diagonal(grid, power_flow_system_values(grid,
                                                                *points))


def _splu(matrix):
    return scipy.sparse.linalg.splu(matrix, permc_spec="MMD_AT_PLUS_A",
                                    diag_pivot_thresh=0.1)


def solve_system_stack(grid: GridModel, values: np.ndarray,
                       rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve B system matrices, given by their (B, nnz) template values,
    with one SuperLU factorization of their block-diagonal matrix.

    rhs is (B, 2n) or (B, 2n, k).  Returns the solutions, shaped like
    rhs, and a (B,) mask of the solved blocks.  Only when SuperLU reports
    the block-diagonal matrix exactly singular is every block factorized
    on its own; the singular ones stay unsolved, with NaN solutions.
    The matrices are structurally symmetric: minimum-degree ordering on
    A^T + A with threshold pivoting (0.1, preferring the diagonal) keeps
    about a third less fill than the column ordering.
    """
    blocks = values.shape[0]
    size = grid.system_template[0].shape[0]
    flat = rhs.reshape(blocks * size, -1)
    solved = np.ones(blocks, dtype=bool)
    try:
        x = _splu(system_block_diagonal(grid, values)).solve(flat)
    except RuntimeError:  # SuperLU: factor is exactly singular
        x = np.full(flat.shape, np.nan)
        for b in range(blocks):
            rows = slice(b * size, (b + 1) * size)
            try:
                lu = _splu(system_block_diagonal(grid, values[b:b + 1]))
            except RuntimeError:
                solved[b] = False
                continue
            x[rows] = lu.solve(flat[rows])
    return x.reshape(rhs.shape), solved


def _branch_currents(grid: GridModel, v_re, v_im):
    """(re, im) of y_ij (v_i - v_j) for every branch, in real arithmetic;
    the bus axis is the last one."""
    f, t = grid.branch_from, grid.branch_to
    y_re, y_im = grid.branch_y.real, grid.branch_y.imag
    d_re = v_re[..., f] - v_re[..., t]
    d_im = v_im[..., f] - v_im[..., t]
    return y_re * d_re - y_im * d_im, y_re * d_im + y_im * d_re


def power_mismatch(grid: GridModel, sol: PowerFlowSolution) -> np.ndarray:
    """Per-bus complex power-balance residual V*conj(Y V) + (p + jq)."""
    v = sol.v_re + 1j * sol.v_im
    yv = grid.y_bus @ v
    return v * np.conj(yv) + (sol.p_load_pu + 1j * sol.q_load_pu)


def solve_power_flow(grid: GridModel, p_net_kw, q_net_kvar, *,
                     tol: float = 1e-8, max_iter: int = 50) -> PowerFlowSolution:
    """Newton solve in rectangular coordinates from a flat start.

    p_net_kw/q_net_kvar are per-bus net loads (consumption minus
    generation, in kW/kvar); slack entries are ignored.  Converged means
    the power-balance infinity norm over non-slack buses is <= tol (p.u.).
    Non-convergence is reported through the returned solution's failure
    field together with the residual history, never by raising.  This is
    the one-point case of solve_power_flow_stack.
    """
    n = grid.n_bus
    p = np.asarray(p_net_kw, dtype=float)
    q = np.asarray(q_net_kvar, dtype=float)
    if p.shape != (n,) or q.shape != (n,):
        raise GridError(f"injection arrays must have shape ({n},)")
    return solve_power_flow_stack(grid, p[None], q[None], tol=tol,
                                  max_iter=max_iter).point(0)


def _keep(mask, *arrays):
    """The rows of each array where mask holds (the arrays themselves when
    it holds everywhere)."""
    return arrays if mask.all() else tuple(a[mask] for a in arrays)


def solve_power_flow_stack(grid: GridModel, p_net_kw, q_net_kvar, *,
                           tol: float = 1e-8,
                           max_iter: int = 50) -> PowerFlowStack:
    """Newton solves of B operating points at once, each as in
    solve_power_flow; p_net_kw/q_net_kvar are (B, n_bus).

    Every iteration factorizes the system matrices of the points still
    iterating as one block-diagonal sparse LU (SuperLU).  A point stops
    on its own convergence or failure, so it takes the iterates it takes
    alone; a point whose own matrix is exactly singular fails with
    "singular_jacobian" and leaves the others iterating.
    """
    n = grid.n_bus
    s = grid.slack
    p = grid.kw_to_pu(p_net_kw)
    q = grid.kw_to_pu(q_net_kvar)
    if p.ndim != 2 or p.shape[1] != n or q.shape != p.shape:
        raise GridError(f"injection arrays must have shape (B, {n})")
    p[:, s] = 0.0
    q[:, s] = 0.0

    points = p.shape[0]
    v_re = np.ones((points, n))
    v_im = np.zeros((points, n))
    residuals = np.full((max_iter + 1, points), np.nan)
    n_residuals = np.zeros(points, dtype=int)
    converged = np.zeros(points, dtype=bool)
    iterations = np.zeros(points, dtype=int)
    failure: list[str | None] = [None] * points

    def stop(idx, reason):
        for b in idx:
            failure[b] = reason

    live = np.arange(points)    # points still iterating
    for it in range(max_iter + 1):
        rows = live if live.size < points else slice(None)
        vr, vi, pl, ql = v_re[rows], v_im[rows], p[rows], q[rows]
        v2 = vr ** 2 + vi ** 2
        collapsed = v2.min(axis=1, initial=np.inf) < 0.04
        stop(live[collapsed], "voltage_collapse")
        live, vr, vi, pl, ql, v2 = _keep(~collapsed, live, vr, vi, pl, ql, v2)
        v = vr + 1j * vi
        yv = v @ grid.y_bus.T
        s_miss = v * np.conj(yv) + (pl + 1j * ql)
        resid = np.abs(s_miss[:, grid.nonslack]).max(axis=1, initial=0.0)
        residuals[it, live] = resid
        n_residuals[live] = it + 1
        done = resid <= tol
        converged[live[done]] = True
        if it == max_iter:
            stop(live[~done], "max_iterations")
            break
        live, vr, vi, pl, ql, v2, yv = _keep(~done, live, vr, vi, pl, ql, v2,
                                             yv)
        if not live.size:
            break
        i_load_re = (pl * vr + ql * vi) / v2
        i_load_im = (pl * vi - ql * vr) / v2
        F = np.concatenate([yv.real + i_load_re, yv.imag + i_load_im], axis=1)
        F[:, s] = 0.0
        F[:, n + s] = 0.0
        dx, solved = solve_system_stack(
            grid, power_flow_system_values(grid, pl, ql, vr, vi), -F)
        stop(live[~solved], "singular_jacobian")
        live, vr, vi, dx = _keep(solved, live, vr, vi, dx)
        v_re[live] = vr + dx[:, :n]
        v_im[live] = vi + dx[:, n:]
        iterations[live] = it + 1

    i_inj = (v_re + 1j * v_im) @ grid.y_bus.T
    i_br_re, i_br_im = _branch_currents(grid, v_re, v_im)
    return PowerFlowStack(
        v_re=v_re, v_im=v_im, i_inj_re=i_inj.real, i_inj_im=i_inj.imag,
        i_br_re=i_br_re, i_br_im=i_br_im, converged=converged,
        iterations=iterations, residuals=residuals, n_residuals=n_residuals,
        failure=failure, p_load_pu=p, q_load_pu=q,
    )


def branch_current_magnitudes(sol: PowerFlowSolution) -> np.ndarray:
    """|I_ij| per branch from a converged solution."""
    return np.hypot(sol.i_br_re, sol.i_br_im)


# ---------------------------------------------------------------------------
# Grid description file
# ---------------------------------------------------------------------------

def grid_from_dict(data: dict) -> GridModel:
    """Build a GridModel from the parsed key-value tree of a grid file."""
    try:
        base_kva = float(data["base_power_kva"])
        bus_rows = data["buses"]
        branch_rows = data["branches"]
    except KeyError as exc:
        raise GridError(f"grid file missing section {exc}") from exc

    buses = []
    base_kv = np.zeros(len(bus_rows))
    for row in bus_rows:
        try:
            b = Bus(
                id=int(row["id"]),
                kind=str(row.get("kind", "load")),
                v_min=float(row.get("v_min", 0.95)),
                v_max=float(row.get("v_max", 1.05)),
                mg_owner=(None if row.get("mg_owner") is None
                          else int(row["mg_owner"])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GridError(f"bad bus entry {row!r}: {exc}") from exc
        buses.append(b)
        if not (0 <= b.id < len(bus_rows)):
            raise GridError(f"bus id {b.id} outside 0..{len(bus_rows) - 1}")
        base_kv[b.id] = float(row.get("base_kv", 1.0))

    branches = []
    for row in branch_rows:
        try:
            i, j = int(row["from"]), int(row["to"])
            units = str(row.get("units", "pu"))
            r, x = float(row["r"]), float(row["x"])
            i_max = float(row.get("i_max", 1e9))
        except (KeyError, TypeError, ValueError) as exc:
            raise GridError(f"bad branch entry {row!r}: {exc}") from exc
        if units == "ohm":
            kv = base_kv[j]
            z_base = kv ** 2 * 1000.0 / base_kva
            r, x = r / z_base, x / z_base
        elif units != "pu":
            raise GridError(f"branch {i}-{j}: units must be 'ohm' or 'pu'")
        branches.append(Branch.from_impedance(i, j, r, x, i_max))

    return GridModel.from_branches(buses, branches, base_kva, base_kv)


def load_grid_file(path) -> GridModel:
    """Load and validate a YAML grid description, converting to p.u."""
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise GridError(f"{path}: grid file must be a mapping")
    return grid_from_dict(data)
