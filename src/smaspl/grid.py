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

from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

__all__ = [
    "Bus",
    "Branch",
    "GridModel",
    "TreeSchedule",
    "PowerFlowSolution",
    "PowerFlowStack",
    "GridError",
    "solve_power_flow",
    "solve_power_flow_stack",
    "power_mismatch",
    "load_current_voltage_jacobian",
    "power_flow_system_matrix",
    "solve_system_stack",
    "solve_unit_columns",
]

class GridError(ValueError):
    """Invalid network description (topology or parameters)."""


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


def _admittance(n: int, f: np.ndarray, t: np.ndarray,
                y: np.ndarray) -> scipy.sparse.csr_matrix:
    """CSR nodal admittance: y_ij added to the (i, i) and (j, j) entries
    and subtracted from (i, j) and (j, i), summed branch by branch in
    branch order, so every entry equals a per-branch stamping loop's."""
    rows = np.stack([f, t, f, t], axis=1).ravel()
    cols = np.stack([f, t, t, f], axis=1).ravel()
    vals = np.stack([y, y, -y, -y], axis=1).ravel()
    key, slot = np.unique(rows * n + cols, return_inverse=True)
    data = (np.bincount(slot, vals.real, key.size)
            + 1j * np.bincount(slot, vals.imag, key.size))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(key // n,
                                                        minlength=n))])
    return scipy.sparse.csr_matrix((data, key % n, indptr), shape=(n, n))


@dataclass(frozen=True)
class TreeSchedule:
    """Leaves-up elimination order of a radial grid's slack-pinned system.

    Without its slack bus a radial grid is a forest.  Each component is
    rooted at its centre and the m non-slack buses are renumbered
    breadth-first from the roots, so level L (the buses at depth L) is
    the position slice levels[L], roots first.  order[k] is the bus at
    position k, y_diag[k] its diagonal entry of Y, parent[k] the position
    of its parent and y_parent[k] their entry of Y; children[L] holds the
    positions of the children of level L's buses, one row per bus,
    padded to a rectangle.  A root's parent and every pad is position m.
    """

    order: np.ndarray
    y_diag: np.ndarray
    parent: np.ndarray
    y_parent: np.ndarray
    levels: tuple
    children: tuple


def _tree_schedule(slack: int, f: np.ndarray, t: np.ndarray, y: np.ndarray,
                   y_bus) -> TreeSchedule | None:
    """The elimination schedule of a connected grid, None unless radial.

    Peeling leaves finds each component's centre: a bus whose live
    branches are down to one hangs on that branch's far end, and the
    last bus of a component, with no live branch left, is a centre.  A
    bus's XOR of live branch indices names its last branch, so the peel
    is one pass.  Breadth-first order from the centres then lists the
    children of each position, in position order, after the roots.
    """
    n = y_bus.shape[0]
    if f.size != n - 1:
        return None
    m = n - 1
    inner = np.flatnonzero((f != slack) & (t != slack))
    ends = np.concatenate([f[inner], t[inner]])
    last = np.zeros(n, dtype=int)
    np.bitwise_xor.at(last, ends, np.tile(np.arange(inner.size), 2))
    other = (f[inner] ^ t[inner]).tolist()      # i ^ j
    degree = np.bincount(ends, minlength=n)     # 0 at the slack
    live, last = degree.tolist(), last.tolist()
    via = [-1] * n                      # branch to the parent
    kids: list = [[] for _ in range(n)]
    peel = [i for i in range(n) if live[i] <= 1 and i != slack]
    for i in peel:                      # grows as buses become leaves
        if live[i]:
            e = last[i]
            j = other[e] ^ i
            via[i] = e
            kids[j].append(i)
            live[j] -= 1
            last[j] ^= e
            if live[j] == 1:
                peel.append(j)
    order = [i for i in peel if via[i] < 0]
    roots = len(order)
    for i in order:                     # grows: breadth-first from the roots
        order += kids[i]
    order = np.array(order, dtype=int)
    # children are the neighbours but the parent, listed in position order
    n_kids = degree[order] - (np.arange(m) >= roots)
    after = roots + np.cumsum(n_kids)   # position after k's last child
    count, past = n_kids.tolist(), after.tolist()
    bounds = [0, roots]
    while bounds[-1] < m:               # the next level: the children of this
        bounds.append(past[bounds[-1] - 1])
    levels = tuple(zip(bounds[:-1], bounds[1:]))
    rank = np.arange(max(count, default=0))
    slots = np.where(rank < n_kids[:, None], (after - n_kids)[:, None] + rank,
                     m)
    edge = inner[np.array(via, dtype=int)[order[roots:]]]
    return TreeSchedule(
        order=order, y_diag=y_bus.diagonal()[order],
        parent=np.concatenate([np.full(roots, m),
                               np.repeat(np.arange(m), n_kids)]),
        y_parent=np.concatenate([np.zeros(roots), -y[edge]]), levels=levels,
        children=tuple(slots[lo:hi, :max(count[lo:hi], default=0)]
                       for lo, hi in levels))


@dataclass(frozen=True)
class GridModel:
    """Immutable network: buses, branches and the per-unit power base.

    base_power_kva is the common power base.  The remaining attributes
    are topology facts derived once from the branch list: the slack bus
    index and the non-slack ones, the branch-bus incidence as
    (branch_from, branch_to) bus indices with the branch admittances
    branch_y, the complex nodal admittance y_bus (CSR), branch_lookup
    mapping an ordered bus pair to (branch index, +1 along / -1 against
    the branch direction), and tree, the elimination schedule of a
    radial grid (None for a meshed one).
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    base_power_kva: float = 100.0
    slack: int = field(init=False, repr=False, compare=False)
    nonslack: np.ndarray = field(init=False, repr=False, compare=False)
    branch_from: np.ndarray = field(init=False, repr=False, compare=False)
    branch_to: np.ndarray = field(init=False, repr=False, compare=False)
    branch_y: np.ndarray = field(init=False, repr=False, compare=False)
    y_bus: scipy.sparse.csr_matrix = field(init=False, repr=False,
                                           compare=False)
    branch_lookup: dict = field(init=False, repr=False, compare=False)
    tree: TreeSchedule | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.buses)
        self._set(buses=tuple(self.buses), branches=tuple(self.branches),
                  base_power_kva=float(self.base_power_kva))
        buses, branches = self.buses, self.branches
        slack = [b.id for b in buses if b.kind == "slack"]
        if len(slack) != 1:
            raise GridError(f"need exactly one slack bus, found {slack}")
        if sorted(b.id for b in buses) != list(range(n)):
            raise GridError("bus ids must be 0..n-1 without gaps")
        if self.base_power_kva <= 0:
            raise GridError("base_power_kva must be positive")
        f = np.array([br.from_bus for br in branches], dtype=int)
        t = np.array([br.to_bus for br in branches], dtype=int)
        ends = np.stack([f, t], axis=1).ravel()
        outside = np.flatnonzero((ends < 0) | (ends >= n))
        if outside.size:
            br = branches[outside[0] // 2]
            raise GridError(f"branch {br.from_bus}-{br.to_bus}: bus "
                            f"{ends[outside[0]]} outside 0..{n - 1}")
        links = scipy.sparse.coo_matrix((np.ones(f.size), (f, t)),
                                        shape=(n, n))
        count, label = scipy.sparse.csgraph.connected_components(
            links, directed=False)
        if count > 1:
            stranded = sorted(np.flatnonzero(label == c).tolist()
                              for c in range(count) if c != label[0])
            raise GridError(
                f"network is disconnected: isolated component(s) {stranded}"
            )
        lookup: dict = {}
        for k, br in enumerate(branches):
            lookup.setdefault((br.from_bus, br.to_bus), (k, +1.0))
            lookup.setdefault((br.to_bus, br.from_bus), (k, -1.0))
        y = np.array([br.y for br in branches], dtype=complex)
        y_bus = _admittance(n, f, t, y)
        nonslack = np.delete(np.arange(n), slack[0])
        self._set(slack=slack[0], nonslack=nonslack, branch_from=f,
                  branch_to=t, branch_y=y, y_bus=y_bus, branch_lookup=lookup,
                  tree=_tree_schedule(slack[0], f, t, y, y_bus))

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_branch(self) -> int:
        return len(self.branches)

    def kw_to_pu(self, kw):
        return np.asarray(kw, dtype=float) / self.base_power_kva


@dataclass
class PowerFlowSolution:
    """Rectangular power-flow result in p.u.

    i_br follows i_br = y_ij*(v_from - v_to).  failure is None,
    "max_iterations", "singular_jacobian" or "voltage_collapse".
    """

    v_re: np.ndarray
    v_im: np.ndarray
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

    Voltages and net loads are (B, n_bus), branch currents
    (B, n_branch), converged and iterations (B,).
    residuals[k, b] is point b's residual at Newton iterate k for
    k < n_residuals[b] (NaN beyond); failure[b] is as in
    PowerFlowSolution.
    """

    v_re: np.ndarray
    v_im: np.ndarray
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
                     for name in ("v_re", "v_im", "i_br_re", "i_br_im",
                                  "converged", "iterations", "p_load_pu",
                                  "q_load_pu")}
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


def power_flow_system_matrix(grid: GridModel, p, q, v_re,
                             v_im) -> np.ndarray:
    """2n x 2n linearization of Y*V + I_load(V) around (v_re, v_im),
    slack rows and columns replaced by identity.

    The same matrix serves as the Newton Jacobian and, factorized at the
    solution, as the system matrix for all voltage sensitivities.  p, q,
    v_re, v_im are (n_bus,) or (B, n_bus); the result is (..., 2n, 2n).
    With p = q = 0 it reduces to [[Y_re, -Y_im], [Y_im, Y_re]] off the
    slack.
    """
    n, s = grid.n_bus, grid.slack
    y = grid.y_bus.toarray()
    base = np.block([[y.real, -y.imag], [y.imag, y.real]])
    # Y plus the diagonal matrix of the load partials, entry by entry:
    # off the diagonal Y's entry + 0.0, which reads a -0.0 as 0.0
    J = np.broadcast_to(base + 0.0, np.shape(p)[:-1] + base.shape).copy()
    i = np.arange(n)
    for (r, c), d in zip(((0, 0), (0, 1), (1, 0), (1, 1)),
                         load_current_voltage_jacobian(p, q, v_re, v_im)):
        J[..., r * n + i, c * n + i] = base[r * n + i, c * n + i] + d
    for k in (s, n + s):
        J[..., k, :] = 0.0
        J[..., :, k] = 0.0
        J[..., k, k] = 1.0
    return J


def _solve_dense(grid: GridModel, p, q, v_re, v_im,
                 rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """solve_system_stack on any grid: LU with partial pivoting of the
    stack's dense system matrices, one np.linalg.solve call.  Only when
    one of them is exactly singular is each point solved on its own; the
    singular ones stay unsolved."""
    A = power_flow_system_matrix(grid, p, q, v_re, v_im)
    flat = rhs.reshape(A.shape[:2] + (-1,))
    solved = np.ones(len(A), dtype=bool)
    try:
        x = np.linalg.solve(A, flat)
    except np.linalg.LinAlgError:       # exactly singular
        x = np.full(flat.shape, np.nan)
        for b in range(len(A)):
            try:
                x[b] = np.linalg.solve(A[b], flat[b])
            except np.linalg.LinAlgError:
                solved[b] = False
    return x.reshape(rhs.shape), solved


def _eliminate(grid: GridModel, p, q, v_re, v_im, b: np.ndarray):
    """Leaves-up block elimination along grid.tree of the complex
    right-hand sides b (m, B, K), in position order, vectorized over the
    points and the columns; K may be 0, and then only the pivots are
    computed.

    A bus's 2x2 real block acts on its complex voltage as
    x -> z x + w conj(x), whose inverse is
    x -> (conj(z) x - w conj(x)) / (|z|^2 - |w|^2); a branch block is
    multiplication by its entry of Y.  Returns the eliminated
    right-hand sides u (m, B, K) in position order; per level, deepest
    first, the pivot factors (conj(z), w) / (|z|^2 - |w|^2) and the
    substitution factors of _substitute, each (level, B); and the (B,)
    mask of the points whose every pivot is finite and nonzero."""
    tree = grid.tree
    k = tree.order
    m = k.size
    d_rere, d_reim, d_imre, d_imim = load_current_voltage_jacobian(
        p[:, k].T, q[:, k].T, v_re[:, k].T, v_im[:, k].T)
    z = tree.y_diag[:, None] + 0.5 * (d_rere + d_imim
                                      + 1j * (d_imre - d_reim))
    w = 0.5 * (d_rere - d_imim + 1j * (d_imre + d_reim))
    # per bus (z, -w, b), from which its children's shares are subtracted
    own = np.concatenate([z[..., None], -w[..., None], b], axis=2)
    share = np.zeros((m + 1,) + own.shape[1:], dtype=complex)
    a = tree.y_parent[:, None]
    inv, u, pivots, up = [], [], [], []     # per level, deepest first
    with np.errstate(all="ignore"):     # a singular point turns to inf/NaN
        for (lo, hi), kids in zip(tree.levels[::-1], tree.children[::-1]):
            row = own[lo:hi]
            for c in range(kids.shape[1]):
                row = row - share[kids[:, c]]
            zl, wl, bl = row[..., 0], -row[..., 1], row[..., 2:]
            zl_conj = zl.conj()
            il = 1.0 / ((zl_conj * zl).real - (wl.conj() * wl).real)
            zcl, wcl = zl_conj * il, wl * il
            ul = zcl[..., None] * bl - wcl[..., None] * bl.conj()
            inv.append(il)
            u.append(ul)
            pivots.append((zcl, wcl))
            if lo:                      # not the roots
                # the pivot block's inverse after the branch block:
                # x_parent -> za x_parent - wa conj(x_parent)
                al = a[lo:hi]
                za, wa = zcl * al, wcl * al.conj()
                share[lo:hi, :, 0] = za * al
                share[lo:hi, :, 1] = wa * al
                share[lo:hi, :, 2:] = al[..., None] * ul
                up.append((za, wa))
    inv = np.concatenate(inv)
    solved = (np.isfinite(inv) & (inv != 0.0)).all(axis=0)
    return np.concatenate(u[::-1]), pivots, up, solved


def _substitute(tree: TreeSchedule, x: np.ndarray, up) -> np.ndarray:
    """Root-down substitution, in place, of the eliminated right-hand
    sides x (m, B, K) with _eliminate's substitution factors up; returns
    x, now the solution in position order."""
    with np.errstate(all="ignore"):
        for (lo, hi), (za, wa) in zip(tree.levels[1:], up[::-1]):
            xp = x[tree.parent[lo:hi]]
            x[lo:hi] -= za[..., None] * xp - wa[..., None] * xp.conj()
    return x


def _solve_tree(grid: GridModel, p, q, v_re, v_im,
                rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """solve_system_stack on a radial grid: block elimination along
    grid.tree, leaves up (_eliminate), then substitution root down
    (_substitute), vectorized over the points and the right-hand sides.
    The arrays are bus-major, so each level is a contiguous slice, and
    every operation is elementwise over the points, so a point's
    solution does not depend on the stack."""
    tree, n = grid.tree, grid.n_bus
    k = tree.order
    points = rhs.shape[0]
    flat = rhs.reshape(points, 2 * n, -1)
    b = (flat[:, k] + 1j * flat[:, n + k]).transpose(1, 0, 2)
    u, _, up, solved = _eliminate(grid, p, q, v_re, v_im, b)
    x = _substitute(tree, u, up)
    out = flat.copy()                   # the slack rows are identity
    out[:, k] = x.real.transpose(1, 0, 2)
    out[:, n + k] = x.imag.transpose(1, 0, 2)
    out[~solved] = np.nan
    return out.reshape(rhs.shape), solved


def solve_system_stack(grid: GridModel, p, q, v_re, v_im,
                       rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the slack-pinned system matrices of B operating points.

    p, q, v_re, v_im are (B, n_bus) and rhs is (B, 2n) or (B, 2n, k).
    Returns the solutions, shaped like rhs, and a (B,) mask of the
    solved points; an unsolved point's solution is NaN.  A radial grid
    is solved by tree elimination (_solve_tree), where a zero or
    non-finite pivot leaves its point unsolved; a meshed one by dense LU
    of power_flow_system_matrix (_solve_dense), where an exactly
    singular matrix does.
    """
    if grid.tree is None:
        return _solve_dense(grid, p, q, v_re, v_im, rhs)
    return _solve_tree(grid, p, q, v_re, v_im, rhs)


def solve_unit_columns(grid: GridModel, p, q, v_re, v_im, bus,
                       value) -> tuple[np.ndarray, np.ndarray]:
    """solve_system_stack of K unit right-hand sides.

    Column j is zero but at bus[j], where it holds value[:, j] (B, K),
    complex: the real part in the bus's real row, the imaginary part in
    its imaginary row.  Returns the solutions as complex voltages
    (B, n_bus, K) and the (B,) mask of the solved points; an unsolved
    point's solution is NaN and a column at the slack bus solves to zero.

    A meshed grid scatters the columns into a dense right-hand side for
    _solve_dense.  On a radial grid _eliminate runs with no right-hand
    side, for the pivots.  A unit column's leaves-up sweep is zero off
    its bus's path to the root, so each column is carried along that
    path alone, at most one position per level, with the arithmetic of
    _eliminate (the sparse vector methods of Tinney, Brandwajn & Chan,
    IEEE Trans. PAS 1985); _substitute then runs on every position.  The
    result is _solve_tree's on the dense right-hand side, bit for bit.
    """
    bus = np.asarray(bus, dtype=int)
    value = np.asarray(value, dtype=complex)
    n, (points, count) = grid.n_bus, value.shape
    col = np.arange(count)
    if grid.tree is None:
        rhs = np.zeros((points, 2 * n, count))
        rhs[:, bus, col] = value.real
        rhs[:, n + bus, col] = value.imag
        rhs[:, [grid.slack, n + grid.slack]] = 0.0
        x, solved = _solve_dense(grid, p, q, v_re, v_im, rhs)
        out = np.empty((points, n, count), dtype=complex)
        out.real, out.imag = x[:, :n], x[:, n:]
        return out, solved
    tree = grid.tree
    m = tree.order.size
    _, pivots, up, solved = _eliminate(grid, p, q, v_re, v_im,
                                       np.empty((m, points, 0), complex))
    zc = np.concatenate([zcl for zcl, _ in pivots[::-1]])      # (m, B)
    wc = np.concatenate([wcl for _, wcl in pivots[::-1]])
    where = np.full(n, m)               # each bus's position, m at the slack
    where[tree.order] = np.arange(m)
    at, col, b = _keep(where[bus] < m, where[bus], col, value.T)
    u = np.zeros((m, points, count), dtype=complex)
    with np.errstate(all="ignore"):
        while at.size:
            ul = zc[at] * b - wc[at] * b.conj()
            u[at, :, col] = ul
            # the parent's right-hand side: zero less this child's share
            b = -(tree.y_parent[at, None] * ul)
            at = tree.parent[at]
            at, col, b = _keep(at < m, at, col, b)
    x = _substitute(tree, u, up)
    out = np.zeros((points, n, count), dtype=complex)
    out[:, tree.order] = x.transpose(1, 0, 2)
    out[~solved] = complex(np.nan, np.nan)
    return out, solved


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
                     tol: float = 1e-8) -> PowerFlowSolution:
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
    return solve_power_flow_stack(grid, p[None], q[None], tol=tol).point(0)


# Newton iterations a point may take before it fails with "max_iterations"
_NEWTON_ITERATIONS = 50


def _keep(mask, *arrays):
    """The rows of each array where mask holds (the arrays themselves when
    it holds everywhere)."""
    return arrays if mask.all() else tuple(a[mask] for a in arrays)


def solve_power_flow_stack(grid: GridModel, p_net_kw, q_net_kvar, *,
                           tol: float = 1e-8) -> PowerFlowStack:
    """Newton solves of B operating points at once, each as in
    solve_power_flow; p_net_kw/q_net_kvar are (B, n_bus).

    Every iteration solves the Newton systems of the points still
    iterating with one solve_system_stack call: tree elimination on a
    radial grid, dense LU on a meshed one.  A point stops on its own
    convergence or failure, so it takes the iterates it takes alone; a
    point whose own system is singular fails with "singular_jacobian"
    and leaves the others iterating.  The mismatch Y V is a sparse
    product, row by row, the tree solve is elementwise over the points
    and the dense one factorizes each point's matrix on its own, so a
    point's iterates are the same bit for bit in a stack of any size.
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
    residuals = np.full((_NEWTON_ITERATIONS + 1, points), np.nan)
    n_residuals = np.zeros(points, dtype=int)
    converged = np.zeros(points, dtype=bool)
    iterations = np.zeros(points, dtype=int)
    failure: list[str | None] = [None] * points

    def stop(idx, reason):
        for b in idx:
            failure[b] = reason

    live = np.arange(points)    # points still iterating
    for it in range(_NEWTON_ITERATIONS + 1):
        rows = live if live.size < points else slice(None)
        vr, vi, pl, ql = v_re[rows], v_im[rows], p[rows], q[rows]
        v2 = vr ** 2 + vi ** 2
        collapsed = v2.min(axis=1, initial=np.inf) < 0.04
        stop(live[collapsed], "voltage_collapse")
        live, vr, vi, pl, ql, v2 = _keep(~collapsed, live, vr, vi, pl, ql, v2)
        v = vr + 1j * vi
        yv = (grid.y_bus @ v.T).T   # row by row, whatever the stack size
        s_miss = v * np.conj(yv) + (pl + 1j * ql)
        resid = np.abs(s_miss[:, grid.nonslack]).max(axis=1, initial=0.0)
        residuals[it, live] = resid
        n_residuals[live] = it + 1
        done = resid <= tol
        converged[live[done]] = True
        if it == _NEWTON_ITERATIONS:
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
        dx, solved = solve_system_stack(grid, pl, ql, vr, vi, -F)
        stop(live[~solved], "singular_jacobian")
        live, vr, vi, dx = _keep(solved, live, vr, vi, dx)
        v_re[live] = vr + dx[:, :n]
        v_im[live] = vi + dx[:, n:]
        iterations[live] = it + 1

    i_br_re, i_br_im = _branch_currents(grid, v_re, v_im)
    return PowerFlowStack(
        v_re=v_re, v_im=v_im, i_br_re=i_br_re, i_br_im=i_br_im,
        converged=converged, iterations=iterations, residuals=residuals,
        n_residuals=n_residuals, failure=failure, p_load_pu=p, q_load_pu=q,
    )
