"""The consensus inner loop runs in the span of the Fisher rows.

`training._inner_loop` iterates on the coordinates z of
theta = theta0 + V z, where V = F^T U / S is an orthonormal basis of
span(F^T), F the agent's Fisher rows and F F^T = U S^2 U^T.  That is
exact only if the reward gradient g and every row gradient b lie in
that span.  The batch keeps them as the chain matrix C with
F^T C = (g, b): checked here against the parameter-space chain of the
batch's accepted draws.  The loop is checked against the
parameter-space loop it replaced, fed F^T C, and on rank-deficient
Fisher rows.
"""

import functools

import numpy as np
import pytest

from smaspl import training
from smaspl.gradients import chain_sample_to_parameters
from smaspl.scenario import load_scenario
from smaspl.training import (
    build_agents,
    build_world,
    dual_step,
    primal_step,
    project_local,
    trust_quadratic,
)


@functools.lru_cache(maxsize=None)
def first_update(name, seed=None):
    """The inputs of episode 0's first anchored update, as train() builds
    them: (world, thetas0, batch, factors, layout), and the batch's
    accepted draws (A, N, 6T) with their gradient columns
    (A, N, 6T, M+1), recorded as the batch evaluates them, laid out in
    action space and expanded from its constrained quantities to the
    table's rows."""
    sc = load_scenario(f"scenarios/{name}")
    if seed is not None:
        sc.seed = seed
    world = build_world(sc)
    agents = build_agents(world)
    dec = training._Decision.of(world, agents, frozenset(),
                                world.window_start(0), world.seed, 0, None)
    evals = [ag.evaluate(dec.states[a]) for a, ag in enumerate(agents)]
    evaluate, seen = training._evaluate_draws, []

    def recording(*args):
        ev, cols = evaluate(*args)
        seen.append((ev.actions, cols))
        return ev, cols

    training._evaluate_draws = recording
    try:
        batch = training._evaluate_batch(world, evals, [0], dec.irr_truth,
                                         dec.load_truth, dec.prev_dg)
    finally:
        training._evaluate_draws = evaluate
    thetas0 = [ag.get_theta().copy() for ag in agents]
    factors = [ev.fisher_factor() for ev in evals]
    local = np.concatenate([c[0] for _, c in seen])
    network = np.concatenate([c[1] for _, c in seen])
    columns = world.column_layout
    cols = np.empty(local.shape[:-1] + (1 + len(world.table) // 2,))
    cols[..., columns.local_at] = local
    cols[..., columns.network_at] = columns.per_action(
        network[..., columns.column, :])
    draws = (evals, np.concatenate([a for a, _ in seen]),
             cols[..., columns.row_at] * columns.row_orient)
    return world, thetas0, batch, factors, dec.layout, draws


def parameter_gradients(batch, factors):
    """Per agent F^T C (P, M+1): the reward gradient, then every row's."""
    return [f.T @ c for f, c in zip(factors, batch.chain())]


def span_of(factor):
    """Orthonormal basis of span(F^T) from an SVD, independent of the
    Gram-matrix route `_gram_eigen` takes."""
    _, s, vt = np.linalg.svd(factor, full_matrices=False)
    return vt[s > s[0] * max(factor.shape) * np.finfo(float).eps].T


def outside(basis, x):
    """The part of x outside span(basis)."""
    return x - basis @ (basis.T @ x)


def dense_inner_loop(world, thetas0, lambdas0, batch, factors, d_vec, layout):
    """The inner loop as it ran before, on all P parameters and fed the
    parameter-space gradients F^T C: the reference for the span-coordinate
    loop."""
    cfg = world.cfg
    n = world.n_agents
    thetas = [t.copy() for t in thetas0]
    lambdas = (np.zeros((n, len(layout.global_idx))) if lambdas0 is None
               else lambdas0.copy())
    removed_mask = layout.removed_mask
    d_global = d_vec[layout.global_idx]
    j0_global = batch.j_values[layout.global_idx]
    grads = parameter_gradients(batch, factors)
    g = [b[:, 0] for b in grads]
    b_glob = [b[:, 1 + layout.global_idx] for b in grads]
    rows = [np.ascontiguousarray(b.T[1 + li])
            for b, li in zip(grads, layout.local_idx)]
    rows_c = [d_vec[li] - batch.j_values[li] + r @ t0
              for r, li, t0 in zip(rows, layout.local_idx, thetas0)]
    converged = False
    iterations = 0
    nus = [np.zeros(len(li)) for li in layout.local_idx]
    for k in range(1, cfg.kmax + 1):
        lam_bar = lambdas.mean(axis=0)
        lam_bar[removed_mask] = 0.0
        change = 0.0
        for a in range(n):
            theta_bar = primal_step(thetas[a], g[a], b_glob[a], lam_bar,
                                    cfg.rho1)
            theta_new, nus[a] = project_local(
                theta_bar, thetas0[a], rows[a], rows_c[a], factors[a],
                cfg.delta, nus[a])
            lambdas[a] = dual_step(lam_bar, j0_global, b_glob[a],
                                   theta_new, thetas0[a], cfg.rho2, d_global)
            lambdas[a, removed_mask] = 0.0
            change = max(change, float(np.linalg.norm(theta_new - thetas[a])))
            thetas[a] = theta_new
        iterations = k
        if change <= cfg.dtheta:
            converged = True
            break
    return thetas, lambdas, iterations, converged


def run_loop(loop, name, seed=None, factors=None):
    world, thetas0, batch, own, layout, _ = first_update(name, seed)
    return loop(world, thetas0, None, batch,
                own if factors is None else factors, world.row_bounds,
                layout)


def test_gradients_lie_in_the_fisher_span():
    _, _, batch, factors, _, (evals, actions, cols) = first_update(
        "five_mg_lineflow.yaml", 2)
    assert len(actions) == batch.count
    grads = parameter_gradients(batch, factors)
    for a, (factor, ev, got) in enumerate(zip(factors, evals, grads)):
        # F^T C is the parameter-space chain of the batch's draws ...
        chain = chain_sample_to_parameters(ev, actions[:, a], cols[:, a])
        norms = np.linalg.norm(chain, axis=0)
        assert np.all(np.linalg.norm(got - chain, axis=0) <= 1e-12 * norms)
        # ... which lies in the span of the Fisher rows
        basis = span_of(factor)
        assert basis.shape[1] == factor.shape[0]
        assert np.all(np.linalg.norm(outside(basis, chain), axis=0)
                      <= 1e-12 * norms)


def test_span_basis_is_orthonormal_with_the_singular_values():
    factors = first_update("five_mg_lineflow.yaml", 2)[3]
    u, s = training._gram_eigen(factors[0])
    v = factors[0].T @ u / s
    assert np.abs(v.T @ v - np.eye(len(s))).max() <= 1e-13
    assert np.abs(u.T @ u - np.eye(len(s))).max() <= 1e-13
    assert np.allclose(np.sort(s)[::-1],
                       np.linalg.svd(factors[0], compute_uv=False),
                       rtol=1e-12, atol=0)


# Iteration counts and the converged flag are exact.  The span loop
# reorders the arithmetic of every step, so parameters and prices match
# to a stated tolerance: 1e-12 absolute, against measured gaps of at
# most 1.5e-16 (parameters) and 0 (prices) after lineflow's 165
# iterations against a binding shared line, where the prices reach 5.2
# and the parameters move by up to 0.12.
@pytest.mark.parametrize("name, seed", [
    ("two_mg_binding.yaml", None),
    ("five_mg_lineflow.yaml", 2),
])
def test_matches_the_parameter_space_loop(name, seed):
    thetas, lambdas, iters, converged, _ = run_loop(
        training._inner_loop, name, seed)
    ref_thetas, ref_lambdas, ref_iters, ref_converged = run_loop(
        dense_inner_loop, name, seed)
    assert (iters, converged) == (ref_iters, ref_converged)
    for theta, ref in zip(thetas, ref_thetas):
        np.testing.assert_allclose(theta, ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lambdas, ref_lambdas, rtol=0, atol=1e-12)


def test_rank_deficient_factor():
    world, thetas0, _, factors, _, _ = first_update("five_mg_lineflow.yaml",
                                                   2)
    deficient = []
    for f in factors:
        f = f.copy()
        f[5] = f[3]             # duplicated rows
        f[30] = 2.0 * f[31]
        f[[7, 40]] = 0.0        # zero rows
        deficient.append(f)
    thetas, *_ = run_loop(training._inner_loop, "five_mg_lineflow.yaml", 2,
                          factors=deficient)
    delta = world.cfg.delta
    for f, theta, theta0 in zip(deficient, thetas, thetas0):
        basis = span_of(f)
        assert basis.shape[1] == f.shape[0] - 4
        # the Gram matrix's round-off eigenvalues (about 1e-16 of the
        # largest here) give no basis vectors: those would be far from
        # unit length
        u, s = training._gram_eigen(f)
        v = f.T @ u / s
        assert len(s) == basis.shape[1]
        assert np.abs(v.T @ v - np.eye(len(s))).max() <= 1e-13
        step = theta - theta0
        assert np.linalg.norm(step) > 0
        assert np.linalg.norm(outside(basis, step)) <= \
            1e-12 * np.linalg.norm(step)
        dense = f.T @ f + 1e-8 * np.eye(f.shape[1])
        assert 0.5 * step @ dense @ step <= delta * (1 + 1e-9)
        assert trust_quadratic(f, step) <= delta * (1 + 1e-9)
