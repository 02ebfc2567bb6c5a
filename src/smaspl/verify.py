"""Finite-difference audits of every analytic derivative family.

Each family compares closed-form derivatives against an independent
numerical oracle: full power-flow re-solves for the network
sensitivities (fourth-order Richardson differences of the voltages'
real and imaginary parts, the voltage magnitudes, the branch currents'
real and imaginary parts, with the current magnitudes' derivatives
formed from them, and the PCC active and reactive power), ratios of a
Gaussian density's central differences for the chain factors that
carry training's action gradients to the policy heads, central
differences for the network Jacobians, and direct return
re-evaluation for the local constraint rows.  The network and
constraint families run the stacked functions training runs
(solve_power_flow_stack, step_sensitivity_stack, network_observables,
row_gradient_stack, constraint_return_stack), each trial's operating
points or returns as one stack; the network families read the
sensitivities that step_sensitivity_stack composes on the solve's
columns, per control by an exact gather and sign.  A deliberately
faulted variant of the injection table is available to prove the audit
actually catches sign errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .grid import Branch, Bus, GridModel, solve_power_flow_stack
from .gradients import (
    injection_current_jacobian,
    row_gradient_stack,
    step_sensitivity_stack,
)
from .microgrid import (
    CONSTRAINT_NETWORK_KINDS,
    BusMap,
    ConstraintIndex,
    DGSpec,
    ESSSpec,
    MicrogridSpec,
    Observables,
    PCCSpec,
    PVSpec,
    actions_to_injections,
    build_constraint_table,
    constraint_return_stack,
    network_observables,
)
from .policy import FeedforwardNet, cov_chain_factor

__all__ = ["AuditResult", "run_all_audits", "FAULTS"]

FD_H_KW = 0.01          # 1e-4 p.u. at the 100 kVA base
PF_TOL = 1e-12          # oracle re-solves run tighter than production

# pass tolerance on the worst relative error, per family
TOL_INJECTION = 1e-8
TOL_NETWORK = 1e-4
TOL_CHAIN_FACTORS = 1e-5
TOL_DNN = 1e-5
TOL_LOCAL_ROWS = 1e-6
# family 6 skips a trial with a draw this close to its mean, in sigmas
NEAR_MEAN_SIGMAS = 1e-4

FAULTS = ("table3-qdg-sign",)


@dataclass
class AuditResult:
    family: str
    tolerance: float
    trials: int
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def _record(dump, family, index, analytic, fd, scale):
    if dump is not None:
        dump.append((family, index, float(analytic), float(fd),
                     abs(analytic - fd) / scale))


# ---------------------------------------------------------------------------
# Random desk-scale cases
# ---------------------------------------------------------------------------

def _random_case(rng: np.random.Generator):
    """Radial network of 3..5 buses with one microgrid behind bus 1:
    bus 1 hangs on the slack and each later bus on a uniformly drawn
    earlier microgrid bus, so the microgrid is a random tree."""
    n = int(rng.integers(3, 6))
    buses = [Bus(0, "slack", 0.8, 1.2)]
    buses += [Bus(i, "load", 0.8, 1.2, mg_owner=0) for i in range(1, n)]
    branches = []
    for i in range(1, n):
        parent = int(rng.integers(1, i)) if i > 1 else 0
        r = float(rng.uniform(0.004, 0.03))
        x = float(rng.uniform(0.004, 0.03))
        branches.append(Branch.from_impedance(parent, i, r, x, 10.0))
    grid = GridModel(buses, branches)
    pick = lambda: int(rng.integers(1, n))
    spec = MicrogridSpec(
        mg_id=0,
        dg=DGSpec(p_max_kw=40.0, q_max_kvar=20.0, ramp_kw=20.0,
                  fuel_price=0.57, a_f=0.0001773, b_f=0.1709, c_f=14.67),
        ess=ESSSpec(e_cap_kwh=20.0, p_ch_max_kw=4.0, p_dis_max_kw=4.0,
                    eta_ch=0.95, eta_dis=0.90, soc_min=0.1, soc_max=0.9,
                    q_max_kvar=3.0),
        pv=PVSpec(p_rated_kw=15.0, q_max_kvar=8.0),
        pcc=PCCSpec(p_max_kw=80.0, q_max_kvar=40.0, price_per_kwh=0.046),
        bus_map=BusMap(dg=pick(), ess=pick(), pv=pick(), load=pick(),
                       pcc_mg=1, pcc_host=0),
    )
    load = rng.uniform(2.0, 20.0, (1, 1))
    irr = rng.uniform(0.0, 1.0, (1, 1))
    actions = np.array([[
        rng.uniform(0.0, 35.0),    # p_dg
        rng.uniform(0.0, 4.0),     # p_ch
        rng.uniform(0.0, 4.0),     # p_dis
        rng.uniform(0.0, 15.0),    # q_dg
        rng.uniform(-8.0, 8.0),    # q_pv
        rng.uniform(-3.0, 3.0),    # q_ess
    ]])
    return grid, spec, actions, load, irr


def _solve_stack(grid, spec, actions, load, irr):
    """Power flows of a stack of actions (S, 1, 6T): the S x T operating
    points, sample-major, solved as one stack at the oracle tolerance."""
    p, q = actions_to_injections(actions, load, irr, [spec], grid.n_bus)
    return solve_power_flow_stack(grid, p.reshape(-1, grid.n_bus),
                                  q.reshape(-1, grid.n_bus), tol=PF_TOL)


def _central_stack(actions, *steps):
    """actions (1, W) followed, for each step h in turn, by its W +h and
    its W -h displacements, as one stack (1 + 2W len(steps), 1, W)."""
    eye = np.eye(actions.shape[1])
    shifted = [actions + sign * h * eye for h in steps for sign in (1, -1)]
    return np.concatenate([actions, *shifted])[:, None, :]


# ---------------------------------------------------------------------------
# Family 1: injection-current partials at fixed voltage
# ---------------------------------------------------------------------------

def _load_current(p_kw, q_kvar, v_re, v_im, base):
    p = p_kw / base
    q = q_kvar / base
    v2 = v_re ** 2 + v_im ** 2
    return ((p * v_re + q * v_im) / v2, (p * v_im - q * v_re) / v2)

# how each control enters the net load (sign of dp, sign of dq)
_CONTROL_LOAD_SIGN = {
    "p_dg": (-1.0, 0.0), "p_ch": (+1.0, 0.0), "p_dis": (-1.0, 0.0),
    "q_dg": (0.0, +1.0), "q_pv": (0.0, +1.0), "q_ess": (0.0, -1.0),
}


def audit_injection_jacobian(rng, trials=50, fault=None,
                             dump=None) -> AuditResult:
    worst = 0.0
    base = 100.0
    for _ in range(trials):
        v_re = rng.uniform(0.9, 1.1, 3)
        v_im = rng.uniform(-0.1, 0.1, 3)
        p_kw = rng.uniform(-30.0, 30.0, 3)
        q_kvar = rng.uniform(-20.0, 20.0, 3)
        sol = SimpleNamespace(v_re=v_re, v_im=v_im)
        entries = injection_current_jacobian(sol)
        if fault == "table3-qdg-sign":
            dire, diim = entries["q_dg"]
            entries["q_dg"] = (-dire, -diim)
        h = FD_H_KW
        for control, (dire, diim) in entries.items():
            sp, sq = _CONTROL_LOAD_SIGN[control]
            up = _load_current(p_kw + sp * h, q_kvar + sq * h, v_re, v_im, base)
            dn = _load_current(p_kw - sp * h, q_kvar - sq * h, v_re, v_im, base)
            fd_re = (up[0] - dn[0]) / (2 * h) * base
            fd_im = (up[1] - dn[1]) / (2 * h) * base
            scale = max(np.abs(fd_re).max(), np.abs(fd_im).max(), 1e-9)
            err = max(np.abs(dire - fd_re).max(),
                      np.abs(diim - fd_im).max()) / scale
            worst = max(worst, err)
            _record(dump, "injection-jacobian", control,
                    dire[0], fd_re[0], scale)
    return AuditResult("injection-jacobian", TOL_INJECTION, trials, worst)


# ---------------------------------------------------------------------------
# Families 2-5: network sensitivities vs full re-solves
# ---------------------------------------------------------------------------

def audit_network_sensitivities(rng, trials=50,
                                dump=None) -> list[AuditResult]:
    worst = {"voltage-sensitivity": 0.0, "voltage-magnitude": 0.0,
             "branch-current-magnitude": 0.0, "pcc-power": 0.0}
    h = FD_H_KW
    done = 0
    while done < trials:
        grid, spec, actions, load, irr = _random_case(rng)
        # the base point, then its six +h, six -h, six +2h and six -2h
        # points
        pf = _solve_stack(grid, spec, _central_stack(actions, h, 2 * h),
                          load, irr)
        if not pf.converged.all():
            continue
        done += 1
        sens = step_sensitivity_stack(grid, pf.take([0]), [spec]).map(
            lambda x: x[0])
        obs = network_observables(grid, pf, [spec])

        def central(x):
            """Richardson-extrapolated central differences of a per-point
            quantity, (4 D(h) - D(2h)) / 3, (X, 6)."""
            d_h = (x[1:7] - x[7:13]) / (2 * h)
            d_2h = (x[13:19] - x[19:25]) / (4 * h)
            return ((4 * d_h - d_2h) / 3).T

        # |I| bends too sharply for differences where a branch carries a
        # current about the size of h, so difference the smooth complex
        # current and form d|I| at the base point, zero below 1e-9 p.u.
        # as in the analytic code
        di_re, di_im = central(pf.i_br_re), central(pf.i_br_im)
        i_re, i_im = pf.i_br_re[0][:, None], pf.i_br_im[0][:, None]
        i_mag = np.hypot(i_re, i_im)
        di_mag = np.divide(i_re * di_re + i_im * di_im, i_mag,
                           out=np.zeros_like(di_re), where=i_mag >= 1e-9)
        checks = [
            ("voltage-sensitivity", np.concatenate([sens.dv_re, sens.dv_im]),
             np.concatenate([central(pf.v_re), central(pf.v_im)])),
            ("voltage-magnitude", sens.dv_mag, central(obs.v_mag)),
            ("branch-current-magnitude", sens.di_mag, di_mag),
            ("pcc-power", np.concatenate([sens.dpcc_p, sens.dpcc_q]),
             np.concatenate([central(obs.pcc_p), central(obs.pcc_q)])),
        ]
        for family, analytic, fd in checks:
            scale = max(float(np.abs(fd).max()), 1e-9)
            err = float(np.abs(analytic - fd).max()) / scale
            worst[family] = max(worst[family], err)
            flat = np.argmax(np.abs(analytic - fd))
            _record(dump, family, int(flat), analytic.ravel()[flat],
                    fd.ravel()[flat], scale)
    return [AuditResult(f, TOL_NETWORK, trials, w) for f, w in worst.items()]


# ---------------------------------------------------------------------------
# Family 6: the chain factors training multiplies by
# ---------------------------------------------------------------------------

def _gaussian_pdf(x, mu, var) -> float:
    """Density of N(mu, diag(var)) at x: family 6's oracle."""
    x, mu, var = (np.asarray(v, dtype=float) for v in (x, mu, var))
    return math.exp(-0.5 * (np.sum((x - mu) ** 2 / var) + np.sum(np.log(var))
                            + x.size * math.log(2.0 * math.pi)))


def audit_chain_factors(rng, trials=100, dump=None) -> AuditResult:
    """The factors -(df/da_d)^-1 df/dp_d that carry an action gradient to
    a policy head along a level set of the density f: the mean head's
    (p = mu_d; training takes it as 1) and cov_chain_factor (p = Sigma_dd),
    against ratios of f's central differences."""
    worst = 0.0
    h = 1e-5
    for _ in range(trials):
        d = int(rng.integers(1, 4))
        mu = rng.normal(size=d)
        var = rng.uniform(0.3, 2.0, d)
        a = mu + rng.normal(size=d) * np.sqrt(var)
        if np.any(np.abs(a - mu) < NEAR_MEAN_SIGMAS * np.sqrt(var)):
            continue  # f's differences cannot resolve 1/(a - mu) there

        def central(f):
            return np.array([(f(e) - f(-e)) / (2 * h) for e in h * np.eye(d)])

        fd_a = central(lambda e: _gaussian_pdf(a + e, mu, var))
        fd_mu = central(lambda e: _gaussian_pdf(a, mu + e, var))
        fd_cov = central(lambda e: _gaussian_pdf(a, mu, var + e))
        for name, an, fd in (("mean", np.ones(d), -fd_mu / fd_a),
                             ("cov", cov_chain_factor(a, mu, var),
                              -fd_cov / fd_a)):
            # relative above 1, absolute below: cov's is 0 at |a - mu| = sigma
            scale = max(float(np.abs(fd).max()), 1.0)
            err = float(np.abs(an - fd).max()) / scale
            worst = max(worst, err)
            _record(dump, "chain-factors", name, an[0], fd[0], scale)
    return AuditResult("chain-factors", TOL_CHAIN_FACTORS, trials, worst)


# ---------------------------------------------------------------------------
# Family 7: network-output Jacobians
# ---------------------------------------------------------------------------

def audit_dnn_jacobian(rng, trials=100, dump=None) -> AuditResult:
    worst = 0.0
    h = 1e-6
    for _ in range(trials):
        sizes = [int(rng.integers(2, 5)), int(rng.integers(3, 8)),
                 int(rng.integers(2, 5))]
        net = FeedforwardNet.init_uniform(sizes, -0.8, 0.8, rng)
        x = rng.normal(size=sizes[0])
        J = net.jacobian(x)
        theta = net.flatten()
        fd = np.empty_like(J)
        for i in range(theta.size):
            t = theta.copy()
            t[i] += h
            net.unflatten(t)
            up = net.forward(x)
            t[i] -= 2 * h
            net.unflatten(t)
            dn = net.forward(x)
            fd[:, i] = (up - dn) / (2 * h)
        net.unflatten(theta)
        scale = max(float(np.abs(fd).max()), 1e-9)
        err = float(np.abs(J - fd).max()) / scale
        worst = max(worst, err)
        flat = int(np.argmax(np.abs(J - fd)))
        _record(dump, "dnn-jacobian", flat, J.ravel()[flat],
                fd.ravel()[flat], scale)
    return AuditResult("dnn-jacobian", TOL_DNN, trials, worst)


# ---------------------------------------------------------------------------
# Family 8: local constraint rows vs return re-evaluation
# ---------------------------------------------------------------------------

def audit_local_row_gradients(rng, trials=25, dump=None) -> AuditResult:
    worst = 0.0
    horizon = 4
    gamma = 0.99
    h = 1e-4
    done = 0
    while done < trials:
        grid, spec, _, load1, irr1 = _random_case(rng)
        load = np.repeat(load1, horizon, axis=0)
        irr = np.repeat(irr1, horizon, axis=0)
        actions = rng.uniform(-2.0, 8.0, (1, 6 * horizon))
        pf = _solve_stack(grid, spec, actions[None], load, irr)
        if not pf.converged.all():
            continue
        done += 1
        index = ConstraintIndex.of(
            [r for r in build_constraint_table(grid, [spec])
             if r.scope == "local" and r.kind not in CONSTRAINT_NETWORK_KINDS])
        sens = step_sensitivity_stack(grid, pf, [spec]).map(
            lambda x: x[None])
        grads = row_gradient_stack(index, sens, actions[None], [spec],
                                   gamma)[0, 0]                  # (6T, M)
        # the base returns and the +h and -h returns of every coordinate;
        # the action-driven rows do not read the network observables
        stack = _central_stack(actions, h)
        obs = network_observables(grid, pf, [spec])
        obs = Observables(*(np.broadcast_to(x, (len(stack), *x.shape))
                            for x in (obs.v_mag, obs.i_mag, obs.pcc_p,
                                      obs.pcc_q)))
        values = constraint_return_stack(index, stack, obs, [spec], gamma,
                                         prev_dg=[0.0])
        width = 6 * horizon
        fd = (values[1:1 + width] - values[1 + width:]) / (2 * h)
        scale = np.maximum(np.maximum(np.abs(fd), np.abs(values[0])), 1.0)
        err = np.abs(grads - fd) / scale
        worst = max(worst, float(err.max()))
        # the first largest error, coordinate-major
        i, m = np.unravel_index(np.argmax(err), err.shape)
        _record(dump, "local-constraint-gradients", f"{index.ids[m]}:{i}",
                grads[i, m], fd[i, m], scale[i, m])
    return AuditResult("local-constraint-gradients", TOL_LOCAL_ROWS, trials,
                       worst)


# ---------------------------------------------------------------------------

def run_all_audits(seed: int = 0, *, trials_network: int = 50,
                   fault: str | None = None,
                   dump: list | None = None) -> list[AuditResult]:
    """All derivative families; returns one result row per family."""
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; available: {FAULTS}")
    rng = np.random.default_rng(seed)
    results = [audit_injection_jacobian(rng, trials=trials_network,
                                        fault=fault, dump=dump)]
    results += audit_network_sensitivities(rng, trials=trials_network,
                                           dump=dump)
    results.append(audit_chain_factors(rng, dump=dump))
    results.append(audit_dnn_jacobian(rng, dump=dump))
    results.append(audit_local_row_gradients(rng, dump=dump))
    return results
