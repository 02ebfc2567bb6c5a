#!/usr/bin/env python3
"""Gaussian dispatch policies: sampling, chain factors, information.

Two small tanh networks map the forecast state to the mean and diagonal
covariance of the action distribution.  Training carries an action
gradient to the covariance head through cov_chain_factor, checked here
against differences of the density as `smaspl verify-gradients` does.
The closed-form information matrix is compared against a Monte-Carlo
estimate from the score function (the mean block carries a factor-2
convention, documented in the README).
"""

import numpy as np

from smaspl.policy import (
    ActionScaling, GaussianPolicy, cov_chain_factor, fisher_information,
)
from smaspl.verify import audit_chain_factors

rng = np.random.default_rng(7)
T, D = 4, 6
scaling = ActionScaling(
    lo=np.zeros(D), hi=np.full(D, 10.0), sigma_span=np.full(D, 1.0),
    sigma_floor=0.01, state_offset=np.zeros(2 * T),
    state_scale=np.concatenate([np.ones(T), np.full(T, 25.0)]),
)
policy = GaussianPolicy.initialize(2 * T, D, scaling, rng, [10, 10, 10])
state = np.concatenate([np.full(T, 0.6), np.full(T, 18.0)])

mu = policy.forward_mean(state)
var = policy.forward_cov(state)
print("policy mean   :", np.round(mu, 3))
print("policy std    :", np.round(np.sqrt(var), 3))

draws = policy.sample_actions(state, 100, np.random.default_rng(1))
print("sample mean   :", np.round(draws.mean(axis=0), 3))

a = draws[0]
print("cov factor    :", np.round(cov_chain_factor(a, mu, var), 3))
check = audit_chain_factors(np.random.default_rng(0))
print("chain check   : max rel err vs density differences =",
      f"{check.max_rel_err:.2e}", "pass" if check.passed else "FAIL")

H = policy.fisher(state)
eig = np.linalg.eigvalsh(H)
print(f"\ninformation matrix: {H.shape[0]}x{H.shape[1]}, "
      f"symmetric to {np.max(np.abs(H - H.T)):.1e}, "
      f"eigenvalues in [{eig.min():.2e}, {eig.max():.2e}]")

# 2-parameter toy: closed form vs Monte-Carlo score covariance
mu1, sig1 = 0.4, 0.9
x = np.random.default_rng(3).normal(mu1, sig1, 100_000)
mc_mean = np.mean(((x - mu1) / sig1 ** 2) ** 2)
mc_cov = np.mean((((x - mu1) ** 2 / sig1 ** 2) - 1.0) ** 2)
Ht = fisher_information(np.array([[1.0, 0.0]]),
                        np.array([[0.0, 2.0 * sig1 ** 2]]),
                        np.array([sig1 ** 2]))
print("toy closed form  :", np.round(np.diag(Ht), 4))
print("monte-carlo score:", np.round([mc_mean, mc_cov], 4),
      "(mean entry doubled by convention)")
