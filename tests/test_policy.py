"""Policy, chain-factor, backprop, and FIM tests (FD oracles)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaspl.policy import (
    ActionScaling,
    FeedforwardNet,
    GaussianPolicy,
    cov_chain_factor,
    fisher_information,
    load_checkpoint,
    save_checkpoint,
)
from smaspl.verify import _gaussian_pdf as gaussian_pdf


def make_scaling(d, lo=-1.0, hi=1.0, span=0.5, floor=0.01, state_dim=4):
    return ActionScaling(
        lo=np.full(d, lo), hi=np.full(d, hi), sigma_span=np.full(d, span),
        sigma_floor=floor, state_offset=np.zeros(state_dim),
        state_scale=np.ones(state_dim),
    )


def make_policy(seed=0, d=3, state_dim=4, hidden=(5, 5)):
    rng = np.random.default_rng(seed)
    return GaussianPolicy.initialize(state_dim, d, make_scaling(d, state_dim=state_dim),
                                     rng, hidden=hidden)


class TestForward:
    def test_zero_net_midpoint(self):
        sc = ActionScaling(lo=np.array([0.0, -4.0]), hi=np.array([10.0, 4.0]),
                           sigma_span=np.full(2, 0.5), sigma_floor=0.01,
                           state_offset=np.zeros(4), state_scale=np.ones(4))
        pol = GaussianPolicy(FeedforwardNet([4, 3, 2]),
                             FeedforwardNet([4, 3, 2]), sc)
        mu = pol.forward_mean(np.array([0.3, -0.2, 0.9, 0.1]))
        assert np.allclose(mu, [5.0, 0.0])

    def test_two_layer_hand_composition(self):
        net = FeedforwardNet([1, 1, 1],
                             weights=[np.array([[1.0]]), np.array([[1.0]])],
                             biases=[np.zeros(1), np.zeros(1)])
        pol = GaussianPolicy(net, FeedforwardNet([1, 1, 1]), make_scaling(1, state_dim=1))
        # identity output map (lo=-1, hi=1) exposes tanh(tanh(0.5))
        mu = pol.forward_mean(np.array([0.5]))
        assert mu[0] == pytest.approx(math.tanh(math.tanh(0.5)), abs=1e-15)

    def test_deterministic(self):
        pol = make_policy(5)
        s = np.array([0.1, 0.7, 0.4, 0.2])
        assert np.array_equal(pol.forward_mean(s), pol.forward_mean(s))

    def test_dimension_mismatch_rejected(self):
        pol = make_policy()
        with pytest.raises(ValueError, match="length"):
            pol.forward_mean(np.zeros(7))


class TestCovariance:
    def test_zero_net_half_span(self):
        pol = GaussianPolicy(FeedforwardNet([4, 3, 2]), FeedforwardNet([4, 3, 2]),
                             make_scaling(2))
        var = pol.forward_cov(np.zeros(4))
        assert np.allclose(np.sqrt(var), 0.01 + 0.25)

    def test_saturated_head_hits_floor_exactly(self):
        cov_net = FeedforwardNet([4, 2, 2])
        cov_net.biases[-1] = np.full(2, -40.0)  # tanh(-40) == -1.0 exactly
        pol = GaussianPolicy(FeedforwardNet([4, 2, 2]), cov_net, make_scaling(2))
        var = pol.forward_cov(np.zeros(4))
        assert np.all(np.sqrt(var) == 0.01)

    def test_always_invertible(self):
        for seed in range(8):
            pol = make_policy(seed)
            var = pol.forward_cov(np.array([0.3, 0.1, 0.9, 0.5]))
            assert np.all(var >= 0.01 ** 2)
            cond = var.max() / var.min()
            assert np.isfinite(cond)


class TestSampling:
    def test_sample_mean_lln(self):
        pol = make_policy(2)
        s = np.array([0.5, 0.2, 0.8, 0.1])
        mu = pol.forward_mean(s)
        sig = np.sqrt(pol.forward_cov(s))
        draws = pol.sample_actions(s, 100, np.random.default_rng(42))
        assert np.all(np.abs(draws.mean(axis=0) - mu) <= 3.0 * sig / 10.0)

    def test_tiny_floor_degenerates_to_mean(self):
        sc = make_scaling(2, span=0.0, floor=1e-9)
        pol = GaussianPolicy(FeedforwardNet([4, 3, 2]), FeedforwardNet([4, 3, 2]), sc)
        draws = pol.sample_actions(np.zeros(4), 10, np.random.default_rng(0))
        assert np.allclose(draws, 0.0, atol=1e-7)

    def test_seed_determinism(self):
        pol = make_policy(3)
        s = np.array([0.5, 0.2, 0.8, 0.1])
        a = pol.sample_actions(s, 16, np.random.default_rng(99))
        b = pol.sample_actions(s, 16, np.random.default_rng(99))
        assert np.array_equal(a, b)


class TestDensity:
    """The diagonal density the chain-factor audit differentiates."""

    def test_peak_value(self):
        rng = np.random.default_rng(1)
        mu = rng.normal(size=3)
        var = rng.uniform(0.5, 2.0, 3)
        f = gaussian_pdf(mu, mu, var)
        assert f == pytest.approx(1.0 / math.sqrt(np.prod(var) * (2 * math.pi) ** 3))

    def test_scalar_normal_value(self):
        # exp(-0.5)/sqrt(2*pi), evaluated by hand
        assert gaussian_pdf([1.0], [0.0], [1.0]) == pytest.approx(
            0.24197072451914337, rel=1e-12)

    def test_quadrature_normalization(self):
        xs = np.linspace(-8, 8, 4001)
        vals = np.array([gaussian_pdf([x], [0.3], [0.7]) for x in xs])
        total = np.sum((vals[1:] + vals[:-1]) / 2 * np.diff(xs))
        assert total == pytest.approx(1.0, abs=1e-6)


class TestChainFactors:
    """cov_chain_factor, (delta^2 - sigma^2) / (2 sigma^2 delta) with
    delta = a - mu, at closed-form points."""

    SIGMA = np.array([0.4, 1.0, 1.7])

    def test_zero_one_sigma_from_the_mean(self):
        mu = np.array([0.3, -1.2, 2.0])
        for sign in (1.0, -1.0):
            u = cov_chain_factor(mu + sign * self.SIGMA, mu, self.SIGMA ** 2)
            assert np.allclose(u, 0.0, atol=1e-15)

    def test_value_two_sigma_from_the_mean(self):
        mu = np.array([0.3, -1.2, 2.0])
        u = cov_chain_factor(mu + 2.0 * self.SIGMA, mu, self.SIGMA ** 2)
        assert np.allclose(u, 3.0 / (4.0 * self.SIGMA), rtol=1e-14)

    def test_odd_in_delta(self):
        # the middle entry lies inside the clamp
        delta = np.array([0.7, -1e-9, -2.3]) * self.SIGMA
        mu, var = np.zeros(3), self.SIGMA ** 2
        assert np.array_equal(cov_chain_factor(delta, mu, var),
                              -cov_chain_factor(-delta, mu, var))

    def test_cov_factor_matches_composition(self):
        # -(df/da)^-1 df/dSigma_dd from the diagonal density's partials
        # df/da = -(delta / sigma^2) f and
        # df/dSigma_dd = (delta^2 / sigma^2 - 1) f / (2 sigma^2)
        rng = np.random.default_rng(5)
        mu = rng.normal(size=4)
        var = rng.uniform(0.5, 2.0, 4)
        a = mu + rng.normal(size=4)
        delta = a - mu
        composed = (delta ** 2 / var - 1.0) / (2.0 * var) / (delta / var)
        assert np.allclose(composed, cov_chain_factor(a, mu, var), rtol=1e-12)

    def test_clamp_keeps_factors_finite(self):
        mu = np.zeros(2)
        var = np.ones(2)
        u = cov_chain_factor(mu, mu, var)  # exactly at the mean
        assert np.all(np.isfinite(u))
        # capped at its value 1e-6 sigma from the mean
        assert np.allclose(np.abs(u), (1.0 - 1e-12) / 2e-6, rtol=1e-12)

    def test_audit_catches_another_factor(self, monkeypatch):
        from smaspl import verify
        assert verify.audit_chain_factors(np.random.default_rng(0)).passed
        # the pathwise factor delta / (2 sigma^2) in place of the level-set one
        monkeypatch.setattr(verify, "cov_chain_factor",
                            lambda a, mu, s2: (a - mu) / (2.0 * s2))
        assert not verify.audit_chain_factors(np.random.default_rng(0)).passed


class TestBackprop:
    def fd_jacobian(self, net, x, h=1e-6):
        theta0 = net.flatten()
        d = net.sizes[-1]
        J = np.empty((d, theta0.size))
        for i in range(theta0.size):
            t = theta0.copy()
            t[i] += h
            net.unflatten(t)
            up = net.forward(x)
            t[i] -= 2 * h
            net.unflatten(t)
            dn = net.forward(x)
            J[:, i] = (up - dn) / (2 * h)
        net.unflatten(theta0)
        return J

    def test_output_bias_column(self):
        rng = np.random.default_rng(0)
        net = FeedforwardNet.init_uniform([3, 4, 2], -0.5, 0.5, rng)
        x = rng.normal(size=3)
        J = net.jacobian(x)
        fd = self.fd_jacobian(net, x)
        # last two columns are the output-layer bias block
        assert np.allclose(J[:, -2:], fd[:, -2:], atol=1e-8)

    def test_zero_net_symmetric_columns(self):
        net = FeedforwardNet([2, 3, 1])
        x = np.array([0.4, 0.4])
        J = net.jacobian(x)[0]
        # with identical inputs and all-zero weights the first-layer weight
        # columns are symmetric under swapping the two inputs
        w0 = J[:6].reshape(3, 2)
        assert np.allclose(w0[:, 0], w0[:, 1])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_net_vs_fd(self, seed):
        rng = np.random.default_rng(seed)
        net = FeedforwardNet.init_uniform([4, 6, 5, 3], -0.8, 0.8, rng)
        x = rng.normal(size=4)
        J = net.jacobian(x)
        fd = self.fd_jacobian(net, x)
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.max(np.abs(J - fd)) / scale <= 1e-5

    def test_policy_jacobians_include_scaling(self):
        pol = make_policy(9, d=2)
        s = np.array([0.2, 0.5, 0.1, 0.9])
        h = 1e-6
        theta = pol.mean_net.flatten()
        J = pol.mean_jacobian(s)
        i = theta.size // 2
        t = theta.copy()
        t[i] += h
        pol.mean_net.unflatten(t)
        up = pol.forward_mean(s)
        t[i] -= 2 * h
        pol.mean_net.unflatten(t)
        dn = pol.forward_mean(s)
        pol.mean_net.unflatten(theta)
        assert np.allclose(J[:, i], (up - dn) / (2 * h), atol=1e-7)


class TestFIM:
    def test_two_parameter_toy_closed_form(self):
        # direct parameterization theta = (mu, log sigma), D = 1:
        # J_mu = [1, 0], dSigma/dtheta = [0, 2 sigma^2]
        sigma2 = 0.49
        jac_mu = np.array([[1.0, 0.0]])
        jac_cov = np.array([[0.0, 2.0 * sigma2]])
        H = fisher_information(jac_mu, jac_cov, np.array([sigma2]))
        assert H[0, 0] == pytest.approx(2.0 / sigma2, rel=1e-12)
        assert H[1, 1] == pytest.approx(2.0, rel=1e-12)
        assert H[0, 1] == 0.0

    def test_policy_fim_symmetric_psd(self):
        pol = make_policy(11)
        H = pol.fisher(np.array([0.4, 0.1, 0.6, 0.3]))
        assert np.max(np.abs(H - H.T)) <= 1e-10
        eig = np.linalg.eigvalsh(H)
        assert eig.min() >= -1e-8

    def test_monte_carlo_score_vs_closed_form(self):
        # 2-parameter toy: score covariance matches the closed form with the
        # documented factor 2 on the mean entry and factor 1 on the other
        rng = np.random.default_rng(123)
        mu, sigma = 0.7, 1.3
        n = 200_000
        x = rng.normal(mu, sigma, n)
        score_mu = (x - mu) / sigma ** 2
        score_logsig = ((x - mu) ** 2 / sigma ** 2) - 1.0
        mc11 = np.mean(score_mu ** 2)
        mc22 = np.mean(score_logsig ** 2)
        H = fisher_information(np.array([[1.0, 0.0]]),
                               np.array([[0.0, 2.0 * sigma ** 2]]),
                               np.array([sigma ** 2]))
        assert H[0, 0] == pytest.approx(2.0 * mc11, rel=0.05)
        assert H[1, 1] == pytest.approx(mc22, rel=0.05)


class TestParameters:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_flatten_bijection(self, seed):
        rng = np.random.default_rng(seed)
        net = FeedforwardNet.init_uniform([3, 5, 2], -1, 1, rng)
        theta = net.flatten()
        net.unflatten(theta)
        assert np.array_equal(net.flatten(), theta)

    def test_policy_theta_roundtrip(self):
        pol = make_policy(21)
        theta = pol.get_theta()
        pol.set_theta(theta)
        assert np.array_equal(pol.get_theta(), theta)

    def test_checkpoint_roundtrip_bit_exact(self, tmp_path):
        pol = make_policy(31)
        path = tmp_path / "agent.json"
        save_checkpoint(pol, path)
        back = load_checkpoint(path)
        assert np.array_equal(back.get_theta(), pol.get_theta())
        assert np.array_equal(back.scaling.lo, pol.scaling.lo)
        s = np.array([0.3, 0.3, 0.2, 0.8])
        assert np.array_equal(back.forward_mean(s), pol.forward_mean(s))

    def test_checkpoint_format_tag(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)
