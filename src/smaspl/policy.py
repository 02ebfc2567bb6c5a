"""DNN-parameterized multivariate Gaussian control policies.

Each agent carries two small tanh feedforward networks mapping its 2*T
forecast state to the mean vector and the diagonal covariance of a
Gaussian over its 6*T control actions.  Backpropagation is hand-rolled
so the full Jacobian of network outputs w.r.t. the flattened parameters
is available in closed form; the policy-update trust region needs it
explicitly, which rules out autodiff frameworks here.

Network outputs live in (-1, 1) (tanh on every layer, output included)
and are mapped per-dimension:

    mu_d    = lo_d + (y_d + 1)/2 * (hi_d - lo_d)
    sigma_d = sigma_floor + span_d * (y_d + 1)/2        (std, >= floor)

so the produced mean always lies in the configured action box and the
covariance diagonal never drops below sigma_floor^2.

Training's action gradients reach the covariance head through
cov_chain_factor (the mean head's factor is 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeedforwardNet",
    "ActionScaling",
    "GaussianPolicy",
    "PolicyEval",
    "fisher_information",
    "cov_chain_factor",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "smaspl-policy-1"


class FeedforwardNet:
    """Fully connected tanh network (tanh on the output layer too)."""

    def __init__(self, sizes, weights=None, biases=None):
        self.sizes = list(int(s) for s in sizes)
        if len(self.sizes) < 2:
            raise ValueError("need at least input and output layers")
        if weights is None:
            weights = [np.zeros((o, i))
                       for i, o in zip(self.sizes[:-1], self.sizes[1:])]
            biases = [np.zeros(o) for o in self.sizes[1:]]
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        for w, b, i, o in zip(self.weights, self.biases,
                              self.sizes[:-1], self.sizes[1:]):
            if w.shape != (o, i) or b.shape != (o,):
                raise ValueError("layer shape mismatch")

    @classmethod
    def init_uniform(cls, sizes, lo, hi, rng: np.random.Generator):
        net = cls(sizes)
        net.weights = [rng.uniform(lo, hi, w.shape) for w in net.weights]
        net.biases = [rng.uniform(lo, hi, b.shape) for b in net.biases]
        return net

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def flatten(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def unflatten(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_params,):
            raise ValueError(f"parameter vector must have length {self.n_params}")
        pos = 0
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[k] = vec[pos:pos + w.size].reshape(w.shape).copy()
            pos += w.size
            self.biases[k] = vec[pos:pos + b.size].copy()
            pos += b.size

    def _activations(self, x: np.ndarray) -> list[np.ndarray]:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.sizes[0],):
            raise ValueError(
                f"input must have length {self.sizes[0]}, got {x.shape}")
        acts = [x]
        for w, b in zip(self.weights, self.biases):
            acts.append(np.tanh(w @ acts[-1] + b))
        return acts

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._activations(x)[-1]

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """d(output)/d(flattened params), shape (out_dim, n_params).

        Reverse accumulation from the output layer toward the input; the
        sensitivity matrix S_l maps perturbations of layer l's
        pre-activation to output perturbations.
        """
        acts = self._activations(x)
        out_dim = self.sizes[-1]
        n_layers = len(self.weights)
        S = np.diag(1.0 - acts[-1] ** 2)
        blocks = [None] * n_layers
        for l in range(n_layers - 1, -1, -1):
            a_in = acts[l]
            w_block = (S[:, :, None] * a_in[None, None, :]).reshape(out_dim, -1)
            blocks[l] = (w_block, S.copy())
            if l > 0:
                S = (S @ self.weights[l]) * (1.0 - acts[l] ** 2)[None, :]
        cols = []
        for w_block, b_block in blocks:
            cols.append(w_block)
            cols.append(b_block)
        return np.hstack(cols)


# ---------------------------------------------------------------------------
# Information matrix and the covariance chain factor
# ---------------------------------------------------------------------------

def fisher_information(jac_mu: np.ndarray, jac_cov_diag: np.ndarray,
                       sigma2: np.ndarray) -> np.ndarray:
    """Closed-form Fisher information for a diagonal-covariance Gaussian.

    jac_mu: (D, P) mean Jacobian, jac_cov_diag: (D, P) Jacobian of the
    covariance diagonal, both over the same parameter vector.  The mean
    block carries a leading factor 2 (twice the score-covariance value;
    kept as the package convention and documented in the README); the
    covariance block is the (1/2) trace form, which the score estimator
    reproduces exactly.
    """
    jac_mu = np.asarray(jac_mu, float)
    jac_cov_diag = np.asarray(jac_cov_diag, float)
    sigma2 = np.asarray(sigma2, float)
    h = 2.0 * (jac_mu.T * (1.0 / sigma2)[None, :]) @ jac_mu
    h += 0.5 * (jac_cov_diag.T * (1.0 / sigma2 ** 2)[None, :]) @ jac_cov_diag
    return 0.5 * (h + h.T)


_DELTA_CLAMP = 1e-6


def cov_chain_factor(a, mu, sigma2) -> np.ndarray:
    """Composed factor (da/d pi)(d pi/d Sigma_dd) along a density level set.

    Equals (delta^2 - sigma^2) / (2 sigma^2 delta) per dimension with
    delta = a - mu, its magnitude kept >= _DELTA_CLAMP * sigma (sign
    preserved) so the factor stays finite at the mean.
    """
    sigma2 = np.asarray(sigma2, float)
    delta = np.asarray(a, float) - np.asarray(mu, float)
    floor = _DELTA_CLAMP * np.sqrt(sigma2)
    delta = np.where(np.abs(delta) < floor,
                     np.where(delta < 0, -floor, floor), delta)
    return (delta ** 2 - sigma2) / (2.0 * sigma2 * delta)


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------

@dataclass
class ActionScaling:
    """Affine output maps and input normalization for one agent."""

    lo: np.ndarray             # (D,) action box lower corner
    hi: np.ndarray             # (D,) action box upper corner
    sigma_span: np.ndarray     # (D,) std range on top of the floor
    sigma_floor: float
    state_offset: np.ndarray   # (2T,)
    state_scale: np.ndarray    # (2T,)

    def __post_init__(self):
        self.lo = np.asarray(self.lo, float)
        self.hi = np.asarray(self.hi, float)
        self.sigma_span = np.asarray(self.sigma_span, float)
        self.state_offset = np.asarray(self.state_offset, float)
        self.state_scale = np.asarray(self.state_scale, float)
        if np.any(self.hi < self.lo):
            raise ValueError("action box upper corner below lower corner")
        if self.sigma_floor <= 0:
            raise ValueError("sigma_floor must be positive")
        if np.any(self.state_scale <= 0):
            raise ValueError("state_scale must be positive")


@dataclass
class PolicyEval:
    """Cached per-state forward pass and Jacobians."""

    mu: np.ndarray
    sigma2: np.ndarray
    jac_mu: np.ndarray       # (D, P_mu)
    jac_sigma2: np.ndarray   # (D, P_sigma)

    def fisher_factor(self) -> np.ndarray:
        """Rows F, (2D, P_mu + P_sigma), with F^T F the Fisher information.

        The metric has rank at most 2D, so the trust region is evaluated
        from these rows and the dense (P, P) matrix is never formed.
        """
        d, p_mu = self.jac_mu.shape
        f = np.zeros((2 * d, p_mu + self.jac_sigma2.shape[1]))
        f[:d, :p_mu] = np.sqrt(2.0 / self.sigma2)[:, None] * self.jac_mu
        f[d:, p_mu:] = (np.sqrt(0.5) / self.sigma2)[:, None] * self.jac_sigma2
        return f


class GaussianPolicy:
    """Diagonal-covariance Gaussian policy over one agent's actions."""

    def __init__(self, mean_net: FeedforwardNet, cov_net: FeedforwardNet,
                 scaling: ActionScaling):
        if mean_net.sizes[-1] != cov_net.sizes[-1]:
            raise ValueError("mean and covariance heads must share output size")
        if mean_net.sizes[0] != cov_net.sizes[0]:
            raise ValueError("mean and covariance heads must share input size")
        self.mean_net = mean_net
        self.cov_net = cov_net
        self.scaling = scaling
        if scaling.lo.shape != (self.action_dim,):
            raise ValueError("scaling dimensions do not match the action head")

    @classmethod
    def initialize(cls, state_dim: int, action_dim: int,
                   scaling: ActionScaling, rng: np.random.Generator, hidden):
        sizes = [state_dim, *hidden, action_dim]
        mean_net = FeedforwardNet.init_uniform(sizes, 0.0, 0.2, rng)
        cov_net = FeedforwardNet.init_uniform(sizes, -0.03, 0.03, rng)
        return cls(mean_net, cov_net, scaling)

    @property
    def action_dim(self) -> int:
        return self.mean_net.sizes[-1]

    @property
    def state_dim(self) -> int:
        return self.mean_net.sizes[0]

    @property
    def n_params(self) -> int:
        return self.mean_net.n_params + self.cov_net.n_params

    # -- parameter vector ---------------------------------------------------

    def get_theta(self) -> np.ndarray:
        return np.concatenate([self.mean_net.flatten(), self.cov_net.flatten()])

    def set_theta(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        p_mu = self.mean_net.n_params
        self.mean_net.unflatten(theta[:p_mu])
        self.cov_net.unflatten(theta[p_mu:])

    # -- forward passes -----------------------------------------------------

    def _norm_state(self, state) -> np.ndarray:
        s = np.asarray(state, dtype=float)
        if s.shape != (self.state_dim,):
            raise ValueError(f"state must have length {self.state_dim}")
        return (s - self.scaling.state_offset) / self.scaling.state_scale

    def forward_mean(self, state) -> np.ndarray:
        y = self.mean_net.forward(self._norm_state(state))
        sc = self.scaling
        return sc.lo + 0.5 * (y + 1.0) * (sc.hi - sc.lo)

    def _sigma(self, state) -> np.ndarray:
        y = self.cov_net.forward(self._norm_state(state))
        sc = self.scaling
        return sc.sigma_floor + sc.sigma_span * 0.5 * (y + 1.0)

    def forward_cov(self, state) -> np.ndarray:
        """Diagonal of the covariance (variances, each >= sigma_floor^2)."""
        return self._sigma(state) ** 2

    def sample_actions(self, state, count: int,
                       rng: np.random.Generator) -> np.ndarray:
        """(count, D) i.i.d. draws from N(mu, diag(sigma^2))."""
        if count < 1:
            raise ValueError("count must be >= 1")
        mu = self.forward_mean(state)
        sigma = self._sigma(state)
        return mu[None, :] + sigma[None, :] * rng.standard_normal(
            (count, self.action_dim))

    # -- derivatives --------------------------------------------------------

    def mean_jacobian(self, state) -> np.ndarray:
        """d mu / d theta_mu including the output scaling map."""
        x = self._norm_state(state)
        slope = 0.5 * (self.scaling.hi - self.scaling.lo)
        return slope[:, None] * self.mean_net.jacobian(x)

    def cov_jacobian(self, state) -> np.ndarray:
        """d Sigma_dd / d theta_sigma including the positivity map."""
        x = self._norm_state(state)
        sigma = self._sigma(state)
        # dSigma_dd/dy = 2 sigma_d * span_d / 2 = sigma_d * span_d
        slope = sigma * self.scaling.sigma_span
        return slope[:, None] * self.cov_net.jacobian(x)

    def evaluate(self, state) -> PolicyEval:
        return PolicyEval(
            mu=self.forward_mean(state),
            sigma2=self.forward_cov(state),
            jac_mu=self.mean_jacobian(state),
            jac_sigma2=self.cov_jacobian(state),
        )

    def fisher(self, state) -> np.ndarray:
        """Fisher information over [theta_mu, theta_sigma], block diagonal."""
        ev = self.evaluate(state)
        p = self.n_params
        p_mu = self.mean_net.n_params
        jac_mu = np.zeros((self.action_dim, p))
        jac_mu[:, :p_mu] = ev.jac_mu
        jac_sig = np.zeros((self.action_dim, p))
        jac_sig[:, p_mu:] = ev.jac_sigma2
        return fisher_information(jac_mu, jac_sig, ev.sigma2)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(policy: GaussianPolicy, path) -> None:
    """Versioned text serialization; floats round-trip bit-exactly."""
    sc = policy.scaling
    data = {
        "format": CHECKPOINT_FORMAT,
        "state_dim": policy.state_dim,
        "action_dim": policy.action_dim,
        "mean_sizes": policy.mean_net.sizes,
        "cov_sizes": policy.cov_net.sizes,
        "lo": sc.lo.tolist(),
        "hi": sc.hi.tolist(),
        "sigma_span": sc.sigma_span.tolist(),
        "sigma_floor": sc.sigma_floor,
        "state_offset": sc.state_offset.tolist(),
        "state_scale": sc.state_scale.tolist(),
        "theta_mu": policy.mean_net.flatten().tolist(),
        "theta_sigma": policy.cov_net.flatten().tolist(),
    }
    with open(path, "w") as fh:
        json.dump(data, fh)


def _finite(x) -> bool:
    """x is a finite JSON number (no bool)."""
    return type(x) in (int, float) and math.isfinite(x)


_VECTOR = ("a list of finite numbers",
           lambda v: isinstance(v, list) and all(map(_finite, v)))
_SIZES = ("a list of positive integers",
          lambda v: isinstance(v, list)
          and all(type(x) is int and x >= 1 for x in v))
# what each value of a checkpoint must be, in save_checkpoint's key order
_CHECKPOINT_VALUES = {
    "mean_sizes": _SIZES, "cov_sizes": _SIZES, "lo": _VECTOR, "hi": _VECTOR,
    "sigma_span": _VECTOR, "sigma_floor": ("a finite number", _finite),
    "state_offset": _VECTOR, "state_scale": _VECTOR, "theta_mu": _VECTOR,
    "theta_sigma": _VECTOR,
}


def load_checkpoint(path) -> GaussianPolicy:
    """The policy save_checkpoint wrote to path.  A file that is not a
    JSON object of this format, lacks one of its keys, holds a value of
    the wrong type or one that does not fit the policy's shapes raises
    ValueError naming the file (and the key, where one is at fault)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: unsupported checkpoint format {fmt!r}")
    for key, (what, check) in _CHECKPOINT_VALUES.items():
        if key not in data:
            raise ValueError(f"{path}: checkpoint has no key {key!r}")
        if not check(data[key]):
            raise ValueError(f"{path}: checkpoint key {key!r} must be {what}")
    try:
        scaling = ActionScaling(
            lo=np.array(data["lo"]), hi=np.array(data["hi"]),
            sigma_span=np.array(data["sigma_span"]),
            sigma_floor=float(data["sigma_floor"]),
            state_offset=np.array(data["state_offset"]),
            state_scale=np.array(data["state_scale"]),
        )
        mean_net = FeedforwardNet(data["mean_sizes"])
        mean_net.unflatten(np.array(data["theta_mu"]))
        cov_net = FeedforwardNet(data["cov_sizes"])
        cov_net.unflatten(np.array(data["theta_sigma"]))
        return GaussianPolicy(mean_net, cov_net, scaling)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
