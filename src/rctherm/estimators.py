"""Model identification: NNLS for 1R1C, variational Bayes for nRnC.

The nRnC estimator fits a single linear predictor over the lagged
regression rows with a factorized Gaussian variational posterior over its
4n+3 weights and 1 bias, trained by stochastic gradient on the negative
evidence lower bound (curvature-preconditioned steps for the means, a
diagonal adaptive update for the scales). The weights are the compound
difference-equation coefficients directly (inputs are fed raw, never
standardized).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import expit

from .errors import (
    ConvergenceError,
    InsufficientDataError,
    InvalidParameterError,
    ShapeError,
    TrainingError,
)
from .rcnet import DiffCoeffs

_VALID_EPS = 1e-12
POSTERIOR_LAYOUT = "u-lags-then-y-lags-bias-last/1"


# ---------------------------------------------------------------------------
# Non-negative least squares

def nnls(a, y):
    """Lawson-Hanson active-set solution of min ||Ax - y|| s.t. x >= 0.

    Raises ConvergenceError if more than 3k active-set iterations are needed
    (k = number of columns).
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if a.ndim != 2:
        raise ShapeError(f"design matrix must be 2-D, got shape {a.shape}")
    if a.shape[0] != y.shape[0]:
        raise ShapeError(f"A has {a.shape[0]} rows but y has {y.shape[0]} entries")
    if not (np.isfinite(a).all() and np.isfinite(y).all()):
        raise InvalidParameterError("nnls inputs must be finite")

    m, k = a.shape
    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    w = a.T @ y  # gradient of the objective at x = 0 (negated)
    tol = 1e-12 * max(np.abs(w).max(), 1.0)

    for _ in range(3 * k):
        w = a.T @ (y - a @ x)
        candidates = ~passive
        if not candidates.any() or w[candidates].max() <= tol:
            return x
        j = int(np.flatnonzero(candidates)[np.argmax(w[candidates])])
        passive[j] = True

        while True:
            cols = np.flatnonzero(passive)
            z = np.zeros(k)
            sol, *_ = np.linalg.lstsq(a[:, cols], y, rcond=None)
            z[cols] = sol
            if (z[cols] > tol).all():
                x = z
                break
            blocking = cols[z[cols] <= tol]
            alpha = np.min(x[blocking] / (x[blocking] - z[blocking]))
            x = x + alpha * (z - x)
            passive[np.abs(x) <= tol] = False
            x[~passive] = 0.0
    raise ConvergenceError(f"nnls exceeded {3 * k} active-set iterations")


@dataclass(frozen=True)
class OneROneCFit:
    """Compound per-step 1R1C coefficients recovered by NNLS.

    a = delta/(C1 R1), b = delta*Q_heat/C1, c = delta*Q_cool/C1 in per-step
    units (the step length is absorbed into the coefficients).
    """

    a: float
    b: float
    c: float
    valid: bool
    residual_norm: float

    def to_json(self):
        return json.dumps({"kind": "onercone", **asdict(self)}, sort_keys=True)


def fit_1r1c(train, controls):
    """Fit the first-difference 1R1C equation by non-negative least squares.

    The fit is flagged invalid when the envelope coefficient vanishes, or
    when heating (cooling) samples exist but the corresponding flux
    coefficient vanishes.
    """
    if train.has_missing:
        raise InsufficientDataError("fit_1r1c requires an imputed trace")
    y = np.diff(train.t_in)
    design = np.column_stack([
        (train.t_out - train.t_in)[:-1],
        controls.k_heat[:-1].astype(float),
        -controls.k_cool[:-1].astype(float),
    ])
    x = nnls(design, y)
    a_hat, b_hat, c_hat = x
    has_heat = bool(controls.k_heat[:-1].any())
    has_cool = bool(controls.k_cool[:-1].any())
    valid = bool(a_hat > _VALID_EPS)
    if has_heat and b_hat <= _VALID_EPS:
        valid = False
    if has_cool and c_hat <= _VALID_EPS:
        valid = False
    residual = float(np.linalg.norm(design @ x - y))
    return OneROneCFit(a=float(a_hat), b=float(b_hat), c=float(c_hat),
                       valid=valid, residual_norm=residual)


def predict_1r1c(fit, trace, controls):
    """Teacher-forced one-step predictions for t in [1, len)."""
    t_in = trace.t_in[:-1]
    return (t_in
            + fit.a * (trace.t_out[:-1] - t_in)
            + fit.b * controls.k_heat[:-1]
            - fit.c * controls.k_cool[:-1])


# ---------------------------------------------------------------------------
# Variational Bayesian linear regression (BNN-nRnC)

#: The scale-mixture prior (Blundell et al. 2015) of a fit with no source
#: posterior: pi N(0, sigma1^2) + (1 - pi) N(0, sigma2^2) on every weight and
#: the bias.
PRIOR_SIGMA1, PRIOR_SIGMA2, PRIOR_PI = 1.0, 0.1, 0.2
#: Starting posterior scale of every weight in a fit with no source.
INIT_SCALE = 0.05
#: Step size of the preconditioned mean update; it decays with lr_decay.
MEAN_LR = 0.3


#: TrainingConfig's numeric fields and the values each admits.
_TRAINING_RANGES = (
    (("batch_size", "epochs", "mc_samples"), "at least 1", lambda v: v >= 1),
    (("noise_std", "learning_rate", "lr_decay"), "positive", lambda v: v > 0),
    (("average_fraction",), "in [0, 1]", lambda v: 0 <= v <= 1),
)


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for the variational fit; all recorded in training_meta."""

    learning_rate: float = 1e-3
    batch_size: int = 256
    epochs: int = 200
    mc_samples: int = 1
    noise_std: float = 0.1
    lr_decay: float = 1.0  # multiplicative per-epoch factor
    average_fraction: float = 0.25

    def __post_init__(self):
        for names, allowed, ok in _TRAINING_RANGES:
            for name in names:
                value = getattr(self, name)
                # a value of another type is left to the config parser's check
                if isinstance(value, (int, float)) and not isinstance(value, bool) \
                        and not ok(value):
                    raise InvalidParameterError(f"{name} must be {allowed}, got {value!r}")

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class Posterior:
    """Factorized Gaussian posterior over the 4n+3 weights and 1 bias.

    Means follow the regression row layout with the bias last; the y-lag
    weights equal -e_i of the difference equation.
    """

    order: int
    means: np.ndarray
    scales: np.ndarray
    noise_std: float
    training_meta: dict = field(default_factory=dict)
    loss_history: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        d = 4 * self.order + 4
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "scales", np.asarray(self.scales, dtype=float))
        if self.means.shape != (d,) or self.scales.shape != (d,):
            raise ShapeError(f"means/scales must have length {d}")
        if (self.scales <= 0).any():
            raise InvalidParameterError("posterior scales must be positive")

    @property
    def num_weights(self):
        return 4 * self.order + 3

    def to_dict(self):
        return {
            "layout": POSTERIOR_LAYOUT,
            "order": self.order,
            "means": list(self.means),
            "scales": list(self.scales),
            "noise_std": self.noise_std,
            "training_meta": self.training_meta,
        }

    @classmethod
    def from_dict(cls, data):
        """Parse a posterior; any malformed field raises ShapeError (or
        InvalidParameterError for nonpositive scales)."""
        if not isinstance(data, dict):
            raise ShapeError(f"posterior must be a JSON object, got {type(data).__name__}")
        if data.get("layout") != POSTERIOR_LAYOUT:
            raise ShapeError(f"unknown posterior layout {data.get('layout')!r}")
        try:
            return cls(order=data["order"], means=np.array(data["means"]),
                       scales=np.array(data["scales"]), noise_std=data["noise_std"],
                       training_meta=data.get("training_meta", {}))
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ShapeError(f"malformed posterior: {type(exc).__name__}: {exc}") from None

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ShapeError(f"posterior is not valid JSON: {exc}") from None
        return cls.from_dict(data)


def _softplus(x):
    return np.logaddexp(0.0, x)


def _softplus_inv(y):
    return np.log(np.expm1(y))


def fit_bnn(dataset, hyper=None, seed=0, home_id="", source=None):
    """Train the variational linear predictor on a regression dataset.

    Deterministic given (dataset, hyper, seed, source). With no ``source``
    every weight has the scale-mixture prior (PRIOR_SIGMA1, PRIOR_SIGMA2,
    PRIOR_PI), and the fit starts from persistence (means zero except the
    first y-lag weight) with scales at INIT_SCALE. A ``source`` Posterior of
    the same order is both the per-weight Gaussian prior and the starting
    point (posterior-as-prior transfer).

    Each epoch draws its row permutation, then the normal draws of all its
    steps in one call (the same stream as one draw per sample); a step
    treats its ``mc_samples`` weight draws as one (samples, weights) block.
    The per-step loss lands in the posterior's ``loss_history``.
    """
    if len(dataset) == 0:
        raise InsufficientDataError("regression dataset is empty")
    hyper = hyper or TrainingConfig()
    n = dataset.order
    d = 4 * n + 4
    if source is not None and source.order != n:
        raise ShapeError(f"source posterior order {source.order} != dataset order {n}")

    inputs, y = dataset.inputs, dataset.targets
    num_rows = len(y)
    noise_var = hyper.noise_std ** 2
    mc = hyper.mc_samples

    if source is not None:
        mu = source.means.copy()
        rho = _softplus_inv(source.scales)
    else:
        mu = np.zeros(d)
        mu[3 * (n + 1)] = 1.0  # persistence start on the y_{t-1} weight
        rho = np.full(d, _softplus_inv(INIT_SCALE))

    rng = np.random.default_rng(seed)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    const_nll = num_rows * 0.5 * math.log(2 * math.pi * noise_var)

    # Lagged temperature regressors are extremely collinear (condition
    # numbers ~1e4 and up), which starves a diagonal adaptive update of
    # progress along the sloppy directions. The mean update is therefore
    # preconditioned by the inverse Gaussian curvature of the objective,
    # computed once from the full design; the scales keep the diagonal
    # adaptive update (Adam, whose moments are these).
    if source is not None:
        prior_curv = 1.0 / source.scales ** 2
    else:
        prior_curv = np.full(d, 1.0 / PRIOR_SIGMA1 ** 2)
    gram = np.empty((d, d))  # of the design: the inputs, then the bias
    gram[:-1, :-1] = inputs.T @ inputs
    gram[-1, :-1] = gram[:-1, -1] = inputs.sum(axis=0)
    gram[-1, -1] = num_rows
    precond = np.linalg.inv(gram / noise_var + np.diag(prior_curv))
    adam_m = np.zeros(d)
    adam_v = np.zeros(d)

    batch = min(hyper.batch_size, num_rows)
    steps_per_epoch = max(1, num_rows // batch)
    # Every batch is full, so the minibatch likelihood's scale-up is fixed;
    # g_scale also averages the per-sample gradients over the samples.
    scale_up = num_rows / batch
    g_scale = scale_up / noise_var / mc
    nll_scale = scale_up * 0.5 / noise_var
    if source is not None:
        m0 = source.means
        inv_var0 = prior_curv
        half_inv_var0 = 0.5 * inv_var0
        kl_const = float(np.sum(np.log(source.scales))) - 0.5 * d
    else:
        # log(pi_k N(w; 0, sigma_k^2)) = c_k - a_k w^2 for the two components;
        # the log density is the second term plus softplus(z), z their
        # difference, and the first component's responsibility is expit(z)
        half_log_2pi = 0.5 * math.log(2 * math.pi)
        inv1, inv2 = 1.0 / PRIOR_SIGMA1 ** 2, 1.0 / PRIOR_SIGMA2 ** 2
        c1 = math.log(PRIOR_PI) - half_log_2pi - math.log(PRIOR_SIGMA1)
        c2 = math.log(1 - PRIOR_PI) - half_log_2pi - math.log(PRIOR_SIGMA2)
        a1, a2 = 0.5 * inv1, 0.5 * inv2
        z0, z1 = c1 - c2, a1 - a2
        prior_g2, prior_g12 = inv2 / mc, (inv1 - inv2) / mc
        # the constant parts of log q and of the second term, over a block
        kl_const = (-half_log_2pi - c2) * d * mc

    # Each step gathers its batch into these; xb's last column is the bias.
    # The whole design with a bias column is never built, so the fit holds
    # no second copy of the inputs.
    inputs_b = np.empty((batch, d - 1))
    xb = np.ones((batch, d))
    yb = np.empty(batch)
    yb_col = yb[:, None]

    history = np.empty(hyper.epochs * steps_per_epoch)
    step = 0
    lr = hyper.learning_rate
    mean_lr = MEAN_LR
    avg_start = int(hyper.epochs * (1.0 - hyper.average_fraction))
    mu_sum = np.zeros(d)
    mu_count = 0

    for epoch in range(hyper.epochs):
        perm = rng.permutation(num_rows)
        noise = rng.standard_normal((steps_per_epoch, mc, d))
        half_noise_sq = (0.5 * np.einsum("smd,smd->s", noise, noise)).tolist()
        mean_step = mean_lr * precond
        for b in range(steps_per_epoch):
            idx = perm[b * batch:(b + 1) * batch]
            # indices from a permutation are in range, so "clip" clips none
            np.take(inputs, idx, axis=0, out=inputs_b, mode="clip")
            xb[:, :-1] = inputs_b
            np.take(y, idx, out=yb, mode="clip")
            eps = noise[b]
            sigma = _softplus(rho)
            log_sigma_sum = np.log(sigma).sum()
            inv_sigma = 1.0 / sigma
            w = sigma * eps
            w += mu  # (mc, d): one weight draw per row
            r = np.dot(xb, w.T)
            r -= yb_col  # (batch, mc) residuals
            loss = nll_scale * np.vdot(r, r) + mc * const_nll
            r *= g_scale
            g_w = np.dot(r.T, xb)  # (mc, d) likelihood gradients

            if source is not None:
                dev = mu - m0
                loss += mc * (kl_const - log_sigma_sum
                              + np.dot(sigma * sigma + dev * dev, half_inv_var0))
                g_mu = g_w.sum(axis=0) + dev * inv_var0
                g_sigma = (g_w * eps).sum(axis=0) + sigma * inv_var0 - inv_sigma
            else:
                w2 = w * w
                z = z0 - z1 * w2
                loss += (kl_const - mc * log_sigma_sum - half_noise_sq[b]
                         + a2 * w2.sum() - np.logaddexp(0.0, z).sum())
                # minus the gradient of the log prior density
                g_w += w * (prior_g2 + expit(z) * prior_g12)
                g_mu = g_w.sum(axis=0)
                g_sigma = (g_w * eps).sum(axis=0) - inv_sigma

            loss /= mc
            if not math.isfinite(loss):
                raise TrainingError("variational loss diverged", step=step)
            history[step] = loss
            g_rho = g_sigma * expit(rho)  # d softplus / d rho

            step += 1
            adam_m *= beta1
            adam_m += (1 - beta1) * g_rho
            adam_v *= beta2
            adam_v += (1 - beta2) * g_rho * g_rho
            # lr m_hat / (sqrt(v_hat) + eps), with both bias corrections
            # folded into the scalars
            root_bias2 = math.sqrt(1 - beta2 ** step)
            update = (lr * root_bias2 / (1 - beta1 ** step)) * adam_m
            update /= np.sqrt(adam_v) + adam_eps * root_bias2
            mu -= mean_step @ g_mu
            rho -= update
        perm = None  # freed before the next epoch draws its permutation
        lr *= hyper.lr_decay
        mean_lr *= hyper.lr_decay
        if epoch >= avg_start:
            mu_sum += mu
            mu_count += 1

    # Tail-averaged means damp the Monte Carlo jitter of the final iterates.
    if mu_count:
        mu = mu_sum / mu_count

    prior = {"sigma1": PRIOR_SIGMA1, "sigma2": PRIOR_SIGMA2, "pi": PRIOR_PI}
    if source is not None:
        prior.update(override_means=list(source.means), override_scales=list(source.scales))
    meta = {
        "home_id": home_id,
        "sample_count": int(num_rows),
        "seed": int(seed),
        "hyper": hyper.to_dict(),
        "prior": prior,
    }
    return Posterior(order=n, means=mu, scales=_softplus(rho),
                     noise_std=hyper.noise_std, training_meta=meta,
                     loss_history=history)


def posterior_to_coeffs(posterior):
    """Map posterior means into DiffCoeffs by the documented layout.

    The regressor's y-lag weights equal -e_i, and the bias is the offset.
    """
    n = posterior.order
    means = posterior.means
    s = means[: 3 * (n + 1)].reshape(n + 1, 3)
    e = -means[3 * (n + 1): 4 * n + 3]
    return DiffCoeffs(order=n, s=s, e=e, offset=float(means[-1]))


def coeffs_to_weights(dc):
    """Inverse of posterior_to_coeffs on the mean vector (bias last)."""
    return np.concatenate([dc.s.ravel(), -dc.e, [dc.offset]])


def predict_one_step(model, dataset):
    """Teacher-forced predictions: measured lags, one output per row."""
    if dataset.order != model.order:
        raise ShapeError(f"dataset order {dataset.order} != model order {model.order}")
    w = coeffs_to_weights(model)
    return dataset.inputs @ w[:-1] + w[-1]


def transfer(source, target_train, hyper=None, seed=0, home_id=""):
    """Posterior-as-prior transfer to a new home or season.

    With no target data the source posterior is returned unchanged (direct
    transfer); otherwise the source posterior becomes a per-weight Gaussian
    prior and the starting point for retraining on the target rows.
    """
    if target_train is None or len(target_train) == 0:
        return source
    return fit_bnn(target_train, hyper=hyper, seed=seed, home_id=home_id, source=source)


def rmse(predicted, actual):
    """Root-mean-square error between two equal-length series."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape or predicted.ndim != 1 or len(predicted) < 1:
        raise ShapeError(f"series shapes differ: {predicted.shape} vs {actual.shape}")
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))
