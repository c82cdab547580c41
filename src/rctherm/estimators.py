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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

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

def nnls(a, y, max_iter=None):
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
    if max_iter is None:
        max_iter = 3 * k
    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    w = a.T @ y  # gradient of the objective at x = 0 (negated)
    tol = 1e-12 * max(np.abs(w).max(), 1.0)

    for _ in range(max_iter):
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
    raise ConvergenceError(f"nnls exceeded {max_iter} active-set iterations")


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

@dataclass(frozen=True)
class PriorConfig:
    """Gaussian scale-mixture prior, or per-weight Gaussian overrides.

    The mixture defaults (sigma1=1, sigma2=0.1, pi=0.2) apply to every
    weight and the bias. Override arrays (length 4n+4) replace the mixture
    with independent Gaussians; transfer uses this to carry a source
    posterior forward as the prior.
    """

    sigma1: float = 1.0
    sigma2: float = 0.1
    pi: float = 0.2
    override_means: np.ndarray | None = None
    override_scales: np.ndarray | None = None

    def __post_init__(self):
        if not (self.sigma1 > self.sigma2 > 0):
            raise InvalidParameterError("prior requires sigma1 > sigma2 > 0")
        if not (0 < self.pi < 1):
            raise InvalidParameterError("prior requires 0 < pi < 1")
        if (self.override_means is None) != (self.override_scales is None):
            raise InvalidParameterError("override means and scales must come together")
        if self.override_means is not None:
            object.__setattr__(self, "override_means",
                               np.asarray(self.override_means, dtype=float))
            object.__setattr__(self, "override_scales",
                               np.asarray(self.override_scales, dtype=float))
            if (self.override_scales <= 0).any():
                raise InvalidParameterError("override scales must be positive")

    @property
    def has_override(self):
        return self.override_means is not None

    def to_dict(self):
        out = {"sigma1": self.sigma1, "sigma2": self.sigma2, "pi": self.pi}
        if self.has_override:
            out["override_means"] = list(self.override_means)
            out["override_scales"] = list(self.override_scales)
        return out


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for the variational fit; all recorded in training_meta."""

    learning_rate: float = 1e-3
    batch_size: int = 256
    epochs: int = 200
    mc_samples: int = 1
    noise_std: float = 0.1
    lr_decay: float = 1.0  # multiplicative per-epoch factor
    init_scale: float = 0.05
    precondition: bool = True
    mean_lr: float = 0.3
    average_fraction: float = 0.25
    record_loss: bool = False

    def to_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "record_loss"}


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


def _mixture_logpdf_and_grad(w, prior):
    log_n1 = -0.5 * math.log(2 * math.pi) - math.log(prior.sigma1) - w * w / (2 * prior.sigma1 ** 2)
    log_n2 = -0.5 * math.log(2 * math.pi) - math.log(prior.sigma2) - w * w / (2 * prior.sigma2 ** 2)
    la = math.log(prior.pi) + log_n1
    lb = math.log(1 - prior.pi) + log_n2
    logp = np.logaddexp(la, lb)
    resp1 = np.exp(la - logp)
    dlogp = -w * (resp1 / prior.sigma1 ** 2 + (1 - resp1) / prior.sigma2 ** 2)
    return logp, dlogp


def fit_bnn(dataset, prior=None, hyper=None, seed=0, home_id="", init=None):
    """Train the variational linear predictor on a regression dataset.

    Deterministic given (dataset, prior, hyper, seed). ``init`` optionally
    supplies a Posterior whose means/scales seed the variational parameters
    (used by transfer); otherwise means start at zero except the first y-lag
    weight (persistence) and scales start at ``hyper.init_scale``.
    """
    if len(dataset) == 0:
        raise InsufficientDataError("regression dataset is empty")
    prior = prior or PriorConfig()
    hyper = hyper or TrainingConfig()
    n = dataset.order
    d = 4 * n + 4
    if prior.has_override and len(prior.override_means) != d:
        raise ShapeError(f"prior override length {len(prior.override_means)} != {d}")

    x = np.column_stack([dataset.inputs, np.ones(len(dataset))])
    y = dataset.targets
    num_rows = len(y)
    noise_var = hyper.noise_std ** 2

    if init is not None:
        mu = init.means.copy()
        rho = _softplus_inv(init.scales)
    else:
        mu = np.zeros(d)
        mu[3 * (n + 1)] = 1.0  # persistence start on the y_{t-1} weight
        rho = np.full(d, _softplus_inv(hyper.init_scale))

    rng = np.random.default_rng(seed)
    adam_m = np.zeros(2 * d)
    adam_v = np.zeros(2 * d)
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    const_nll = num_rows * 0.5 * math.log(2 * math.pi * noise_var)

    # Lagged temperature regressors are extremely collinear (condition
    # numbers ~1e4 and up), which starves a diagonal adaptive update of
    # progress along the sloppy directions. The mean update is therefore
    # preconditioned by the inverse Gaussian curvature of the objective,
    # computed once from the full design; the scales keep the diagonal
    # adaptive update.
    precond = None
    if hyper.precondition:
        if prior.has_override:
            prior_curv = 1.0 / prior.override_scales ** 2
        else:
            prior_curv = np.full(d, 1.0 / prior.sigma1 ** 2)
        precond = np.linalg.inv(x.T @ x / noise_var + np.diag(prior_curv))

    batch = min(hyper.batch_size, num_rows)
    steps_per_epoch = max(1, num_rows // batch)
    history = [] if hyper.record_loss else None
    step = 0
    lr = hyper.learning_rate
    mean_lr = hyper.mean_lr
    avg_start = int(hyper.epochs * (1.0 - hyper.average_fraction))
    mu_sum = np.zeros(d)
    mu_count = 0

    for epoch in range(hyper.epochs):
        perm = rng.permutation(num_rows)
        for b in range(steps_per_epoch):
            idx = perm[b * batch:(b + 1) * batch]
            xb, yb = x[idx], y[idx]
            scale_up = num_rows / len(idx)

            g_mu = np.zeros(d)
            g_rho = np.zeros(d)
            loss = 0.0
            for _ in range(hyper.mc_samples):
                eps = rng.standard_normal(d)
                sigma = _softplus(rho)
                w = mu + sigma * eps
                r = xb @ w - yb
                g_w = scale_up * (xb.T @ r) / noise_var
                nll = scale_up * 0.5 * np.dot(r, r) / noise_var + const_nll

                if prior.has_override:
                    m0, s0 = prior.override_means, prior.override_scales
                    kl = np.sum(np.log(s0 / sigma)
                                + (sigma ** 2 + (mu - m0) ** 2) / (2 * s0 ** 2) - 0.5)
                    gm = g_w + (mu - m0) / s0 ** 2
                    gs = g_w * eps + sigma / s0 ** 2 - 1.0 / sigma
                else:
                    logp, dlogp = _mixture_logpdf_and_grad(w, prior)
                    log_q = -0.5 * math.log(2 * math.pi) - np.log(sigma) - eps ** 2 / 2
                    kl = float(np.sum(log_q - logp))
                    gm = g_w - dlogp
                    gs = (g_w - dlogp) * eps - 1.0 / sigma
                g_mu += gm
                g_rho += gs * _sigmoid(rho)
                loss += nll + kl

            loss /= hyper.mc_samples
            if not np.isfinite(loss):
                raise TrainingError("variational loss diverged", step=step)
            g_mu /= hyper.mc_samples
            g_rho /= hyper.mc_samples

            grad = np.concatenate([g_mu, g_rho])
            step += 1
            adam_m = beta1 * adam_m + (1 - beta1) * grad
            adam_v = beta2 * adam_v + (1 - beta2) * grad * grad
            m_hat = adam_m / (1 - beta1 ** step)
            v_hat = adam_v / (1 - beta2 ** step)
            update = lr * m_hat / (np.sqrt(v_hat) + adam_eps)
            if precond is None:
                mu = mu - update[:d]
            else:
                mu = mu - mean_lr * (precond @ g_mu)
            rho = rho - update[d:]
            if history is not None:
                history.append(loss)
        lr *= hyper.lr_decay
        mean_lr *= hyper.lr_decay
        if epoch >= avg_start:
            mu_sum += mu
            mu_count += 1

    # Tail-averaged means damp the Monte Carlo jitter of the final iterates.
    if mu_count:
        mu = mu_sum / mu_count

    meta = {
        "home_id": home_id,
        "sample_count": int(num_rows),
        "seed": int(seed),
        "hyper": hyper.to_dict(),
        "prior": prior.to_dict(),
    }
    return Posterior(order=n, means=mu, scales=_softplus(rho),
                     noise_std=hyper.noise_std, training_meta=meta,
                     loss_history=None if history is None else np.array(history))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


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


def sample_predictions(posterior, dataset, draws, seed=0):
    """Monte Carlo predictive samples; (draws, rows) array."""
    if dataset.order != posterior.order:
        raise ShapeError("dataset and posterior orders differ")
    rng = np.random.default_rng(seed)
    x = np.column_stack([dataset.inputs, np.ones(len(dataset))])
    w = posterior.means + posterior.scales * rng.standard_normal((draws, len(posterior.means)))
    return w @ x.T


def transfer(source, target_train, hyper=None, seed=0, home_id=""):
    """Posterior-as-prior transfer to a new home or season.

    With no target data the source posterior is returned unchanged (direct
    transfer); otherwise the source posterior becomes a per-weight Gaussian
    prior and the starting point for retraining on the target rows.
    """
    if target_train is None or len(target_train) == 0:
        return source
    if target_train.order != source.order:
        raise ShapeError("source posterior and target dataset orders differ")
    prior = PriorConfig(override_means=source.means, override_scales=source.scales)
    return fit_bnn(target_train, prior=prior, hyper=hyper, seed=seed,
                   home_id=home_id, init=source)


def rmse(predicted, actual):
    """Root-mean-square error between two equal-length series."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape or predicted.ndim != 1 or len(predicted) < 1:
        raise ShapeError(f"series shapes differ: {predicted.shape} vs {actual.shape}")
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))
