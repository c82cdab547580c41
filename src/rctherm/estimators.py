"""Model identification: NNLS for 1R1C, variational Bayes for nRnC.

The nRnC estimator fits a single linear predictor over the lagged
regression rows with a factorized Gaussian variational posterior over its
4n+3 weights and 1 bias. The likelihood is Gaussian and the predictor is
linear in its weights, so under a Gaussian prior N(m0, diag(l0)^-1) the
optimal factorized posterior has a closed form: means
m0 + A^-1 X'(y - X m0)/sigma^2 and variances 1/diag(A), with
A = X'X/sigma^2 + diag(l0) (Bishop, PRML 3.3 and 10.1). The weights are the
compound difference-equation coefficients directly (inputs are fed raw,
never standardized).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize_scalar

from .errors import (
    ConvergenceError,
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidParameterError,
    ShapeError,
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

    @property
    def coeffs(self):
        """y_t = (1 - a) y_{t-1} + a t_out_{t-1} + b k_heat_{t-1} - c k_cool_{t-1}."""
        return DiffCoeffs(order=1, s=[[0.0, 0.0, 0.0], [self.a, self.b, -self.c]],
                          e=[self.a - 1.0])

    def to_json(self):
        return json.dumps({"kind": "onercone", **asdict(self)}, sort_keys=True)


def fit_1r1c(dataset):
    """Fit the first-difference 1R1C equation to an order-1 regression
    dataset by non-negative least squares: y_t - y_{t-1} on
    (t_out_{t-1} - y_{t-1}, k_heat_{t-1}, -k_cool_{t-1}).

    The fit is flagged invalid when the envelope coefficient vanishes, or
    when heating (cooling) rows exist but the corresponding flux
    coefficient vanishes.
    """
    if dataset.order != 1:
        raise ShapeError(f"fit_1r1c needs an order-1 dataset, got order {dataset.order}")
    if len(dataset) == 0:
        raise InsufficientDataError("regression dataset is empty")
    t_out, k_heat, k_cool, y_prev = dataset.inputs[:, 3:].T  # the u_{t-1}, y_{t-1} columns
    y = dataset.targets - y_prev
    design = np.column_stack([t_out - y_prev, k_heat, -k_cool])
    x = nnls(design, y)
    a_hat, b_hat, c_hat = x
    valid = bool(a_hat > _VALID_EPS)
    if k_heat.any() and b_hat <= _VALID_EPS:
        valid = False
    if k_cool.any() and c_hat <= _VALID_EPS:
        valid = False
    residual = float(np.linalg.norm(design @ x - y))
    return OneROneCFit(a=float(a_hat), b=float(b_hat), c=float(c_hat),
                       valid=valid, residual_norm=residual)


# ---------------------------------------------------------------------------
# Variational Bayesian linear regression (BNN-nRnC)

#: The scale-mixture prior (Blundell et al. 2015) of a fit with no source
#: posterior: pi N(0, sigma1^2) + (1 - pi) N(0, sigma2^2) on every weight and
#: the bias.
PRIOR_SIGMA1, PRIOR_SIGMA2, PRIOR_PI = 1.0, 0.1, 0.2
#: EM on the mixture responsibilities stops once none moves by more than
#: EM_TOL in a step; a fit that has not stopped after EM_MAX_STEPS raises
#: ConvergenceError.
EM_TOL = 1e-6
EM_MAX_STEPS = 500
#: A transfer tempers the source precision by alpha in [ALPHA_GRID[0],
#: ALPHA_GRID[-1]]: the half-decade grid point of highest target evidence,
#: refined between its grid neighbours.
ALPHA_GRID = np.logspace(-12.0, 0.0, 25)
_LOG_2PI = math.log(2 * math.pi)


@dataclass(frozen=True)
class TrainingConfig:
    """The likelihood's noise scale; recorded in training_meta."""

    noise_std: float = 0.1

    def __post_init__(self):
        value = self.noise_std
        # a value of another type is left to the config parser's check
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and not value > 0:
            raise InvalidParameterError(f"noise_std must be positive, got {value!r}")

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

    def __post_init__(self):
        if not isinstance(self.order, int) or isinstance(self.order, bool) or self.order < 1:
            raise ShapeError(f"posterior order must be an int >= 1, got {self.order!r}")
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

    @property
    def coeffs(self):
        """The difference equation of the posterior means."""
        return posterior_to_coeffs(self)

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


class _Design:
    """The sufficient statistics of a regression dataset with a bias column
    appended: its Gram matrix and moments. The design itself is never
    built, so a fit holds no second copy of the inputs."""

    def __init__(self, dataset):
        inputs, y = dataset.inputs, dataset.targets
        self.inputs, self.targets, self.rows = inputs, y, len(y)
        d = inputs.shape[1] + 1
        self.gram = np.empty((d, d))
        self.gram[:-1, :-1] = inputs.T @ inputs
        self.gram[-1, :-1] = self.gram[:-1, -1] = inputs.sum(axis=0)
        self.gram[-1, -1] = self.rows

    def residual(self, w):
        """y - Xw for weights ``w`` (bias last)."""
        return self.targets - (self.inputs @ w[:-1] + w[-1])

    def moment(self, r):
        """X'r."""
        return np.append(self.inputs.T @ r, r.sum())


def _solve(design, b, noise_var, prior_prec):
    """(A^-1 b, 1/sqrt(diag A), Cholesky factor of A) for
    A = X'X/noise_var + diag(prior_prec).

    Raises DegenerateSeriesError when A is not numerically positive
    definite: collinear rows that a near-flat prior leaves undetermined.
    """
    a = design.gram / noise_var
    a[np.diag_indices_from(a)] += prior_prec
    try:
        factor = cho_factor(a, lower=True)
    except np.linalg.LinAlgError:
        raise DegenerateSeriesError(
            "the rows and the prior leave some weights undetermined") from None
    return cho_solve(factor, b), 1.0 / np.sqrt(np.diag(a)), factor


def _mixture_log_terms(ew2):
    """Per-weight (log pi_k + E_q log N(w; 0, sigma_k^2)) of the two prior
    components, given E_q[w^2]."""
    def term(pi, sigma):
        return math.log(pi) - 0.5 * _LOG_2PI - math.log(sigma) - ew2 / (2 * sigma ** 2)
    return term(PRIOR_PI, PRIOR_SIGMA1), term(1 - PRIOR_PI, PRIOR_SIGMA2)


def _neg_elbo(design, noise_var, means, scales, expected_log_prior):
    """Negative evidence lower bound of the factorized q (means, scales):
    expected negative log likelihood, minus the entropy of q, minus
    ``expected_log_prior``."""
    r = design.residual(means)
    nll = 0.5 * (design.rows * math.log(2 * math.pi * noise_var)
                 + (r @ r + scales ** 2 @ np.diag(design.gram)) / noise_var)
    entropy = float(np.sum(np.log(scales))) + 0.5 * len(means) * (_LOG_2PI + 1.0)
    return float(nll - entropy - expected_log_prior)


def _fit_mixture(design, noise_var):
    """EM under the scale-mixture prior: each M step is the Gaussian solve
    at per-weight precisions r/sigma1^2 + (1 - r)/sigma2^2; each E step sets
    the responsibilities r of the wide component from E_q[w^2] = m^2 + s^2.
    Returns (means, scales, steps, negative ELBO); the prior term of the
    ELBO is its EM bound, sum_i log sum_k pi_k exp(E_q log N_k(w_i))."""
    d = design.gram.shape[0]
    b = design.moment(design.targets) / noise_var
    resp = np.ones(d)  # every weight starts in the wide component
    for step in range(1, EM_MAX_STEPS + 1):
        prec = resp / PRIOR_SIGMA1 ** 2 + (1 - resp) / PRIOR_SIGMA2 ** 2
        means, scales, _ = _solve(design, b, noise_var, prec)
        wide, narrow = _mixture_log_terms(means ** 2 + scales ** 2)
        log_prior = np.logaddexp(wide, narrow)
        new = np.exp(wide - log_prior)
        if np.abs(new - resp).max() <= EM_TOL:
            return means, scales, step, _neg_elbo(design, noise_var, means, scales,
                                                  log_prior.sum())
        resp = new
    raise ConvergenceError(f"mixture-prior EM did not converge in {EM_MAX_STEPS} steps")


def _fit_power_prior(design, noise_var, source):
    """The fit under the power prior N(m0, (alpha diag(l0))^-1), with m0 and
    l0 = 1/s0^2 the source posterior's means and precisions. Returns
    (means, scales, alpha, log p(y | alpha), negative ELBO).

    alpha maximises log p(y | alpha), the rows' marginal likelihood: first
    over ALPHA_GRID, then by a bounded scalar search between the best grid
    point's neighbours. With r0 = y - X m0 and b = X'r0/sigma^2, it is
    -(N log(2 pi sigma^2) + r0'r0/sigma^2 - b'A^-1 b + log|A| - log|alpha L0|)/2.
    """
    r0 = design.residual(source.means)
    b = design.moment(r0) / noise_var
    const = design.rows * math.log(2 * math.pi * noise_var) + (r0 @ r0) / noise_var
    prec0 = 1.0 / source.scales ** 2

    def log_evidence(log_alpha):
        prior_prec = math.exp(log_alpha) * prec0
        try:
            delta, _, (chol, _) = _solve(design, b, noise_var, prior_prec)
        except DegenerateSeriesError:
            return -math.inf
        return -0.5 * (const - b @ delta + 2 * np.log(np.diag(chol)).sum()
                       - np.log(prior_prec).sum())

    grid = np.log(ALPHA_GRID)
    values = [log_evidence(x) for x in grid]
    i = int(np.argmax(values))
    found = minimize_scalar(lambda x: -log_evidence(x),
                            bounds=(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]),
                            method="bounded", options={"xatol": 1e-6})
    if -found.fun > values[i]:
        alpha, evidence = math.exp(found.x), float(-found.fun)
    else:
        alpha, evidence = float(ALPHA_GRID[i]), float(values[i])

    prior_prec = alpha * prec0
    delta, scales, _ = _solve(design, b, noise_var, prior_prec)
    expected_log_prior = 0.5 * float(np.sum(
        np.log(prior_prec) - _LOG_2PI - prior_prec * (scales ** 2 + delta ** 2)))
    means = source.means + delta
    return (means, scales, alpha, evidence,
            _neg_elbo(design, noise_var, means, scales, expected_log_prior))


def fit_bnn(dataset, hyper=None, home_id="", source=None):
    """The optimal factorized Gaussian posterior of the linear predictor on a
    regression dataset, in closed form.

    With no ``source`` every weight has the scale-mixture prior
    (PRIOR_SIGMA1, PRIOR_SIGMA2, PRIOR_PI), and EM on the per-weight
    mixture responsibilities converges to the fit. A ``source`` Posterior
    of the same order gives the power prior N(source means, source
    scales^2 / alpha), with alpha the value on ALPHA_GRID's bracket that
    maximises the dataset's marginal likelihood (posterior-as-prior
    transfer). ``training_meta`` records the negative ELBO at the solution
    (``neg_elbo``), and the EM step count (``em_steps``) or ``alpha`` with
    its ``log_evidence``.
    """
    if len(dataset) == 0:
        raise InsufficientDataError("regression dataset is empty")
    hyper = hyper or TrainingConfig()
    n = dataset.order
    if source is not None and source.order != n:
        raise ShapeError(f"source posterior order {source.order} != dataset order {n}")
    design = _Design(dataset)
    noise_var = hyper.noise_std ** 2

    prior = {"sigma1": PRIOR_SIGMA1, "sigma2": PRIOR_SIGMA2, "pi": PRIOR_PI}
    meta = {"home_id": home_id, "sample_count": design.rows, "hyper": hyper.to_dict(),
            "prior": prior}
    if source is None:
        means, scales, meta["em_steps"], meta["neg_elbo"] = _fit_mixture(design, noise_var)
    else:
        prior.update(override_means=list(source.means), override_scales=list(source.scales))
        means, scales, meta["alpha"], meta["log_evidence"], meta["neg_elbo"] = \
            _fit_power_prior(design, noise_var, source)
    return Posterior(order=n, means=means, scales=scales, noise_std=hyper.noise_std,
                     training_meta=meta)


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


def transfer(source, target_train, hyper=None, home_id=""):
    """Posterior-as-prior transfer to a new home or season.

    With no target data the source posterior is returned unchanged (direct
    transfer); otherwise the source posterior, tempered by the evidence's
    alpha, is the per-weight Gaussian prior for retraining on the target
    rows.
    """
    if target_train is None or len(target_train) == 0:
        return source
    return fit_bnn(target_train, hyper=hyper, home_id=home_id, source=source)


def rmse(predicted, actual):
    """Root-mean-square error between two equal-length series."""
    predicted = np.asarray(predicted, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predicted.shape != actual.shape or predicted.ndim != 1 or len(predicted) < 1:
        raise ShapeError(f"series shapes differ: {predicted.shape} vs {actual.shape}")
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))
