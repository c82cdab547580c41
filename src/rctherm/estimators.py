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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidParameterError,
    ShapeError,
)
from .jsonfile import JsonFile, plain
from .rcnet import DiffCoeffs

_VALID_EPS = 1e-12
POSTERIOR_LAYOUT = "u-lags-then-y-lags-bias-last/1"


# ---------------------------------------------------------------------------
# Non-negative least squares

def nnls(a, y):
    """min ||Ax - y|| s.t. x >= 0 by Lawson and Hanson's active-set method,
    on the Gram matrix A'A and the moment A'y (Bro & De Jong 1997).

    Each outer step frees the bound variable of largest gradient, and each
    least-squares solve on the free set counts as one iteration. When a
    solve puts free variables at or below zero, x moves towards it until the
    first of them reaches zero, and those at zero are bound. A freed
    variable whose first solve comes out nonpositive is rounding, so it is
    bound again and skipped until another variable is freed (Lawson &
    Hanson's test). Raises ConvergenceError if more than 3k iterations are
    needed (k = number of columns).
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if a.ndim != 2:
        raise ShapeError(f"design matrix must be 2-D, got shape {a.shape}")
    if a.shape[0] != y.shape[0]:
        raise ShapeError(f"A has {a.shape[0]} rows but y has {y.shape[0]} entries")
    if not (np.isfinite(a).all() and np.isfinite(y).all()):
        raise InvalidParameterError("nnls inputs must be finite")
    k = a.shape[1]
    # einsum, not a BLAS product, which splits its sums across threads: the
    # solution does not depend on the BLAS thread count
    gram = np.einsum("ij,ik->jk", a, a)
    moment = np.einsum("ij,i->j", a, y)
    tol = 10 * np.finfo(float).eps * k * np.abs(gram).sum(axis=0).max(initial=0.0)
    x = np.zeros(k)
    free = np.zeros(k, dtype=bool)
    skipped = np.zeros(k, dtype=bool)
    iterations = 0
    while True:
        grad = np.where(free | skipped, -np.inf, moment - np.einsum("jk,k->j", gram, x))
        if not (grad > tol).any():
            return x
        j = int(np.argmax(grad))
        free[j] = True
        for solve in itertools.count():
            iterations += 1
            if iterations > 3 * k:
                raise ConvergenceError(f"nnls exceeded {3 * k} active-set iterations")
            trial = np.zeros(k)
            try:
                trial[free] = np.linalg.solve(gram[np.ix_(free, free)], moment[free])
            except np.linalg.LinAlgError:  # column j depends on the free ones
                trial[j] = 0.0
            if not solve and trial[j] <= 0.0:
                free[j], skipped[j] = False, True
                break
            if (trial[free] > 0.0).all():
                x, skipped[:] = trial, False
                break
            low = np.flatnonzero(free & (trial <= 0.0))
            ratio = x[low] / (x[low] - trial[low])
            x = x + ratio.min() * (trial - x)
            free[low[np.argmin(ratio)]] = False
            free &= x > 0.0
            x[~free] = 0.0


@dataclass(frozen=True)
class OneROneCFit(JsonFile, error=ShapeError, name="onercone", constants={"kind": "onercone"}):
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
    r = np.einsum("ij,j->i", design, x) - y  # as in nnls: no BLAS product
    residual = float(np.sqrt(np.einsum("i,i", r, r)))
    return OneROneCFit(a=float(a_hat), b=float(b_hat), c=float(c_hat),
                       valid=valid, residual_norm=residual)


# ---------------------------------------------------------------------------
# Variational Bayesian linear regression (BNN-nRnC)

#: Every fit tempers its prior precision by the alpha of highest evidence on
#: this grid, a hundredth of a decade apart.
ALPHA_GRID = np.logspace(-12.0, 2.0, 1401)
_LOG_2PI = math.log(2 * math.pi)


@dataclass(frozen=True)
class TrainingConfig:
    """The likelihood's noise scale; recorded in training_meta."""

    noise_std: float = 0.1

    def __post_init__(self):
        if not self.noise_std > 0:
            raise InvalidParameterError(f"noise_std must be positive, got {self.noise_std!r}")


@dataclass(frozen=True)
class Posterior(JsonFile, error=ShapeError, name="posterior",
                constants={"layout": POSTERIOR_LAYOUT}):
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


def _neg_elbo(design, noise_var, means, scales, m0, prior_prec):
    """Negative evidence lower bound of the factorized q (means, scales)
    under the prior N(m0, diag(prior_prec)^-1): expected negative log
    likelihood, minus the entropy of q, minus the expected log prior."""
    r = design.residual(means)
    # einsum, not a BLAS dot, which splits its sum across threads: the model
    # file does not depend on the BLAS thread count
    nll = 0.5 * (design.rows * math.log(2 * math.pi * noise_var)
                 + (np.einsum("i,i", r, r) + scales ** 2 @ np.diag(design.gram)) / noise_var)
    entropy = float(np.sum(np.log(scales))) + 0.5 * len(means) * (_LOG_2PI + 1.0)
    log_prior = 0.5 * np.sum(np.log(prior_prec) - _LOG_2PI
                             - prior_prec * (scales ** 2 + (means - m0) ** 2))
    return float(nll - entropy - log_prior)


def _fit_evidence(design, noise_var, m0, prec0):
    """The fit under the prior N(m0, (alpha diag(prec0))^-1). Returns
    (means, scales, alpha, log p(y | alpha), negative ELBO, whether alpha
    is an end of ALPHA_GRID).

    alpha is the point of ALPHA_GRID that maximises log p(y | alpha), the
    rows' marginal likelihood (Bishop, PRML 3.5). With r0 = y - X m0 and
    b = X'r0/sigma^2 it is
    -(N log(2 pi sigma^2) + r0'r0/sigma^2 - b'A^-1 b + log|A| - log|alpha L0|)/2.
    Whitened by S = diag(prec0)^-1/2, A = S^-1 (M + alpha I) S^-1 with
    M = S X'X S/sigma^2 = Q diag(lam) Q', so one eigh of M gives it on the
    whole grid: b'A^-1 b = sum c_i^2/(lam_i + alpha) with c = Q'Sb, and
    log|A| - log|alpha L0| = sum log1p(lam_i/alpha).

    The same eigh gives the means, m0 + A^-1 b = m0 + S Q (c/(lam + alpha)),
    and the scales are 1/sqrt(diag A). Raises DegenerateSeriesError when
    lam_min + alpha <= d eps (lam_max + alpha), d the number of weights:
    M + alpha I is then singular to rounding, so the rows and the prior
    leave some weights undetermined.
    """
    r0 = design.residual(m0)
    b = design.moment(r0) / noise_var
    # as in _neg_elbo: no BLAS dot
    const = design.rows * math.log(2 * math.pi * noise_var) + np.einsum("i,i", r0, r0) / noise_var
    s = 1.0 / np.sqrt(prec0)
    lam, q = np.linalg.eigh(design.gram * np.outer(s, s) / noise_var)
    lam = np.maximum(lam, 0.0)
    c = q.T @ (s * b)
    grid = ALPHA_GRID[:, None]
    log_evidence = -0.5 * (const - (c ** 2 / (lam + grid)).sum(axis=1)
                           + np.log1p(lam / grid).sum(axis=1))
    i = int(np.argmax(log_evidence))
    alpha = float(ALPHA_GRID[i])
    if lam[0] + alpha <= len(lam) * np.finfo(float).eps * (lam[-1] + alpha):
        raise DegenerateSeriesError("the rows and the prior leave some weights undetermined")
    prior_prec = alpha * prec0
    means = m0 + s * (q @ (c / (lam + alpha)))
    scales = 1.0 / np.sqrt(np.diag(design.gram) / noise_var + prior_prec)
    return (means, scales, alpha, float(log_evidence[i]),
            _neg_elbo(design, noise_var, means, scales, m0, prior_prec),
            i in (0, len(ALPHA_GRID) - 1))


def fit_bnn(dataset, hyper=None, home_id="", source=None):
    """The optimal factorized Gaussian posterior of the linear predictor on a
    regression dataset, in closed form.

    Every fit has the Gaussian prior N(m0, (alpha L0)^-1). With no
    ``source`` it is m0 = 0 and L0 = I; a ``source`` Posterior of the same
    order gives its means and precisions 1/scales^2 (posterior-as-prior
    transfer). alpha is the value on ALPHA_GRID that maximises the
    dataset's marginal likelihood. ``training_meta`` records ``alpha``, its
    ``log_evidence``, whether alpha is an end of the grid
    (``alpha_at_grid_edge``: the evidence may still rise past it, so
    log_evidence is not a maximum), the negative ELBO at the solution
    (``neg_elbo``) and the largest root modulus of the fitted difference
    equation (``root_radius``, below 1 when it is stable).
    """
    if len(dataset) == 0:
        raise InsufficientDataError("regression dataset is empty")
    hyper = hyper or TrainingConfig()
    n = dataset.order
    if source is not None and source.order != n:
        raise ShapeError(f"source posterior order {source.order} != dataset order {n}")
    design = _Design(dataset)
    d = design.gram.shape[0]

    meta = {"home_id": home_id, "sample_count": design.rows, "hyper": plain(hyper)}
    if source is None:
        m0, prec0 = np.zeros(d), np.ones(d)
    else:
        meta["prior"] = {"override_means": list(source.means),
                         "override_scales": list(source.scales)}
        m0, prec0 = source.means, 1.0 / source.scales ** 2
    (means, scales, meta["alpha"], meta["log_evidence"], meta["neg_elbo"],
     meta["alpha_at_grid_edge"]) = _fit_evidence(design, hyper.noise_std ** 2, m0, prec0)
    posterior = Posterior(order=n, means=means, scales=scales, noise_std=hyper.noise_std,
                          training_meta=meta)
    meta["root_radius"] = posterior.coeffs.root_radius
    return posterior


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
    if predicted.shape != actual.shape or predicted.ndim != 1:
        raise ShapeError(f"series shapes differ: {predicted.shape} vs {actual.shape}")
    if len(predicted) == 0:
        raise ShapeError("no samples to score")
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))
