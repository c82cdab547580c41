"""Black-box comparison models: ARIMAX with exogenous inputs and a
persistence floor.

ARIMAX(p, d, q) is estimated as a regression with ARMA errors on the
d-times-differenced series, by minimizing the conditional sum of squares
(initial innovations zero), with the exact gradient. The degenerate order
(0, 1, 0) is the persistence predictor y_t = y_{t-1} + intercept, fitted in
closed form; it carries no exogenous terms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

import numpy as np

from . import timeseries
from .errors import (
    ConvergenceError,
    InsufficientDataError,
    InvalidParameterError,
    ShapeError,
)
from .rcnet import all_pole, all_pole_band

_EXOG_DIM = 3  # (t_out, k_heat, k_cool)
_AR_BOUND = 0.999


@dataclass(frozen=True)
class ArimaxOrder:
    p: int = 1
    d: int = 1
    q: int = 2

    def __post_init__(self):
        if self.p < 0 or self.d < 0 or self.q < 0:
            raise InvalidParameterError("ARIMAX orders must be nonnegative")


@dataclass(frozen=True)
class ArimaxModel:
    order: ArimaxOrder
    ar: np.ndarray
    ma: np.ndarray
    exog: np.ndarray
    intercept: float
    innovation_var: float

    def __post_init__(self):
        object.__setattr__(self, "ar", np.asarray(self.ar, dtype=float))
        object.__setattr__(self, "ma", np.asarray(self.ma, dtype=float))
        object.__setattr__(self, "exog", np.asarray(self.exog, dtype=float))
        if self.ar.shape != (self.order.p,) or self.ma.shape != (self.order.q,):
            raise ShapeError("ar/ma coefficient lengths do not match the order")
        if self.exog.shape != (_EXOG_DIM,):
            raise ShapeError(f"exog must have {_EXOG_DIM} coefficients")

    @property
    def warmup(self):
        return max(self.order.p, self.order.q) + self.order.d

    def to_dict(self):
        return {
            "kind": "arimax",
            "order": [self.order.p, self.order.d, self.order.q],
            "ar": list(self.ar),
            "ma": list(self.ma),
            "exog": list(self.exog),
            "intercept": self.intercept,
            "innovation_var": self.innovation_var,
        }

    @classmethod
    def from_dict(cls, data):
        p, d, q = data["order"]
        return cls(order=ArimaxOrder(p, d, q), ar=np.array(data["ar"]),
                   ma=np.array(data["ma"]), exog=np.array(data["exog"]),
                   intercept=data["intercept"], innovation_var=data["innovation_var"])

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


def difference(series, d):
    """Apply the first-difference operator d times."""
    series = np.asarray(series, dtype=float)
    if len(series) <= d:
        raise InsufficientDataError(f"series of length {len(series)} cannot be differenced {d} times")
    return np.diff(series, n=d, axis=0)


def _design(trace, controls, d):
    return difference(trace.t_in, d), difference(timeseries.exog(trace, controls), d)


def _theta(ma, n):
    """The MA polynomial theta(B) = 1 + theta_1 B + ... over n steps, as an
    all_pole band."""
    return all_pole_band(np.concatenate([[1.0], ma]), n)


def _innovations(params, z, exog, p, theta):
    """Innovations of dz_t = c + sum phi_i dz_{t-i} + beta.dX_t + ARMA errors,
    with initial innovations zero (CSS convention); ``theta`` is _theta of
    the MA coefficients over len(z) steps."""
    ar = params[:p]
    beta = params[-1 - _EXOG_DIM:-1]
    c = params[-1]
    r = z - c - exog @ beta
    for i, phi in enumerate(ar, start=1):
        r[i:] -= phi * z[:-i]
    return all_pole(theta, r)


def _css(params, z, exog, p, q):
    """Conditional sum of squares (as a mean over the scored innovations)
    and its exact gradient.

    The innovations are e = theta(B)^-1 r, linear in r, so the reverse-mode
    gradient is the adjoint solve over the scored innovations:
    -(2/m) g, with g = theta(B)^-T e~, is -dCSS/dr, and each parameter's
    derivative is -(2/m) g against the series it multiplies in r, or, for
    theta_j, against the innovations lagged j steps. Both solves share one
    band.
    """
    skip = max(p, q)
    m = max(len(z) - skip, 1)
    theta = _theta(params[p:p + q], len(z))
    # a non-invertible MA trial point overflows the filtered innovations;
    # that non-finite objective maps to the 1e12 cliff below, so numpy's
    # overflow warnings on the way carry nothing
    with np.errstate(over="ignore", invalid="ignore"):
        e = _innovations(params, z, exog, p, theta)
        # mean, not sum: L-BFGS-B's relative-reduction stop divides by
        # max(|f|, 1), so the objective's scale decides where the fit stops.
        # einsum, not a BLAS dot, which splits its sum across threads: the
        # fitted coefficients do not depend on the BLAS thread count
        css = np.einsum("i,i", e[skip:], e[skip:]) / m
        scored = e.copy()
        scored[:skip] = 0.0
        g = all_pole(theta, scored, adjoint=True)
        grad = (-2.0 / m) * np.concatenate([
            [np.einsum("i,i", z[:-i], g[i:]) for i in range(1, p + 1)],
            [np.einsum("i,i", e[:-j], g[j:]) for j in range(1, q + 1)],
            exog.T @ g,
            [g.sum()],
        ])
    if not (np.isfinite(css) and np.all(np.isfinite(grad))):
        return 1e12, np.zeros(len(params))
    return float(css), grad


def fit_arimax(train, controls, order=None):
    """Fit ARIMAX by conditional sum of squares.

    Initialization: AR and MA coefficients at zero, exogenous coefficients
    and intercept by ordinary least squares on the differenced series.
    AR coefficients are box-bounded inside the unit interval and the fitted
    AR polynomial is verified stationary. L-BFGS-B minimises the CSS with
    its exact gradient (see ``_css``). Persistence (p = q = 0) is the closed
    form: its CSS minimiser is the mean of the differenced series, with no
    exogenous terms.
    """
    order = order or ArimaxOrder()
    p, d, q = order.p, order.d, order.q
    if len(train) < 10 * (p + q + 4):
        raise InsufficientDataError(
            f"need at least {10 * (p + q + 4)} samples to fit ARIMAX({p},{d},{q})")
    z, exog = _design(train, controls, d)

    if p or q:
        from scipy.optimize import minimize  # imported here: see estimators.nnls

        design = np.column_stack([exog, np.ones(len(z))])
        ols, *_ = np.linalg.lstsq(design, z, rcond=None)
        x0 = np.concatenate([np.zeros(p + q), ols])
        bounds = ([(-_AR_BOUND, _AR_BOUND)] * p + [(None, None)] * q
                  + [(None, None)] * (_EXOG_DIM + 1))
        result = minimize(_css, x0, args=(z, exog, p, q), jac=True,
                          method="L-BFGS-B", bounds=bounds,
                          options={"maxiter": 500})
        if not result.success and result.status != 1:  # status 1 = maxiter
            raise ConvergenceError(f"ARIMAX optimizer failed: {result.message}")
        if result.status == 1:
            raise ConvergenceError("ARIMAX optimizer hit the iteration cap")
        params = result.x
        n_free = len(params)
    else:
        params = np.concatenate([np.zeros(_EXOG_DIM), [z.mean()]])
        n_free = 1  # the intercept

    ar = params[:p]
    if p:
        # stationarity: roots of 1 - phi_1 z - ... - phi_p z^p outside unit circle
        roots = np.roots(np.concatenate([[1.0], -ar])[::-1])
        if len(roots) and np.any(np.abs(roots) <= 1.0):
            raise ConvergenceError("fitted AR polynomial is not stationary")
    ma = params[p:p + q]
    beta = params[p + q:p + q + _EXOG_DIM]
    intercept = float(params[p + q + _EXOG_DIM])

    e = _innovations(params, z, exog, p, _theta(ma, len(z)))
    skip = max(p, q)
    dof = max(len(e) - skip - n_free, 1)
    var = float(np.einsum("i,i", e[skip:], e[skip:]) / dof)  # as in _css: no BLAS dot
    return ArimaxModel(order=order, ar=ar, ma=ma, exog=beta,
                       intercept=intercept, innovation_var=max(var, 1e-300))


def predict_arimax(model, test, controls):
    """One-step-ahead forecasts on the original scale (teacher forcing).

    Returns predictions for grid indices [model.warmup, len(test)); compare
    against ``test.t_in[model.warmup:]``.
    """
    p, d = model.order.p, model.order.d
    warm = model.warmup
    if len(test) <= warm:
        raise InsufficientDataError(f"need more than {warm} samples of warm-up history")
    z, exog = _design(test, controls, d)
    # the forecast is the measured value less the innovation the fit's CSS
    # recursion finds from measured history
    params = np.concatenate([model.ar, model.ma, model.exog, [model.intercept]])
    pred_dz = z - _innovations(params, z, exog, p, _theta(model.ma, len(z)))

    # undifference with measured lags: y_t = pred_dz_t - sum_{k>=1} (-1)^k C(d,k) y_{t-k},
    # for t from warm, the first predictable original-scale index
    y, n = test.t_in, len(test)
    preds = pred_dz[warm - d:n - d].copy()
    for k in range(1, d + 1):
        preds -= ((-1) ** k) * comb(d, k) * y[warm - k:n - k]
    return preds
