"""Black-box comparison models: ARIMAX with exogenous inputs and a
persistence floor, plus ACF/PACF diagnostics.

ARIMAX(p, d, q) is estimated as a regression with ARMA errors on the
d-times-differenced series, by minimizing the conditional sum of squares
(initial innovations zero). The degenerate order (0, 1, 0) is the
persistence predictor y_t = y_{t-1} + intercept and carries no exogenous
terms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter

from . import timeseries
from .errors import (
    ConvergenceError,
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidParameterError,
    ShapeError,
)

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
    for _ in range(d):
        series = np.diff(series)
    return series


def acf(series, max_lag):
    """Sample autocorrelations for lags 0..max_lag (biased normalization)."""
    series = np.asarray(series, dtype=float)
    n = len(series)
    if n <= max_lag:
        raise InsufficientDataError(f"series of length {n} too short for lag {max_lag}")
    centered = series - series.mean()
    c0 = np.dot(centered, centered) / n
    if c0 <= 0:
        raise DegenerateSeriesError("series has zero variance")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        out[k] = np.dot(centered[:-k], centered[k:]) / n / c0
    return out


def pacf(series, max_lag):
    """Partial autocorrelations for lags 1..max_lag via Durbin-Levinson."""
    rho = acf(series, max_lag)
    out = np.empty(max_lag)
    phi = np.zeros((max_lag + 1, max_lag + 1))
    phi[1, 1] = rho[1]
    out[0] = rho[1]
    for k in range(2, max_lag + 1):
        num = rho[k] - np.dot(phi[k - 1, 1:k], rho[k - 1:0:-1])
        den = 1.0 - np.dot(phi[k - 1, 1:k], rho[1:k])
        phi[k, k] = num / den
        phi[k, 1:k] = phi[k - 1, 1:k] - phi[k, k] * phi[k - 1, k - 1:0:-1]
        out[k - 1] = phi[k, k]
    return out


def _design(trace, controls, d):
    return difference(trace.t_in, d), np.diff(timeseries.exog(trace, controls), n=d, axis=0)


def _innovations(params, z, exog, p, q, use_exog):
    """Innovations of dz_t = c + sum phi_i dz_{t-i} + beta.dX_t + ARMA errors,
    with initial innovations zero (CSS convention)."""
    ar = params[:p]
    ma = params[p:p + q]
    if use_exog:
        beta = params[p + q:p + q + _EXOG_DIM]
        c = params[p + q + _EXOG_DIM]
        r = z - c - exog @ beta
    else:
        c = params[p + q]
        r = z - c
    for i, phi in enumerate(ar, start=1):
        r[i:] -= phi * z[:-i]
    if q:
        return lfilter([1.0], np.concatenate([[1.0], ma]), r)
    return r


def _css(params, z, exog, p, q, use_exog):
    skip = max(p, q)
    # a non-invertible MA trial point overflows the filtered innovations;
    # that non-finite objective maps to the 1e12 cliff below, so numpy's
    # overflow warnings on the way carry nothing
    with np.errstate(over="ignore", invalid="ignore"):
        e = _innovations(params, z, exog, p, q, use_exog)
        # mean (not sum) keeps the objective well-scaled for the optimizer's
        # finite-difference gradients regardless of series length
        css = np.dot(e[skip:], e[skip:]) / max(len(e) - skip, 1)
    if not np.isfinite(css):
        return 1e12
    return float(css)


def fit_arimax(train, controls, order=None):
    """Fit ARIMAX by conditional sum of squares.

    Initialization: AR and MA coefficients at zero, exogenous coefficients
    and intercept by ordinary least squares on the differenced series.
    AR coefficients are box-bounded inside the unit interval and the fitted
    AR polynomial is verified stationary.
    """
    order = order or ArimaxOrder()
    p, d, q = order.p, order.d, order.q
    if len(train) < 10 * (p + q + 4):
        raise InsufficientDataError(
            f"need at least {10 * (p + q + 4)} samples to fit ARIMAX({p},{d},{q})")
    z, exog = _design(train, controls, d)
    use_exog = not (p == 0 and q == 0)

    if use_exog:
        design = np.column_stack([exog, np.ones(len(z))])
        ols, *_ = np.linalg.lstsq(design, z, rcond=None)
        x0 = np.concatenate([np.zeros(p + q), ols])
        bounds = ([(-_AR_BOUND, _AR_BOUND)] * p + [(None, None)] * q
                  + [(None, None)] * (_EXOG_DIM + 1))
    else:
        x0 = np.array([z.mean()])
        bounds = [(None, None)]

    result = minimize(_css, x0, args=(z, exog, p, q, use_exog),
                      method="L-BFGS-B", bounds=bounds,
                      options={"maxiter": 500})
    if not result.success and result.status != 1:  # status 1 = maxiter
        raise ConvergenceError(f"ARIMAX optimizer failed: {result.message}")
    if result.status == 1:
        raise ConvergenceError("ARIMAX optimizer hit the iteration cap")

    params = result.x
    ar = params[:p]
    if p:
        # stationarity: roots of 1 - phi_1 z - ... - phi_p z^p outside unit circle
        roots = np.roots(np.concatenate([[1.0], -ar])[::-1])
        if len(roots) and np.any(np.abs(roots) <= 1.0):
            raise ConvergenceError("fitted AR polynomial is not stationary")
    ma = params[p:p + q]
    if use_exog:
        beta = params[p + q:p + q + _EXOG_DIM]
        intercept = float(params[p + q + _EXOG_DIM])
    else:
        beta = np.zeros(_EXOG_DIM)
        intercept = float(params[p + q])

    e = _innovations(params, z, exog, p, q, use_exog)
    skip = max(p, q)
    dof = max(len(e) - skip - len(params), 1)
    var = float(np.dot(e[skip:], e[skip:]) / dof)
    return ArimaxModel(order=order, ar=ar, ma=ma, exog=beta,
                       intercept=intercept, innovation_var=max(var, 1e-300))


def predict_arimax(model, test, controls):
    """One-step-ahead forecasts on the original scale (teacher forcing).

    Returns predictions for grid indices [model.warmup, len(test)); compare
    against ``test.t_in[model.warmup:]``.
    """
    p, d, q = model.order.p, model.order.d, model.order.q
    warm = model.warmup
    if len(test) <= warm:
        raise InsufficientDataError(f"need more than {warm} samples of warm-up history")
    z, exog = _design(test, controls, d)
    use_exog = not (p == 0 and q == 0)

    mean = np.full(len(z), model.intercept)
    if use_exog:
        mean += exog @ model.exog
    for i, phi in enumerate(model.ar, start=1):
        mean[i:] += phi * z[:-i]
    # innovations from measured history, same CSS recursion as the fit
    r = z - mean
    if q:
        e = lfilter([1.0], np.concatenate([[1.0], model.ma]), r)
    else:
        e = r
    pred_dz = mean.copy()
    for j, theta in enumerate(model.ma, start=1):
        pred_dz[j:] += theta * e[:-j]

    # undifference with measured lags: y_t = pred_dz_t - sum_{k>=1} (-1)^k C(d,k) y_{t-k},
    # for t from warm, the first predictable original-scale index
    y, n = test.t_in, len(test)
    preds = pred_dz[warm - d:n - d].copy()
    for k in range(1, d + 1):
        preds -= ((-1) ** k) * comb(d, k) * y[warm - k:n - k]
    return preds
