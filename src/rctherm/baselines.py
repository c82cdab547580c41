"""Black-box comparison models: ARIMAX with exogenous inputs and a
persistence floor.

ARIMAX(p, d, q) is estimated as a regression with ARMA errors on the
d-times-differenced series, by minimizing the conditional sum of squares
(initial innovations zero) by variable projection: Newton steps in the AR
and MA coefficients, with the intercept and exogenous coefficients solved by
least squares at each trial, over the trials whose AR polynomial is
stationary and whose MA polynomial is invertible. The degenerate order
(0, 1, 0) is the persistence predictor y_t = y_{t-1} + intercept, fitted in
closed form; it carries no exogenous terms.
"""

from __future__ import annotations

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
from .jsonfile import JsonFile, read
from .rcnet import all_pole, all_pole_band, root_radius

_EXOG_DIM = 3  # (t_out, k_heat, k_cool)
#: The ARMA fit stops when a step predicts a relative CSS decrease below
#: _TOL, and fails after _MAX_STEPS steps; a step is halved at most
#: _MAX_HALVINGS times.
_TOL = 1e-10
_MAX_STEPS = 200
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class ArimaxOrder:
    p: int = 1
    d: int = 1
    q: int = 2

    def __post_init__(self):
        if self.p < 0 or self.d < 0 or self.q < 0:
            raise InvalidParameterError("ARIMAX orders must be nonnegative")


@dataclass(frozen=True)
class ArimaxModel(JsonFile, error=ShapeError, name="arimax", constants={"kind": "arimax"}):
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
        return {**super().to_dict(), "order": [self.order.p, self.order.d, self.order.q]}

    @classmethod
    def from_dict(cls, data):
        """Parse a model, whose "order" is the array [p, d, q]; anything
        malformed raises ShapeError."""
        data = dict(read(dict, data, "arimax", ShapeError))
        if "order" in data:
            data["order"] = dict(zip("pdq", read(tuple[int, int, int], data["order"],
                                                 "arimax.order", ShapeError)))
        return super().from_dict(data)


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


def _columns(z, exog):
    """The series _Projection filters: z, each exogenous column plus 1, and
    1, as the contiguous columns of one array."""
    cols = np.ones((len(z), _EXOG_DIM + 2), order="F")
    cols[:, 0] = z
    cols[:, 1:-1] += exog
    return cols


class _Projection:
    """The CSS at AR/MA coefficients ``arma``, with the intercept and the
    exogenous coefficients at their least-squares values (variable
    projection: Golub & Pereyra 1973).

    For a fixed theta the innovations e = theta^-1 (z - sum phi_i B^i z)
    - theta^-1 [X, 1] (beta, c) are linear in (beta, c), so those come from
    least squares of the filtered series on the filtered columns over the
    scored rows. Each exogenous column is filtered as theta^-1(x + 1) -
    theta^-1 1: the differenced duty columns are mostly zero, and their
    filtered tails would decay into subnormal floats, which are slow.
    """

    def __init__(self, arma, cols, p, skip, linear=None):
        """``cols`` is _columns of the series, and the first ``skip`` rows
        are not scored. A given ``linear`` (beta, c) is used as it is, with
        no least-squares step."""
        n = len(cols)
        self.arma, self.p, self.skip = arma, p, skip
        self.theta = _theta(arma[p:], n)
        v = all_pole(self.theta, cols)  # theta^-1 of z, x + 1 and 1
        v[:, 1:-1] -= v[:, -1:]
        self.v = v
        w = v[:, 0].copy()
        for i, phi in enumerate(arma[:p], start=1):
            w[i:] -= phi * v[:-i, 0]
        if linear is None:
            f = v[skip:, 1:]
            # einsum, not a BLAS product, which splits its sums across threads:
            # the fitted coefficients do not depend on the BLAS thread count
            self.gram_inv = np.linalg.pinv(np.einsum("ti,tj->ij", f, f), hermitian=True)
            linear = self.gram_inv @ np.einsum("ti,t->i", f, w[skip:])
        self.linear = linear
        self.e = w - np.einsum("ti,i->t", v[:, 1:], linear)
        scored = self.e[skip:]
        self.css = np.einsum("i,i", scored, scored) / len(scored)

    def derivatives(self):
        """The gradient and Hessian of the CSS in the AR/MA coefficients,
        and the Gauss-Newton part of that Hessian (Kaufman 1975).

        By the envelope theorem the gradient is the fixed-(beta, c) one,
        -(2/m) J'e over the m scored rows, with J = [B^i theta^-1 z,
        B^j theta^-1 e]. The Hessian is the fixed-(beta, c) Hessian with
        (beta, c) eliminated (a Schur complement). Its second-order terms
        are dot products with a = theta^-T e~ (e~ the innovations with the
        unscored rows zeroed): d2e/dphi_i dtheta_j = B^(i+j) theta^-2 z,
        d2e/dtheta_j dtheta_k = 2 B^(j+k) theta^-2 e and
        d2e/dtheta_j d(beta, c) = B^j theta^-2 [X, 1].
        """
        p, skip, e, v = self.p, self.skip, self.e, self.v
        n, q = len(e), len(self.arma) - self.p
        u = all_pole(self.theta, e)
        scored = e.copy()
        scored[:skip] = 0.0
        a = all_pole(self.theta, scored, adjoint=True)
        jac = np.array([v[skip - i:n - i, 0] for i in range(1, p + 1)]
                       + [u[skip - j:n - j] for j in range(1, q + 1)])
        cross = np.einsum("kt,ti->ki", jac, v[skip:, 1:])
        gauss = np.einsum("kt,lt->kl", jac, jac)
        second = np.zeros_like(gauss)
        mixed = np.zeros_like(cross)
        for j in range(1, q + 1):
            for i in range(1, p + 1):
                second[i - 1, p + j - 1] = second[p + j - 1, i - 1] = \
                    np.einsum("i,i", a[i + j:], v[:n - i - j, 0])
            for k in range(1, q + 1):
                second[p + j - 1, p + k - 1] = 2 * np.einsum("i,i", a[j + k:], u[:n - j - k])
            mixed[p + j - 1] = np.einsum("t,ti->i", a[j:], v[:n - j, 1:])
        linked = cross + mixed
        scale = 2.0 / (n - skip)
        return (-scale * np.einsum("kt,t->k", jac, e[skip:]),
                scale * (gauss + second - linked @ self.gram_inv @ linked.T),
                scale * (gauss - cross @ self.gram_inv @ cross.T))


def _fit_arma(z, exog, p, q):
    """The _Projection of least CSS, by Newton's method on the
    variable-projection CSS from zero AR/MA coefficients, with the
    Gauss-Newton Hessian where the exact one is not positive definite.

    A trial is admitted when its AR polynomial is stationary and its MA
    polynomial invertible; one that is not, or that does not lower the CSS,
    is halved back. So every fit is stationary and invertible, as zero is.
    The fit stops when a step predicts a relative decrease below _TOL, or
    when no halving lowers the CSS (a minimum to rounding).
    """
    cols, skip = _columns(z, exog), max(p, q)
    fit = _Projection(np.zeros(p + q), cols, p, skip)
    for _ in range(_MAX_STEPS):
        grad, hess, gauss_newton = fit.derivatives()
        try:
            np.linalg.cholesky(hess)
        except np.linalg.LinAlgError:
            hess = gauss_newton
        delta = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        if not -0.5 * (grad @ delta) > _TOL * fit.css:
            return fit
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = fit.arma + scale * delta
            # phi(B) = 1 - phi_1 B - ... is stationary and theta(B) = 1 +
            # theta_1 B + ... invertible (the innovations filter 1/theta(B) is
            # stable) when every root is outside the unit circle: the reversed
            # polynomial's root radius is below 1
            if root_radius(-trial[:p]) < 1.0 and root_radius(trial[p:]) < 1.0:
                moved = _Projection(trial, cols, p, skip)
                if moved.css < fit.css:
                    break
            scale /= 2
        else:
            return fit
        fit = moved
    raise ConvergenceError("ARIMAX optimizer hit the iteration cap")


def fit_arimax(train, controls, order=None):
    """Fit ARIMAX by conditional sum of squares.

    Newton's method moves the AR and MA coefficients from zero, with the
    intercept and exogenous coefficients projected out by least squares at
    every trial (``_fit_arma``); every trial it accepts has a stationary AR
    and an invertible MA polynomial. Persistence (p = q = 0) is the closed
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
        fit = _fit_arma(z, exog, p, q)
        arma, linear, e, n_free = fit.arma, fit.linear, fit.e, p + q + _EXOG_DIM + 1
    else:
        arma, linear = np.zeros(0), np.append(np.zeros(_EXOG_DIM), z.mean())
        e, n_free = z - linear[-1], 1  # the intercept alone

    skip = max(p, q)
    dof = max(len(e) - skip - n_free, 1)
    var = float(np.einsum("i,i", e[skip:], e[skip:]) / dof)  # as in _Projection: no BLAS dot
    return ArimaxModel(order=order, ar=arma[:p], ma=arma[p:], exog=linear[:_EXOG_DIM],
                       intercept=float(linear[-1]), innovation_var=max(var, 1e-300))


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
    # the forecast is the measured value less the innovation that the fit's
    # CSS recursion finds from measured history
    pred_dz = z - _Projection(np.concatenate([model.ar, model.ma]), _columns(z, exog), p,
                              max(p, q), linear=np.append(model.exog, model.intercept)).e

    # undifference with measured lags: y_t = pred_dz_t - sum_{k>=1} (-1)^k C(d,k) y_{t-k},
    # for t from warm, the first predictable original-scale index
    y, n = test.t_in, len(test)
    preds = pred_dz[warm - d:n - d].copy()
    for k in range(1, d + 1):
        preds -= ((-1) ** k) * comb(d, k) * y[warm - k:n - k]
    return preds
