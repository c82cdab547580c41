"""Unit tests for the ARIMAX baseline and series differencing."""

import itertools
import os
import subprocess
import sys
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from rctherm import baselines as bl
from rctherm import timeseries as ts
from rctherm.errors import (
    InsufficientDataError,
    InvalidParameterError,
    ShapeError,
)
from rctherm.rcnet import root_radius
from oracles import css_value, fit_arimax_fd
from test_timeseries import make_trace


# ---------------------------------------------------------------------------
# Differencing

def test_difference():
    assert bl.difference([1.0, 4.0, 9.0], 1) == pytest.approx([3.0, 5.0])
    assert bl.difference([1.0, 4.0, 9.0], 2) == pytest.approx([2.0])
    with pytest.raises(InsufficientDataError):
        bl.difference([1.0, 2.0], 2)


# ---------------------------------------------------------------------------
# Model plumbing

def test_arimax_order_validation():
    with pytest.raises(InvalidParameterError):
        bl.ArimaxOrder(p=-1)


def test_arimax_model_validation_and_roundtrip():
    with pytest.raises(ShapeError):
        bl.ArimaxModel(order=bl.ArimaxOrder(1, 1, 2), ar=np.zeros(2),
                       ma=np.zeros(2), exog=np.zeros(3), intercept=0.0,
                       innovation_var=1.0)
    with pytest.raises(ShapeError):
        bl.ArimaxModel(order=bl.ArimaxOrder(1, 1, 2), ar=np.zeros(1),
                       ma=np.zeros(2), exog=np.zeros(2), intercept=0.0,
                       innovation_var=1.0)
    model = bl.ArimaxModel(order=bl.ArimaxOrder(1, 1, 2), ar=np.array([0.5]),
                           ma=np.array([0.3, -0.2]),
                           exog=np.array([0.02, 0.1, -0.08]),
                           intercept=0.001, innovation_var=0.0025)
    back = bl.ArimaxModel.from_json(model.to_json())
    assert back.ar == pytest.approx(model.ar)
    assert back.ma == pytest.approx(model.ma)
    assert back.exog == pytest.approx(model.exog)
    assert back.warmup == 3


# ---------------------------------------------------------------------------
# Estimation on self-generated data

AR, MA, EXOG, C, ESTD = 0.5, (0.3, -0.2), (0.02, 0.1, -0.08), 0.001, 0.05


def _arimax_trace(steps, seed):
    """y whose first difference follows z_t = C + AR z_{t-1} + EXOG . dX_t
    + e_t + MA . e_lags, matching the fitted model family exactly."""
    rng = np.random.default_rng(seed)
    t_out = 30.0 + 8.0 * np.sin(2 * np.pi * np.arange(steps) / 288) \
        + rng.normal(0, 1.5, steps)
    r = rng.random(steps)
    kh = (r < 0.35).astype(np.int8)
    kc = (r > 0.75).astype(np.int8)
    dx = np.diff(np.column_stack([t_out, kh, kc]).astype(float), axis=0)
    e = rng.normal(0, ESTD, steps - 1)
    z = np.empty(steps - 1)
    for t in range(steps - 1):
        z[t] = C + dx[t] @ EXOG + e[t]
        if t >= 1:
            z[t] += AR * z[t - 1] + MA[0] * e[t - 1]
        if t >= 2:
            z[t] += MA[1] * e[t - 2]
    y = 70.0 + np.concatenate([[0.0], np.cumsum(z)])
    trace = make_trace(steps, t_in=y, t_out=t_out)
    return trace, ts.ControlSeries(k_heat=kh, k_cool=kc)


def test_fit_arimax_recovers_parameters():
    trace, controls = _arimax_trace(100_000, seed=7)
    model = bl.fit_arimax(trace, controls)
    assert model.ar[0] == pytest.approx(AR, rel=0.1)
    assert model.ma == pytest.approx(MA, rel=0.1)
    assert model.exog == pytest.approx(EXOG, rel=0.1)
    assert model.innovation_var == pytest.approx(ESTD ** 2, rel=0.1)


#: Fits the seed-0 series at two ARIMAX orders, 75 days of a 1R1C roll-out
#: by NNLS, and a 90-day synthetic trace by the closed-form posterior with a
#: one-day transfer from it, and prints the five model files, then the
#: digests of a free run and of a synthetic trace's t_in, both of which
#: filter with a BLAS banded solve.
_FIT_MODEL_FILES = """
import hashlib
from datetime import datetime, timezone
import numpy as np
from conftest import FAST_2R2C, open_loop_dataset, random_inputs
from rctherm import baselines as bl, estimators as est, fleet, rcnet, timeseries as ts
from test_baselines import _arimax_trace
from test_fleet import SHOULDER
trace, controls = _arimax_trace(20_000, 0)
for order in ((1, 1, 2), (0, 1, 1)):
    print(bl.fit_arimax(trace, controls, bl.ArimaxOrder(*order)).to_json())
oner = rcnet.analytic_coefficients(rcnet.RcParams((2.0,), (0.3,), 15.0, 12.0), 300.0)
print(est.fit_1r1c(open_loop_dataset(oner, seed=0, noise_std=0.05, days=75)).to_json())
_, traces = fleet.synth_fleet(fleet.FleetConfig(n_homes=1), seed=4)
winter = traces[("home0000", "winter")]
cold = est.fit_bnn(ts.build_regression(winter, ts.derive_controls(winter), 2))
day = ts.slice_trace(winter, 0, ts.SAMPLES_PER_DAY)
print(cold.to_json())
print(est.transfer(cold, ts.build_regression(day, ts.derive_controls(day), 2)).to_json())
dc = rcnet.analytic_coefficients(FAST_2R2C, 300.0)
free = rcnet.simulate_difference(dc, random_inputs(np.random.default_rng(0), 20_000), [70.0, 70.0])
synth, _ = fleet.generate_trace(FAST_2R2C, SHOULDER, "h", datetime(2019, 1, 1, tzinfo=timezone.utc),
                                np.random.default_rng(0), 0.05)
for values in (free, synth.t_in):
    print(hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_model_files_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long dot product across its threads, which changes the
    # order of the sum; the fits' sums are einsums, so the files are the same,
    # and so are the filtered series
    files = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path)),
               **{name: threads for name in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
        files.append(subprocess.run([sys.executable, "-c", _FIT_MODEL_FILES], env=env,
                                    capture_output=True, text=True, check=True,
                                    timeout=300).stdout)
    assert files[0] == files[1] and files[0].count("innovation_var") == 2
    assert files[0].count('"onercone"') == 1 and files[0].count('"layout"') == 2
    assert len(files[0].splitlines()) == 7


def _invertible_ma(rng, q):
    # theta(B) = prod (1 - r_k B) with every |r_k| < 1
    return np.atleast_1d(np.poly(rng.uniform(-0.8, 0.8, q)))[1:]


@pytest.mark.parametrize("p, d, q", [o for o in itertools.product(range(3), repeat=3)
                                     if o[0] or o[2]])
def test_projected_css_derivatives_match_central_differences(p, d, q):
    # the fit's Newton step rests on the gradient and Hessian of the CSS with
    # the intercept and exogenous coefficients projected out
    seed = 9 * p + 3 * d + q
    trace, controls = _arimax_trace(3000, seed)
    z = bl.difference(trace.t_in, d)
    x = np.diff(ts.exog(trace, controls), n=d, axis=0)
    rng = np.random.default_rng(seed)
    arma = np.concatenate([rng.uniform(-0.8, 0.8, p), _invertible_ma(rng, q)])
    cols = bl._columns(z, x)

    def project(at):
        return bl._Projection(at, cols, p, max(p, q))

    fit = project(arma)
    params = np.concatenate([arma, fit.linear])
    assert fit.css == pytest.approx(css_value(params, z, x, p, q), rel=1e-12)
    for k in range(p + q, len(params)):  # no nearby (beta, c) does better
        for sign in (1, -1):
            moved = params.copy()
            moved[k] += sign * 1e-4
            assert css_value(moved, z, x, p, q) >= fit.css
    grad, hess, _ = fit.derivatives()
    h = 1e-5
    central, central_hess = np.empty_like(grad), np.empty_like(hess)
    for k in range(p + q):
        step = np.zeros_like(arma)
        step[k] = h
        up, down = project(arma + step), project(arma - step)
        central[k] = (up.css - down.css) / (2 * h)
        central_hess[:, k] = (up.derivatives()[0] - down.derivatives()[0]) / (2 * h)
    assert np.max(np.abs(grad - central)) <= 1e-5 * np.max(np.abs(grad))
    assert np.max(np.abs(hess - central_hess)) <= 1e-5 * np.max(np.abs(hess))


def _css_of(model, trace, controls):
    p, d, q = model.order.p, model.order.d, model.order.q
    z = bl.difference(trace.t_in, d)
    x = np.diff(ts.exog(trace, controls), n=d, axis=0)
    params = np.concatenate([model.ar, model.ma, model.exog, [model.intercept]])
    return css_value(params, z, x, p, q)


# Seeds 16, 10, 7, 22 and 4 after the first fifteen sit at the MA
# invertibility cliff, where a fit whose trials overflow stops up to 17%
# above this reference. At orders (1, 0, 1) and (2, 0, 1) the integrated
# series is fitted undifferenced, so the CSS optimum lies at the AR unit
# root: the fit approaches it from the stationary side (the (1, 0, 1) fits
# take 25 and 32 steps), while the reference stays in its box of +-0.999.
@pytest.mark.parametrize("seed, order", [
    *itertools.product(range(5), [(1, 1, 2), (0, 1, 1), (1, 1, 0)]),
    (16, (0, 1, 1)), (10, (0, 1, 1)), (7, (0, 1, 2)), (22, (0, 1, 2)), (4, (0, 1, 2)),
    (0, (1, 0, 1)), (3, (1, 0, 1)), (0, (2, 0, 1)), (4, (2, 0, 1)),
], ids=str)
def test_fit_arimax_reaches_the_finite_difference_optimum(seed, order):
    trace, controls = _arimax_trace(20_000, seed)
    order = bl.ArimaxOrder(*order)
    model = bl.fit_arimax(trace, controls, order)
    fitted = _css_of(model, trace, controls)
    reference = _css_of(fit_arimax_fd(trace, controls, order), trace, controls)
    assert fitted <= reference * (1 + 1e-5)
    assert root_radius(-model.ar) < 1.0  # stationary


def test_fit_arimax_recovers_an_ar2_past_the_unit_coefficient():
    # phi(B) = 1 - 1.5 B + 0.56 B^2 = (1 - 0.8 B)(1 - 0.7 B) is stationary,
    # with phi_1 above 1
    phi, steps = (1.5, -0.56), 20_000
    rng = np.random.default_rng(5)
    _, controls = _arimax_trace(steps, seed=5)
    t_in = 70.0 + lfilter([1.0], [1.0, -phi[0], -phi[1]], rng.normal(0.0, ESTD, steps))
    trace = make_trace(steps, t_in=t_in, t_out=30.0 + rng.normal(0.0, 1.5, steps))
    model = bl.fit_arimax(trace, controls, bl.ArimaxOrder(2, 0, 0))
    assert model.ar == pytest.approx(phi, abs=0.02)
    assert model.innovation_var == pytest.approx(ESTD ** 2, rel=0.05)


@pytest.mark.parametrize("seed, order", [(0, (0, 1, 1)), (1, (0, 1, 2)), (2, (0, 1, 1))],
                         ids=str)
def test_fit_arimax_evaluates_only_invertible_ma_polynomials(monkeypatch, seed, order):
    # t_in is white noise about a level, so its first difference is
    # e_t - e_{t-1}: the CSS optimum is at the MA unit root, and full steps
    # cross it. A non-invertible theta(B) makes the innovations filter blow
    # up; the fit halves such a trial back before it builds that filter.
    tried = []
    theta = bl._theta

    def spy(ma, n):
        tried.append(np.array(ma))
        return theta(ma, n)

    monkeypatch.setattr(bl, "_theta", spy)
    rng = np.random.default_rng(seed)
    _, controls = _arimax_trace(5000, seed)
    trace = make_trace(5000, t_in=70.0 + rng.normal(0.0, 0.05, 5000),
                       t_out=30.0 + rng.normal(0.0, 1.0, 5000))
    model = bl.fit_arimax(trace, controls, bl.ArimaxOrder(*order))

    def radius(ma):  # theta(B) is invertible when this is below 1
        return np.abs(np.roots(np.concatenate([[1.0], ma]))).max()

    assert len(tried) > 3
    assert max(map(radius, tried)) < 1.0
    assert radius(model.ma) > 0.95


def test_fit_arimax_insufficient_data():
    trace, controls = _arimax_trace(50, seed=0)
    with pytest.raises(InsufficientDataError):
        bl.fit_arimax(trace, controls)


def test_predict_arimax_one_step():
    trace, controls = _arimax_trace(20_000, seed=8)
    model = bl.fit_arimax(trace, controls)
    cut = 15_000
    test = ts.slice_trace(trace, cut, len(trace))
    test_controls = ts.ControlSeries(k_heat=controls.k_heat[cut:],
                                     k_cool=controls.k_cool[cut:])
    preds = bl.predict_arimax(model, test, test_controls)
    actual = test.t_in[model.warmup:]
    assert len(preds) == len(actual)
    resid = preds - actual
    # one-step error approaches the innovation floor
    assert np.sqrt(np.mean(resid ** 2)) == pytest.approx(ESTD, rel=0.1)


def _undifference_loop(pred_dz, y, d, warm):
    preds = np.empty(len(y) - warm)
    for t in range(warm, len(y)):
        acc = pred_dz[t - d]
        for k in range(1, d + 1):
            acc -= ((-1) ** k) * comb(d, k) * y[t - k]
        preds[t - warm] = acc
    return preds


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2),
       st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2**32 - 1))
def test_predict_arimax_undifferences_like_the_sample_loop(d, p, q, seed):
    rng = np.random.default_rng(seed)
    steps = int(rng.integers(max(p, q) + d + 2, 60))
    trace = make_trace(steps, t_in=70.0 + np.cumsum(rng.normal(0, 0.3, steps)),
                       t_out=rng.normal(30.0, 5.0, steps))
    controls = ts.ControlSeries(k_heat=rng.integers(0, 2, steps).astype(np.int8),
                                k_cool=np.zeros(steps, dtype=np.int8))
    model = bl.ArimaxModel(order=bl.ArimaxOrder(p, d, q), ar=rng.uniform(-0.9, 0.9, p),
                           ma=rng.uniform(-0.5, 0.5, q), exog=rng.normal(0, 0.1, 3),
                           intercept=float(rng.normal(0, 0.01)), innovation_var=1.0)
    # the package's differenced-scale forecast, recovered from d = 0, where
    # undifferencing is the identity
    flat = bl.ArimaxModel(order=bl.ArimaxOrder(p, 0, q), ar=model.ar, ma=model.ma,
                          exog=model.exog, intercept=model.intercept, innovation_var=1.0)
    z = bl.difference(trace.t_in, d)
    x = np.diff(ts.exog(trace, controls), n=d, axis=0)
    diffed = make_trace(len(z), t_in=z, t_out=x[:, 0])
    diffed_controls = ts.ControlSeries(k_heat=x[:, 1], k_cool=x[:, 2])
    pred_dz = np.concatenate([np.zeros(max(p, q)),
                              bl.predict_arimax(flat, diffed, diffed_controls)])
    want = _undifference_loop(pred_dz, trace.t_in, d, model.warmup)
    got = bl.predict_arimax(model, trace, controls)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p, q", [(1, 2), (0, 1), (1, 1)])
def test_predict_arimax_at_d0_is_the_fitted_recursion(p, q):
    # on its training segment the forecast is the measured value less the
    # innovations whose CSS the fit minimised, bit for bit
    trace, controls = _arimax_trace(3000, seed=10 * p + q)
    model = bl.fit_arimax(trace, controls, bl.ArimaxOrder(p, 0, q))
    z, exog = bl._design(trace, controls, 0)
    e = bl._fit_arma(z, exog, p, q).e
    got = bl.predict_arimax(model, trace, controls)
    assert got.tobytes() == (z - e)[model.warmup:].tobytes()


def test_predict_arimax_needs_warmup():
    trace, controls = _arimax_trace(2000, seed=9)
    model = bl.fit_arimax(trace, controls)
    short = ts.slice_trace(trace, 0, model.warmup)
    short_controls = ts.ControlSeries(
        k_heat=controls.k_heat[:model.warmup],
        k_cool=controls.k_cool[:model.warmup])
    with pytest.raises(InsufficientDataError):
        bl.predict_arimax(model, short, short_controls)


# ---------------------------------------------------------------------------
# Persistence floor

def test_persistence_fit_and_predict():
    steps = 2000
    rng = np.random.default_rng(3)
    drift = 0.01
    y = 70.0 + drift * np.arange(steps) + rng.normal(0, 0.001, steps)
    trace = make_trace(steps, t_in=y)
    controls = ts.ControlSeries(k_heat=np.zeros(steps, dtype=np.int8),
                                k_cool=np.zeros(steps, dtype=np.int8))
    model = bl.fit_arimax(trace, controls, order=bl.ArimaxOrder(0, 1, 0))
    assert model.intercept == pytest.approx(drift, abs=1e-4)
    assert model.exog == pytest.approx(np.zeros(3))  # carries no exogenous terms
    assert model.ar.size == 0 and model.ma.size == 0
    preds = bl.predict_arimax(model, trace, controls)
    assert preds == pytest.approx(y[:-1] + model.intercept, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_persistence_closed_form_is_the_optimizer_fit(seed):
    # the CSS minimiser of mean((dz - c)^2) is c = mean(dz), where L-BFGS-B
    # starts and stops: the closed form writes the same model file
    trace, controls = _arimax_trace(5000, seed)
    order = bl.ArimaxOrder(0, 1, 0)
    got = bl.fit_arimax(trace, controls, order)
    assert got.intercept == bl.difference(trace.t_in, 1).mean()
    assert got.to_json() == fit_arimax_fd(trace, controls, order).to_json()
