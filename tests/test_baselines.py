"""Unit tests for the ARIMAX baseline and series differencing."""

import itertools
import os
import subprocess
import sys
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rctherm import baselines as bl
from rctherm import timeseries as ts
from rctherm.errors import (
    InsufficientDataError,
    InvalidParameterError,
    ShapeError,
)
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


#: Fits the seed-0 series at two orders and prints both model files, then
#: the digests of a free run and of a synthetic trace's t_in, both of which
#: filter with a BLAS banded solve.
_FIT_MODEL_FILES = """
import hashlib
from datetime import datetime, timezone
import numpy as np
from conftest import FAST_2R2C, random_inputs
from rctherm import baselines as bl, fleet, rcnet
from test_baselines import _arimax_trace
from test_fleet import SHOULDER
trace, controls = _arimax_trace(20_000, 0)
for order in ((1, 1, 2), (0, 1, 1)):
    print(bl.fit_arimax(trace, controls, bl.ArimaxOrder(*order)).to_json())
dc = rcnet.analytic_coefficients(FAST_2R2C, 300.0)
free = rcnet.simulate_difference(dc, random_inputs(np.random.default_rng(0), 20_000), [70.0, 70.0])
synth, _ = fleet.generate_trace(FAST_2R2C, SHOULDER, "h", datetime(2019, 1, 1, tzinfo=timezone.utc),
                                np.random.default_rng(0), 0.05)
for values in (free, synth.t_in):
    print(hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_arimax_model_file_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long dot product across its threads, which changes the
    # order of the sum; the fit's sums are einsums, so the file is the same,
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
    assert len(files[0].splitlines()) == 4


def test_css_maps_overflow_to_cliff_without_warnings():
    # a non-invertible MA polynomial makes the filtered innovations grow to
    # ~1e190, whose squares overflow in the dot product
    z = np.random.default_rng(0).normal(size=400)
    params = np.array([0.0, 3.0, 0.0, 0.0, 0.0, 0.0])  # ar, ma, exog, intercept
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, grad = bl._css(params, z, np.zeros((400, 3)), 1, 1)
    assert value == 1e12
    assert grad.shape == params.shape and np.all(grad == 0.0)


def _invertible_ma(rng, q):
    # theta(B) = prod (1 - r_k B) with every |r_k| < 1
    return np.atleast_1d(np.poly(rng.uniform(-0.8, 0.8, q)))[1:]


@pytest.mark.parametrize("q", [0, 1, 2])
@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_css_gradient_matches_central_differences(p, d, q):
    seed = 9 * p + 3 * d + q
    trace, controls = _arimax_trace(3000, seed)
    z = bl.difference(trace.t_in, d)
    x = np.diff(ts.exog(trace, controls), n=d, axis=0)
    rng = np.random.default_rng(seed)
    params = np.concatenate([rng.uniform(-0.8, 0.8, p), _invertible_ma(rng, q),
                             rng.normal(0, 0.1, 3), [rng.normal(0, 0.01)]])
    value, grad = bl._css(params, z, x, p, q)
    assert value == pytest.approx(css_value(params, z, x, p, q), rel=1e-12)
    central = np.empty_like(params)
    for k in range(len(params)):
        h = 1e-6 * max(1.0, abs(params[k]))
        step = np.zeros_like(params)
        step[k] = h
        central[k] = (bl._css(params + step, z, x, p, q)[0]
                      - bl._css(params - step, z, x, p, q)[0]) / (2 * h)
    assert np.max(np.abs(grad - central)) <= 1e-5 * np.max(np.abs(grad))


def _css_of(model, trace, controls):
    p, d, q = model.order.p, model.order.d, model.order.q
    z = bl.difference(trace.t_in, d)
    x = np.diff(ts.exog(trace, controls), n=d, axis=0)
    params = np.concatenate([model.ar, model.ma, model.exog, [model.intercept]])
    return css_value(params, z, x, p, q)


# The exact-gradient fit of seed 16 at order (0, 1, 1) stops at the MA
# invertibility cliff: a quasi-Newton step to a non-invertible MA point
# overflows to the 1e12 cliff, and the line search accepts a step of rounding
# size back at the start point, so L-BFGS-B ends on its relative-reduction
# test 17% above the finite-difference fit (ROADMAP, ARIMAX cliff stall).
_CLIFF_STALL = pytest.mark.xfail(reason="L-BFGS-B stalls at the 1e12 cliff", strict=True)


@pytest.mark.parametrize("seed, order", [
    *itertools.product(range(5), [(1, 1, 2), (0, 1, 1), (1, 1, 0)]),
    pytest.param(16, (0, 1, 1), marks=_CLIFF_STALL),
], ids=str)
def test_fit_arimax_reaches_the_finite_difference_optimum(seed, order):
    trace, controls = _arimax_trace(20_000, seed)
    order = bl.ArimaxOrder(*order)
    exact = _css_of(bl.fit_arimax(trace, controls, order), trace, controls)
    reference = _css_of(fit_arimax_fd(trace, controls, order), trace, controls)
    assert exact <= reference * (1 + 1e-5)


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
