"""Unit tests for the ARIMAX baseline and series diagnostics."""

import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rctherm import baselines as bl
from rctherm import timeseries as ts
from rctherm.errors import (
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidParameterError,
    ShapeError,
)
from test_timeseries import make_trace


# ---------------------------------------------------------------------------
# Diagnostics

def test_difference():
    assert bl.difference([1.0, 4.0, 9.0], 1) == pytest.approx([3.0, 5.0])
    assert bl.difference([1.0, 4.0, 9.0], 2) == pytest.approx([2.0])
    with pytest.raises(InsufficientDataError):
        bl.difference([1.0, 2.0], 2)


def test_acf_ar1():
    rng = np.random.default_rng(0)
    phi = 0.7
    e = rng.normal(0, 1, 200_000)
    x = np.empty(len(e))
    x[0] = e[0]
    for t in range(1, len(e)):
        x[t] = phi * x[t - 1] + e[t]
    rho = bl.acf(x, 5)
    assert rho[0] == 1.0
    assert rho[1:] == pytest.approx(phi ** np.arange(1, 6), abs=0.02)


def test_acf_errors():
    with pytest.raises(InsufficientDataError):
        bl.acf([1.0, 2.0], 5)
    with pytest.raises(DegenerateSeriesError):
        bl.acf(np.ones(100), 3)


def test_pacf_ar2_cutoff():
    rng = np.random.default_rng(1)
    e = rng.normal(0, 1, 200_000)
    x = np.zeros(len(e))
    for t in range(2, len(e)):
        x[t] = 0.5 * x[t - 1] - 0.3 * x[t - 2] + e[t]
    p = bl.pacf(x, 6)
    assert p[0] == pytest.approx(bl.acf(x, 1)[1])
    assert p[1] == pytest.approx(-0.3, abs=0.02)  # lag-2 partial = phi_2
    assert np.abs(p[2:]).max() < 0.02  # cutoff beyond the AR order


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


def test_css_maps_overflow_to_cliff_without_warnings():
    # a non-invertible MA polynomial makes the filtered innovations grow to
    # ~1e190, whose squares overflow in the dot product
    z = np.random.default_rng(0).normal(size=400)
    params = np.array([0.0, 3.0, 0.0])  # ar, ma, intercept
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bl._css(params, z, None, 1, 1, False) == 1e12


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
