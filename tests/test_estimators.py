"""Unit tests for NNLS, the 1R1C fit, and the variational estimator."""

import numpy as np
import pytest

from conftest import FAST_2R2C, open_loop_dataset, split_by_day
from oracles import fit_bnn_loop, projected_gradient_nnls
from rctherm import estimators as est
from rctherm import rcnet
from rctherm import timeseries as ts
from rctherm.errors import (
    InsufficientDataError,
    InvalidParameterError,
    ShapeError,
    TrainingError,
)
from test_timeseries import make_trace


# ---------------------------------------------------------------------------
# NNLS

def test_nnls_unconstrained_interior():
    a = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    x_true = np.array([0.7, 1.3])
    x = est.nnls(a, a @ x_true)
    assert x == pytest.approx(x_true, abs=1e-12)


def test_nnls_binding_constraint():
    # unconstrained optimum has a negative component; NNLS clamps it
    a = np.eye(2)
    x = est.nnls(a, np.array([3.0, -2.0]))
    assert x == pytest.approx([3.0, 0.0], abs=1e-12)


def test_nnls_matches_projected_gradient_oracle(rng):
    for _ in range(50):
        m, k = int(rng.integers(5, 40)), int(rng.integers(1, 8))
        a = rng.normal(size=(m, k))
        y = rng.normal(size=m)
        x = est.nnls(a, y)
        x_pg = projected_gradient_nnls(a, y)
        assert np.abs(x - x_pg).max() < 1e-6


def test_nnls_kkt_conditions(rng):
    for _ in range(200):
        m, k = int(rng.integers(3, 30)), int(rng.integers(1, 10))
        a = rng.normal(size=(m, k))
        y = rng.normal(size=m)
        x = est.nnls(a, y)
        g = a.T @ (a @ x - y)
        scale = max(1.0, np.abs(a.T @ y).max())
        assert (x >= 0).all()
        assert (g >= -1e-8 * scale).all()          # dual feasibility
        assert np.abs(x * g).max() < 1e-8 * scale  # complementary slackness


def test_nnls_validation():
    with pytest.raises(ShapeError):
        est.nnls(np.zeros(3), np.zeros(3))
    with pytest.raises(ShapeError):
        est.nnls(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(InvalidParameterError):
        est.nnls(np.array([[np.nan]]), np.array([1.0]))


# ---------------------------------------------------------------------------
# 1R1C

def _oner_trace(a, b, c, steps, seed, noise_std=0.0):
    rng = np.random.default_rng(seed)
    t_out = 30.0 + 5.0 * np.sin(2 * np.pi * np.arange(steps) / 288) \
        + rng.normal(0, 2, steps)
    r = rng.random(steps)
    kh = (r < 0.35).astype(np.int8)
    kc = (r > 0.75).astype(np.int8)
    y = np.empty(steps)
    y[0] = 55.0
    for t in range(steps - 1):
        y[t + 1] = (y[t] + a * (t_out[t] - y[t]) + b * kh[t] - c * kc[t]
                    + (rng.normal(0, noise_std) if noise_std else 0.0))
    trace = make_trace(steps, t_in=y, t_out=t_out)
    return ts.impute(trace), ts.ControlSeries(k_heat=kh, k_cool=kc)


def test_fit_1r1c_noiseless_recovery():
    trace, controls = _oner_trace(0.05, 0.4, 0.3, 2000, seed=3)
    fit = est.fit_1r1c(trace, controls)
    assert fit.valid
    assert fit.a == pytest.approx(0.05, rel=1e-9)
    assert fit.b == pytest.approx(0.4, rel=1e-9)
    assert fit.c == pytest.approx(0.3, rel=1e-9)
    assert fit.residual_norm < 1e-9


def test_fit_1r1c_noisy_recovery_averaged():
    errs = []
    for seed in range(20):
        trace, controls = _oner_trace(0.05, 0.4, 0.3, 4000, seed=seed,
                                      noise_std=0.05)
        fit = est.fit_1r1c(trace, controls)
        errs.append([fit.a, fit.b, fit.c])
    mean = np.mean(errs, axis=0)
    assert mean == pytest.approx([0.05, 0.4, 0.3], rel=0.05)


def test_fit_1r1c_invalid_when_envelope_vanishes():
    # indoor pinned to outdoor difference zero: no envelope signal
    n = 500
    rng = np.random.default_rng(0)
    t = 70.0 + rng.normal(0, 0.001, n).cumsum() * 0
    trace = ts.impute(make_trace(n, t_in=t.copy(), t_out=t.copy()))
    controls = ts.ControlSeries(k_heat=np.zeros(n, dtype=np.int8),
                                k_cool=np.zeros(n, dtype=np.int8))
    fit = est.fit_1r1c(trace, controls)
    assert not fit.valid


def test_fit_1r1c_invalid_when_flux_vanishes():
    # heating duty present in the controls but absent from the dynamics
    trace, _ = _oner_trace(0.05, 0.0, 0.0, 1000, seed=1)
    n = len(trace)
    rng = np.random.default_rng(2)
    controls = ts.ControlSeries(
        k_heat=(rng.random(n) < 0.3).astype(np.int8),
        k_cool=np.zeros(n, dtype=np.int8))
    fit = est.fit_1r1c(trace, controls)
    assert not fit.valid


def test_fit_1r1c_requires_imputed():
    trace = make_trace(10, t_in=np.r_[np.nan, np.linspace(70, 71, 9)])
    controls = ts.ControlSeries(k_heat=np.zeros(10), k_cool=np.zeros(10))
    with pytest.raises(InsufficientDataError):
        est.fit_1r1c(trace, controls)


def test_predict_1r1c_exact_on_generated_data():
    trace, controls = _oner_trace(0.05, 0.4, 0.3, 500, seed=5)
    fit = est.fit_1r1c(trace, controls)
    preds = est.predict_1r1c(fit, trace, controls)
    assert preds == pytest.approx(trace.t_in[1:], abs=1e-8)


# ---------------------------------------------------------------------------
# Variational estimator: structure and serialization

def test_posterior_size_and_layout():
    ds = open_loop_dataset(rcnet.analytic_coefficients(FAST_2R2C, 300.0),
                           seed=0, days=2)
    post = est.fit_bnn(ds, hyper=est.TrainingConfig(epochs=2))
    assert post.num_weights == 11  # 2R2C: 11 weights
    assert post.means.shape == (12,)  # ... plus 1 bias
    assert post.training_meta["hyper"]["epochs"] == 2
    back = est.Posterior.from_json(post.to_json())
    assert back.means == pytest.approx(post.means)
    assert back.scales == pytest.approx(post.scales)


def test_posterior_validation():
    with pytest.raises(ShapeError):
        est.Posterior(order=2, means=np.zeros(11), scales=np.ones(11),
                      noise_std=0.1)
    with pytest.raises(InvalidParameterError):
        est.Posterior(order=2, means=np.zeros(12), scales=np.zeros(12),
                      noise_std=0.1)
    with pytest.raises(ShapeError):
        est.Posterior.from_dict({"layout": "other", "order": 2,
                                 "means": [], "scales": [], "noise_std": 0.1})


def test_weights_coeffs_roundtrip():
    dc = rcnet.analytic_coefficients(FAST_2R2C, 300.0)
    w = est.coeffs_to_weights(dc)
    post = est.Posterior(order=2, means=w, scales=np.full(12, 0.01),
                         noise_std=0.1)
    back = est.posterior_to_coeffs(post)
    assert back.s == pytest.approx(dc.s)
    assert back.e == pytest.approx(dc.e)
    assert back.offset == pytest.approx(dc.offset)


def test_predict_one_step_exact_and_linear_in_e():
    dc = rcnet.analytic_coefficients(FAST_2R2C, 300.0)
    ds = open_loop_dataset(dc, seed=1, days=2)
    preds = est.predict_one_step(dc, ds)
    assert preds == pytest.approx(ds.targets, abs=1e-9)
    # perturbing e_1 by delta shifts each prediction by -delta * y_{t-1}
    delta = 0.01
    dc2 = rcnet.DiffCoeffs(order=2, s=dc.s, e=dc.e + np.array([delta, 0.0]))
    shifted = est.predict_one_step(dc2, ds)
    y_lag1 = ds.inputs[:, 9]
    assert shifted - preds == pytest.approx(-delta * y_lag1, abs=1e-12)


def test_predict_one_step_order_mismatch():
    dc = rcnet.analytic_coefficients(FAST_2R2C, 300.0)
    ds = open_loop_dataset(dc, seed=1, days=1)
    dc1 = rcnet.analytic_coefficients(rcnet.RcParams((1.0,), (0.2,), 10, 10),
                                      300.0)
    with pytest.raises(ShapeError):
        est.predict_one_step(dc1, ds)


# ---------------------------------------------------------------------------
# Variational estimator: training behaviour

def test_fit_bnn_reproducible():
    ds = open_loop_dataset(rcnet.analytic_coefficients(FAST_2R2C, 300.0),
                           seed=2, noise_std=0.05, days=2)
    hyper = est.TrainingConfig(epochs=5)
    a = est.fit_bnn(ds, hyper=hyper, seed=11)
    b = est.fit_bnn(ds, hyper=hyper, seed=11)
    assert (a.means == b.means).all() and (a.scales == b.scales).all()
    c = est.fit_bnn(ds, hyper=hyper, seed=12)
    assert not (a.means == c.means).all()


def test_fit_bnn_recovers_coefficients():
    dc = rcnet.analytic_coefficients(FAST_2R2C, 300.0)
    ds = open_loop_dataset(dc, seed=4, days=20)
    hyper = est.TrainingConfig(learning_rate=5e-3, epochs=300,
                               noise_std=0.005, lr_decay=0.985)
    post = est.fit_bnn(ds, hyper=hyper, seed=0)
    got = est.posterior_to_coeffs(post)
    truth = est.coeffs_to_weights(dc)[:-1]
    fitted = est.coeffs_to_weights(got)[:-1]
    assert np.abs(fitted - truth) / np.abs(truth) == pytest.approx(
        np.zeros_like(truth), abs=0.05)
    assert abs(got.offset) < 2e-2


def test_fit_bnn_elbo_moving_average_decreases():
    dc = rcnet.analytic_coefficients(FAST_2R2C, 300.0)
    ds = open_loop_dataset(dc, seed=6, noise_std=0.05, days=5)
    hyper = est.TrainingConfig(learning_rate=2e-2, epochs=300, noise_std=0.05,
                               mc_samples=8, lr_decay=0.99)
    post = est.fit_bnn(ds, hyper=hyper, seed=0)
    loss = post.loss_history
    assert loss is not None and len(loss) >= 200
    ma = np.convolve(loss, np.ones(50) / 50, mode="valid")
    assert ma[-1] < 0.1 * ma[0]  # clear overall descent
    # Monte Carlo sampling allows tiny upticks, never a sustained rise
    running_min = np.minimum.accumulate(ma)
    span = ma[0] - running_min[-1]
    assert (ma - running_min).max() < 0.05 * span


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_bnn_divergence_raises():
    ds = open_loop_dataset(rcnet.analytic_coefficients(FAST_2R2C, 300.0),
                           seed=7, days=2)
    hyper = est.TrainingConfig(learning_rate=1e6, epochs=50)
    with pytest.raises(TrainingError) as got:
        est.fit_bnn(ds, hyper=hyper, seed=0)
    # at the step where the one-sample-at-a-time loop diverges
    with pytest.raises(TrainingError) as want:
        fit_bnn_loop(ds, hyper=hyper, seed=0)
    assert want.value.step is not None
    assert got.value.step == want.value.step


@pytest.mark.parametrize("start,order,options", [
    ("cold", 2, dict()),
    ("cold", 2, dict(mc_samples=2)),
    ("cold", 2, dict(mc_samples=8)),
    ("transfer", 2, dict()),
    ("transfer", 2, dict(mc_samples=8)),
    ("cold", 2, dict(batch_size=1000)),  # fewer rows than one batch
    ("cold", 1, dict(batch_size=100)),  # rows not a multiple of the batch
])
def test_fit_bnn_matches_the_step_loop_oracle(start, order, options):
    # "transfer" starts from a source posterior that is also the Gaussian prior
    params = FAST_2R2C if order == 2 else rcnet.RcParams((1.0,), (0.2,), 15.0, 12.0)
    ds = open_loop_dataset(rcnet.analytic_coefficients(params, 300.0),
                           seed=2, noise_std=0.05, days=2)
    hyper = est.TrainingConfig(epochs=6, noise_std=0.05, lr_decay=0.9,
                               average_fraction=0.5, **options)
    source = None
    if start == "transfer":
        source = est.fit_bnn(ds, hyper=est.TrainingConfig(epochs=3, noise_std=0.05), seed=1)
    got = est.fit_bnn(ds, hyper=hyper, seed=3, source=source)
    want = fit_bnn_loop(ds, hyper=hyper, seed=3, source=source)
    np.testing.assert_allclose(got.means, want.means, rtol=0, atol=1e-9)
    np.testing.assert_allclose(got.scales, want.scales, rtol=1e-9)
    np.testing.assert_allclose(got.loss_history, want.loss_history, rtol=1e-9)
    assert got.training_meta == want.training_meta


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("epochs", 0), ("mc_samples", -1),
    ("noise_std", 0.0), ("learning_rate", -1e-3), ("lr_decay", 0.0),
    ("lr_decay", float("nan")),
    ("average_fraction", -0.1), ("average_fraction", 1.5),
])
def test_training_config_rejects_impossible_values(field, value):
    with pytest.raises(InvalidParameterError, match=field):
        est.TrainingConfig(**{field: value})


def test_training_config_accepts_the_range_ends():
    est.TrainingConfig(batch_size=1, epochs=1, mc_samples=1, average_fraction=0.0)
    est.TrainingConfig(average_fraction=1.0, lr_decay=1e-9)


def test_fit_bnn_empty_dataset():
    ds = ts.RegressionDataset(order=2, inputs=np.zeros((0, 11)),
                              targets=np.zeros(0), indices=np.zeros(0, int))
    with pytest.raises(InsufficientDataError):
        est.fit_bnn(ds)


def test_fit_bnn_override_length_check():
    ds = open_loop_dataset(rcnet.analytic_coefficients(FAST_2R2C, 300.0),
                           seed=8, days=1)
    source = est.Posterior(order=1, means=np.zeros(8), scales=np.ones(8), noise_std=0.1)
    with pytest.raises(ShapeError):
        est.fit_bnn(ds, source=source)


# ---------------------------------------------------------------------------
# Transfer

def test_transfer_identity_without_target_data():
    ds = open_loop_dataset(rcnet.analytic_coefficients(FAST_2R2C, 300.0),
                           seed=9, days=2)
    post = est.fit_bnn(ds, hyper=est.TrainingConfig(epochs=3))
    assert est.transfer(post, None) is post
    empty = ts.RegressionDataset(order=2, inputs=np.zeros((0, 11)),
                                 targets=np.zeros(0), indices=np.zeros(0, int))
    assert est.transfer(post, empty) is post


def test_transfer_order_mismatch():
    ds2 = open_loop_dataset(rcnet.analytic_coefficients(FAST_2R2C, 300.0),
                            seed=9, days=1)
    post2 = est.fit_bnn(ds2, hyper=est.TrainingConfig(epochs=2))
    dc1 = rcnet.analytic_coefficients(rcnet.RcParams((1.0,), (0.2,), 10, 10),
                                      300.0)
    ds1 = open_loop_dataset(dc1, seed=9, days=1)
    with pytest.raises(ShapeError):
        est.transfer(post2, ds1)


def test_transfer_beats_cold_start_on_similar_home():
    # source home fitted on plentiful data; target is a 10%-shifted twin
    # with only one day of observations
    src_p = FAST_2R2C
    tgt_p = rcnet.RcParams(tuple(1.1 * r for r in src_p.resistances),
                           tuple(1.1 * c for c in src_p.capacitances),
                           src_p.q_heat, src_p.q_cool)
    src_dc = rcnet.analytic_coefficients(src_p, 300.0)
    tgt_dc = rcnet.analytic_coefficients(tgt_p, 300.0)
    hyper = est.TrainingConfig(learning_rate=5e-3, epochs=80,
                               noise_std=0.05, lr_decay=0.985)
    src_ds = open_loop_dataset(src_dc, seed=10, noise_std=0.05, days=20)
    source = est.fit_bnn(src_ds, hyper=hyper, seed=0)

    tgt_all = open_loop_dataset(tgt_dc, seed=11, noise_std=0.05, days=4)
    tgt_train, tgt_test = split_by_day(tgt_all, 1)
    wins = 0
    for seed in range(5):
        cold = est.fit_bnn(tgt_train, hyper=hyper, seed=seed)
        warm = est.transfer(source, tgt_train, hyper=hyper, seed=seed)
        r_cold = est.rmse(est.predict_one_step(
            est.posterior_to_coeffs(cold), tgt_test), tgt_test.targets)
        r_warm = est.rmse(est.predict_one_step(
            est.posterior_to_coeffs(warm), tgt_test), tgt_test.targets)
        wins += r_warm <= r_cold
    assert wins >= 4


# ---------------------------------------------------------------------------
# Metrics

def test_rmse():
    assert est.rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
    assert est.rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    with pytest.raises(ShapeError):
        est.rmse([1.0], [1.0, 2.0])
    with pytest.raises(ShapeError):
        est.rmse([], [])
