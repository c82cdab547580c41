"""Unit tests for NNLS, the 1R1C fit, and the variational estimator."""

import numpy as np
import pytest

from conftest import FAST_2R2C, open_loop_dataset, split_by_day
from oracles import (
    elbo_and_grad,
    fit_bnn_loop,
    log_evidence_candidate,
    projected_gradient_nnls,
)
from rctherm import estimators as est
from rctherm import rcnet
from rctherm import timeseries as ts
from rctherm.jsonfile import plain
from rctherm.errors import (
    ConvergenceError,
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidParameterError,
    ShapeError,
)
from test_harness import _fresh_python
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


def test_nnls_leaves_columns_of_rounding_gradient_bound():
    # more columns than rows: two free columns fit y exactly, and every other
    # column's gradient is then rounding, which the tolerance ignores; freed,
    # each would come out nonpositive or singular in turn, up to the cap
    a = np.array([[0.6, 0.5, 0.2, 0.5], [0.7, -0.5, 0.9, -0.8]])
    y = np.array([0.9, -0.7])
    x = est.nnls(a, y)
    assert (x >= 0).all() and np.count_nonzero(x) == 2
    np.testing.assert_allclose(a @ x, y, rtol=0, atol=1e-14)


def test_nnls_skips_a_duplicate_column_that_rounding_frees():
    # the first two columns are equal. With y large against A, rounding leaves
    # the second a positive gradient once the first is free; its solve is
    # singular, so it is bound again and skipped, not freed and bound over
    # and over until the iteration cap
    a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, -1.0], [-3.0, -3.0, -1.0]]) / 10
    y = np.array([5000.0, 6000.0, 1000.0])
    x = est.nnls(a, y)
    assert (x >= 0).all()
    best = projected_gradient_nnls(a, y)
    assert np.linalg.norm(a @ x - y) <= np.linalg.norm(a @ best - y) * (1 + 1e-12)


#: A well-conditioned 8-column problem (condition number 96), found by a
#: random search over small integer matrices, on which Lawson and Hanson's
#: method frees and binds columns over 28 least-squares solves, past the
#: cap of 3 per column. Solved to the end, it agrees with the projected
#: gradient oracle; scipy.optimize.nnls stops at the same cap on it.
_SLOW_NNLS = (
    np.array([[-4, 9, -7, 5, 9, -2, 3, -7],
              [3, 6, 7, -1, 2, -9, -2, -4],
              [0, -7, -9, 1, 8, -3, -9, -3],
              [1, -2, 6, -1, -9, 4, -9, -9],
              [1, -4, 9, -2, -8, 1, 0, -7],
              [3, -4, 0, -4, 5, -7, -2, 4],
              [4, -7, -5, 0, 9, -7, -3, 6],
              [-4, -8, -2, -2, -3, 6, 7, 6]], dtype=float),
    np.array([5, -4, -8, -5, -7, -4, 7, -1], dtype=float),
)


def test_nnls_maps_the_iteration_cap_to_convergence_error():
    with pytest.raises(ConvergenceError, match="nnls exceeded 24 active-set iterations"):
        est.nnls(*_SLOW_NNLS)


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


def _oner_rows(trace, controls):
    return ts.build_regression(trace, controls, 1)


def test_fit_1r1c_noiseless_recovery():
    fit = est.fit_1r1c(_oner_rows(*_oner_trace(0.05, 0.4, 0.3, 2000, seed=3)))
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
        fit = est.fit_1r1c(_oner_rows(trace, controls))
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
    fit = est.fit_1r1c(_oner_rows(trace, controls))
    assert not fit.valid


def test_fit_1r1c_invalid_when_flux_vanishes():
    # heating duty present in the controls but absent from the dynamics
    trace, _ = _oner_trace(0.05, 0.0, 0.0, 1000, seed=1)
    n = len(trace)
    rng = np.random.default_rng(2)
    controls = ts.ControlSeries(
        k_heat=(rng.random(n) < 0.3).astype(np.int8),
        k_cool=np.zeros(n, dtype=np.int8))
    fit = est.fit_1r1c(_oner_rows(trace, controls))
    assert not fit.valid


def test_fit_1r1c_takes_order_1_rows_only():
    trace, controls = _oner_trace(0.05, 0.4, 0.3, 50, seed=4)
    with pytest.raises(ShapeError):
        est.fit_1r1c(ts.build_regression(trace, controls, 2))
    empty = ts.RegressionDataset(order=1, inputs=np.zeros((0, 7)),
                                 targets=np.zeros(0), indices=np.zeros(0, dtype=int))
    with pytest.raises(InsufficientDataError):
        est.fit_1r1c(empty)


def test_1r1c_coeffs_predict_exactly_on_generated_data():
    ds = _oner_rows(*_oner_trace(0.05, 0.4, 0.3, 500, seed=5))
    fit = est.fit_1r1c(ds)
    dc = fit.coeffs
    assert dc.s.tolist() == [[0.0, 0.0, 0.0], [fit.a, fit.b, -fit.c]]
    assert dc.e.tolist() == [fit.a - 1.0] and dc.offset == 0.0
    assert est.predict_one_step(dc, ds) == pytest.approx(ds.targets, abs=1e-8)


# ---------------------------------------------------------------------------
# Variational estimator: structure and serialization

def test_posterior_size_and_layout():
    ds = open_loop_dataset(rcnet.analytic_coefficients(FAST_2R2C, 300.0),
                           seed=0, days=2)
    post = est.fit_bnn(ds)
    assert post.num_weights == 11  # 2R2C: 11 weights
    assert post.means.shape == (12,)  # ... plus 1 bias
    assert post.training_meta["hyper"] == {"noise_std": 0.1}
    back = est.Posterior.from_json(post.to_json())
    assert back.means == pytest.approx(post.means)
    assert back.scales == pytest.approx(post.scales)
    assert back.training_meta == post.training_meta


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
# Variational estimator: the closed-form solve

ORDER1 = rcnet.RcParams((1.0,), (0.2,), 15.0, 12.0)
NOISY = est.TrainingConfig(noise_std=0.05)


def _similar_homes():
    """A source posterior fitted on 20 days of FAST_2R2C, and one day of
    training rows plus three test days from a twin with R and C 10% larger."""
    tgt_p = rcnet.RcParams(tuple(1.1 * r for r in FAST_2R2C.resistances),
                           tuple(1.1 * c for c in FAST_2R2C.capacitances),
                           FAST_2R2C.q_heat, FAST_2R2C.q_cool)
    src_ds = open_loop_dataset(rcnet.analytic_coefficients(FAST_2R2C, 300.0),
                               seed=10, noise_std=0.05, days=20)
    source = est.fit_bnn(src_ds, hyper=NOISY)
    tgt_all = open_loop_dataset(rcnet.analytic_coefficients(tgt_p, 300.0),
                                seed=11, noise_std=0.05, days=4)
    return (source, *split_by_day(tgt_all, 1))


def _fit_case(start, order=2):
    """(dataset, posterior, source) of a cold fit or a transfer."""
    if start == "cold":
        params = FAST_2R2C if order == 2 else ORDER1
        ds = open_loop_dataset(rcnet.analytic_coefficients(params, 300.0),
                               seed=2, noise_std=0.05, days=2)
        return ds, est.fit_bnn(ds, hyper=NOISY), None
    source, train, _ = _similar_homes()
    return train, est.transfer(source, train, hyper=NOISY), source


@pytest.mark.parametrize("start,order", [("cold", 2), ("cold", 1), ("transfer", 2)])
def test_fit_bnn_elbo_gradient_vanishes_at_the_solution(start, order):
    ds, post, source = _fit_case(start, order)
    alpha = post.training_meta["alpha"]
    value, g_m, g_s = elbo_and_grad(ds, 0.05, post.means, post.scales, source, alpha)
    assert value == pytest.approx(-post.training_meta["neg_elbo"], rel=1e-9)
    # in nats per posterior standard deviation
    assert np.abs(post.scales * g_m).max() < 1e-6
    assert np.abs(post.scales * g_s).max() < 1e-6
    # the oracle's gradient is that of its value: central differences along
    # a direction of one posterior standard deviation, away from the optimum
    rng = np.random.default_rng(0)
    m = post.means + post.scales * rng.normal(size=len(post.means))
    s = post.scales * np.exp(0.1 * rng.normal(size=len(post.scales)))
    u, v = post.scales * rng.normal(size=len(m)), s * rng.normal(size=len(s))
    _, g_m, g_s = elbo_and_grad(ds, 0.05, m, s, source, alpha)
    h = 1e-4
    up = elbo_and_grad(ds, 0.05, m + h * u, s + h * v, source, alpha)[0]
    down = elbo_and_grad(ds, 0.05, m - h * u, s - h * v, source, alpha)[0]
    assert (up - down) / (2 * h) == pytest.approx(g_m @ u + g_s @ v, rel=1e-5)


@pytest.mark.parametrize("start,order", [("cold", 2), ("cold", 1), ("transfer", 2)])
def test_fit_bnn_elbo_at_least_that_of_the_sgd_oracle(start, order):
    ds, post, source = _fit_case(start, order)
    alpha = post.training_meta["alpha"]
    sgd = fit_bnn_loop(ds, 0.05, source=source, alpha=alpha, learning_rate=5e-3,
                       epochs=80, lr_decay=0.985)
    closed = elbo_and_grad(ds, 0.05, post.means, post.scales, source, alpha)[0]
    assert closed >= elbo_and_grad(ds, 0.05, sgd.means, sgd.scales, source, alpha)[0]


@pytest.mark.parametrize("start", ["cold", "transfer"])
def test_fit_bnn_is_deterministic(start):
    ds, post, source = _fit_case(start)
    again = est.fit_bnn(ds, hyper=NOISY, source=source)
    assert again.to_json() == post.to_json()


def test_fit_bnn_recovers_coefficients():
    dc = rcnet.analytic_coefficients(FAST_2R2C, 300.0)
    ds = open_loop_dataset(dc, seed=4, days=20)
    post = est.fit_bnn(ds, hyper=est.TrainingConfig(noise_std=0.005))
    got = est.posterior_to_coeffs(post)
    truth = est.coeffs_to_weights(dc)[:-1]
    fitted = est.coeffs_to_weights(got)[:-1]
    assert np.abs(fitted - truth) / np.abs(truth) == pytest.approx(
        np.zeros_like(truth), abs=0.05)
    assert abs(got.offset) < 2e-2
    # the paper's stochastic-gradient fit lands on the same means: on this
    # data its largest deviation is 0.0099
    sgd = fit_bnn_loop(ds, 0.005, alpha=post.training_meta["alpha"], learning_rate=5e-3,
                       epochs=300, lr_decay=0.985)
    np.testing.assert_allclose(sgd.means, post.means, rtol=0, atol=0.015)


def test_fit_bnn_records_the_root_radius_of_its_difference_equation():
    # the characteristic roots of the analytic 2R2C equation are the
    # eigenvalues of its Phi, inside the unit circle
    dc = rcnet.analytic_coefficients(FAST_2R2C, 300.0)
    phi = rcnet.discretize(rcnet.build_state_space(FAST_2R2C), 300.0).phi
    assert dc.root_radius == pytest.approx(np.abs(np.linalg.eigvals(phi)).max(), rel=1e-12)
    post = est.fit_bnn(open_loop_dataset(dc, seed=4, days=20),
                       hyper=est.TrainingConfig(noise_std=0.005))
    radius = post.training_meta["root_radius"]
    assert radius == post.coeffs.root_radius < 1
    assert radius == pytest.approx(dc.root_radius, abs=1e-3)


def test_fit_bnn_and_transfer_load_no_scipy_optimize():
    # one eigh and one Cholesky solve per fit: no optimiser is imported
    code = ("import sys; import numpy as np; from rctherm import estimators as est; "
            "from rctherm.timeseries import RegressionDataset; "
            "x = np.random.default_rng(0).normal(size=(200, 7)); "
            "ds = RegressionDataset(order=1, inputs=x, targets=x.sum(axis=1), "
            "indices=np.arange(200)); est.transfer(est.fit_bnn(ds), ds); "
            "print('scipy.optimize' in sys.modules)")
    assert _fresh_python(code) == "False\n"


@pytest.mark.parametrize("value", [0.0, -1e-3, float("nan")])
def test_training_config_rejects_impossible_values(value):
    with pytest.raises(InvalidParameterError, match="noise_std"):
        est.TrainingConfig(noise_std=value)


def test_training_config_accepts_any_positive_noise():
    assert plain(est.TrainingConfig(noise_std=1e-9)) == {"noise_std": 1e-9}


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
    post = est.fit_bnn(ds)
    assert est.transfer(post, None) is post
    empty = ts.RegressionDataset(order=2, inputs=np.zeros((0, 11)),
                                 targets=np.zeros(0), indices=np.zeros(0, int))
    assert est.transfer(post, empty) is post


def test_transfer_order_mismatch():
    ds2 = open_loop_dataset(rcnet.analytic_coefficients(FAST_2R2C, 300.0),
                            seed=9, days=1)
    post2 = est.fit_bnn(ds2)
    ds1 = open_loop_dataset(rcnet.analytic_coefficients(ORDER1, 300.0), seed=9, days=1)
    with pytest.raises(ShapeError):
        est.transfer(post2, ds1)


@pytest.mark.parametrize("start", ["cold", "transfer"])
def test_transfer_alpha_maximises_the_evidence(start):
    ds, post, source = _fit_case(start)
    meta = post.training_meta
    alpha, grid = meta["alpha"], est.ALPHA_GRID
    assert grid[0] <= alpha <= grid[-1]

    def evidence(a):
        return log_evidence_candidate(ds, 0.05, source, a)
    assert meta["log_evidence"] == pytest.approx(evidence(alpha), rel=1e-7)
    # no worse than its grid neighbours, the ends of the grid, or a 5%
    # step either way; 1e-6 nats allows for the oracle's rounding
    i = np.searchsorted(grid, alpha)
    best = evidence(alpha)
    for other in {grid[0], grid[-1], *grid[max(i - 1, 0):i + 2], alpha * 1.05, alpha / 1.05}:
        assert best >= evidence(other) - 1e-6


@pytest.mark.parametrize("start", ["cold", "transfer"])
def test_alpha_inside_the_grid_is_not_flagged(start):
    assert _fit_case(start)[1].training_meta["alpha_at_grid_edge"] is False


def test_transfer_flags_an_alpha_at_the_top_of_the_grid():
    # a source with the true coefficients and a wide scale: the tighter the
    # prior about them, the higher the evidence, so it still rises at the
    # top of the grid and log_evidence there is not a maximum
    dc = rcnet.analytic_coefficients(FAST_2R2C, 300.0)
    ds = open_loop_dataset(dc, seed=3, noise_std=0.05, days=1)
    truth = est.coeffs_to_weights(dc)
    source = est.Posterior(order=2, means=truth, scales=np.full(len(truth), 10.0),
                           noise_std=0.05)
    meta = est.transfer(source, ds, hyper=NOISY).training_meta
    top = est.ALPHA_GRID[-1]
    assert meta["alpha"] == top and meta["alpha_at_grid_edge"] is True
    assert log_evidence_candidate(ds, 0.05, source, 10 * top) > meta["log_evidence"]


@pytest.mark.parametrize("alpha", [1e-12, 1e2])
@pytest.mark.parametrize("start", ["cold", "transfer"])
def test_log_evidence_at_the_ends_of_the_grid(monkeypatch, start, alpha):
    # at 1e-12 alpha is far below every eigenvalue of the whitened Gram
    # matrix, where the log1p and the whitening carry the evidence
    ds, _, source = _fit_case(start)
    monkeypatch.setattr(est, "ALPHA_GRID", np.array([alpha]))
    meta = est.fit_bnn(ds, hyper=NOISY, source=source).training_meta
    assert meta["alpha"] == alpha
    assert meta["log_evidence"] == pytest.approx(
        log_evidence_candidate(ds, 0.05, source, alpha), rel=1e-7)


def test_transfer_of_a_flat_prior_to_collinear_rows_is_a_data_error():
    # heating on throughout: its columns equal the bias column, and a source
    # of scale 1e6 leaves that direction undetermined at every alpha
    dc = rcnet.analytic_coefficients(FAST_2R2C, 300.0)
    steps = ts.SAMPLES_PER_DAY
    u = np.column_stack([30 + 5 * np.sin(np.arange(steps) / 40), np.ones(steps),
                         np.zeros(steps)])
    y = rcnet.simulate_difference(dc, u, np.full(2, 70.0))
    cols = [u[2 - i: steps - i] for i in range(3)] + [y[2 - i: steps - i, None] for i in (1, 2)]
    ds = ts.RegressionDataset(order=2, inputs=np.hstack(cols), targets=y[2:],
                              indices=np.arange(2, steps))
    flat = est.Posterior(order=2, means=est.coeffs_to_weights(dc), scales=np.full(12, 1e6),
                         noise_std=0.05)
    with pytest.raises(DegenerateSeriesError):
        est.transfer(flat, ds, hyper=NOISY)


def test_transfer_beats_cold_start_on_similar_home():
    # source home fitted on plentiful data; target is a 10%-shifted twin
    # with only one day of observations
    source, train, test = _similar_homes()
    cold = est.fit_bnn(train, hyper=NOISY)
    warm = est.transfer(source, train, hyper=NOISY)

    def held_out_rmse(post):
        return est.rmse(est.predict_one_step(est.posterior_to_coeffs(post), test),
                        test.targets)
    assert held_out_rmse(warm) <= held_out_rmse(cold)


# ---------------------------------------------------------------------------
# Metrics

def test_rmse():
    assert est.rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
    assert est.rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    with pytest.raises(ShapeError):
        est.rmse([1.0], [1.0, 2.0])
    with pytest.raises(ShapeError, match="no samples to score"):
        est.rmse([], [])
