"""Acceptance suite: one test per shipping criterion.

Each test asserts the stated tolerance directly, so ``pytest -v`` yields one
pass/fail line per criterion. Expensive artifacts (the 200-system
discretization sweep and the 20-home synthetic fleet) are built once per
module and shared between the criteria that need them.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    FAST_2R2C,
    open_loop_dataset,
    random_fast_params,
    random_inputs,
    random_params,
    random_slow_params,
    split_by_day,
)
from oracles import (
    charpoly_eig_oracle,
    euler_foh_oracle,
    projected_gradient_nnls,
    s_interpolation_oracle,
)
from rctherm import baselines as bl
from rctherm import estimators as est
from rctherm import fleet, harness, rcnet
from rctherm import timeseries as ts
from test_estimators import _oner_trace
from test_fleet import planted_blobs

_SUITE_START = time.perf_counter()

STEP_SECONDS = 300.0


def _sign_test_p(wins, n):
    """One-sided paired sign test: P(X >= wins) under X ~ Binomial(n, 1/2)."""
    return sum(math.comb(n, i) for i in range(wins, n + 1)) / 2.0 ** n


# ---------------------------------------------------------------------------
# Shared artifacts

@pytest.fixture(scope="module")
def systems200():
    """200 random valid networks, orders 1..5, with lump rates that keep
    every compound coefficient well above rounding noise."""
    rng = np.random.default_rng(918273)
    systems = []
    for i in range(200):
        order = 1 + i % 5
        ss = rcnet.build_state_space(random_fast_params(rng, order))
        ds = rcnet.discretize(ss, STEP_SECONDS)
        dc = rcnet.difference_coefficients(ds, ss)
        systems.append((ss, ds, dc))
    return systems


SHOULDER_90 = fleet.SeasonConfig(
    name="shoulder", days=90, outdoor_mean=70.0, outdoor_daily_amplitude=25.0,
    outdoor_seasonal_amplitude=5.0, weather_noise_std=2.0,
    setheat_day=69.0, setheat_night=66.0, setcool_day=74.0, setcool_night=77.0,
    hvac_mode=ts.MODE_AUTO)


@pytest.fixture(scope="module")
def fleet_rmse_table():
    """Per-home one-step test RMSEs on a 20-home synthetic fleet: the
    variational fit at three training volumes, plus the two reference
    predictors, all evaluated on the same held-out 15 days per home."""
    sigma = 0.015
    config = fleet.FleetConfig(n_homes=20, seasons=(SHOULDER_90,),
                               measurement_noise_std=sigma)
    homes, traces = fleet.synth_fleet(config, seed=42)
    hyper = est.TrainingConfig(noise_std=sigma)
    table = {75: [], 7: [], 1: [], "arimax": [], "persistence": []}
    for home in homes:
        trace = traces[(home.metadata.home_id, "shoulder")]
        train75, test = ts.split(trace, 75, 15)
        test_ds = ts.build_regression(test, ts.derive_controls(test), 2)
        for days in (75, 7, 1):
            sub = ts.slice_trace(train75, 0, days * ts.SAMPLES_PER_DAY)
            ds = ts.build_regression(sub, ts.derive_controls(sub), 2)
            post = est.fit_bnn(ds, hyper=hyper)
            dc = est.posterior_to_coeffs(post)
            table[days].append(
                est.rmse(est.predict_one_step(dc, test_ds), test_ds.targets))
        train_controls = ts.derive_controls(train75)
        test_controls = ts.derive_controls(test)
        arimax = bl.fit_arimax(train75, train_controls)
        table["arimax"].append(est.rmse(
            bl.predict_arimax(arimax, test, test_controls),
            test.t_in[arimax.warmup:]))
        persistence = bl.fit_arimax(train75, train_controls,
                                    order=(0, 1, 0))
        table["persistence"].append(est.rmse(
            bl.predict_arimax(persistence, test, test_controls),
            test.t_in[persistence.warmup:]))
    return {k: np.array(v) for k, v in table.items()}


# ---------------------------------------------------------------------------
# Criteria

def test_criterion_01_discretization_matches_eigen_oracle(systems200):
    # re-run the coefficient computation under the clock; the comparison
    # itself is against an independent eigendecomposition/char-poly oracle
    start = time.perf_counter()
    computed = [rcnet.difference_coefficients(ds, ss)
                for ss, ds, _ in systems200]
    elapsed = time.perf_counter() - start
    for (ss, ds, _), dc in zip(systems200, computed):
        e_oracle = charpoly_eig_oracle(ds.phi)
        s_oracle = s_interpolation_oracle(ds.phi, ds.gamma1, ds.gamma2, ss.cm)
        assert (np.abs(dc.e - e_oracle) <= 1e-9 * np.abs(e_oracle)).all()
        assert (np.abs(dc.s - s_oracle) <= 1e-9 * np.abs(s_oracle)).all()
    assert elapsed <= 10.0


def test_criterion_02_cayley_hamilton_and_dc_gain(systems200):
    for ss, ds, dc in systems200:
        n = dc.order
        phi = ds.phi
        # M_0 = I, M_i = Phi M_{i-1} + e_i I; the char poly annihilates Phi
        m = np.eye(n)
        for i in range(n - 1):
            m = phi @ m + dc.e[i] * np.eye(n)
        residual = phi @ m + dc.e[n - 1] * np.eye(n)
        assert np.linalg.norm(residual) <= 1e-9 * max(1.0, np.linalg.norm(phi))
        # unit steady-state gain from T_out: sum S[:, T_out] = 1 + sum e
        gain_lhs = dc.s[:, 0].sum()
        gain_rhs = 1.0 + dc.e.sum()
        assert abs(gain_lhs - gain_rhs) <= 1e-9 * max(1.0, abs(gain_rhs))


def test_criterion_03_simulator_equivalence():
    rng = np.random.default_rng(515253)
    for i in range(50):
        order = 1 + i % 5
        params = random_params(rng, order)
        ss = rcnet.build_state_space(params)
        ds = rcnet.discretize(ss, STEP_SECONDS)
        dc = rcnet.difference_coefficients(ds, ss)
        u = random_inputs(rng, 1000)
        x0 = rng.uniform(40.0, 80.0, size=order)
        y_state = rcnet.simulate_state_space(ds, ss, u, x0)
        y_diff = rcnet.simulate_difference(dc, u, y_state[:order])
        assert np.abs(y_diff - y_state).max() <= 1e-6


def test_criterion_04_fine_step_euler_crosscheck():
    rng = np.random.default_rng(646566)
    for _ in range(20):
        params = random_slow_params(rng, 2)
        ss = rcnet.build_state_space(params)
        ds = rcnet.discretize(ss, STEP_SECONDS)
        u = random_inputs(rng, ts.SAMPLES_PER_DAY)  # one simulated day
        x0 = rcnet.initial_state(params, 70.0, u[0, 0])
        y = rcnet.simulate_state_space(ds, ss, u, x0)
        y_euler = euler_foh_oracle(ss.a, ss.b, ss.cm, u, x0,
                                   STEP_SECONDS / 3600.0, 10_000)
        assert np.abs(y - y_euler).max() <= 1e-4


def test_criterion_05_nnls_kkt_oracle_and_recovery():
    rng = np.random.default_rng(757677)
    for i in range(1000):
        m = int(rng.integers(3, 40))
        k = int(rng.integers(1, 10))
        a = rng.normal(size=(m, k))
        y = rng.normal(size=m)
        x = est.nnls(a, y)
        g = a.T @ (a @ x - y)
        scale = max(1.0, np.abs(a.T @ y).max())
        assert (x >= 0).all()
        assert (g >= -1e-8 * scale).all()
        assert np.abs(x * g).max() < 1e-8 * scale
        # independent optimizer cross-check on a subset; restricted to
        # overdetermined draws, where the minimizer is unique
        if i < 200 and m > k:
            assert np.abs(x - projected_gradient_nnls(a, y)).max() < 1e-6
    # noiseless 1R1C recovery
    trace, controls = _oner_trace(0.05, 0.4, 0.3, 2000, seed=3)
    fit = est.fit_1r1c(ts.build_regression(trace, controls, 1))
    assert fit.valid
    assert fit.a == pytest.approx(0.05, rel=1e-6)
    assert fit.b == pytest.approx(0.4, rel=1e-6)
    assert fit.c == pytest.approx(0.3, rel=1e-6)


def test_criterion_06_bnn_recovery_noiseless_and_noisy():
    dc = rcnet.analytic_coefficients(FAST_2R2C, STEP_SECONDS)
    # noiseless: 75 training days, 15 held-out days
    dataset = open_loop_dataset(dc, seed=101, days=90)
    train, test = split_by_day(dataset, 75)
    post = est.fit_bnn(train, hyper=est.TrainingConfig(noise_std=0.005))
    assert post.num_weights == 11      # 2R2C: exactly 11 weights ...
    assert post.means.shape == (12,)   # ... plus 1 bias
    got = est.posterior_to_coeffs(post)
    truth = est.coeffs_to_weights(dc)[:-1]
    fitted = est.coeffs_to_weights(got)[:-1]
    assert (np.abs(fitted - truth) <= 0.01 * np.abs(truth)).all()
    noiseless_rmse = est.rmse(est.predict_one_step(got, test), test.targets)
    assert noiseless_rmse <= 0.02
    # measurement noise 0.05 degF: held-out RMSE <= 0.1 averaged over 20 seeds
    noisy_hyper = est.TrainingConfig(noise_std=0.05)
    noisy = []
    for seed in range(20):
        dataset = open_loop_dataset(dc, seed=200 + seed, noise_std=0.05,
                                    days=90)
        train, test = split_by_day(dataset, 75)
        post = est.fit_bnn(train, hyper=noisy_hyper)
        got = est.posterior_to_coeffs(post)
        noisy.append(est.rmse(est.predict_one_step(got, test), test.targets))
    assert np.mean(noisy) <= 0.1


def test_criterion_07_data_volume_ordering(fleet_rmse_table):
    r75 = fleet_rmse_table[75]
    r7 = fleet_rmse_table[7]
    r1 = fleet_rmse_table[1]
    assert r75.mean() <= r7.mean() <= r1.mean()
    n = len(r75)
    assert _sign_test_p(int((r75 < r7).sum()), n) < 0.05
    assert _sign_test_p(int((r7 < r1).sum()), n) < 0.05


def test_criterion_08_cross_home_transfer():
    hyper = est.TrainingConfig(noise_std=0.05)
    base = dict(
        fleet_config=fleet.FleetConfig(n_homes=40, seasons=(SHOULDER_90,)),
        model_kinds=("bnn_rc",), train_days=75, test_days=15,
        hyper=hyper, seed=7)

    def mean_rmse(report):
        return float(np.mean([r["rmse"] for r in report.records]))

    scratch = mean_rmse(harness.run_experiment(
        harness.ExperimentConfig(**base)))
    direct = mean_rmse(harness.run_experiment(harness.ExperimentConfig(
        **base, scenario="cross-home", retrain_days=0)))
    retrained = mean_rmse(harness.run_experiment(harness.ExperimentConfig(
        **base, scenario="cross-home", retrain_days=1)))
    assert direct <= 1.5 * scratch
    assert retrained <= direct


def test_criterion_09_cross_season_transfer():
    sigma = 0.01

    def season(name, shift=0.0):
        return fleet.SeasonConfig(
            name=name, days=12, outdoor_mean=70.0,
            outdoor_daily_amplitude=25.0, outdoor_seasonal_amplitude=5.0,
            weather_noise_std=2.0, setheat_day=69.0, setheat_night=66.0,
            setcool_day=74.0, setcool_night=77.0, hvac_mode=ts.MODE_AUTO,
            param_shift=shift)

    hyper = est.TrainingConfig(noise_std=sigma)

    day = ts.SAMPLES_PER_DAY
    direct_means, retrain_means = [], []
    for seed in range(20):
        config = fleet.FleetConfig(
            n_homes=2, measurement_noise_std=sigma,
            seasons=(season("spring"), season("autumn", shift=0.2)))
        homes, traces = fleet.synth_fleet(config, seed=seed)
        direct_rmses, retrain_rmses = [], []
        for home in homes:
            src = traces[(home.metadata.home_id, "spring")]
            dst = traces[(home.metadata.home_id, "autumn")]
            train, _ = ts.split(src, 10, 2)
            ds = ts.build_regression(train, ts.derive_controls(train), 2)
            post = est.fit_bnn(ds, hyper=hyper)
            head = ts.slice_trace(dst, 0, day)
            head_ds = ts.build_regression(head, ts.derive_controls(head), 2)
            test = ts.slice_trace(dst, len(dst) - 2 * day, len(dst))
            test_ds = ts.build_regression(test, ts.derive_controls(test), 2)
            dc_direct = est.posterior_to_coeffs(est.transfer(post, None))
            direct_rmses.append(est.rmse(
                est.predict_one_step(dc_direct, test_ds), test_ds.targets))
            refit = est.transfer(post, head_ds, hyper=hyper)
            dc_refit = est.posterior_to_coeffs(refit)
            retrain_rmses.append(est.rmse(
                est.predict_one_step(dc_refit, test_ds), test_ds.targets))
        direct_means.append(np.mean(direct_rmses))
        retrain_means.append(np.mean(retrain_rmses))
    assert np.mean(retrain_means) < np.mean(direct_means)


def test_criterion_10_baseline_ordering(fleet_rmse_table):
    bnn = fleet_rmse_table[75]
    arimax = fleet_rmse_table["arimax"]
    persistence = fleet_rmse_table["persistence"]
    n = len(bnn)
    assert (bnn < arimax).sum() >= math.ceil(0.7 * n)
    assert (arimax < persistence).sum() >= math.ceil(0.9 * n)


def test_criterion_11_clustering():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        metadata, truth = planted_blobs(rng)
        clustering = fleet.cluster_homes(metadata, k=3, seed=seed)
        got = np.array([clustering.assignments[m.home_id] for m in metadata])
        # 100% assignment accuracy up to label permutation
        blob_labels = set()
        for b in range(3):
            labels = set(got[truth == b])
            assert len(labels) == 1
            blob_labels |= labels
        assert len(blob_labels) == 3
        # elbow selection lands on the planted k
        points = np.array([m.features for m in metadata], dtype=float)
        points = (points - points.mean(axis=0)) / points.std(axis=0)
        sses = fleet.sse_curve(points, k_max=6, seed=seed)
        assert (np.diff(sses) <= 1e-9).all()
        k, found = fleet.select_k(fleet.diminishing_return(sses),
                                  flat_threshold_pct=40.0)
        assert found and k == 3
        # byte-identical rerun with the same seed
        again = fleet.cluster_homes(metadata, k=3, seed=seed)
        assert again.to_json() == clustering.to_json()


def test_criterion_12_experiment_determinism(tmp_path):
    config = harness.ExperimentConfig(
        fleet_config=fleet.FleetConfig(
            n_homes=2, seasons=(fleet.SeasonConfig(name="winter", days=4),)),
        model_kinds=("bnn_rc", "persistence"),
        train_days=3, test_days=1,
        seed=3)
    harness.run_experiment(config, out_dir=tmp_path / "a")
    harness.run_experiment(config, out_dir=tmp_path / "b")
    for name in ("records.csv", "summary.json"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second


def test_criterion_13_runtime_budget():
    assert time.perf_counter() - _SUITE_START < 900.0
