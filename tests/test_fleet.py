"""Unit tests for clustering, fleet synthesis, and the generator's physics."""

import io
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import FAST_2R2C, random_slow_params
from oracles import generate_trace_loop
from rctherm import fleet, rcnet
from rctherm import timeseries as ts
from rctherm.errors import (
    ConfigError,
    DataError,
    DegenerateSeriesError,
    InvalidParameterError,
    ParseError,
)

START = datetime(2019, 1, 1, tzinfo=timezone.utc)

#: Mild season with both heating and cooling duty, used wherever the tests
#: need excitation on every input channel.
SHOULDER = fleet.SeasonConfig(
    name="shoulder", days=10, outdoor_mean=70.0, outdoor_daily_amplitude=25.0,
    outdoor_seasonal_amplitude=5.0, weather_noise_std=2.0,
    setheat_day=69.0, setheat_night=66.0, setcool_day=74.0, setcool_night=77.0,
    hvac_mode=ts.MODE_AUTO)


def planted_blobs(rng, per_blob=20):
    centers = [(1000.0, 1950), (2200.0, 1985), (3400.0, 2015)]
    metadata, labels = [], []
    for b, (area, year) in enumerate(centers):
        for i in range(per_blob):
            metadata.append(fleet.HomeMetadata(
                home_id=f"b{b}h{i:02d}",
                floor_area=area + rng.normal(0, 30.0),
                year_built=int(year + rng.integers(-2, 3)),
            ))
            labels.append(b)
    return metadata, np.array(labels)


# ---------------------------------------------------------------------------
# Clustering

def test_kmeans_recovers_planted_blobs(rng):
    metadata, truth = planted_blobs(rng)
    clustering = fleet.cluster_homes(metadata, k=3, seed=1)
    got = np.array([clustering.assignments[m.home_id] for m in metadata])
    # perfect recovery up to label permutation
    for b in range(3):
        assert len(set(got[truth == b])) == 1
    assert len({got[truth == b][0] for b in range(3)}) == 3


def test_kmeans_validation(rng):
    pts = rng.normal(size=(5, 2))
    with pytest.raises(ConfigError):
        fleet.kmeans(pts, 0)
    with pytest.raises(DataError):
        fleet.kmeans(pts, 6)


def test_sse_curve_nonincreasing_and_select_k(rng):
    metadata, _ = planted_blobs(rng)
    points = (np.array([m.features for m in metadata]) -
              np.array([m.features for m in metadata]).mean(axis=0))
    points /= points.std(axis=0)
    sses = fleet.sse_curve(points, k_max=6, seed=2)
    assert (np.diff(sses) <= 1e-9).all()
    d = fleet.diminishing_return(sses)
    # Splitting a tight blob always removes a sizable share of the remaining
    # SSE, so the relative drops past the true k hover near 20-30% while the
    # pre-elbow drops exceed 70%; the threshold separates the two regimes.
    k, found = fleet.select_k(d, flat_threshold_pct=40.0)
    assert found and k == 3


def test_select_k_fallback():
    # steadily decreasing SSE with no flat region: no sustained elbow
    d = np.array([-50.0, -40.0, -30.0, -20.0])
    k, found = fleet.select_k(d)
    assert not found and k == 5
    with pytest.raises(DataError):
        fleet.select_k(np.array([]))


def test_diminishing_return_validation():
    with pytest.raises(DataError):
        fleet.diminishing_return([1.0])
    with pytest.raises(DegenerateSeriesError):
        fleet.diminishing_return([0.0, 1.0])
    assert fleet.diminishing_return([100.0, 50.0]) == pytest.approx([-50.0])


def test_clustering_json_byte_identical(rng):
    metadata, _ = planted_blobs(rng)
    a = fleet.cluster_homes(metadata, k=3, seed=7).to_json()
    b = fleet.cluster_homes(metadata, k=3, seed=7).to_json()
    assert a == b
    back = fleet.Clustering.from_json(a)
    assert back.to_json() == a


def test_assign_matches_training_assignments(rng):
    metadata, _ = planted_blobs(rng)
    clustering = fleet.cluster_homes(metadata, k=3, seed=3)
    for m in metadata:
        assert fleet.assign(m, clustering) == clustering.assignments[m.home_id]


def test_assign_new_home_to_nearest_centroid():
    # the metadata-only lookup for a home outside the clustered fleet
    clustering = fleet.Clustering(
        k=2, centroids=np.array([[-1.0, 0.0], [1.0, 0.0]]),
        assignments={}, sse=0.0,
        feature_mean=np.array([2000.0, 1990.0]),
        feature_std=np.array([500.0, 10.0]))
    assert fleet.assign(fleet.HomeMetadata("n", 1000.0, 1990), clustering) == 0  # (-2, 0)
    assert fleet.assign(fleet.HomeMetadata("f", 2600.0, 1995), clustering) == 1  # (1.2, 0.5)


def test_elbow_clustering_matches_the_elbow_rule(rng):
    metadata, _ = planted_blobs(rng)
    points, _, _ = fleet._standardize(metadata)
    sses = fleet.sse_curve(points, min(fleet.ELBOW_K_MAX, len(points)), seed=4)
    expected, _ = fleet.select_k(fleet.diminishing_return(sses))
    assert fleet.cluster_homes(metadata, 0, seed=4).k == expected


def uniform_metadata(seed, n):
    """n homes with uniform floor areas and construction years: no planted
    clusters, so k-means restarts from other seeds end in other optima."""
    rng = np.random.default_rng(seed)
    return [fleet.HomeMetadata(f"h{i:02d}", float(rng.uniform(800, 4000)),
                               int(rng.integers(1950, 2021))) for i in range(n)]


def test_elbow_clustering_is_the_curves_own():
    # the clustering at the elbow's k is the one whose SSE the curve reports,
    # not a second k-means run from other seeds
    metadata = uniform_metadata(0, 20)
    clustering = fleet.cluster_homes(metadata, 0, seed=0)
    points, _, _ = fleet._standardize(metadata)
    sses = fleet.sse_curve(points, min(fleet.ELBOW_K_MAX, len(points)), seed=0)
    assert clustering.sse == sses[clustering.k - 1]
    labels = np.array([clustering.assignments[m.home_id] for m in metadata])
    assert np.sum((points - clustering.centroids[labels]) ** 2) == \
        pytest.approx(clustering.sse, rel=1e-12)


def test_elbow_clustering_handles_a_constant_feature():
    # every home built the same year: that feature has std 0 and keeps unit
    # scale, so it adds nothing and its value does not matter
    areas = [1000.0, 1040.0, 1080.0, 3000.0, 3040.0, 3080.0, 3120.0]
    homes = lambda year: [fleet.HomeMetadata(f"h{i}", a, year) for i, a in enumerate(areas)]
    points, mean, std = fleet._standardize(homes(1990))
    assert std[1] == 1.0 and np.all(points[:, 1] == 0.0)
    k = fleet.cluster_homes(homes(1990), 0, seed=0).k
    assert 1 <= k <= len(areas)
    assert fleet.cluster_homes(homes(2010), 0, seed=0).k == k
    area_only = fleet.sse_curve(points[:, :1], len(areas), seed=0)
    assert k == fleet.select_k(fleet.diminishing_return(area_only))[0]


def test_representative_closest_and_tie_break():
    clustering = fleet.Clustering(
        k=1, centroids=np.array([[0.0, 0.0]]),
        assignments={"a": 0, "b": 0, "c": 0}, sse=0.0,
        feature_mean=np.array([1500.0, 2000.0]),
        feature_std=np.array([500.0, 1.0]))
    near = fleet.HomeMetadata(home_id="c", floor_area=1600.0, year_built=2000)
    tie_a = fleet.HomeMetadata(home_id="a", floor_area=1000.0, year_built=2000)
    tie_b = fleet.HomeMetadata(home_id="b", floor_area=2000.0, year_built=2000)
    assert fleet.representative(clustering, 0, [tie_a, tie_b, near]) == "c"
    # without the near home, a and b are equidistant; lexicographic tie-break
    assert fleet.representative(clustering, 0, [tie_b, tie_a]) == "a"
    with pytest.raises(DataError):
        fleet.representative(clustering, 1, [tie_a])


def test_metadata_csv_roundtrip():
    metadata = [
        fleet.HomeMetadata("h1", 1234.5, 1990, "ON", "ottawa"),
        fleet.HomeMetadata("h2", 987.25, 2005),
    ]
    buf = io.StringIO()
    fleet.write_metadata_csv(metadata, buf)
    back = fleet.read_metadata_csv(io.StringIO(buf.getvalue()))
    assert back == metadata


@pytest.mark.parametrize("text, line", [
    ("", 1),                                              # no header at all
    ("home_id,year_built\nh1,1990\n", 1),                 # missing column
    ("home_id,floor_area,year_built\nh1,100,1990\nh2,100\n", 3),   # short row
    ("home_id,floor_area,year_built\nh1,abc,1990\n", 2),    # bad float
    ("home_id,floor_area,year_built\nh1,100,1990\n\nh2,100,19x0\n", 4),  # bad int
])
def test_metadata_csv_errors_name_the_line(text, line):
    with pytest.raises(ParseError) as info:
        fleet.read_metadata_csv(io.StringIO(text))
    assert info.value.line == line


def test_home_metadata_validation():
    with pytest.raises(InvalidParameterError):
        fleet.HomeMetadata("h", -5.0, 1990)
    with pytest.raises(InvalidParameterError):
        fleet.HomeMetadata("h", 100.0, 1500)


# ---------------------------------------------------------------------------
# Synthetic fleet generation

def test_synth_fleet_deterministic():
    config = fleet.FleetConfig(n_homes=3, seasons=(SHOULDER,))
    homes_a, traces_a = fleet.synth_fleet(config, seed=5)
    homes_b, traces_b = fleet.synth_fleet(config, seed=5)
    assert [h.metadata for h in homes_a] == [h.metadata for h in homes_b]
    assert all(h.truth == g.truth for h, g in zip(homes_a, homes_b))
    for key in traces_a:
        assert traces_a[key] == traces_b[key]
    _, traces_c = fleet.synth_fleet(config, seed=6)
    assert traces_a[("home0000", "shoulder")] != traces_c[("home0000", "shoulder")]


def test_synth_fleet_shapes_and_modes():
    config = fleet.FleetConfig(n_homes=2, seasons=(SHOULDER,))
    homes, traces = fleet.synth_fleet(config, seed=0)
    assert len(homes) == 2 and len(traces) == 2
    trace = traces[("home0000", "shoulder")]
    assert len(trace) == SHOULDER.days * ts.SAMPLES_PER_DAY
    assert (trace.hvac_mode == ts.MODE_AUTO).all()
    assert not trace.has_missing


def test_fleet_config_validation():
    with pytest.raises(ConfigError):
        fleet.FleetConfig(n_homes=0)
    with pytest.raises(ConfigError):
        fleet.FleetConfig(lift_range=(60.0, 20.0))
    with pytest.raises(ConfigError):
        fleet.FleetConfig(lift_range=(-5.0, 20.0))


def test_truth_links_metadata():
    config = fleet.FleetConfig(n_homes=60, seasons=(SHOULDER,))
    homes, _ = fleet.synth_fleet(config, seed=1)
    area = np.array([h.metadata.floor_area for h in homes])
    year = np.array([h.metadata.year_built for h in homes], dtype=float)
    c_int = np.array([h.truth.capacitances[-1] for h in homes])
    r_tot = np.array([sum(h.truth.resistances) for h in homes])
    assert np.corrcoef(area, c_int)[0, 1] > 0.9
    assert np.corrcoef(year, r_tot)[0, 1] > 0.9


def test_generator_bang_bang_regulation():
    # heating season with a domestic-scale home whose 40 degF lift can reach
    # the setpoint (forcing duty cycling rather than saturation)
    home = rcnet.RcParams((1.5, 1.5), (0.5, 3.0), 40.0 / 3.0, 10.0)
    season = fleet.SeasonConfig(name="winter", days=5, outdoor_mean=40.0,
                                hvac_mode=ts.MODE_HEAT)
    rng = np.random.default_rng(2)
    trace, controls = fleet.generate_trace(
        home, season, "h", START, rng, measurement_noise_std=0.0)
    skip = ts.SAMPLES_PER_DAY // 2  # settle-in
    dev = trace.t_in[skip:] - trace.t_setheat[skip:]
    # regulation stays near the schedule; the +-4 degF day/night setpoint
    # steps allow transient excursions beyond the hysteresis band
    assert np.abs(dev).max() < 5.0
    assert np.median(np.abs(dev)) < 1.0
    duty = controls.k_heat[skip:].mean()
    assert 0.05 < duty < 0.95  # genuinely cycling, not pinned
    assert not controls.k_cool.any()  # cooling disabled in heat mode
    # per-sample switching respects the hysteresis band: the duty only turns
    # on below (setpoint - band) and only off above (setpoint + band)
    kh = controls.k_heat
    turn_on = np.flatnonzero((kh[1:] == 1) & (kh[:-1] == 0))
    turn_off = np.flatnonzero((kh[1:] == 0) & (kh[:-1] == 1))
    assert (trace.t_in[turn_on] < trace.t_setheat[turn_on] - fleet.HYSTERESIS_F).all()
    assert (trace.t_in[turn_off] > trace.t_setheat[turn_off] + fleet.HYSTERESIS_F).all()


@pytest.mark.parametrize("mode", [ts.MODE_HEAT, ts.MODE_COOL, ts.MODE_AUTO, ts.MODE_OFF])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_generate_trace_matches_the_step_loop_oracle(mode, order, noise):
    params = random_slow_params(np.random.default_rng(order), order)
    season = replace(SHOULDER, hvac_mode=mode, days=4)
    got, got_controls = fleet.generate_trace(
        params, season, "h", START, np.random.default_rng(5), noise)
    want, want_controls = generate_trace_loop(
        params, season, "h", START, np.random.default_rng(5), noise)
    assert (got_controls.k_heat == want_controls.k_heat).all()
    assert (got_controls.k_cool == want_controls.k_cool).all()
    np.testing.assert_allclose(got.t_in, want.t_in, rtol=0, atol=1e-9)
    for name in ("t_out", "t_setheat", "t_setcool", "hvac_mode", "motion", "humidity"):
        assert (getattr(got, name) == getattr(want, name)).all(), name
    if mode in (ts.MODE_HEAT, ts.MODE_AUTO):
        assert got_controls.k_heat.any()
    if mode in (ts.MODE_COOL, ts.MODE_AUTO):
        assert got_controls.k_cool.any()


def test_derive_controls_consistency_with_generator():
    # pooled across a default winter fleet the band-free reconstruction
    # agrees with the generator's duty signals on >= 95% of samples
    config = fleet.FleetConfig(n_homes=10,
                               seasons=(fleet.SeasonConfig(days=30),))
    homes, _ = fleet.synth_fleet(config, seed=0)
    agree, total = 0, 0
    for i, home in enumerate(homes):
        rng = fleet._home_rng(0, i, 1)
        trace, controls = fleet.generate_trace(
            home.truth, config.seasons[0], home.metadata.home_id,
            config.start, rng, config.measurement_noise_std)
        derived = ts.derive_controls(ts.impute(trace))
        agree += int((derived.k_heat == controls.k_heat).sum())
        agree += int((derived.k_cool == controls.k_cool).sum())
        total += 2 * len(trace)
    assert agree / total >= 0.95


def test_derive_controls_exact_outside_hysteresis_band():
    rng = np.random.default_rng(3)
    clean, clean_controls = fleet.generate_trace(
        FAST_2R2C, SHOULDER, "h", START, rng, measurement_noise_std=0.0)
    d = ts.derive_controls(ts.impute(clean))
    # the generator decides each interval's duty from the previous sample,
    # so exact agreement is expected once two consecutive readings sit on
    # the same side outside the band
    y, sh = clean.t_in, clean.t_setheat
    below = y < sh - fleet.HYSTERESIS_F
    above = y > sh + fleet.HYSTERESIS_F
    settled_below = below[1:] & below[:-1]
    settled_above = above[1:] & above[:-1]
    assert (d.k_heat[1:][settled_below] == 1).all()
    assert (clean_controls.k_heat[1:][settled_below] == 1).all()
    assert (d.k_heat[1:][settled_above] == 0).all()
    assert (clean_controls.k_heat[1:][settled_above] == 0).all()


def test_end_to_end_recovery_noiseless_exact_controls():
    # the generator's dynamics and the difference-equation family coincide:
    # with exact duty signals and no measurement noise, least squares on the
    # regression rows returns the analytic coefficients to float precision
    rng = np.random.default_rng(4)
    trace, controls = fleet.generate_trace(
        FAST_2R2C, SHOULDER, "h", START, rng, measurement_noise_std=0.0)
    ds = ts.build_regression(trace, controls, order=2)
    x = np.column_stack([ds.inputs, np.ones(len(ds))])
    w, *_ = np.linalg.lstsq(x, ds.targets, rcond=None)
    dc = rcnet.analytic_coefficients(FAST_2R2C, 300.0)
    truth = np.concatenate([dc.s.ravel(), -dc.e, [0.0]])
    assert np.abs(w[:-1] - truth[:-1]).max() < 1e-7
    assert abs(w[-1]) < 1e-6


def test_season_param_shift_changes_dynamics():
    shifted = fleet.SeasonConfig(name="shifted", days=2, outdoor_mean=20.0,
                                 hvac_mode=ts.MODE_HEAT, param_shift=0.2)
    base = fleet.SeasonConfig(name="base", days=2, outdoor_mean=20.0,
                              hvac_mode=ts.MODE_HEAT)
    t_a, _ = fleet.generate_trace(FAST_2R2C, base, "h", START,
                                  np.random.default_rng(0), 0.0)
    t_b, _ = fleet.generate_trace(FAST_2R2C, shifted, "h", START,
                                  np.random.default_rng(0), 0.0)
    assert np.abs(t_a.t_in - t_b.t_in).max() > 0.05
