"""Unit tests for clustering, fleet synthesis, and the generator's physics."""

import io
import json
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import FAST_2R2C, random_params, random_slow_params
from oracles import generate_trace_loop
from rctherm import fleet, rcnet
from rctherm import timeseries as ts
from rctherm.errors import (
    ConfigError,
    DataError,
    DegenerateSeriesError,
    InvalidParameterError,
    ParseError,
    ShapeError,
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


@pytest.mark.parametrize("edit, fault", [
    ({"centroids": [1.0], "feature_mean": []}, "centroids must be"),
    ({"centroids": [[0.0, 1.0]]}, "centroids must be"),
    ({"centroids": [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]}, "centroids must be"),
    ({"k": 0, "centroids": [], "assignments": {}}, "centroids must be"),
    ({"feature_mean": []}, "feature_mean must hold 2"),
    ({"feature_std": [500.0, 20.0, 1.0]}, "feature_std must hold 2"),
    ({"feature_std": [500.0, 0.0]}, "feature_std must be positive"),
    ({"feature_std": [-500.0, 20.0]}, "feature_std must be positive"),
    ({"assignments": {"h0": 2}}, r"assignments of \['h0'\] lie outside \[0, 2\)"),
    ({"assignments": {"h0": -1, "h1": 0}}, "assignments of"),
])
def test_malformed_clustering_is_a_shape_error_naming_clustering(edit, fault):
    # refused when read, not later by numpy inside assign
    data = {"k": 2, "centroids": [[-1.0, 0.5], [1.0, -0.5]], "assignments": {"h0": 0},
            "sse": 0.25, "feature_mean": [1500.0, 1990.0], "feature_std": [500.0, 20.0],
            **edit}
    with pytest.raises(ShapeError, match=f"^clustering: {fault}"):
        fleet.Clustering.from_json(json.dumps(data))


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


def test_constant_feature_with_a_rounding_std_keeps_unit_scale():
    # seven equal areas whose float mean rounds: their std is ~2e-13, and
    # scaling by it would make a new home's area swamp its construction year
    area = 1828.9780305621302
    years = [1950, 1955, 1960, 2000, 2005, 2010, 2013]
    metadata = [fleet.HomeMetadata(f"h{i}", area, y) for i, y in enumerate(years)]
    assert 0 < np.std([area] * 7)
    clustering = fleet.cluster_homes(metadata, 2, seed=0)
    old = clustering.assignments["h0"]
    assert {clustering.assignments[f"h{i}"] for i in range(3)} == {old}
    assert fleet.assign(fleet.HomeMetadata("new", 1900.0, 1950), clustering) == old
    assert clustering.feature_std[0] == 1.0


@pytest.mark.parametrize("areas", [[1000.0], [1000.0, 1000.0]], ids=["one-home", "equal-homes"])
def test_elbow_clustering_of_a_fleet_with_one_distinct_home(areas):
    # the curve is one point, or its k = 1 SSE is 0: the elbow keeps k = 1
    metadata = [fleet.HomeMetadata(f"h{i}", a, 1990) for i, a in enumerate(areas)]
    clustering = fleet.cluster_homes(metadata, 0, seed=0)
    assert clustering.k == 1 and clustering.sse == 0.0
    assert set(clustering.assignments.values()) == {0}


def test_elbow_curve_ends_at_its_first_zero_sse():
    # two distinct homes, one of them twice: k = 2 fits exactly, and the
    # k = 3 point, whose percent change would divide by 0, is not examined
    areas = [1000.0, 1000.0, 3000.0]
    metadata = [fleet.HomeMetadata(f"h{i}", a, 1990) for i, a in enumerate(areas)]
    clustering = fleet.cluster_homes(metadata, 0, seed=0)
    assert clustering.k == 2 and clustering.sse == 0.0
    labels = clustering.assignments
    assert labels["h0"] == labels["h1"] != labels["h2"]


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
    ("home_id,floor_area,year_built\n,1200,1990\n", 2),          # empty home_id
    ("home_id,floor_area,year_built\nh1,100,1990\na/b,100,1990\n", 3),  # a path
    ("home_id,floor_area,year_built\nh1,-5,1990\n", 2),          # impossible value
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


@pytest.mark.parametrize("home_id", ["", ".", "..", "a/b", "../escaped", "a\\b", "a\0b"])
def test_home_id_must_be_a_file_name(home_id):
    with pytest.raises(InvalidParameterError, match="home_id .* is not a file name"):
        fleet.HomeMetadata(home_id, 1500.0, 1990)


@pytest.mark.parametrize("home_id", [".h", "h..", "home 1", "h-1_b"])
def test_home_id_may_be_any_other_file_name(home_id):
    assert fleet.HomeMetadata(home_id, 1500.0, 1990).home_id == home_id


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


def assert_matches_the_step_loop_oracle(params, season, noise):
    got, got_controls = fleet.generate_trace(
        params, season, "h", START, np.random.default_rng(5), noise)
    want, want_controls = generate_trace_loop(
        params, season, "h", START, np.random.default_rng(5), noise)
    assert (got_controls.k_heat == want_controls.k_heat).all()
    assert (got_controls.k_cool == want_controls.k_cool).all()
    np.testing.assert_allclose(got.t_in, want.t_in, rtol=0, atol=1e-9)
    for name in ("t_out", "t_setheat", "t_setcool", "hvac_mode", "motion", "humidity"):
        assert (getattr(got, name) == getattr(want, name)).all(), name
    return got_controls


MODES = [ts.MODE_HEAT, ts.MODE_COOL, ts.MODE_AUTO, ts.MODE_OFF]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_generate_trace_matches_the_step_loop_oracle(mode, order, noise):
    # domestic-scale networks of order 4 and 5 settle too slowly to cool
    # within 4 days; faster ones switch every duty on
    make_params = random_slow_params if order <= 3 else random_params
    params = make_params(np.random.default_rng(order), order)
    controls = assert_matches_the_step_loop_oracle(
        params, replace(SHOULDER, hvac_mode=mode, days=4), noise)
    if mode in (ts.MODE_HEAT, ts.MODE_AUTO):
        assert controls.k_heat.any()
    if mode in (ts.MODE_COOL, ts.MODE_AUTO):
        assert controls.k_cool.any()


@pytest.mark.parametrize("mode", MODES)
def test_generate_trace_matches_the_step_loop_oracle_under_a_param_shift(mode):
    params = random_slow_params(np.random.default_rng(2), 2)
    assert_matches_the_step_loop_oracle(
        params, replace(SHOULDER, hvac_mode=mode, days=4, param_shift=0.2), 0.05)


def test_generate_trace_matches_the_step_loop_oracle_over_90_shoulder_days():
    # the benchmark's season and fleet: duty runs longer than the look-ahead
    # window, and hundreds of switches, each updating the rest of its window
    season = replace(SHOULDER, days=90)
    homes, _ = fleet.synth_fleet(fleet.FleetConfig(n_homes=1, seasons=(season,)), seed=0)
    controls = assert_matches_the_step_loop_oracle(homes[0].truth, season, 0.05)
    duty = controls.k_heat + 2 * controls.k_cool
    switches = np.flatnonzero(np.diff(duty)) + 1
    assert len(switches) > 700
    assert np.diff(np.r_[0, switches, len(duty)]).max() > fleet.LOOKAHEAD


def switch_paths(controls):
    """(look-ahead windows holding two or more switches, switches decided on
    a window's last reading), read from the duty signal. Windows start every
    LOOKAHEAD readings from each day's start; the last reading decides
    nothing."""
    duty = controls.k_heat + 2 * controls.k_cool
    readings = np.flatnonzero(np.diff(duty))  # each decides the next interval's switch
    day_start = readings // ts.SAMPLES_PER_DAY * ts.SAMPLES_PER_DAY
    start = day_start + (readings - day_start) // fleet.LOOKAHEAD * fleet.LOOKAHEAD
    stop = np.minimum(start + fleet.LOOKAHEAD,
                      np.minimum(day_start + ts.SAMPLES_PER_DAY, len(duty) - 1))
    _, per_window = np.unique(start, return_counts=True)
    return int((per_window >= 2).sum()), int((readings == stop - 1).sum())


@pytest.mark.parametrize("mode, seed, switches", [
    # one run, its level carried from window to window through all 90 days
    pytest.param(ts.MODE_OFF, 0, 0, id="off"),
    # the network of the benchmark fleet's seed-3 home0000, under this test's
    # weather: a switch every 8.7 samples, so windows hold several
    pytest.param(ts.MODE_AUTO, 3, 2978, id="seed3-home0000"),
])
def test_generate_trace_matches_the_step_loop_oracle_over_90_days(mode, seed, switches):
    season = replace(SHOULDER, days=90, hvac_mode=mode)
    homes, _ = fleet.synth_fleet(fleet.FleetConfig(n_homes=1, seasons=(season,)), seed=seed)
    controls = assert_matches_the_step_loop_oracle(homes[0].truth, season, 0.05)
    assert np.count_nonzero(np.diff(controls.k_heat + 2 * controls.k_cool)) == switches
    if switches:
        # both ways a window goes on after a switch: with readings left, and with none
        multi_switch_windows, last_reading_switches = switch_paths(controls)
        assert multi_switch_windows >= 1
        assert last_reading_switches >= 1


@pytest.mark.parametrize("lookahead", [1, 2, 7, 288, 300])
def test_generate_trace_does_not_depend_on_the_window_length(monkeypatch, lookahead):
    # a window ends at the end of a day or after LOOKAHEAD samples, and goes
    # on through its switches; only rounding may tell where the windows fell
    season = replace(SHOULDER, days=90)
    homes, _ = fleet.synth_fleet(fleet.FleetConfig(n_homes=1, seasons=(season,)), seed=0)
    want, want_controls = fleet.generate_trace(
        homes[0].truth, season, "h", START, np.random.default_rng(5), 0.05)
    monkeypatch.setattr(fleet, "LOOKAHEAD", lookahead)
    got, got_controls = fleet.generate_trace(
        homes[0].truth, season, "h", START, np.random.default_rng(5), 0.05)
    assert (got_controls.k_heat == want_controls.k_heat).all()
    assert (got_controls.k_cool == want_controls.k_cool).all()
    np.testing.assert_allclose(got.t_in, want.t_in, rtol=0, atol=1e-12)


def test_setpoint_schedule_repeats_every_day():
    # generate_trace builds its thresholds from one day of the schedule
    season = replace(SHOULDER, days=3)
    day = fleet._setpoint_schedule(season, ts.SAMPLES_PER_DAY)
    for full, one_day in zip(fleet._setpoint_schedule(season, 3 * ts.SAMPLES_PER_DAY), day):
        assert (full.reshape(3, ts.SAMPLES_PER_DAY) == one_day).all()


def test_generate_trace_setpoints_tile_one_day():
    trace, _ = fleet.generate_trace(
        FAST_2R2C, SHOULDER, "h", START, np.random.default_rng(0), 0.05)
    day_heat, day_cool = fleet._setpoint_schedule(SHOULDER, ts.SAMPLES_PER_DAY)
    assert (trace.t_setheat == np.tile(day_heat, SHOULDER.days)).all()
    assert (trace.t_setcool == np.tile(day_cool, SHOULDER.days)).all()


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
            fleet.START, rng, config.measurement_noise_std)
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
