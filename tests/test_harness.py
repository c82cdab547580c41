"""Unit tests for experiment orchestration, reporting, and the CLI."""

import io
import json
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest

from rctherm import cli, estimators, fleet, harness
from rctherm import timeseries as ts
from rctherm.errors import ConfigError, DataError, NotFoundError
from test_fleet import SHOULDER
from test_timeseries import make_trace

FAST_HYPER = estimators.TrainingConfig(epochs=5)


def small_config(**overrides):
    fields = dict(
        fleet_config=fleet.FleetConfig(
            n_homes=2,
            seasons=(fleet.SeasonConfig(name="winter", days=4),)),
        model_kinds=("bnn_rc",),
        train_days=3,
        test_days=1,
        hyper=FAST_HYPER,
    )
    fields.update(overrides)
    return harness.ExperimentConfig(**fields)


# ---------------------------------------------------------------------------
# Summaries and reports

def test_summarize_quartiles_and_outliers():
    pairs = [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0), ("e", 100.0)]
    s = harness.summarize(pairs)
    assert s["count"] == 5
    assert s["q1"] == pytest.approx(2.0)
    assert s["median"] == pytest.approx(3.0)
    assert s["q3"] == pytest.approx(4.0)
    assert s["iqr"] == pytest.approx(2.0)
    assert s["outliers"] == ["e"]  # 100 > q3 + 1.5*iqr = 7
    with pytest.raises(DataError):
        harness.summarize([])


def test_report_write(tmp_path):
    report = harness.RmseReport(
        records=[{"home_id": "h", "model": "bnn_rc", "scenario": "none",
                  "rmse": 0.1, "rmse_freerun": None, "n_train": 10,
                  "n_test": 5, "seed": 1, "model_file": "", "data_hash": "x"}],
        summaries={"bnn_rc/none": {"mean": 0.1}},
        exclusions=[])
    report.write(tmp_path / "out")
    csv_text = (tmp_path / "out" / "records.csv").read_text()
    assert csv_text.splitlines()[0].startswith("home_id,model,scenario,rmse")
    assert "0.1" in csv_text
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["summaries"]["bnn_rc/none"]["mean"] == 0.1


# ---------------------------------------------------------------------------
# Config

def test_experiment_config_roundtrip():
    config = small_config(scenario="cross-home", retrain_days=1, cluster_k=2)
    back = harness.ExperimentConfig.from_json(config.to_json())
    assert back.to_json() == config.to_json()
    assert back.fleet_config == config.fleet_config
    assert back.hyper == config.hyper


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        small_config(scenario="sideways")
    with pytest.raises(ConfigError):
        small_config(retrain_days=3)
    with pytest.raises(ConfigError):
        small_config(model_kinds=("bnn_rc", "oracle"))
    with pytest.raises(ConfigError):
        harness.ExperimentConfig()  # neither fleet nor manifest
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_dict({"schema_version": 99})


# ---------------------------------------------------------------------------
# run_experiment

def test_run_experiment_none_deterministic(tmp_path):
    config = small_config()
    a = harness.run_experiment(config)
    b = harness.run_experiment(config, out_dir=tmp_path / "run")
    assert a.to_csv().replace(",,", ",").count("\n") == 3  # header + 2 homes
    # identical metrics whether or not artifacts are written
    assert [r["rmse"] for r in a.records] == [r["rmse"] for r in b.records]
    assert a.to_json() == b.to_json()
    assert (tmp_path / "run" / "records.csv").exists()
    assert (tmp_path / "run" / "models").is_dir()
    assert len(a.records) == 2
    assert set(a.summaries) == {"bnn_rc/none"}


def test_run_experiment_multiple_kinds():
    config = small_config(model_kinds=("onercone", "persistence"),
                          fleet_config=fleet.FleetConfig(
                              n_homes=1, seasons=(SHOULDER,)),
                          train_days=8, test_days=2)
    report = harness.run_experiment(config)
    kinds = {r["model"] for r in report.records}
    assert kinds == {"onercone", "persistence"}
    assert all(np.isfinite(r["rmse"]) for r in report.records)
    # persistence reports no free-running column
    assert all(r["rmse_freerun"] is None
               for r in report.records if r["model"] == "persistence")


def test_run_experiment_cross_home_requires_bnn():
    config = small_config(scenario="cross-home", model_kinds=("arimax",),
                          cluster_k=1)
    with pytest.raises(ConfigError):
        harness.run_experiment(config)


def test_run_experiment_cross_season_needs_two_seasons():
    config = small_config(scenario="cross-season")
    with pytest.raises(ConfigError):
        harness.run_experiment(config)


# ---------------------------------------------------------------------------
# Model library

def test_model_library(tmp_path):
    lib = harness.ModelLibrary(tmp_path / "store")
    lib.put(0, "winter", "bnn_rc", '{"x": 1}')
    lib.put(1, "winter", "bnn_rc", '{"x": 2}')
    assert lib.get(0, "winter", "bnn_rc") == '{"x": 1}'
    assert lib.list() == [
        {"kind": "bnn_rc", "cluster": 0, "season": "winter"},
        {"kind": "bnn_rc", "cluster": 1, "season": "winter"},
    ]
    with pytest.raises(NotFoundError):
        lib.get(2, "winter", "bnn_rc")

    clustering = fleet.Clustering(
        k=2, centroids=np.array([[-1.0, 0.0], [1.0, 0.0]]),
        assignments={}, sse=0.0,
        feature_mean=np.array([2000.0, 1990.0]),
        feature_std=np.array([500.0, 10.0]))
    near_first = fleet.HomeMetadata("n", 1000.0, 1990)  # standardized (-2, 0)
    assert lib.get_for_home(near_first, clustering, "winter") == '{"x": 1}'


# ---------------------------------------------------------------------------
# Segment hash

def _hash_trace():
    rng = np.random.default_rng(5)
    n = 40
    t_in = 70.0 + rng.normal(size=n)
    t_in[3] = np.nan
    t_in[7] = -np.abs(np.float64(np.nan))  # a NaN with the sign bit set
    mode = rng.integers(-1, 4, n).astype(np.int8)
    motion = rng.integers(0, 2, n).astype(float)
    motion[5] = np.nan
    return make_trace(n, t_in=t_in, hvac_mode=mode, motion=motion,
                      humidity=rng.uniform(0, 1, n))


def test_segment_hash_equal_for_equal_traces():
    trace = _hash_trace()
    copy = replace(trace, **{name: getattr(trace, name).copy() for name in ts.CSV_HEADER[1:]})
    assert harness._segment_hash(copy) == harness._segment_hash(trace)
    back = ts.ingest_trace(io.StringIO(ts.trace_to_csv_text(trace)), trace.home_id)
    assert back == trace
    assert harness._segment_hash(back) == harness._segment_hash(trace)


@pytest.mark.parametrize("name", ts.CSV_HEADER[1:])
def test_segment_hash_sees_one_ulp_in_any_field(name):
    trace = _hash_trace()
    values = getattr(trace, name).copy()
    if name == "hvac_mode":
        values[0] = (values[0] + 2) % 4
    else:
        values[0] = np.nextafter(values[0], np.inf)
    assert harness._segment_hash(replace(trace, **{name: values})) != \
        harness._segment_hash(trace)


def test_segment_hash_sees_shifted_start():
    trace = _hash_trace()
    for shift in (timedelta(seconds=ts.STEP_SECONDS), timedelta(microseconds=1)):
        moved = replace(trace, start=trace.start + shift)
        assert harness._segment_hash(moved) != harness._segment_hash(trace)


# ---------------------------------------------------------------------------
# CLI

def test_cli_synth_ingest_fit_coeffs_cluster(tmp_path):
    out = tmp_path / "fleet"
    assert cli.main(["synth", "--homes", "2", "--days", "10",
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["homes"]) == 2
    trace_csv = out / manifest["homes"][0]["traces"]["winter"]

    norm = tmp_path / "norm"
    assert cli.main(["ingest", str(trace_csv), "--home-id", "h0",
                     "--out", str(norm)]) == 0
    assert (norm / "h0__normalized.csv").exists()

    fit_out = tmp_path / "fit"
    assert cli.main(["fit", str(trace_csv), "--kind", "onercone",
                     "--home-id", "h0", "--out", str(fit_out)]) == 0
    model = json.loads((fit_out / "h0__onercone.json").read_text())
    assert model["kind"] == "onercone"

    params = tmp_path / "params.json"
    params.write_text(json.dumps({"resistances": [1.0, 2.0],
                                  "capacitances": [0.1, 0.2],
                                  "q_heat": 15.0, "q_cool": 12.0}))
    assert cli.main(["coeffs", str(params)]) == 0

    clus_out = tmp_path / "clus"
    assert cli.main(["cluster", str(out / "metadata.csv"), "-k", "2",
                     "--out", str(clus_out)]) == 0
    clustering = fleet.Clustering.from_json(
        (clus_out / "clustering.json").read_text())
    assert clustering.k == 2


def test_cli_exit_codes(tmp_path):
    # usage: missing required argument
    assert cli.main(["fit"]) == 1
    # usage: experiment without a config file
    assert cli.main(["experiment"]) == 1
    # data: malformed CSV
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,trace\n1,2,3\n")
    assert cli.main(["ingest", str(bad)]) == 2
    # data: trace too short for the requested model
    short = tmp_path / "short.csv"
    header = ",".join(ts.CSV_HEADER)
    short.write_text(
        f"{header}\n"
        "2024-01-01T00:00:00Z,70,30,68,75,auto,0,0.4\n"
        "2024-01-01T00:05:00Z,70,30,68,75,auto,0,0.4\n")
    assert cli.main(["fit", str(short), "--kind", "arimax",
                     "--out", str(tmp_path)]) == 2
    # data: metadata CSV with a bad number
    metadata = tmp_path / "metadata.csv"
    metadata.write_text("home_id,floor_area,year_built\nh1,1200,1990\nh2,abc,1990\n")
    assert cli.main(["cluster", str(metadata), "--out", str(tmp_path)]) == 2


def test_cli_experiment_and_library(tmp_path):
    config = small_config()
    config_path = tmp_path / "config.json"
    config_path.write_text(config.to_json())
    run_dir = tmp_path / "run"
    assert cli.main(["experiment", "--config", str(config_path),
                     "--out", str(run_dir)]) == 0
    assert (run_dir / "summary.json").exists()

    store = tmp_path / "store"
    harness.ModelLibrary(store).put(0, "winter", "bnn_rc", "{}")
    assert cli.main(["library", str(store)]) == 0
