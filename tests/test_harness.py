"""Unit tests for experiment orchestration, reporting, and the CLI."""

import io
import json
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rctherm import cli, estimators, fleet, harness, rcnet
from rctherm import timeseries as ts
from rctherm.errors import ConfigError, DataError, RcthermError, ShapeError, UnimputableError
from test_fleet import SHOULDER, uniform_metadata
from test_timeseries import make_trace

def small_config(**overrides):
    fields = dict(
        fleet_config=fleet.FleetConfig(
            n_homes=2,
            seasons=(fleet.SeasonConfig(name="winter", days=4),)),
        model_kinds=("bnn_rc",),
        train_days=3,
        test_days=1,
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
                  "n_test": 5, "model_file": "", "data_hash": "x"}],
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


def _edited_config(edit):
    data = json.loads(small_config().to_json())
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize("text", [
    "{not json",
    "[1, 2]",
    "null",
    _edited_config(lambda d: d["fleet"].pop("n_homes")),
    _edited_config(lambda d: d["fleet"].update(n_homes="many")),
    _edited_config(lambda d: d["fleet"].update(seasons=[{"name": "winter", "snow": 1}])),
    _edited_config(lambda d: d["hyper"].update(momentum=0.9)),
    _edited_config(lambda d: d.update(model_kinds="bnn_rc")),
    _edited_config(lambda d: d.update(model_kinds=[["bnn_rc"]])),
    _edited_config(lambda d: d.update(fleet="big")),
    # mistyped fields, which would otherwise fail inside run_experiment
    _edited_config(lambda d: d.update(train_days="x")),
    _edited_config(lambda d: d.update(seed="3")),
    _edited_config(lambda d: d.update(seed=True)),
    _edited_config(lambda d: d.update(cluster_k=1.5)),
    _edited_config(lambda d: d.update(order=None)),
    _edited_config(lambda d: d.update(manifest=5)),
    _edited_config(lambda d: d.update(source_season=3)),
    _edited_config(lambda d: d.update(scenario=None)),
    _edited_config(lambda d: d["hyper"].update(noise_std="x")),
    _edited_config(lambda d: d["hyper"].update(noise_std=True)),
    # keys of the version-2 schema, or a version-2 config
    _edited_config(lambda d: d["hyper"].update(learning_rate=1e-3)),
    _edited_config(lambda d: d["hyper"].update(epochs=200)),
    _edited_config(lambda d: d.update(schema_version=2)),
    # impossible values, which would otherwise fail inside run_experiment
    _edited_config(lambda d: d["hyper"].update(noise_std=0)),
    _edited_config(lambda d: d["hyper"].update(noise_std=-0.1)),
    _edited_config(lambda d: d.update(order=0)),
    _edited_config(lambda d: d.update(train_days=0)),
    _edited_config(lambda d: d.update(test_days=0)),
    _edited_config(lambda d: d["fleet"].update(order=0)),
    _edited_config(lambda d: d["fleet"].update(measurement_noise_std=-1)),
    _edited_config(lambda d: d["fleet"].update(year_built_range=[1000, 1200])),
    _edited_config(lambda d: d["fleet"].update(year_built_range=[2000, 2200])),
    _edited_config(lambda d: d["fleet"]["seasons"][0].update(weather_noise_std=-1)),
    _edited_config(lambda d: d["fleet"].update(n_homes=2.5)),
    _edited_config(lambda d: d["fleet"].update(measurement_noise_std="0.1")),
    _edited_config(lambda d: d["fleet"].update(floor_area_range=["a", 1])),
    _edited_config(lambda d: d["fleet"].update(lift_range=[20, 40, 60])),
    _edited_config(lambda d: d["fleet"]["seasons"][0].update(days="x")),
    _edited_config(lambda d: d["fleet"]["seasons"][0].update(name=None)),
    _edited_config(lambda d: d["fleet"].update(seasons=[])),
    _edited_config(lambda d: d["fleet"]["seasons"][0].update(days=0)),
    _edited_config(lambda d: d["fleet"].update(floor_area_range=[5, 1])),
    _edited_config(lambda d: d["fleet"].update(year_built_range=[2020, 1950])),
    _edited_config(lambda d: d["fleet"].update(lift_range=[40, 40])),
])
def test_experiment_config_malformed_json_is_a_config_error(text):
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_json(text)


def test_experiment_config_reads_an_int_as_a_float():
    config = harness.ExperimentConfig.from_json(_edited_config(
        lambda d: (d["hyper"].update(noise_std=1), d["fleet"].update(lift_range=[20, 60]))))
    assert config.hyper.noise_std == 1 and config.fleet_config.lift_range == (20, 60)


def _json_values():
    scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8))
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=8), inner, max_size=4)),
        max_leaves=12)


def _mutated(valid, data):
    """``valid`` (a nested dict) with some entries replaced by arbitrary JSON
    values or deleted; or an arbitrary JSON value outright."""
    if data.draw(st.booleans()):
        return data.draw(_json_values())
    node = valid
    while isinstance(node, dict) and node:
        key = data.draw(st.sampled_from(sorted(node)))
        action = data.draw(st.sampled_from(["replace", "delete", "descend"]))
        if action == "delete":
            del node[key]
            return valid
        if action == "replace" or not isinstance(node[key], (dict, list)):
            node[key] = data.draw(_json_values())
            return valid
        node = node[key] if isinstance(node[key], dict) else (
            node[key][0] if node[key] and isinstance(node[key][0], dict) else {})
    return valid


_MANIFEST = {"homes": [{
    "home_id": "h0",
    "metadata": {"floor_area": 1500.0, "year_built": 1990, "province": "", "city": ""},
    "traces": {"winter": "h0__winter.csv"},
}]}

_POSTERIOR = estimators.Posterior(order=1, means=np.arange(8.0), scales=np.ones(8),
                                  noise_std=0.1, training_meta={"home_id": "h0"})

#: (order, matching means length) pairs of posteriors whose order is not an
#: int >= 1
_BAD_ORDERS = ((True, 8), (2.5, 14), (0, 4), (-1, 0))

_RC_PARAMS = {"resistances": [1.0, 2.0], "capacitances": [0.1, 0.2],
              "q_heat": 15.0, "q_cool": 12.0}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_json_inputs_raise_only_package_errors(data):
    for parse, valid in ((harness.ExperimentConfig.from_json,
                          json.loads(small_config(cluster_k=2).to_json())),
                         (estimators.Posterior.from_json, json.loads(_POSTERIOR.to_json())),
                         (rcnet.RcParams.from_json, json.loads(json.dumps(_RC_PARAMS))),
                         (lambda text: harness._manifest_homes(json.loads(text)),
                          json.loads(json.dumps(_MANIFEST)))):
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            valid = _mutated(valid, data)
        try:
            parse(json.dumps(valid))
        except RcthermError:
            pass


@pytest.mark.parametrize("text", [
    "{not json",
    "[]",
    json.dumps({k: v for k, v in _POSTERIOR.to_dict().items() if k != "order"}),
    json.dumps({**_POSTERIOR.to_dict(), "means": "abc"}),
    json.dumps({**_POSTERIOR.to_dict(), "scales": [10 ** 400] * 8}),
    *(json.dumps({**_POSTERIOR.to_dict(), "order": order, "means": [0.0] * size,
                  "scales": [1.0] * size}) for order, size in _BAD_ORDERS),
])
def test_posterior_malformed_json_is_a_shape_error(text):
    with pytest.raises(ShapeError):
        estimators.Posterior.from_json(text)


def _edited_manifest(edit):
    data = json.loads(json.dumps(_MANIFEST))
    edit(data)
    return data


@pytest.mark.parametrize("data,key", [
    ([], "manifest"),
    ({}, "homes"),
    ({"homes": {}}, "homes"),
    ({"homes": ["h0"]}, r"homes\[0\]"),
    (_edited_manifest(lambda m: m["homes"][0].pop("home_id")), "home_id"),
    (_edited_manifest(lambda m: m["homes"][0].pop("metadata")), "metadata"),
    (_edited_manifest(lambda m: m["homes"][0]["metadata"].pop("floor_area")), "floor_area"),
    (_edited_manifest(lambda m: m["homes"][0]["metadata"].pop("year_built")), "year_built"),
    (_edited_manifest(lambda m: m["homes"][0].pop("traces")), "traces"),
    (_edited_manifest(lambda m: m["homes"][0].update(home_id=7)), "home_id"),
    (_edited_manifest(lambda m: m["homes"][0].update(metadata=[1500, 1990])), "metadata"),
    (_edited_manifest(lambda m: m["homes"][0]["metadata"].update(floor_area="big")),
     "floor_area"),
    (_edited_manifest(lambda m: m["homes"][0]["metadata"].update(floor_area=10 ** 400)),
     "floor_area"),
    (_edited_manifest(lambda m: m["homes"][0]["metadata"].update(year_built=1990.5)),
     "year_built"),
    (_edited_manifest(lambda m: m["homes"][0]["metadata"].update(city=None)), "city"),
    (_edited_manifest(lambda m: m["homes"][0].update(traces=["h0.csv"])), "traces"),
    (_edited_manifest(lambda m: m["homes"][0]["traces"].update(winter=3)), "winter"),
])
def test_malformed_manifest_is_a_config_error_naming_the_key(tmp_path, data, key):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(data))
    config = harness.ExperimentConfig(manifest=str(manifest), model_kinds=("persistence",))
    with pytest.raises(ConfigError, match=key):
        harness.run_experiment(config)


def test_manifest_that_is_not_json_is_a_config_error(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{homes")
    with pytest.raises(ConfigError, match="JSON"):
        harness.run_experiment(harness.ExperimentConfig(manifest=str(manifest)))


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


@pytest.mark.parametrize("scenario,seasons", [
    ("none", dict(source_season="summer")),
    ("cross-home", dict(source_season="summer")),
    ("cross-season", dict(source_season="summer", target_season="winter")),
    ("cross-season", dict(source_season="winter", target_season="summer")),
])
def test_run_experiment_rejects_a_season_the_fleet_lacks(scenario, seasons):
    config = small_config(scenario=scenario, cluster_k=1, **seasons)
    with pytest.raises(ConfigError, match="summer"):
        harness.run_experiment(config)


def test_run_experiment_rejects_a_manifest_without_homes(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"homes": []}))
    with pytest.raises(ConfigError):
        harness.run_experiment(harness.ExperimentConfig(manifest=str(manifest)))


@pytest.mark.parametrize("kind", ["bnn_rc", "onercone"])
def test_values_inside_a_long_gap_do_not_reach_a_coefficient_model(kind):
    # both coefficient models fit and score the regression rows, which drop
    # every lag window touching a long imputed gap
    config = fleet.FleetConfig(n_homes=1, seasons=(replace(SHOULDER, days=4),))
    _, traces = fleet.synth_fleet(config, seed=3)
    raw = traces[("home0000", SHOULDER.name)]
    t_in = raw.t_in.copy()
    for lo in (200, 3 * ts.SAMPLES_PER_DAY + 100):  # one gap in train, one in test
        t_in[lo: lo + 3 * ts.MAX_GAP_STEPS] = np.nan
    imputed = ts.impute(replace(raw, t_in=t_in))
    moved = imputed.t_in.copy()
    moved[imputed.long_gap] += 3.0

    def fit_and_score(trace):
        train, test = ts.split(trace, 3, 1)
        model = harness.fit_model(kind, train, ts.derive_controls(train), 2)
        return model.to_json(), harness.evaluate(model, test, ts.derive_controls(test))[0]

    assert fit_and_score(replace(imputed, t_in=moved)) == fit_and_score(imputed)


@pytest.mark.parametrize("kind", ["bnn_rc", "onercone"])
def test_coefficient_models_need_an_imputed_trace(kind):
    trace = make_trace(40, t_in=np.r_[np.nan, np.linspace(70, 71, 39)])
    controls = ts.ControlSeries(k_heat=np.zeros(40, dtype=np.int8),
                                k_cool=np.zeros(40, dtype=np.int8))
    with pytest.raises(UnimputableError):
        harness.fit_model(kind, trace, controls, 2)


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
    params.write_text(json.dumps(_RC_PARAMS))
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
    # usage: experiment without a config file; --config only on experiment;
    # no library subcommand
    assert cli.main(["experiment"]) == 1
    assert cli.main(["fit", "x.csv", "--config", "c.json"]) == 1
    # usage: --seed belongs to the commands that draw random numbers only
    # (without it, these missing files are a data error)
    assert cli.main(["fit", "x.csv", "--seed", "1"]) == 1
    assert cli.main(["transfer", "m.json", "x.csv", "--seed", "1"]) == 1
    assert cli.main(["library", str(tmp_path)]) == 1
    # usage: a config that is not JSON
    config = tmp_path / "config.json"
    config.write_text("{not json")
    assert cli.main(["experiment", "--config", str(config), "--out", str(tmp_path)]) == 1
    # usage: a config with a mistyped field
    config.write_text(_edited_config(lambda d: d.update(train_days="x")))
    assert cli.main(["experiment", "--config", str(config), "--out", str(tmp_path)]) == 1
    # usage: a config with an impossible value
    for edit in (lambda d: d["hyper"].update(noise_std=0),
                 lambda d: d.update(order=0),
                 lambda d: d.update(train_days=0),
                 lambda d: d["fleet"].update(measurement_noise_std=-1),
                 lambda d: d["fleet"].update(year_built_range=[1000, 1200]),
                 lambda d: d["fleet"]["seasons"][0].update(weather_noise_std=-1),
                 lambda d: d["fleet"].update(seasons=[]),
                 lambda d: d["fleet"]["seasons"][0].update(days=0),
                 lambda d: d["fleet"].update(floor_area_range=[5, 1]),
                 lambda d: d["fleet"].update(year_built_range=[2020, 1950]),
                 lambda d: d.update(source_season="summer")):
        config.write_text(_edited_config(edit))
        assert cli.main(["experiment", "--config", str(config), "--out", str(tmp_path)]) == 1
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
    # data: a timestamp before 0001-01-01 UTC
    early = tmp_path / "early.csv"
    early.write_text(short.read_text().replace("2024-01-01T00", "0001-01-01T00")
                     .replace("Z,", "+01:00,"))
    assert cli.main(["ingest", str(early), "--out", str(tmp_path)]) == 2
    # data: a source posterior that lacks a key
    posterior = tmp_path / "posterior.json"
    posterior.write_text(json.dumps({"layout": estimators.POSTERIOR_LAYOUT}))
    assert cli.main(["transfer", str(posterior), str(short), "--out", str(tmp_path)]) == 2
    # data: metadata CSV with a bad number
    metadata = tmp_path / "metadata.csv"
    metadata.write_text("home_id,floor_area,year_built\nh1,1200,1990\nh2,abc,1990\n")
    assert cli.main(["cluster", str(metadata), "--out", str(tmp_path)]) == 2
    # data: a malformed RC-parameter file
    params = tmp_path / "params.json"
    for text in ('{"resistances": [1.0]}', "{not json", "[1, 2]",
                 json.dumps({**_RC_PARAMS, "q_heat": "15"}),
                 json.dumps({**_RC_PARAMS, "resistances": [1.0, True]}),
                 json.dumps({**_RC_PARAMS, "q_cool": 10 ** 400}),
                 json.dumps({**_RC_PARAMS, "order": 3}),
                 json.dumps({**_RC_PARAMS, "extra": 1}),
                 json.dumps({**_RC_PARAMS, "resistances": [1.0, -2.0]})):
        params.write_text(text)
        for command in ("coeffs", "simulate"):
            assert cli.main([command, str(params)]) == 2, (command, text)


def test_cli_unreadable_files_end_in_one_error_line(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    # an input trace, posterior, metadata or parameter file: a data error
    for argv in (["ingest", missing], ["fit", missing], ["coeffs", missing],
                 ["simulate", missing], ["cluster", missing],
                 ["transfer", missing, missing], ["ingest", str(tmp_path)]):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # the experiment config file: a usage error
    assert cli.main(["experiment", "--config", missing, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config") and err.count("\n") == 1, err
    # a manifest naming a trace file that is not there
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(_MANIFEST))
    config = tmp_path / "config.json"
    config.write_text(harness.ExperimentConfig(manifest=str(manifest),
                                               model_kinds=("persistence",)).to_json())
    assert cli.main(["experiment", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "h0__winter.csv" in capsys.readouterr().err


def test_cli_transfer_takes_the_order_from_the_posterior(tmp_path):
    config = fleet.FleetConfig(n_homes=1, seasons=(replace(SHOULDER, days=2),))
    _, traces = fleet.synth_fleet(config, seed=0)
    trace = traces[("home0000", SHOULDER.name)]
    day1 = tmp_path / "day1.csv"
    ts.write_trace_csv(ts.slice_trace(trace, 0, ts.SAMPLES_PER_DAY), day1)
    source = estimators.fit_bnn(ts.build_regression(trace, ts.derive_controls(trace), 1))
    posterior = tmp_path / "posterior.json"
    posterior.write_text(source.to_json())
    argv = ["transfer", str(posterior), str(day1), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    transferred = (tmp_path / "home__transferred.json").read_text()
    assert estimators.Posterior.from_json(transferred).order == 1
    assert cli.main(argv + ["--order", "1"]) == 1
    for order, size in _BAD_ORDERS:
        posterior.write_text(json.dumps({**source.to_dict(), "order": order,
                                         "means": [0.0] * size, "scales": [1.0] * size}))
        assert cli.main(argv) == 2, order


def test_cli_cluster_elbow_writes_the_curves_clustering(tmp_path):
    metadata = tmp_path / "metadata.csv"
    fleet.write_metadata_csv(uniform_metadata(0, 20), metadata)
    assert cli.main(["cluster", str(metadata), "-k", "0", "--out", str(tmp_path)]) == 0
    written = fleet.Clustering.from_json((tmp_path / "clustering.json").read_text())
    points, _, _ = fleet._standardize(fleet.read_metadata_csv(metadata))
    sses = fleet.sse_curve(points, min(fleet.ELBOW_K_MAX, len(points)), seed=0)
    assert written.sse == sses[written.k - 1]


def test_cli_experiment(tmp_path):
    config = small_config()
    config_path = tmp_path / "config.json"
    config_path.write_text(config.to_json())
    run_dir = tmp_path / "run"
    assert cli.main(["experiment", "--config", str(config_path),
                     "--out", str(run_dir)]) == 0
    assert (run_dir / "summary.json").exists()


@pytest.mark.parametrize("kind", harness.MODEL_KINDS)
def test_cli_fit_writes_the_harness_model_bytes(tmp_path, kind):
    # the CLI and the harness share one fit path: fitting a home's training
    # segment from CSV gives the harness's model file
    config = small_config(model_kinds=(kind,),
                          fleet_config=fleet.FleetConfig(n_homes=2, seasons=(SHOULDER,)),
                          train_days=4, test_days=1, seed=5)
    report = harness.run_experiment(config, out_dir=tmp_path / "run")
    _, traces = fleet.synth_fleet(config.fleet_config, seed=config.seed)
    for record in report.records:
        home = record["home_id"]
        train, _ = ts.split(traces[(home, SHOULDER.name)], config.train_days,
                            config.test_days)
        ts.write_trace_csv(train, tmp_path / f"{home}.csv")
        assert cli.main(["fit", str(tmp_path / f"{home}.csv"), "--kind", kind,
                         "--home-id", home,
                         "--out", str(tmp_path / "fit")]) == 0
        assert (tmp_path / "fit" / f"{home}__{kind}.json").read_bytes() == \
            (tmp_path / "run" / record["model_file"]).read_bytes()
