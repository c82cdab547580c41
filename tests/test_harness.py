"""Unit tests for experiment orchestration, reporting, and the CLI."""

import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rctherm import baselines, cli, estimators, fleet, harness, rcnet
from rctherm import timeseries as ts
from rctherm.errors import (
    ConfigError,
    ConvergenceError,
    DataError,
    InsufficientDataError,
    ParseError,
    RcthermError,
    ShapeError,
    UnimputableError,
)
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

@pytest.mark.parametrize("config", [
    small_config(scenario="cross-home", retrain_days=1, cluster_k=2),
    harness.ExperimentConfig(manifest="homes/manifest.json", model_kinds=("arimax", "persistence"),
                             source_season="winter", seed=4),
])
def test_experiment_config_roundtrip(config):
    back = harness.ExperimentConfig.from_json(config.to_json())
    assert back.to_json() == config.to_json()
    assert back == config


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        small_config(scenario="sideways")
    with pytest.raises(ConfigError):
        small_config(retrain_days=3)
    with pytest.raises(ConfigError):
        small_config(model_kinds=("bnn_rc", "oracle"))
    with pytest.raises(ConfigError, match="seed"):
        small_config(seed=-1)
    with pytest.raises(ConfigError):
        harness.ExperimentConfig()  # neither fleet nor manifest
    with pytest.raises(ConfigError, match="exactly one"):
        small_config(manifest="/nonexistent/manifest.json")
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_dict({"schema_version": 99})


def _edited_config(edit):
    data = json.loads(small_config().to_json())
    edit(data)
    return json.dumps(data)


@pytest.mark.parametrize("text", [
    pytest.param("{not json", id="not-json"),
    pytest.param("[1, 2]", id="array"),
    pytest.param("null", id="null"),
    pytest.param(_edited_config(lambda d: d["fleet"].pop("n_homes")), id="fleet-lacks-n_homes"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(n_homes="many")), id="n_homes-string"),
    pytest.param(_edited_config(
        lambda d: d["fleet"].update(seasons=[{"name": "winter", "snow": 1}])),
                 id="season-unknown-key"),
    pytest.param(_edited_config(lambda d: d["hyper"].update(momentum=0.9)), id="hyper-unknown-key"),
    pytest.param(_edited_config(lambda d: d.update(model_kinds="bnn_rc")), id="model_kinds-string"),
    pytest.param(_edited_config(lambda d: d.update(model_kinds=[["bnn_rc"]])),
                 id="model_kinds-nested"),
    pytest.param(_edited_config(lambda d: d.update(fleet="big")), id="fleet-string"),
    # mistyped fields, which would otherwise fail inside run_experiment
    pytest.param(_edited_config(lambda d: d.update(train_days="x")), id="train_days-string"),
    pytest.param(_edited_config(lambda d: d.update(seed="3")), id="seed-string"),
    pytest.param(_edited_config(lambda d: d.update(seed=True)), id="seed-bool"),
    pytest.param(_edited_config(lambda d: d.update(cluster_k=1.5)), id="cluster_k-float"),
    pytest.param(_edited_config(lambda d: d.update(order=None)), id="order-null"),
    pytest.param(_edited_config(lambda d: d.update(manifest=5)), id="manifest-int"),
    pytest.param(_edited_config(lambda d: d.update(source_season=3)), id="source_season-int"),
    pytest.param(_edited_config(lambda d: d.update(scenario=None)), id="scenario-null"),
    pytest.param(_edited_config(lambda d: d["hyper"].update(noise_std="x")), id="noise_std-string"),
    pytest.param(_edited_config(lambda d: d["hyper"].update(noise_std=True)), id="noise_std-bool"),
    # keys of the version-2 schema, or a version-2 config
    pytest.param(_edited_config(lambda d: d["hyper"].update(learning_rate=1e-3)),
                 id="v2-learning_rate"),
    pytest.param(_edited_config(lambda d: d["hyper"].update(epochs=200)), id="v2-epochs"),
    pytest.param(_edited_config(lambda d: d.update(schema_version=2)), id="schema_version-2"),
    # impossible values, which would otherwise fail inside run_experiment
    pytest.param(_edited_config(lambda d: d["hyper"].update(noise_std=0)), id="noise_std-0"),
    pytest.param(_edited_config(lambda d: d["hyper"].update(noise_std=-0.1)),
                 id="noise_std-negative"),
    pytest.param(_edited_config(lambda d: d.update(order=0)), id="order-0"),
    pytest.param(_edited_config(lambda d: d.update(train_days=0)), id="train_days-0"),
    pytest.param(_edited_config(lambda d: d.update(test_days=0)), id="test_days-0"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(order=0)), id="fleet.order-0"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(measurement_noise_std=-1)),
                 id="measurement_noise_std-negative"),
    pytest.param(_edited_config(lambda d: d["fleet"]["seasons"][0].update(weather_noise_std=-1)),
                 id="weather_noise_std-negative"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(n_homes=2.5)), id="n_homes-float"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(measurement_noise_std="0.1")),
                 id="measurement_noise_std-string"),
    pytest.param(_edited_config(lambda d: d["fleet"]["seasons"][0].update(days="x")),
                 id="season.days-string"),
    pytest.param(_edited_config(lambda d: d["fleet"]["seasons"][0].update(name=None)),
                 id="season.name-null"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(seasons=[])), id="seasons-empty"),
    pytest.param(_edited_config(lambda d: d["fleet"]["seasons"][0].update(days=0)),
                 id="season.days-0"),
    # unknown keys, which would otherwise be dropped for the defaults
    pytest.param(_edited_config(lambda d: d.update(train_day=7)), id="unknown-key"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(measurment_noise_std=0.5)),
                 id="fleet-unknown-key"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(year_built_range=[1000, 1200])),
                 id="year_built_range-1000"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(year_built_range=[2000, 2200])),
                 id="year_built_range-2000"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(floor_area_range=["a", 1])),
                 id="floor_area_range-string"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(lift_range=[20, 40, 60])),
                 id="lift_range-3"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(floor_area_range=[5, 1])),
                 id="floor_area_range-reversed"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(year_built_range=[2020, 1950])),
                 id="year_built_range-reversed"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(lift_range=[40, 40])),
                 id="lift_range-empty"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(lift_range=[20, float("inf")])),
                 id="lift_range-inf"),
    pytest.param(_edited_config(lambda d: d["fleet"].update(order=6)), id="fleet.order-6"),
    pytest.param(_edited_config(lambda d: d.update(cluster_k=-1)), id="cluster_k-negative"),
    # non-finite numbers, which JSON's NaN and Infinity literals give, and no
    # model kinds or a repeated one
    pytest.param(_edited_config(lambda d: d["hyper"].update(noise_std=float("inf"))),
                 id="noise_std-inf"),
    pytest.param(_edited_config(
        lambda d: d["fleet"]["seasons"][0].update(outdoor_mean=float("nan"))),
                 id="outdoor_mean-nan"),
    pytest.param(_edited_config(lambda d: d.update(model_kinds=[])), id="model_kinds-empty"),
    pytest.param(_edited_config(lambda d: d.update(model_kinds=["onercone", "onercone"])),
                 id="model_kinds-repeated"),
])
def test_experiment_config_malformed_json_is_a_config_error(text):
    with pytest.raises(ConfigError):
        harness.ExperimentConfig.from_json(text)


def test_experiment_config_reads_an_int_as_a_float():
    config = harness.ExperimentConfig.from_json(_edited_config(
        lambda d: (d["hyper"].update(noise_std=1), d["fleet"].update(measurement_noise_std=0))))
    assert config.hyper.noise_std == 1 and config.fleet_config.measurement_noise_std == 0


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

_COEFFS = rcnet.DiffCoeffs(order=1, s=[[0.0, 0.0, 0.0], [0.1, 0.2, -0.3]], e=[-0.9], offset=0.5)
_ONERCONE = estimators.OneROneCFit(a=0.01, b=0.4, c=0.0, valid=True, residual_norm=1.5)
_ARIMAX = baselines.ArimaxModel(order=(1, 1, 1), ar=[0.5], ma=[0.25],
                                exog=[0.02, 0.1, -0.08], intercept=0.001, innovation_var=0.0025)
_CLUSTERING = fleet.Clustering(k=2, centroids=np.array([[-1.0, 0.5], [1.0, -0.5]]),
                               assignments={"h1": 1, "h0": 0}, sse=0.25,
                               feature_mean=np.array([1500.0, 1990.0]),
                               feature_std=np.array([500.0, 20.0]))

#: (reader, a valid parsed input, the class of every error it raises, the
#: start of every error message: the root of the key path)
_JSON_READERS = (
    (harness.ExperimentConfig.from_json, small_config(cluster_k=2).to_dict(), ConfigError,
     "config"),
    (rcnet.RcParams.from_json, _RC_PARAMS, ParseError, "params"),
    (rcnet.DiffCoeffs.from_json, _COEFFS.to_dict(), ShapeError, "coeffs"),
    (estimators.Posterior.from_json, _POSTERIOR.to_dict(), ShapeError, "posterior"),
    (estimators.OneROneCFit.from_json, _ONERCONE.to_dict(), ShapeError, "onercone"),
    (baselines.ArimaxModel.from_json, _ARIMAX.to_dict(), ShapeError, "arimax"),
    (fleet.Clustering.from_json, _CLUSTERING.to_dict(), ShapeError, "clustering"),
    (harness.Manifest.from_json, _MANIFEST, ConfigError, "manifest"),
)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_json_inputs_raise_only_package_errors(data):
    parse, valid, error, where = data.draw(st.sampled_from(_JSON_READERS))
    valid = json.loads(json.dumps(valid))  # a copy to mutate
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        valid = _mutated(valid, data)
    try:
        parse(json.dumps(valid))
    except RcthermError as exc:
        assert isinstance(exc, error) and str(exc).startswith(where), repr(exc)


@pytest.mark.parametrize("model, text", [
    (harness.ExperimentConfig(manifest="homes/manifest.json",
                              model_kinds=("arimax", "persistence"), source_season="winter",
                              seed=4),
     '{\n  "cluster_k": 0,\n  "fleet": null,\n  "hyper": {\n    "noise_std": 0.1\n  },\n'
     '  "manifest": "homes/manifest.json",\n  "model_kinds": [\n    "arimax",\n'
     '    "persistence"\n  ],\n  "order": 2,\n  "retrain_days": 0,\n  "scenario": "none",\n'
     '  "schema_version": 3,\n  "seed": 4,\n  "source_season": "winter",\n'
     '  "target_season": null,\n  "test_days": 15,\n  "train_days": 75\n}'),
    (rcnet.RcParams((1.0, 2.0), (0.1, 0.2), 15.0, 12.0),
     '{"capacitances": [0.1, 0.2], "order": 2, "q_cool": 12.0, "q_heat": 15.0, '
     '"resistances": [1.0, 2.0]}'),
    (_COEFFS, '{"e": [-0.9], "offset": 0.5, "order": 1, "s": [[0.0, 0.0, 0.0], [0.1, 0.2, -0.3]]}'),
    (_POSTERIOR,
     '{"layout": "u-lags-then-y-lags-bias-last/1", "means": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, '
     '7.0], "noise_std": 0.1, "order": 1, "scales": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], '
     '"training_meta": {"home_id": "h0"}}'),
    (_ONERCONE,
     '{"a": 0.01, "b": 0.4, "c": 0.0, "kind": "onercone", "residual_norm": 1.5, "valid": true}'),
    (_ARIMAX,
     '{"ar": [0.5], "exog": [0.02, 0.1, -0.08], "innovation_var": 0.0025, "intercept": 0.001, '
     '"kind": "arimax", "ma": [0.25], "order": [1, 1, 1]}'),
    (_CLUSTERING,
     '{"assignments": {"h0": 0, "h1": 1}, "centroids": [[-1.0, 0.5], [1.0, -0.5]], '
     '"feature_mean": [1500.0, 1990.0], "feature_std": [500.0, 20.0], "k": 2, "sse": 0.25}'),
    # as rctherm synth writes it, with each home's truth
    (harness.Manifest(homes=(harness.ManifestHome(
        home_id="h0", metadata=harness.ManifestMetadata(1500.0, 1990, "ON", "Ottawa"),
        traces={"winter": "h0__winter.csv"},
        truth=rcnet.RcParams((1.0,), (0.5,), 15.0, 12.0).to_dict()),)),
     '{\n  "homes": [\n    {\n      "home_id": "h0",\n      "metadata": {\n'
     '        "city": "Ottawa",\n        "floor_area": 1500.0,\n        "province": "ON",\n'
     '        "year_built": 1990\n      },\n      "traces": {\n'
     '        "winter": "h0__winter.csv"\n      },\n      "truth": {\n'
     '        "capacitances": [\n          0.5\n        ],\n        "order": 1,\n'
     '        "q_cool": 12.0,\n        "q_heat": 15.0,\n        "resistances": [\n'
     '          1.0\n        ]\n      }\n    }\n  ]\n}'),
], ids=["ExperimentConfig", "RcParams", "DiffCoeffs", "Posterior", "OneROneCFit", "ArimaxModel",
        "Clustering", "Manifest"])
def test_json_writers_keep_their_bytes(model, text):
    assert model.to_json() == text
    back = type(model).from_json(text)
    assert back.to_json() == text


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


def test_posterior_with_ragged_means_is_a_shape_error():
    text = json.dumps({**_POSTERIOR.to_dict(), "means": [[0.0], [0.0, 1.0]]})
    with pytest.raises(ShapeError, match=r"posterior\.means must be a rectangular array"):
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
    (_edited_manifest(lambda m: m["homes"][0]["metadata"].update(floor_area=0)),
     r"homes\[0\]\.metadata\.floor_area must be positive"),
    (_edited_manifest(lambda m: m["homes"][0]["metadata"].update(floor_area=-1500.0)),
     r"homes\[0\]\.metadata\.floor_area must be positive"),
    (_edited_manifest(lambda m: m["homes"][0]["metadata"].update(year_built=1799)),
     r"homes\[0\]\.metadata\.year_built 1799 outside"),
    (_edited_manifest(lambda m: m["homes"][0]["metadata"].update(year_built=2101)),
     r"homes\[0\]\.metadata\.year_built 2101 outside"),
    (_edited_manifest(lambda m: m["homes"][0].update(traces=["h0.csv"])), "traces"),
    (_edited_manifest(lambda m: m["homes"][0]["traces"].update(winter=3)), "winter"),
    (_edited_manifest(lambda m: m["homes"][0].update(notes="h0")),
     r"homes\[0\] has unknown keys \['notes'\]"),
    (_edited_manifest(lambda m: m["homes"].append(m["homes"][0])),
     r"manifest\.homes\[1\]\.home_id 'h0' repeats"),
    (_edited_manifest(lambda m: m["homes"][0].update(home_id="a/b")),
     r"manifest\.homes\[0\]\.home_id 'a/b' is not a file name"),
    (_edited_manifest(lambda m: m["homes"][0].update(home_id="")),
     r"manifest\.homes\[0\]\.home_id '' is not a file name"),
    (_edited_manifest(lambda m: m["homes"][0].update(home_id="..")),
     r"manifest\.homes\[0\]\.home_id '\.\.' is not a file name"),
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


def test_manifest_that_is_not_utf8_is_a_config_error(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(json.dumps(_MANIFEST).replace("h0", "hé").encode("latin-1"))
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


@pytest.mark.parametrize("kinds", [("arimax",), ("bnn_rc", "arimax")], ids="+".join)
@pytest.mark.parametrize("scenario", ["cross-home", "cross-season"])
def test_run_experiment_cross_home_requires_bnn(scenario, kinds):
    # a transfer fits bnn_rc alone: any other kind is refused, not dropped
    config = small_config(scenario=scenario, model_kinds=kinds, cluster_k=1)
    with pytest.raises(ConfigError, match="arimax"):
        harness.run_experiment(config)


def test_run_experiment_cross_season_needs_two_seasons():
    config = small_config(scenario="cross-season")
    with pytest.raises(ConfigError):
        harness.run_experiment(config)


@pytest.mark.parametrize("target_days, retrain_days", [(10, 7), (5, 7), (5, 0)])
def test_cross_season_retrain_and_test_days_must_fit_the_target_season(
        tmp_path, capsys, target_days, retrain_days):
    # the retrain head comes from the start of the target season and the
    # test segment from its end: a season too short for both would overlap
    # them (or, shorter than the test, shift the test's start back)
    seasons = (fleet.SeasonConfig(name="a", days=20), fleet.SeasonConfig(name="b", days=target_days))
    config = small_config(fleet_config=fleet.FleetConfig(n_homes=1, seasons=seasons),
                          scenario="cross-season", train_days=10, test_days=8,
                          retrain_days=retrain_days)
    with pytest.raises(InsufficientDataError, match=f"home0000's 'b' trace has {target_days * 288} "
                                                    f"samples, need {(retrain_days + 8) * 288}"):
        harness.run_experiment(config)
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    assert cli.main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count("error:") == 1


def test_cross_home_retrain_head_longer_than_the_train_segment_is_insufficient_data():
    config = small_config(scenario="cross-home", retrain_days=7, cluster_k=1)
    with pytest.raises(InsufficientDataError, match=r"window \[0, 2016\) lies outside"):
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
    with pytest.raises(ConfigError, match="^the manifest lists no trace$"):
        harness.run_experiment(harness.ExperimentConfig(manifest=str(manifest)))


def test_run_experiment_rejects_a_manifest_whose_homes_list_no_trace(tmp_path):
    manifest = tmp_path / "manifest.json"
    home = {**_MANIFEST["homes"][0], "traces": {}}
    manifest.write_text(json.dumps({"homes": [home, {**home, "home_id": "h1"}]}))
    with pytest.raises(ConfigError, match="^the manifest lists no trace$"):
        harness.run_experiment(harness.ExperimentConfig(manifest=str(manifest)))


def test_cross_season_target_defaults_to_the_first_season_that_is_not_the_source():
    seasons = (fleet.SeasonConfig(name="winter", days=4), fleet.SeasonConfig(name="summer", days=4))
    config = small_config(fleet_config=fleet.FleetConfig(n_homes=2, seasons=seasons),
                          scenario="cross-season", source_season="summer")
    explicit = replace(config, target_season="winter")
    assert harness.run_experiment(config).to_csv() == harness.run_experiment(explicit).to_csv()
    with pytest.raises(ConfigError, match="summer"):
        harness.run_experiment(replace(config, target_season="summer"))


def test_cross_season_manifest_with_no_home_in_both_seasons_is_a_config_error(tmp_path):
    assert cli.main(["synth", "--homes", "2", "--days", "4", "--out", str(tmp_path)]) == 0
    manifest = tmp_path / "manifest.json"
    data = json.loads(manifest.read_text())
    data["homes"][1]["traces"] = {"summer": data["homes"][1]["traces"]["winter"]}
    manifest.write_text(json.dumps(data))
    config = harness.ExperimentConfig(manifest=str(manifest), scenario="cross-season",
                                      train_days=3, test_days=1)
    with pytest.raises(ConfigError, match="'winter'.*'summer'"):
        harness.run_experiment(config)


_TRANSFER_SEASONS = (fleet.SeasonConfig(name="winter", days=6),
                     fleet.SeasonConfig(name="summer", days=6, outdoor_mean=80.0,
                                        hvac_mode=ts.MODE_COOL, param_shift=0.2))


@pytest.mark.parametrize("scenario,retrain_days", [
    ("cross-season", 0), ("cross-season", 1), ("cross-home", 1)])
def test_transfer_records_follow_the_transfer_protocol(tmp_path, scenario, retrain_days):
    # the source is a cold fit of a winter train segment: the home's own
    # (cross-season) or its cluster representative's (cross-home). It is
    # retrained on the first retrain days of the target (the summer trace,
    # or the home's own winter train segment), and the result is scored by
    # its one-step RMSE on the test segment: the last test days of the
    # summer trace, or the winter days after the train segment.
    hyper = estimators.TrainingConfig(noise_std=0.05)
    config = small_config(fleet_config=fleet.FleetConfig(n_homes=2, seasons=_TRANSFER_SEASONS),
                          scenario=scenario, retrain_days=retrain_days, cluster_k=1,
                          train_days=4, test_days=2, seed=3, hyper=hyper)
    report = harness.run_experiment(config, out_dir=tmp_path)
    homes, traces = fleet.synth_fleet(config.fleet_config, seed=3)
    metadata = [h.metadata for h in homes]
    rep_id = fleet.representative(fleet.cluster_homes(metadata, 1, seed=3), 0, metadata)
    day = ts.SAMPLES_PER_DAY

    def rows(trace):
        return ts.build_regression(trace, ts.derive_controls(trace), 2)

    def cold_fit(home_id):
        train, _ = ts.split(traces[(home_id, "winter")], 4, 2)
        return estimators.fit_bnn(rows(train), hyper=hyper, home_id=home_id)

    assert [r["home_id"] for r in report.records] == ["home0000", "home0001"]
    for record in report.records:
        home_id = record["home_id"]
        if scenario == "cross-season":
            target = traces[(home_id, "summer")]
            test = ts.slice_trace(target, len(target) - 2 * day, len(target))
            source = cold_fit(home_id)
        else:
            target, test = ts.split(traces[(home_id, "winter")], 4, 2)
            source = cold_fit(rep_id)
        head = rows(ts.slice_trace(target, 0, retrain_days * day)) if retrain_days else None
        model = estimators.transfer(source, head, hyper=hyper, home_id=home_id)
        test_rows = rows(test)
        predicted = estimators.predict_one_step(estimators.posterior_to_coeffs(model), test_rows)
        assert record["rmse"] == estimators.rmse(predicted, test_rows.targets)
        assert (tmp_path / record["model_file"]).read_text() == model.to_json()


def test_fit_model_refuses_a_source_for_a_kind_other_than_bnn_rc():
    config = fleet.FleetConfig(n_homes=1, seasons=(replace(SHOULDER, days=2),))
    _, traces = fleet.synth_fleet(config, seed=0)
    trace = traces[("home0000", SHOULDER.name)]
    source = harness.fit_model("bnn_rc", trace, 2)
    assert harness.fit_model("bnn_rc", trace, 2, source=source).order == 2
    for kind in ("onercone", "arimax", "persistence"):
        with pytest.raises(ConfigError, match=f"to bnn_rc alone, got {kind!r}"):
            harness.fit_model(kind, trace, 2, source=source)


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
        model = harness.fit_model(kind, train, 2)
        return model.to_json(), harness.evaluate(model, test)[0]

    assert fit_and_score(replace(imputed, t_in=moved)) == fit_and_score(imputed)


@pytest.mark.parametrize("radius", [1.5, 2.37])
def test_a_diverging_free_run_scores_inf(radius):
    # an unstable difference equation's free run over 5 days reaches 1e254
    # (radius 1.5), whose square overflows, or overflows itself and turns nan
    # (radius 2.37); either scores inf, with no warning
    dc = rcnet.DiffCoeffs(order=2, s=np.full((3, 3), 0.01), e=[-(radius + 0.5), 0.5 * radius])
    assert dc.root_radius == pytest.approx(radius)
    posterior = estimators.Posterior(order=2, means=estimators.coeffs_to_weights(dc),
                                     scales=np.ones(12), noise_std=0.1)
    config = fleet.FleetConfig(n_homes=1, seasons=(replace(SHOULDER, days=5),))
    _, traces = fleet.synth_fleet(config, seed=0)
    test = traces[("home0000", SHOULDER.name)]
    one_step, free = harness.evaluate(posterior, test)
    assert np.isfinite(one_step) and free == np.inf


@pytest.mark.parametrize("kind", ["bnn_rc", "onercone"])
def test_coefficient_models_need_an_imputed_trace(kind):
    trace = make_trace(40, t_in=np.r_[np.nan, np.linspace(70, 71, 39)])
    with pytest.raises(UnimputableError):
        harness.fit_model(kind, trace, 2)


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

def _fresh_python(code):
    """stdout of ``code`` run in a new interpreter that sees this package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_cli_import_loads_no_scipy_signal_stats_or_optimize():
    # each run of the command pays its imports; scipy.signal (which loads
    # scipy.stats) and scipy.optimize were each a large share of the package's
    # import time
    code = ("import sys, rctherm.cli; print(sorted(m for m in "
            "('scipy.signal', 'scipy.stats', 'scipy.optimize') if m in sys.modules))")
    assert _fresh_python(code) == "[]\n"


def test_experiment_over_every_model_kind_loads_no_scipy_optimize(tmp_path):
    # every fit is closed form (bnn_rc, persistence) or a numpy loop (NNLS for
    # onercone, Newton for ARIMAX), so no run pays for loading an optimiser
    config = small_config(model_kinds=harness.MODEL_KINDS)
    config = replace(config, fleet_config=replace(config.fleet_config, n_homes=1))
    config_path = tmp_path / "config.json"
    config_path.write_text(config.to_json())
    argv = ["experiment", "--config", str(config_path), "--out", str(tmp_path / "run")]
    code = (f"import sys; from rctherm import cli; status = cli.main({argv!r}); "
            "print(status, 'scipy.optimize' in sys.modules)")
    assert _fresh_python(code).splitlines()[-1] == "0 False"
    records = (tmp_path / "run" / "records.csv").read_text()
    assert all(kind in records for kind in harness.MODEL_KINDS)


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
                 lambda d: d.update(model_kinds=["onercone", "onercone"]),
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
                 json.dumps({**_RC_PARAMS, "resistances": [1.0, -2.0]}),
                 # each R*C is 1e-400, which underflows to zero
                 json.dumps({**_RC_PARAMS, "resistances": [1e-200, 1e-200],
                             "capacitances": [1e-200, 1e-200]})):
        params.write_text(text)
        for command in ("coeffs", "simulate"):
            assert cli.main([command, str(params)]) == 2, (command, text)


@pytest.mark.parametrize("scale", [1e-3, 1e8], ids=["phi-underflows", "phi-rounds-to-1"])
def test_cli_simulate_rejects_time_constants_the_step_cannot_resolve(tmp_path, capsys, scale):
    # R C of 1e-6 h or 1e16 h: Phi's eigenvalues round to 0 or 1, so the
    # network has no modes in (0, 1) to filter
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**_RC_PARAMS, "resistances": [scale, scale],
                                  "capacitances": [scale, scale]}))
    assert cli.main(["simulate", str(params)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("t_out, code", [("nan", 1), ("inf", 1), ("-inf", 1), ("1e308", 2)])
def test_cli_simulate_needs_a_finite_t_out_and_output(tmp_path, capsys, t_out, code):
    # a non-finite --t-out is a usage error; one whose run overflows, a
    # data error, with no RuntimeWarning on the way (the suite raises them)
    params = tmp_path / "params.json"
    params.write_text(json.dumps(_RC_PARAMS))
    assert cli.main(["simulate", str(params), f"--t-out={t_out}"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1, captured.err
    assert "error: " in captured.err.splitlines()[-1], captured.err


@pytest.mark.parametrize("command", ["coeffs", "simulate"])
def test_cli_commands_that_print_take_no_out(tmp_path, command):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(_RC_PARAMS))
    assert cli.main([command, str(params)]) == 0
    assert cli.main([command, str(params), "--out", str(tmp_path)]) == 1


def test_cli_negative_seed_or_days_is_a_usage_error(tmp_path, capsys):
    # numpy's default_rng refuses a negative seed, and simulate needs a day
    params = tmp_path / "params.json"
    params.write_text(json.dumps(_RC_PARAMS))
    metadata = tmp_path / "metadata.csv"
    fleet.write_metadata_csv(uniform_metadata(0, 4), metadata)
    config = tmp_path / "config.json"
    config.write_text(_edited_config(lambda d: d.update(seed=-1)))
    out = ["--out", str(tmp_path / "out")]
    for argv in (["experiment", "--config", str(config)] + out, ["synth", "--seed", "-1"] + out,
                 ["cluster", str(metadata), "--seed", "-3"] + out,
                 ["simulate", str(params), "--days", "-1"],
                 ["simulate", str(params), "--days", "0"],
                 ["fit", str(tmp_path / "trace.csv"), "--order", "0"] + out):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.count("error:") == 1, captured.err
        assert "error: " in captured.err.splitlines()[-1], captured.err
    assert not (tmp_path / "out").exists()


def test_cli_unreadable_files_end_in_one_error_line(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    out = ["--out", str(tmp_path)]
    # an input trace, posterior, metadata or parameter file: a data error
    for argv in (["ingest", missing] + out, ["fit", missing] + out, ["coeffs", missing],
                 ["simulate", missing], ["cluster", missing] + out,
                 ["transfer", missing, missing] + out, ["ingest", str(tmp_path)] + out):
        assert cli.main(argv) == 2, argv
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


@pytest.mark.parametrize("home_id", ["../escaped", "a/b", "..", ""])
def test_cli_home_id_must_be_a_file_name(tmp_path, capsys, home_id):
    # the home_id names the file written under --out
    trace = tmp_path / "trace.csv"
    config = fleet.FleetConfig(n_homes=1, seasons=(replace(SHOULDER, days=2),))
    ts.write_trace_csv(fleet.synth_fleet(config, seed=0)[1][("home0000", SHOULDER.name)], trace)
    out = tmp_path / "sub" / "out"
    for argv in (["fit", str(trace), "--kind", "persistence"], ["ingest", str(trace)],
                 ["transfer", str(tmp_path / "posterior.json"), str(trace)]):
        assert cli.main(argv + ["--home-id", home_id, "--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.count("error:") == 1, err
        assert err.splitlines()[-1].endswith(f"home_id {home_id!r} is not a file name"), err
    assert not (tmp_path / "sub").exists()


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


def _gap_csv(tmp_path):
    """A trace CSV of two readings a day apart: 287 of its 289 samples lie in
    one long imputed gap."""
    gap = tmp_path / "gap.csv"
    gap.write_text(f"{','.join(ts.CSV_HEADER)}\n"
                   "2024-01-01T00:00:00Z,70,30,68,75,auto,0,0.4\n"
                   "2024-01-02T00:00:00Z,70,30,68,75,auto,0,0.4\n")
    return gap


def test_cli_fit_and_transfer_on_a_trace_with_no_usable_rows_are_data_errors(tmp_path, capsys):
    # every lag window overlaps the long imputed gap
    gap = _gap_csv(tmp_path)
    posterior = tmp_path / "posterior.json"
    posterior.write_text(_POSTERIOR.to_json())
    out = tmp_path / "out"
    # fit's default order is 2; transfer takes the posterior's, 1
    for argv, order in ((["fit", str(gap)], 2), (["transfer", str(posterior), str(gap)], 1)):
        assert cli.main(argv + ["--out", str(out)]) == 2, argv
        assert capsys.readouterr().err == (f"error: home: every order-{order} lag window of its "
                                           "289 samples overlaps a long imputation gap\n")
    assert not out.exists()


@pytest.mark.parametrize("kind, order, need", [("arimax", "1,1,2", 70),
                                               ("persistence", "0,1,0", 40)])
def test_cli_fit_of_an_arimax_kind_counts_the_samples_outside_long_gaps(tmp_path, capsys, kind,
                                                                        order, need):
    out = tmp_path / "out"
    assert cli.main(["fit", str(_gap_csv(tmp_path)), "--kind", kind, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: home: 2 samples outside long imputation gaps, "
                                       f"need at least {need} to fit ARIMAX({order})\n")
    assert not out.exists()


def test_cli_convergence_error_exits_3(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ConvergenceError("nnls exceeded 9 active-set iterations")

    monkeypatch.setattr(harness, "fit_model", fail)
    trace = tmp_path / "trace.csv"
    trace.write_text(f"{','.join(ts.CSV_HEADER)}\n"
                     "2024-01-01T00:00:00Z,70,30,68,75,auto,0,0.4\n"
                     "2024-01-01T00:05:00Z,70,30,68,75,auto,0,0.4\n")
    assert cli.main(["fit", str(trace), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: nnls exceeded 9 active-set iterations\n"


def test_cli_cluster_elbow_writes_the_curves_clustering(tmp_path):
    metadata = tmp_path / "metadata.csv"
    fleet.write_metadata_csv(uniform_metadata(0, 20), metadata)
    assert cli.main(["cluster", str(metadata), "-k", "0", "--out", str(tmp_path)]) == 0
    written = fleet.Clustering.from_json((tmp_path / "clustering.json").read_text())
    points, _, _ = fleet._standardize(fleet.read_metadata_csv(metadata))
    sses = fleet.sse_curve(points, min(fleet.ELBOW_K_MAX, len(points)), seed=0)
    assert written.sse == sses[written.k - 1]


@pytest.mark.parametrize("k", ["0", "2"])
@pytest.mark.parametrize("text,message", [
    ("home_id,floor_area,year_built\na,1200,1990\na,1500,1980\nb,2000,2000\n",
     "line 3: home_id 'a' repeats line 2's"),
    ("home_id,floor_area,year_built\n", "cannot cluster an empty set of homes"),
    ("home_id,floor_area,year_built\n,1200,1990\n", "line 2: home_id '' is not a file name"),
], ids=["repeated-home-id", "header-only", "empty-home-id"])
def test_cli_cluster_on_bad_metadata_is_one_data_error(tmp_path, capsys, text, message, k):
    metadata = tmp_path / "metadata.csv"
    metadata.write_text(text)
    assert cli.main(["cluster", str(metadata), "-k", k, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "clustering.json").exists()


def test_cli_cluster_elbow_on_one_home_exits_0(tmp_path):
    metadata = tmp_path / "metadata.csv"
    fleet.write_metadata_csv([fleet.HomeMetadata("only", 1500.0, 1980)], metadata)
    assert cli.main(["cluster", str(metadata), "-k", "0", "--out", str(tmp_path)]) == 0
    assert fleet.Clustering.from_json((tmp_path / "clustering.json").read_text()).k == 1


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
