"""Experiment orchestration: one fit/transfer/evaluate pipeline over fleets
and RMSE reports with quartile summaries.

The headline metric is teacher-forced one-step RMSE on the held-out test
segment; free-running simulation RMSE is emitted as a secondary column for
coefficient-based models. All runs are deterministic given the config.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import baselines, estimators, fleet, rcnet, timeseries
from .errors import ConfigError, DataError, InvalidParameterError

MODEL_KINDS = ("bnn_rc", "onercone", "arimax", "persistence")
SCENARIOS = ("none", "cross-home", "cross-season")
RETRAIN_CHOICES = (0, 1, 7)
CONFIG_SCHEMA_VERSION = 3
#: Config keys read as they are; absent ones take the dataclass defaults.
_PLAIN_FIELDS = ("manifest", "order", "train_days", "test_days", "scenario", "retrain_days",
                 "cluster_k", "source_season", "target_season", "seed")
_FLEET_SCALARS = ("order", "measurement_noise_std")
_FLEET_RANGES = ("floor_area_range", "year_built_range", "lift_range")
#: The JSON types a config field may hold, by its annotation: an int is a
#: float, a bool is not a number (no field is a bool).
_JSON_TYPES = {"int": int, "float": (int, float), "str": str,
               "str | None": (str, type(None)), "object": dict, "array": list}


def _check_type(label, value, annotation):
    if not isinstance(value, _JSON_TYPES[annotation]) or isinstance(value, bool):
        raise ConfigError(f"{label} must be {annotation}, got {value!r}")


def _typed(config):
    """``config``, a config dataclass, once each of its fields annotated in
    ``_JSON_TYPES`` holds a value of that type."""
    for f in fields(config):
        if f.type in _JSON_TYPES:
            _check_type(f"config field {f.name!r}", getattr(config, f.name), f.type)
    return config


@dataclass(frozen=True)
class ExperimentConfig:
    fleet_config: fleet.FleetConfig | None = None
    manifest: str | None = None
    model_kinds: tuple = ("bnn_rc",)
    order: int = 2
    train_days: int = 75
    test_days: int = 15
    scenario: str = "none"
    retrain_days: int = 0
    cluster_k: int = 0  # 0 = pick by the elbow rule
    source_season: str | None = None
    target_season: str | None = None
    seed: int = 0
    hyper: estimators.TrainingConfig = field(default_factory=estimators.TrainingConfig)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.retrain_days not in RETRAIN_CHOICES:
            raise ConfigError(f"retrain_days must be one of {RETRAIN_CHOICES}")
        unknown = set(self.model_kinds) - set(MODEL_KINDS)
        if unknown:
            raise ConfigError(f"unknown model kinds: {sorted(unknown)}")
        if self.fleet_config is None and self.manifest is None:
            raise ConfigError("config needs a synthetic fleet or a manifest")
        for name in ("order", "train_days", "test_days"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)!r}")

    def to_dict(self):
        out = {k: getattr(self, k) for k in _PLAIN_FIELDS if k != "manifest"}
        out.update(schema_version=CONFIG_SCHEMA_VERSION, model_kinds=list(self.model_kinds),
                   hyper=self.hyper.to_dict())
        if self.manifest is not None:
            out["manifest"] = str(self.manifest)
        if self.fleet_config is not None:
            fc = self.fleet_config
            out["fleet"] = {**{k: getattr(fc, k) for k in ("n_homes",) + _FLEET_SCALARS},
                            **{k: list(getattr(fc, k)) for k in _FLEET_RANGES},
                            "seasons": [s.to_dict() for s in fc.seasons]}
        return out

    @classmethod
    def from_dict(cls, data):
        """Parse a config; any malformed field raises ConfigError."""
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        if data.get("schema_version") != CONFIG_SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema {data.get('schema_version')!r}")
        if isinstance(data.get("model_kinds"), str):
            raise ConfigError(f"model_kinds must be a list of kinds, got {data['model_kinds']!r}")
        try:
            kwargs = {k: data[k] for k in _PLAIN_FIELDS if k in data}
            if "model_kinds" in data:
                kwargs["model_kinds"] = tuple(data["model_kinds"])
            if "hyper" in data:
                kwargs["hyper"] = _typed(estimators.TrainingConfig(**data["hyper"]))
            if "fleet" in data:
                fc = data["fleet"]
                ranges = {k: tuple(fc[k]) for k in _FLEET_RANGES if k in fc}
                for k, pair in ranges.items():
                    if len(pair) != 2:
                        raise ConfigError(f"config field {k!r} must be [low, high], got {fc[k]!r}")
                    for v in pair:
                        _check_type(f"config field {k!r}", v, "float")
                kwargs["fleet_config"] = _typed(fleet.FleetConfig(
                    n_homes=fc["n_homes"], **ranges,
                    **{k: fc[k] for k in _FLEET_SCALARS if k in fc},
                    seasons=tuple(_typed(fleet.SeasonConfig(**s))
                                  for s in fc.get("seasons", [{}]))))
            return _typed(cls(**kwargs))
        except (IndexError, KeyError, TypeError) as exc:
            raise ConfigError(f"malformed config: {type(exc).__name__}: {exc}") from None
        except InvalidParameterError as exc:  # an impossible hyper value
            raise ConfigError(f"config field 'hyper': {exc}") from None

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


@dataclass
class RmseReport:
    records: list
    summaries: dict
    exclusions: list

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["home_id", "model", "scenario", "rmse", "rmse_freerun",
                         "n_train", "n_test", "model_file", "data_hash"])
        for rec in self.records:
            writer.writerow([
                rec["home_id"], rec["model"], rec["scenario"],
                repr(rec["rmse"]),
                "" if rec["rmse_freerun"] is None else repr(rec["rmse_freerun"]),
                rec["n_train"], rec["n_test"], rec["model_file"], rec["data_hash"],
            ])
        return buf.getvalue()

    def to_json(self):
        return json.dumps(
            {"summaries": self.summaries, "exclusions": self.exclusions},
            sort_keys=True, indent=2)

    def write(self, out_dir):
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "records.csv").write_text(self.to_csv())
        (out_dir / "summary.json").write_text(self.to_json())


def summarize(values):
    """Quartile summary with 1.5*IQR outliers.

    ``values`` is a sequence of (key, value) pairs; outlier keys are listed.
    """
    items = list(values)
    if not items:
        raise DataError("cannot summarize an empty record set")
    data = np.array([v for _, v in items], dtype=float)
    q1, med, q3 = np.percentile(data, [25, 50, 75])
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = sorted(k for k, v in items if v > hi or v < lo)
    return {
        "count": len(items),
        "mean": float(data.mean()),
        "median": float(med),
        "q1": float(q1),
        "q3": float(q3),
        "iqr": float(iqr),
        "outliers": outliers,
    }


# ---------------------------------------------------------------------------
# Fleet loading

def _manifest_value(obj, key, annotation, where, default=None):
    """``obj[key]`` once it holds the JSON type ``annotation`` (a float
    field as a float); ConfigError names the key when it is absent (with no
    default), mistyped, or a number no float can hold."""
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where} lacks {key!r}")
        return default
    value = obj[key]
    _check_type(f"{where}.{key}", value, annotation)
    if annotation == "float":
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{where}.{key} is too large for a float") from None
    return value


def _manifest_homes(data):
    """(metadata list, {(home_id, season): trace path relative to the
    manifest}) of a parsed manifest; a manifest that is not an object, or
    that lacks a key or holds one of the wrong type, raises ConfigError."""
    _check_type("manifest", data, "object")
    metadata, paths = [], {}
    for i, entry in enumerate(_manifest_value(data, "homes", "array", "manifest")):
        where = f"manifest.homes[{i}]"
        _check_type(where, entry, "object")
        home_id = _manifest_value(entry, "home_id", "str", where)
        meta = _manifest_value(entry, "metadata", "object", where)
        metadata.append(fleet.HomeMetadata(
            home_id=home_id,
            floor_area=_manifest_value(meta, "floor_area", "float", f"{where}.metadata"),
            year_built=_manifest_value(meta, "year_built", "int", f"{where}.metadata"),
            province=_manifest_value(meta, "province", "str", f"{where}.metadata", ""),
            city=_manifest_value(meta, "city", "str", f"{where}.metadata", ""),
        ))
        for season, rel in _manifest_value(entry, "traces", "object", where).items():
            _check_type(f"{where}.traces.{season}", rel, "str")
            paths[(home_id, season)] = rel
    return metadata, paths


def _load_fleet(config):
    """Returns (metadata list, {(home_id, season): Trace}, season names)."""
    if config.fleet_config is not None:
        homes, traces = fleet.synth_fleet(config.fleet_config, seed=config.seed)
        metadata = [h.metadata for h in homes]
        seasons = [s.name for s in config.fleet_config.seasons]
        return metadata, traces, seasons
    manifest = Path(config.manifest)
    try:
        data = json.loads(manifest.read_text())
    except ValueError as exc:
        raise ConfigError(f"manifest {manifest} is not valid JSON: {exc}") from None
    metadata, paths = _manifest_homes(data)
    traces, seasons = {}, []
    for (home_id, season), rel in paths.items():
        if season not in seasons:
            seasons.append(season)
        trace = timeseries.ingest_trace(manifest.parent / rel, home_id)
        traces[(home_id, season)] = timeseries.impute(trace)
    return metadata, traces, seasons


def _segment_hash(trace):
    """First 16 hex digits of the SHA-256 of a segment's raw data: ``start``
    (microseconds from the epoch) and STEP_SECONDS as ``<i8``, then the seven
    fields in CSV_HEADER order as ``<f8`` (``hvac_mode`` as ``i1``), with
    every NaN in one bit pattern."""
    digest = hashlib.sha256(np.array(
        [timeseries.epoch_us(trace.start), timeseries.STEP_SECONDS], dtype="<i8").tobytes())
    for name in timeseries.CSV_HEADER[1:]:
        values = getattr(trace, name)
        if name == "hvac_mode":
            values = values.astype("i1")
        else:
            values = np.where(np.isnan(values), np.nan, values).astype("<f8")
        digest.update(values.tobytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# The fit-and-evaluate pipeline

def fit_model(kind, train, controls, order, hyper=None, home_id=""):
    """Fit one model kind to a training segment: a Posterior (bnn_rc), a
    OneROneCFit (onercone) or an ArimaxModel (arimax, persistence). Each has
    ``to_json`` for its model file."""
    if kind == "bnn_rc":
        ds = timeseries.build_regression(train, controls, order)
        return estimators.fit_bnn(ds, hyper=hyper, home_id=home_id)
    if kind == "onercone":
        return estimators.fit_1r1c(timeseries.build_regression(train, controls, 1))
    if kind in ("arimax", "persistence"):
        arima = baselines.ArimaxOrder() if kind == "arimax" else baselines.ArimaxOrder(0, 1, 0)
        return baselines.fit_arimax(train, controls, order=arima)
    raise ConfigError(f"unknown model kind {kind!r}")


def evaluate(model, test, controls):
    """(one-step RMSE, free-running RMSE or None) of a fitted model on a test
    segment. A coefficient model (bnn_rc, onercone) is scored on the test
    segment's regression rows, then also runs free from the first measured
    lags; ARIMAX has no free-running column."""
    if isinstance(model, baselines.ArimaxModel):
        pred = baselines.predict_arimax(model, test, controls)
        return estimators.rmse(pred, test.t_in[model.warmup:]), None
    dc = model.coeffs
    ds = timeseries.build_regression(test, controls, dc.order)
    one_step = estimators.rmse(estimators.predict_one_step(dc, ds), ds.targets)
    n = dc.order
    free = rcnet.simulate_difference(dc, timeseries.exog(test, controls), test.t_in[:n])
    return one_step, estimators.rmse(free[n:], test.t_in[n:])


def run_experiment(config, out_dir=None):
    """Run the configured scenario over the fleet; returns an RmseReport.

    Every scenario is one per-home loop: pick (train, test, retrain head),
    fit from scratch ("none") or transfer a source posterior (the source is
    the home's cluster representative for "cross-home", its own
    source-season fit for "cross-season"), evaluate and emit.
    """
    scenario = config.scenario
    metadata, traces, seasons = _load_fleet(config)
    metadata = sorted(metadata, key=lambda m: m.home_id)
    if scenario == "cross-season" and len(seasons) < 2 and (
            config.source_season is None or config.target_season is None):
        raise ConfigError("cross-season transfer needs two seasons")
    if scenario == "cross-home" and "bnn_rc" not in config.model_kinds:
        raise ConfigError("cross-home transfer requires the bnn_rc model kind")
    src = config.source_season or next(iter(seasons), None)
    dst = (config.target_season or seasons[1]) if scenario == "cross-season" else src
    for season in (src, dst):
        if season not in seasons:
            raise ConfigError(f"the fleet has no season {season!r}")
    present = [m for m in metadata
               if (m.home_id, src) in traces and (m.home_id, dst) in traces]
    exclusions = sorted({m.home_id for m in metadata} - {m.home_id for m in present})

    def segments(home_id):
        """(train, test, retrain head or None) of one home."""
        train, test = timeseries.split(traces[(home_id, src)],
                                       config.train_days, config.test_days)
        target = train
        if scenario == "cross-season":
            target = traces[(home_id, dst)]
            n = len(target)
            test = timeseries.slice_trace(
                target, n - config.test_days * timeseries.SAMPLES_PER_DAY, n)
        head = None
        if scenario != "none" and config.retrain_days > 0:
            head = timeseries.slice_trace(
                target, 0, config.retrain_days * timeseries.SAMPLES_PER_DAY)
        return train, test, head

    def fit(kind, home_id, train, controls):
        return fit_model(kind, train, controls, config.order, hyper=config.hyper,
                         home_id=home_id)

    sources = {}  # cluster index -> representative's posterior
    if scenario == "cross-home":
        clustering = fleet.cluster_homes(present, config.cluster_k, seed=config.seed)
        for cluster_index in range(clustering.k):
            rep_id = fleet.representative(clustering, cluster_index, present)
            train = segments(rep_id)[0]
            sources[cluster_index] = fit("bnn_rc", rep_id, train,
                                         timeseries.derive_controls(train))

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        (out_path / "models").mkdir(parents=True, exist_ok=True)
    kinds = config.model_kinds if scenario == "none" else ("bnn_rc",)
    records = []
    for meta in present:
        home_id = meta.home_id
        train, test, head = segments(home_id)
        # cross-home transfers the representative's fit and never fits this train segment
        train_controls = None if scenario == "cross-home" else timeseries.derive_controls(train)
        test_controls = timeseries.derive_controls(test)
        data_hash = _segment_hash(train)
        for kind in kinds:
            if scenario == "none":
                model = fit(kind, home_id, train, train_controls)
            else:
                source = (sources[clustering.assignments[home_id]] if scenario == "cross-home"
                          else fit("bnn_rc", home_id, train, train_controls))
                target_ds = None if head is None else timeseries.build_regression(
                    head, timeseries.derive_controls(head), config.order)
                model = estimators.transfer(source, target_ds, hyper=config.hyper,
                                            home_id=home_id)
            one_step, free = evaluate(model, test, test_controls)
            model_file = ""
            if out_path is not None:
                model_file = f"models/{kind}__{scenario}__{home_id}.json"
                (out_path / model_file).write_text(model.to_json())
            records.append({
                "home_id": home_id,
                "model": kind,
                "scenario": scenario,
                "rmse": one_step,
                "rmse_freerun": free,
                "n_train": len(train),
                "n_test": len(test),
                "model_file": model_file,
                "data_hash": data_hash,
            })

    records.sort(key=lambda r: (r["model"], r["home_id"]))
    summaries = {}
    for kind in sorted({r["model"] for r in records}):
        pairs = [(r["home_id"], r["rmse"]) for r in records if r["model"] == kind]
        summaries[f"{kind}/{scenario}"] = summarize(pairs)
    report = RmseReport(records=records, summaries=summaries, exclusions=exclusions)
    if out_path is not None:
        report.write(out_path)
    return report
