"""Experiment orchestration: fit/transfer/evaluate pipelines over fleets,
RMSE reports with quartile summaries, and a persistent model library.

The headline metric is teacher-forced one-step RMSE on the held-out test
segment; free-running simulation RMSE is emitted as a secondary column for
coefficient-based models. All runs are deterministic given the config.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import baselines, estimators, fleet, rcnet, timeseries
from .errors import ConfigError, DataError, NotFoundError

MODEL_KINDS = ("bnn_rc", "onercone", "arimax", "persistence")
SCENARIOS = ("none", "cross-home", "cross-season")
RETRAIN_CHOICES = (0, 1, 7)
CONFIG_SCHEMA_VERSION = 1


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

    def to_dict(self):
        out = {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "model_kinds": list(self.model_kinds),
            "order": self.order,
            "train_days": self.train_days,
            "test_days": self.test_days,
            "scenario": self.scenario,
            "retrain_days": self.retrain_days,
            "cluster_k": self.cluster_k,
            "source_season": self.source_season,
            "target_season": self.target_season,
            "seed": self.seed,
            "hyper": self.hyper.to_dict(),
        }
        if self.manifest is not None:
            out["manifest"] = str(self.manifest)
        if self.fleet_config is not None:
            fc = self.fleet_config
            out["fleet"] = {
                "n_homes": fc.n_homes,
                "order": fc.order,
                "measurement_noise_std": fc.measurement_noise_std,
                "floor_area_range": list(fc.floor_area_range),
                "year_built_range": list(fc.year_built_range),
                "lift_range": list(fc.lift_range),
                "seasons": [s.to_dict() for s in fc.seasons],
            }
        return out

    @classmethod
    def from_dict(cls, data):
        if data.get("schema_version") != CONFIG_SCHEMA_VERSION:
            raise ConfigError(f"unsupported config schema {data.get('schema_version')!r}")
        fleet_config = None
        if "fleet" in data:
            fc = data["fleet"]
            fleet_config = fleet.FleetConfig(
                n_homes=fc["n_homes"],
                order=fc.get("order", 2),
                measurement_noise_std=fc.get("measurement_noise_std", 0.05),
                floor_area_range=tuple(fc.get("floor_area_range", (800.0, 4000.0))),
                year_built_range=tuple(fc.get("year_built_range", (1950, 2020))),
                lift_range=tuple(fc.get("lift_range", (20.0, 60.0))),
                seasons=tuple(fleet.SeasonConfig(**s) for s in fc.get("seasons", [{}])),
            )
        hyper = estimators.TrainingConfig(**data.get("hyper", {}))
        return cls(
            fleet_config=fleet_config,
            manifest=data.get("manifest"),
            model_kinds=tuple(data.get("model_kinds", ("bnn_rc",))),
            order=data.get("order", 2),
            train_days=data.get("train_days", 75),
            test_days=data.get("test_days", 15),
            scenario=data.get("scenario", "none"),
            retrain_days=data.get("retrain_days", 0),
            cluster_k=data.get("cluster_k", 0),
            source_season=data.get("source_season"),
            target_season=data.get("target_season"),
            seed=data.get("seed", 0),
            hyper=hyper,
        )

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

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
                         "n_train", "n_test", "seed", "model_file", "data_hash"])
        for rec in self.records:
            writer.writerow([
                rec["home_id"], rec["model"], rec["scenario"],
                repr(rec["rmse"]),
                "" if rec["rmse_freerun"] is None else repr(rec["rmse_freerun"]),
                rec["n_train"], rec["n_test"], rec["seed"],
                rec["model_file"], rec["data_hash"],
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

def _load_fleet(config):
    """Returns (metadata list, {(home_id, season): Trace}, season names)."""
    if config.fleet_config is not None:
        homes, traces = fleet.synth_fleet(config.fleet_config, seed=config.seed)
        metadata = [h.metadata for h in homes]
        seasons = [s.name for s in config.fleet_config.seasons]
        return metadata, traces, seasons
    manifest = json.loads(Path(config.manifest).read_text())
    base = Path(config.manifest).parent
    metadata, traces = [], {}
    seasons = []
    for entry in manifest["homes"]:
        meta = fleet.HomeMetadata(
            home_id=entry["home_id"],
            floor_area=entry["metadata"]["floor_area"],
            year_built=entry["metadata"]["year_built"],
            province=entry["metadata"].get("province", ""),
            city=entry["metadata"].get("city", ""),
        )
        metadata.append(meta)
        for season, rel in entry["traces"].items():
            if season not in seasons:
                seasons.append(season)
            trace = timeseries.ingest_trace(base / rel, meta.home_id)
            traces[(meta.home_id, season)] = timeseries.impute(trace)
    return metadata, traces, seasons


def _segment_hash(trace):
    """First 16 hex digits of the SHA-256 of a segment's raw data: ``start``
    (microseconds from the epoch) and ``step`` as ``<i8``, then the seven
    fields in CSV_HEADER order as ``<f8`` (``hvac_mode`` as ``i1``), with
    every NaN in one bit pattern."""
    digest = hashlib.sha256(np.array(
        [timeseries.epoch_us(trace.start), trace.step], dtype="<i8").tobytes())
    for name in timeseries.CSV_HEADER[1:]:
        values = getattr(trace, name)
        if name == "hvac_mode":
            values = values.astype("i1")
        else:
            values = np.where(np.isnan(values), np.nan, values).astype("<f8")
        digest.update(values.tobytes())
    return digest.hexdigest()[:16]


def _home_seed(config, index):
    # stable per-home fitting seed derived from the experiment seed
    return config.seed + 7919 * (index + 1)


# ---------------------------------------------------------------------------
# Per-home fit/evaluate primitives

def _eval_coeff_model(dc, test_trace, test_controls, order):
    """(one-step RMSE, free-running RMSE) on the test segment."""
    ds = timeseries.build_regression(test_trace, test_controls, order)
    pred = estimators.predict_one_step(dc, ds)
    one_step = estimators.rmse(pred, ds.targets)
    u = np.column_stack([
        test_trace.t_out,
        test_controls.k_heat.astype(float),
        test_controls.k_cool.astype(float),
    ])
    free = rcnet.simulate_difference(dc, u, test_trace.t_in[:order])
    free_rmse = estimators.rmse(free[order:], test_trace.t_in[order:])
    return one_step, free_rmse


def _fit_and_eval(kind, config, train, test, seed, home_id):
    """Fit one model kind and evaluate; returns (rmse, freerun, model_json)."""
    train_controls = timeseries.derive_controls(train)
    test_controls = timeseries.derive_controls(test)
    if kind == "bnn_rc":
        ds = timeseries.build_regression(train, train_controls, config.order)
        posterior = estimators.fit_bnn(ds, hyper=config.hyper, seed=seed, home_id=home_id)
        dc = estimators.posterior_to_coeffs(posterior)
        one_step, free = _eval_coeff_model(dc, test, test_controls, config.order)
        return one_step, free, posterior.to_json()
    if kind == "onercone":
        fit = estimators.fit_1r1c(train, train_controls)
        pred = estimators.predict_1r1c(fit, test, test_controls)
        one_step = estimators.rmse(pred, test.t_in[1:])
        dc = rcnet.DiffCoeffs(order=1,
                              s=np.array([[0.0, 0.0, 0.0],
                                          [fit.a, fit.b, -fit.c]]),
                              e=np.array([fit.a - 1.0]))
        u = np.column_stack([test.t_out, test_controls.k_heat.astype(float),
                             test_controls.k_cool.astype(float)])
        free = rcnet.simulate_difference(dc, u, test.t_in[:1])
        free_rmse = estimators.rmse(free[1:], test.t_in[1:])
        model_json = json.dumps({"kind": "onercone", "a": fit.a, "b": fit.b,
                                 "c": fit.c, "valid": fit.valid,
                                 "residual_norm": fit.residual_norm}, sort_keys=True)
        return one_step, free_rmse, model_json
    if kind in ("arimax", "persistence"):
        order = baselines.ArimaxOrder() if kind == "arimax" else baselines.ArimaxOrder(0, 1, 0)
        model = baselines.fit_arimax(train, train_controls, order=order, seed=seed)
        pred = baselines.predict_arimax(model, test, test_controls)
        one_step = estimators.rmse(pred, test.t_in[model.warmup:])
        return one_step, None, model.to_json()
    raise ConfigError(f"unknown model kind {kind!r}")


def _head_days(trace, days):
    return timeseries.slice_trace(trace, 0, days * timeseries.SAMPLES_PER_DAY)


def run_experiment(config, out_dir=None):
    """Run the configured scenario over the fleet; returns an RmseReport."""
    metadata, traces, seasons = _load_fleet(config)
    metadata = sorted(metadata, key=lambda m: m.home_id)
    out_path = Path(out_dir) if out_dir is not None else None
    models_dir = None
    if out_path is not None:
        models_dir = out_path / "models"
        models_dir.mkdir(parents=True, exist_ok=True)

    records, exclusions = [], []

    def emit(home_id, kind, scenario, one_step, free, train, test, seed, model_json):
        model_file = ""
        if models_dir is not None:
            model_file = f"models/{kind}__{scenario}__{home_id}.json"
            (out_path / model_file).write_text(model_json)
        records.append({
            "home_id": home_id,
            "model": kind,
            "scenario": scenario,
            "rmse": one_step,
            "rmse_freerun": free,
            "n_train": len(train),
            "n_test": len(test),
            "seed": seed,
            "model_file": model_file,
            "data_hash": _segment_hash(train),
        })

    if config.scenario == "none":
        season = config.source_season or seasons[0]
        for idx, meta in enumerate(metadata):
            trace = traces.get((meta.home_id, season))
            if trace is None:
                exclusions.append(meta.home_id)
                continue
            train, test = timeseries.split(trace, config.train_days, config.test_days)
            seed = _home_seed(config, idx)
            for kind in config.model_kinds:
                one_step, free, model_json = _fit_and_eval(
                    kind, config, train, test, seed, meta.home_id)
                emit(meta.home_id, kind, "none", one_step, free, train, test,
                     seed, model_json)

    elif config.scenario == "cross-home":
        season = config.source_season or seasons[0]
        present = [m for m in metadata if (m.home_id, season) in traces]
        exclusions = [m.home_id for m in metadata if (m.home_id, season) not in traces]
        if "bnn_rc" not in config.model_kinds:
            raise ConfigError("cross-home transfer requires the bnn_rc model kind")
        k = config.cluster_k
        if k == 0:
            points = np.array([m.features for m in present])
            points = (points - points.mean(axis=0)) / np.where(
                points.std(axis=0) == 0, 1.0, points.std(axis=0))
            k_max = min(10, len(points))
            sses = fleet.sse_curve(points, k_max, seed=config.seed)
            k, _ = fleet.select_k(fleet.diminishing_return(sses))
        clustering = fleet.cluster_homes(present, k, seed=config.seed)

        rep_models = {}
        for cluster_index in range(k):
            rep_id = fleet.representative(clustering, cluster_index, present)
            rep_idx = next(i for i, m in enumerate(present) if m.home_id == rep_id)
            trace = traces[(rep_id, season)]
            train, _ = timeseries.split(trace, config.train_days, config.test_days)
            controls = timeseries.derive_controls(train)
            ds = timeseries.build_regression(train, controls, config.order)
            rep_models[cluster_index] = estimators.fit_bnn(
                ds, hyper=config.hyper, seed=_home_seed(config, rep_idx), home_id=rep_id)

        for idx, meta in enumerate(present):
            trace = traces[(meta.home_id, season)]
            train, test = timeseries.split(trace, config.train_days, config.test_days)
            source = rep_models[clustering.assignments[meta.home_id]]
            seed = _home_seed(config, idx)
            target_ds = None
            if config.retrain_days > 0:
                head = _head_days(train, config.retrain_days)
                controls = timeseries.derive_controls(head)
                target_ds = timeseries.build_regression(head, controls, config.order)
            posterior = estimators.transfer(source, target_ds, hyper=config.hyper,
                                            seed=seed, home_id=meta.home_id)
            dc = estimators.posterior_to_coeffs(posterior)
            test_controls = timeseries.derive_controls(test)
            one_step, free = _eval_coeff_model(dc, test, test_controls, config.order)
            emit(meta.home_id, "bnn_rc", "cross-home", one_step, free, train, test,
                 seed, posterior.to_json())

    else:  # cross-season
        if len(seasons) < 2 and (config.source_season is None or config.target_season is None):
            raise ConfigError("cross-season transfer needs two seasons")
        src = config.source_season or seasons[0]
        dst = config.target_season or seasons[1]
        for idx, meta in enumerate(metadata):
            src_trace = traces.get((meta.home_id, src))
            dst_trace = traces.get((meta.home_id, dst))
            if src_trace is None or dst_trace is None:
                exclusions.append(meta.home_id)
                continue
            seed = _home_seed(config, idx)
            train, _ = timeseries.split(src_trace, config.train_days, config.test_days)
            controls = timeseries.derive_controls(train)
            ds = timeseries.build_regression(train, controls, config.order)
            source = estimators.fit_bnn(ds, hyper=config.hyper, seed=seed,
                                        home_id=meta.home_id)
            target_ds = None
            if config.retrain_days > 0:
                head = _head_days(dst_trace, config.retrain_days)
                head_controls = timeseries.derive_controls(head)
                target_ds = timeseries.build_regression(head, head_controls, config.order)
            posterior = estimators.transfer(source, target_ds, hyper=config.hyper,
                                            seed=seed, home_id=meta.home_id)
            dc = estimators.posterior_to_coeffs(posterior)
            n_dst = len(dst_trace)
            test = timeseries.slice_trace(
                dst_trace, n_dst - config.test_days * timeseries.SAMPLES_PER_DAY, n_dst)
            test_controls = timeseries.derive_controls(test)
            one_step, free = _eval_coeff_model(dc, test, test_controls, config.order)
            emit(meta.home_id, "bnn_rc", "cross-season", one_step, free, train, test,
                 seed, posterior.to_json())

    records.sort(key=lambda r: (r["model"], r["home_id"]))
    summaries = {}
    for kind in sorted({r["model"] for r in records}):
        pairs = [(r["home_id"], r["rmse"]) for r in records if r["model"] == kind]
        summaries[f"{kind}/{config.scenario}"] = summarize(pairs)
    report = RmseReport(records=records, summaries=summaries,
                        exclusions=sorted(exclusions))
    if out_path is not None:
        report.write(out_path)
    return report


# ---------------------------------------------------------------------------
# Model library

class ModelLibrary:
    """put/get/list of serialized models keyed by (cluster, season, kind)."""

    def __init__(self, store_dir):
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, cluster, season, kind):
        return self.store_dir / f"{kind}__c{int(cluster)}__{season}.json"

    def put(self, cluster, season, kind, model_json):
        self._path(cluster, season, kind).write_text(model_json)

    def get(self, cluster, season, kind):
        path = self._path(cluster, season, kind)
        if not path.exists():
            raise NotFoundError(f"no model for cluster={cluster} season={season} kind={kind}")
        return path.read_text()

    def list(self):
        out = []
        for path in sorted(self.store_dir.glob("*__c*__*.json")):
            kind, cluster, season = path.stem.split("__")
            out.append({"kind": kind, "cluster": int(cluster[1:]), "season": season})
        return out

    def get_for_home(self, metadata, clustering, season, kind="bnn_rc"):
        """The metadata-only lookup path: assign the home to its cluster and
        return that cluster's stored model."""
        cluster = fleet.assign(metadata, clustering)
        return self.get(cluster, season, kind)
