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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, estimators, fleet, rcnet, timeseries
from .errors import ConfigError, DataError, InsufficientDataError, InvalidParameterError
from .jsonfile import JsonFile

MODEL_KINDS = ("bnn_rc", "onercone", "arimax", "persistence")
SCENARIOS = ("none", "cross-home", "cross-season")
RETRAIN_CHOICES = (0, 1, 7)
CONFIG_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class ExperimentConfig(JsonFile, error=ConfigError, name="config",
                       constants={"schema_version": CONFIG_SCHEMA_VERSION}, indent=2):
    fleet_config: fleet.FleetConfig | None = field(default=None, metadata={"key": "fleet"})
    manifest: str | None = None
    model_kinds: tuple[str, ...] = ("bnn_rc",)
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
        if not self.model_kinds:
            raise ConfigError("model_kinds must name at least one kind")
        repeated = sorted({k for k in self.model_kinds if self.model_kinds.count(k) > 1})
        if repeated:
            raise ConfigError(f"model_kinds repeats {repeated}")
        if (self.fleet_config is None) == (self.manifest is None):
            raise ConfigError("config needs exactly one of a synthetic fleet and a manifest")
        for name in ("order", "train_days", "test_days"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)!r}")
        for name in ("cluster_k", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be at least 0, got {getattr(self, name)!r}")


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

@dataclass(frozen=True)
class ManifestMetadata:
    """A manifest home's metadata; fleet.HomeMetadata checks its values
    when the fleet loads."""

    floor_area: float
    year_built: int
    province: str = ""
    city: str = ""


@dataclass(frozen=True)
class ManifestHome:
    """One home of a manifest."""

    home_id: str
    metadata: ManifestMetadata
    traces: dict[str, str]  # season -> trace CSV path, relative to the manifest
    truth: dict | None = None  # the RcParams of a synthetic home (rctherm synth)


@dataclass(frozen=True)
class Manifest(JsonFile, error=ConfigError, name="manifest", indent=2):
    """The homes of a trace-CSV fleet (a config's ``manifest``)."""

    homes: tuple[ManifestHome, ...]


def _load_fleet(config):
    """Returns (metadata list, {(home_id, season): Trace}, season names)."""
    if config.fleet_config is not None:
        homes, traces = fleet.synth_fleet(config.fleet_config, seed=config.seed)
        metadata = [h.metadata for h in homes]
        seasons = [s.name for s in config.fleet_config.seasons]
        return metadata, traces, seasons
    manifest = Path(config.manifest)
    homes = Manifest.from_json(manifest.read_bytes()).homes
    metadata, first = [], {}  # first: home_id -> index of its first home
    for i, home in enumerate(homes):
        if first.setdefault(home.home_id, i) != i:
            raise ConfigError(f"manifest.homes[{i}].home_id {home.home_id!r} repeats "
                              f"manifest.homes[{first[home.home_id]}]'s")
        try:
            metadata.append(fleet.HomeMetadata(home.home_id, **asdict(home.metadata)))
        except InvalidParameterError as exc:  # its message starts with the key
            key = "" if str(exc).startswith("home_id") else "metadata."
            raise ConfigError(f"manifest.homes[{i}].{key}{exc}") from None
    if not any(home.traces for home in homes):
        raise ConfigError("the manifest lists no trace")
    traces, seasons = {}, []
    for home in homes:
        for season, rel in home.traces.items():
            if season not in seasons:
                seasons.append(season)
            trace = timeseries.ingest_trace(manifest.parent / rel, home.home_id)
            traces[(home.home_id, season)] = timeseries.impute(trace)
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

def fit_model(kind, train, order, hyper=None, home_id="", source=None):
    """Fit one model kind to a training segment: a Posterior (bnn_rc), a
    OneROneCFit (onercone) or an ArimaxModel (arimax, persistence), each a
    JsonFile whose ``to_json`` is its model file. A ``source`` Posterior
    makes the bnn_rc fit a transfer onto the segment's rows."""
    controls = timeseries.derive_controls(train)
    if kind == "bnn_rc":
        ds = timeseries.build_regression(train, controls, order)
        if source is None:
            return estimators.fit_bnn(ds, hyper=hyper, home_id=home_id)
        return estimators.transfer(source, ds, hyper=hyper, home_id=home_id)
    if source is not None:
        raise ConfigError(f"a source posterior transfers to bnn_rc alone, got {kind!r}")
    if kind == "onercone":
        return estimators.fit_1r1c(timeseries.build_regression(train, controls, 1))
    if kind in ("arimax", "persistence"):
        return baselines.fit_arimax(train, controls,
                                    order=(1, 1, 2) if kind == "arimax" else (0, 1, 0))
    raise ConfigError(f"unknown model kind {kind!r}")


def evaluate(model, test):
    """(one-step RMSE, free-running RMSE or None) of a fitted model on a test
    segment. A coefficient model (bnn_rc, onercone) is scored on the test
    segment's regression rows, then also runs free from the first measured
    lags; ARIMAX has no free-running column. A free run that leaves the
    float range (that of an unstable equation) scores inf."""
    controls = timeseries.derive_controls(test)
    if isinstance(model, baselines.ArimaxModel):
        pred = baselines.predict_arimax(model, test, controls)
        return estimators.rmse(pred, test.t_in[model.warmup:]), None
    dc = model.coeffs
    ds = timeseries.build_regression(test, controls, dc.order)
    one_step = estimators.rmse(estimators.predict_one_step(dc, ds), ds.targets)
    n = dc.order
    free = rcnet.simulate_difference(dc, timeseries.exog(test, controls), test.t_in[:n])
    if not np.isfinite(free).all():  # it overflowed, and may then turn nan (inf - inf)
        return one_step, np.inf
    with np.errstate(over="ignore"):  # its squared errors may overflow
        return one_step, estimators.rmse(free[n:], test.t_in[n:])


def run_experiment(config, out_dir=None):
    """Run the configured scenario over the fleet; returns an RmseReport.

    Every scenario is one per-home loop: pick (train, test, retrain head),
    fit from scratch ("none") or transfer a source posterior (the source is
    the home's cluster representative for "cross-home", its own
    source-season fit for "cross-season"), evaluate and emit.
    """
    scenario = config.scenario
    if scenario != "none" and tuple(config.model_kinds) != ("bnn_rc",):
        raise ConfigError(f"{scenario} transfer fits the bnn_rc model kind alone, "
                          f"got {list(config.model_kinds)}")
    metadata, traces, seasons = _load_fleet(config)
    metadata = sorted(metadata, key=lambda m: m.home_id)
    src = dst = config.source_season or seasons[0]
    if scenario == "cross-season":
        # the target defaults to the first season, in fleet order, that is not the source
        dst = config.target_season or next((s for s in seasons if s != src), None)
        if dst is None:
            raise ConfigError("cross-season transfer needs two seasons")
        if dst == src:
            raise ConfigError(f"cross-season transfer needs a target season other "
                              f"than its source {src!r}")
    for season in (src, dst):
        if season not in seasons:
            raise ConfigError(f"the fleet has no season {season!r}")
    present = [m for m in metadata
               if (m.home_id, src) in traces and (m.home_id, dst) in traces]
    if scenario == "cross-season" and not present:
        raise ConfigError(f"no home has both a {src!r} and a {dst!r} trace")
    exclusions = sorted({m.home_id for m in metadata} - {m.home_id for m in present})

    def segments(home_id):
        """(train, test, retrain head or None) of one home."""
        train, test = timeseries.split(traces[(home_id, src)],
                                       config.train_days, config.test_days)
        target = train
        if scenario == "cross-season":
            # the retrain head from the start of the target season, the test
            # segment from its end: they must not overlap
            target = traces[(home_id, dst)]
            n = len(target)
            need = (config.retrain_days + config.test_days) * timeseries.SAMPLES_PER_DAY
            if n < need:
                raise InsufficientDataError(
                    f"{home_id}'s {dst!r} trace has {n} samples, need {need} for "
                    f"{config.retrain_days} retrain and {config.test_days} test days")
            test = timeseries.slice_trace(
                target, n - config.test_days * timeseries.SAMPLES_PER_DAY, n)
        head = None
        if scenario != "none" and config.retrain_days > 0:
            head = timeseries.slice_trace(
                target, 0, config.retrain_days * timeseries.SAMPLES_PER_DAY)
        return train, test, head

    sources = []  # cross-home: one posterior per cluster, fit on its representative
    if scenario == "cross-home":
        clustering = fleet.cluster_homes(present, config.cluster_k, seed=config.seed)
        for cluster_index in range(clustering.k):
            rep_id = fleet.representative(clustering, cluster_index, present)
            sources.append(fit_model("bnn_rc", segments(rep_id)[0], config.order,
                                     config.hyper, rep_id))

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        (out_path / "models").mkdir(parents=True, exist_ok=True)
    records = []
    for meta in present:
        home_id = meta.home_id
        train, test, head = segments(home_id)
        data_hash = _segment_hash(train)
        for kind in config.model_kinds:
            model = (sources[clustering.assignments[home_id]] if scenario == "cross-home"
                     else fit_model(kind, train, config.order, config.hyper, home_id))
            if head is not None:  # a transfer retrained on the head
                model = fit_model(kind, head, config.order, config.hyper, home_id, source=model)
            one_step, free = evaluate(model, test)
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
