"""The benchmark's workloads: seeded inputs, the timed call, and the output check.

Every workload is a closed loop in one process: a repetition starts when the
previous one returns. README.md records why each workload exists and the
measurements behind its size.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from rctherm import cli, estimators, fleet, harness, timeseries

#: The acceptance suite's 90-day shoulder season. AUTO mode, so both the
#: heating and the cooling rule fire.
SHOULDER = dict(
    name="shoulder", outdoor_mean=70.0, outdoor_daily_amplitude=25.0,
    outdoor_seasonal_amplitude=5.0, weather_noise_std=2.0,
    setheat_day=69.0, setheat_night=66.0, setcool_day=74.0, setcool_night=77.0,
    hvac_mode=timeseries.MODE_AUTO)

#: The only TrainingConfig field a workload sets; it matches the fleet's
#: measurement noise. Optimiser fields stay at their defaults.
NOISE_STD = 0.05

#: Seed of the fixed inputs behind the RMSE metrics. It does not follow
#: --seed, so those metrics repeat exactly and move only when a fit changes.
QUALITY_SEED = 2009

CLASSICAL_KINDS = ("onercone", "arimax", "persistence")


@dataclass(frozen=True)
class Size:
    homes: int
    days: int
    train_days: int
    test_days: int
    cluster_k: int = 0
    short_gaps: int = 0     # dropped runs of 1..MAX_GAP_STEPS rows
    blank_fields: int = 0   # single blanked fields
    outages: int = 0        # dropped runs longer than MAX_GAP_STEPS


def _season(days):
    return fleet.SeasonConfig(days=days, **SHOULDER)


def _fleet_config(size):
    return fleet.FleetConfig(n_homes=size.homes, seasons=(_season(size.days),),
                             measurement_noise_std=NOISE_STD)


def _experiment(size, seed, kinds, scenario="none", retrain_days=0, manifest=None):
    """A synthetic-fleet config, or a manifest config when ``manifest`` is given."""
    return harness.ExperimentConfig(
        fleet_config=None if manifest else _fleet_config(size), manifest=manifest,
        model_kinds=kinds, train_days=size.train_days, test_days=size.test_days,
        scenario=scenario, retrain_days=retrain_days, cluster_k=size.cluster_k,
        seed=seed, hyper=estimators.TrainingConfig(noise_std=NOISE_STD))


@dataclass
class Inputs:
    """What one repetition needs: the entry-point argument and the records
    a correct report holds."""

    arg: object
    expected: frozenset  # of (home_id, kind)

    @property
    def homes(self):
        return len({home for home, _ in self.expected})


def _expected(homes, kinds):
    # synth_fleet names homes home0000, home0001, ...
    return frozenset((f"home{i:04d}", kind) for i in range(homes) for kind in kinds)


class SyntheticWorkload:
    """``harness.run_experiment`` on a fleet that the harness synthesises."""

    def __init__(self, name, full, quick, scenario="none", retrain_days=0):
        self.name, self.full, self.quick = name, full, quick
        self.scenario, self.retrain_days = scenario, retrain_days

    def inputs(self, seed, work_dir, size):
        config = _experiment(size, seed, ("bnn_rc",), self.scenario, self.retrain_days)
        return Inputs(config, _expected(size.homes, ("bnn_rc",)))

    def run(self, inputs, out_dir):
        harness.run_experiment(inputs.arg, out_dir=out_dir)

    def quality(self, work_dir, size):
        """(report dir, expected records) on the fixed quality inputs: this
        workload's scenario, plus every other model kind on the same homes."""
        if self.scenario == "none":
            runs = [_experiment(replace(size, homes=1), QUALITY_SEED, harness.MODEL_KINDS)]
        else:
            # k=1 over two homes: one source fit, transferred to both homes
            runs = [_experiment(replace(size, homes=2, cluster_k=1), QUALITY_SEED,
                                ("bnn_rc",), self.scenario, self.retrain_days),
                    _experiment(replace(size, homes=1), QUALITY_SEED, CLASSICAL_KINDS)]
        reports = []
        for i, config in enumerate(runs):
            out = work_dir / f"quality{i}"
            harness.run_experiment(config, out_dir=out)
            reports.append((out, _expected(config.fleet_config.n_homes, config.model_kinds)))
        return reports


class CsvWorkload:
    """``rctherm experiment`` through ``cli.main`` on trace CSVs with gaps."""

    kinds = CLASSICAL_KINDS

    def __init__(self, name, full, quick):
        self.name, self.full, self.quick = name, full, quick

    def inputs(self, seed, work_dir, size, kinds=None):
        kinds = kinds or self.kinds
        return Inputs(write_csv_fleet(work_dir, seed, size, kinds), _expected(size.homes, kinds))

    def run(self, inputs, out_dir):
        # the CLI prints a summary line per model kind; keep it off our stdout
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["experiment", "--config", str(inputs.arg), "--out", str(out_dir)])
        if code != 0:
            raise RuntimeError(f"rctherm experiment exited with code {code}")

    def quality(self, work_dir, size):
        inputs = self.inputs(QUALITY_SEED, work_dir / "quality-in", replace(size, homes=1),
                             kinds=harness.MODEL_KINDS)
        out = work_dir / "quality0"
        self.run(inputs, out)
        return [(out, inputs.expected)]


def inject_gaps(lines, rng, size):
    """Drop rows and blank fields of a trace CSV's data lines.

    Returns the kept lines. Short runs of dropped rows and blanked fields stay
    within MAX_GAP_STEPS, so impute fills them; outages are longer, so
    build_regression drops the lag windows that touch them. The first and
    last rows stay, so the grid keeps its full length.
    """
    n = len(lines)
    drop = np.zeros(n, dtype=bool)
    for count, lo, hi in ((size.short_gaps, 1, timeseries.MAX_GAP_STEPS),
                          (size.outages, timeseries.MAX_GAP_STEPS + 1,
                           4 * timeseries.MAX_GAP_STEPS)):
        for _ in range(count):
            length = int(rng.integers(lo, hi + 1))
            start = int(rng.integers(1, n - 1 - length))
            drop[start:start + length] = True
    fields = [line.split(",") for line in lines]
    for _ in range(size.blank_fields):
        row = int(rng.integers(1, n - 1))
        col = int(rng.integers(1, len(timeseries.CSV_HEADER)))
        fields[row][col] = ""
    return [",".join(f) for f, dropped in zip(fields, drop) if not dropped]


def write_csv_fleet(work_dir, seed, size, kinds):
    """Synthesise a fleet, write it as gapped trace CSVs with a manifest and an
    experiment config, and return the config's path."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    homes, traces = fleet.synth_fleet(_fleet_config(size), seed=seed)
    gap_rng = np.random.default_rng([seed, 1])
    manifest = {"homes": []}
    for home in homes:
        meta = home.metadata
        text = timeseries.trace_to_csv_text(traces[(meta.home_id, "shoulder")])
        header, *lines = text.splitlines()
        kept = inject_gaps(lines, gap_rng, size)
        rel = f"{meta.home_id}.csv"
        (work_dir / rel).write_text("\n".join([header, *kept]) + "\n")
        manifest["homes"].append({
            "home_id": meta.home_id,
            "metadata": {"floor_area": meta.floor_area, "year_built": meta.year_built,
                         "province": meta.province, "city": meta.city},
            "traces": {"shoulder": rel},
        })
    manifest_path = work_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2))
    config = _experiment(size, seed, tuple(kinds), manifest=str(manifest_path.resolve()))
    config_path = work_dir / "experiment.json"
    config_path.write_text(config.to_json())
    return config_path


def read_records(out_dir):
    with open(Path(out_dir) / "records.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def check_output(out_dir, expected, reference=None):
    """Problems with one repetition's report; empty when it is correct.

    Every home x kind record must be present, every RMSE finite, and
    ``records.csv`` and ``summary.json`` byte-identical to ``reference``
    (the first correct repetition on the same inputs) when one is given.
    Returns (problems, report bytes).
    """
    out_dir = Path(out_dir)
    records = read_records(out_dir)
    problems = []
    present = {(r["home_id"], r["model"]) for r in records}
    missing = sorted(expected - present)
    if missing:
        problems.append(f"missing records {missing}")
    for r in records:
        for key in ("rmse", "rmse_freerun"):
            if r[key] != "" and not math.isfinite(float(r[key])):
                problems.append(f"{key} of {r['home_id']}/{r['model']} is {r[key]}")
    report = b"".join((out_dir / name).read_bytes() for name in ("records.csv", "summary.json"))
    if reference is not None and report != reference:
        problems.append("report bytes differ from the first repetition on these inputs")
    return problems, report


def rmse_means(reports):
    """Mean one-step and free-running RMSE per model kind over checked
    (report dir, expected records) pairs."""
    by_kind = {}
    for out, expected in reports:
        problems, _ = check_output(out, expected)
        if problems:
            raise ValueError(f"quality report {out.name}: {'; '.join(problems)}")
        for r in read_records(out):
            entry = by_kind.setdefault(r["model"], ([], []))
            entry[0].append(float(r["rmse"]))
            if r["rmse_freerun"] != "":
                entry[1].append(float(r["rmse_freerun"]))
    metrics = {}
    for kind, (one_step, free) in by_kind.items():
        metrics[f"rmse_mean.{kind}"] = float(np.mean(one_step))
        if free:
            metrics[f"rmse_freerun_mean.{kind}"] = float(np.mean(free))
    return metrics


WORKLOADS = {
    w.name: w for w in (
        SyntheticWorkload("scratch-fit", full=Size(2, 90, 75, 15), quick=Size(1, 4, 3, 1)),
        SyntheticWorkload("cross-home-transfer", full=Size(9, 90, 75, 15, cluster_k=3),
                          quick=Size(3, 4, 3, 1, cluster_k=2),
                          scenario="cross-home", retrain_days=1),
        CsvWorkload("csv-baselines",
                    full=Size(2, 90, 75, 15, short_gaps=30, blank_fields=120, outages=3),
                    quick=Size(1, 4, 3, 1, short_gaps=4, blank_fields=12, outages=1)),
    )
}
