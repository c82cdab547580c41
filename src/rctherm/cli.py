"""Command-line interface.

Exit codes: 0 success, 1 usage error (an experiment config file that
cannot be read among them), 2 data error (any other file that cannot be
read or written among them: a trace, posterior, metadata, parameter or
manifest file, or an output), 3 convergence error. Every error ends in one
``error:`` line on standard error, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import estimators, fleet, harness, rcnet, timeseries
from .errors import ConfigError, ConvergenceError, DataError, RcthermError


def _add_common(parser):
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")


def _add_seed(parser):
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")


def build_parser():
    parser = argparse.ArgumentParser(prog="rctherm",
                                     description="Grey-box RC thermal model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic fleet")
    _add_common(p)
    _add_seed(p)
    p.add_argument("--homes", type=int, default=10)
    p.add_argument("--days", type=int, default=90)

    p = sub.add_parser("ingest", help="validate and normalize a trace CSV")
    _add_common(p)
    p.add_argument("trace", type=Path)
    p.add_argument("--home-id", default="home")

    p = sub.add_parser("fit", help="fit a model to a single home's trace CSV")
    _add_common(p)
    p.add_argument("trace", type=Path)
    p.add_argument("--kind", choices=harness.MODEL_KINDS, default="bnn_rc")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--home-id", default="home")

    p = sub.add_parser("simulate", help="forward-simulate RC parameters")
    _add_common(p)
    p.add_argument("params", type=Path, help="RcParams JSON file")
    p.add_argument("--days", type=int, default=1)
    p.add_argument("--t-out", type=float, default=30.0)

    p = sub.add_parser("coeffs", help="RC parameters to difference coefficients")
    _add_common(p)
    p.add_argument("params", type=Path, help="RcParams JSON file")

    p = sub.add_parser("cluster", help="cluster homes by metadata CSV")
    _add_common(p)
    _add_seed(p)
    p.add_argument("metadata", type=Path)
    p.add_argument("-k", type=int, default=0, help="cluster count (0 = elbow rule)")

    p = sub.add_parser("transfer", help="retrain a posterior on new data")
    _add_common(p)
    p.add_argument("model", type=Path, help="source Posterior JSON")
    p.add_argument("trace", type=Path, help="target trace CSV (may be short)")
    p.add_argument("--home-id", default="home")

    p = sub.add_parser("experiment", help="run a configured experiment")
    _add_common(p)
    p.add_argument("--config", type=Path, required=True, help="JSON config file")

    return parser


def _load_trace(path, home_id):
    return timeseries.impute(timeseries.ingest_trace(path, home_id))


def _cmd_synth(args):
    season = fleet.SeasonConfig(days=args.days)
    config = fleet.FleetConfig(n_homes=args.homes, seasons=(season,))
    homes, traces = fleet.synth_fleet(config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fleet.write_metadata_csv([h.metadata for h in homes], out / "metadata.csv")
    manifest = {"homes": []}
    for home in homes:
        entry = {
            "home_id": home.metadata.home_id,
            "metadata": {
                "floor_area": home.metadata.floor_area,
                "year_built": home.metadata.year_built,
                "province": home.metadata.province,
                "city": home.metadata.city,
            },
            "truth": home.truth.to_dict(),
            "traces": {},
        }
        for season_cfg in home.seasons:
            rel = f"{home.metadata.home_id}__{season_cfg.name}.csv"
            timeseries.write_trace_csv(traces[(home.metadata.home_id, season_cfg.name)],
                                       out / rel)
            entry["traces"][season_cfg.name] = rel
        manifest["homes"].append(entry)
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
    print(f"wrote {len(homes)} homes to {out}")
    return 0


def _cmd_ingest(args):
    trace = _load_trace(args.trace, args.home_id)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dest = out / f"{args.home_id}__normalized.csv"
    timeseries.write_trace_csv(trace, dest)
    print(f"normalized {len(trace)} samples to {dest}")
    return 0


def _cmd_fit(args):
    trace = _load_trace(args.trace, args.home_id)
    model = harness.fit_model(args.kind, trace, timeseries.derive_controls(trace),
                              args.order, home_id=args.home_id)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dest = out / f"{args.home_id}__{args.kind}.json"
    dest.write_text(model.to_json())
    print(f"wrote {dest}")
    return 0


def _cmd_simulate(args):
    params = rcnet.RcParams.from_json(args.params.read_text())
    ss = rcnet.build_state_space(params)
    ds = rcnet.discretize(ss, timeseries.STEP_SECONDS)
    steps = args.days * timeseries.SAMPLES_PER_DAY
    u = np.column_stack([np.full(steps, args.t_out),
                         np.ones(steps), np.zeros(steps)])
    y = rcnet.simulate_state_space(ds, ss, u, rcnet.initial_state(params, args.t_out, args.t_out))
    for value in y:
        print(repr(float(value)))
    return 0


def _cmd_coeffs(args):
    params = rcnet.RcParams.from_json(args.params.read_text())
    dc = rcnet.analytic_coefficients(params, timeseries.STEP_SECONDS)
    print(dc.to_json())
    return 0


def _cmd_cluster(args):
    metadata = fleet.read_metadata_csv(args.metadata)
    clustering = fleet.cluster_homes(metadata, args.k, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "clustering.json").write_text(clustering.to_json())
    print(f"k={clustering.k} sse={clustering.sse!r}")
    return 0


def _cmd_transfer(args):
    source = estimators.Posterior.from_json(args.model.read_text())
    trace = _load_trace(args.trace, args.home_id)
    controls = timeseries.derive_controls(trace)
    ds = timeseries.build_regression(trace, controls, source.order)
    posterior = estimators.transfer(source, ds, home_id=args.home_id)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dest = out / f"{args.home_id}__transferred.json"
    dest.write_text(posterior.to_json())
    print(f"wrote {dest}")
    return 0


def _cmd_experiment(args):
    try:
        text = args.config.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    config = harness.ExperimentConfig.from_json(text)
    report = harness.run_experiment(config, out_dir=args.out)
    for key, summary in sorted(report.summaries.items()):
        print(f"{key}: mean={summary['mean']:.4f} median={summary['median']:.4f} "
              f"outliers={len(summary['outliers'])}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "coeffs": _cmd_coeffs,
    "cluster": _cmd_cluster,
    "transfer": _cmd_transfer,
    "experiment": _cmd_experiment,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, RcthermError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
