"""Layered benchmark of the rctherm identification pipeline.

    python3 perfbench/run.py --workload scratch-fit --seed 1 --seconds 20 --trace 0

Run from the repository root. With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics taken from the spans. The last
line of standard output is one JSON object; the lines before it name every
metric with its unit and record the environment. Results and spans are
written under ``.perfbench/results/``. README.md explains the workloads.

A fixed probe kernel is timed between repetitions, and ``homes_per_s``
counts each repetition's wall time in probe-reference seconds, so that the
host's speed drift cancels out; the wall-clock rate is printed beside it.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("scratch-fit", "cross-home-transfer", "csv-baselines")
MODEL_KINDS = ("bnn_rc", "onercone", "arimax", "persistence")
FREERUN_KINDS = ("bnn_rc", "onercone")

#: Set-up runs this many times, and the imports are timed this many times
#: (this process plus fresh interpreters); setup_s is the median import plus
#: the median attempt, in probe-reference seconds like homes_per_s.
SETUP_ATTEMPTS = 3
IMPORT_SAMPLES = 3
#: A repetition starts while it is expected to end less than half a
#: repetition after --seconds, so the timed part ends at --seconds on average;
#: at least this many run (in trace mode, this many pairs).
MIN_REPS = 2
#: The probe kernel's time at the reference machine speed. A repetition of
#: wall time w between probes that took p1 and p2 counts as
#: w * PROBE_REF_S / mean(p1, p2) reference seconds.
PROBE_REF_S = 0.1

END_TO_END_UNITS = {"homes_per_s": "homes/s", "setup_s": "s", "peak_rss_mb": "MB"}
END_TO_END_UNITS.update({f"rmse_mean.{k}": "degF" for k in MODEL_KINDS})
END_TO_END_UNITS.update({f"rmse_freerun_mean.{k}": "degF" for k in FREERUN_KINDS})

#: (metric, unit): "module.func.field" reads the field of that function's
#: per-repetition span totals.
PER_LAYER = [
    ("estimators.fit_bnn.self_s", "s"), ("estimators.fit_bnn.calls", "count"),
    ("estimators.fit_bnn.rows", "count"), ("estimators.fit_bnn.s_per_krow", "s/krow"),
    ("estimators.transfer.self_s", "s"), ("estimators.transfer.calls", "count"),
    ("estimators.fit_1r1c.self_s", "s"), ("estimators.predict_one_step.self_s", "s"),
    ("timeseries.trace_to_csv_text.self_s", "s"),
    ("timeseries.trace_to_csv_text.calls", "count"),
    ("timeseries.trace_to_csv_text.bytes", "B"),
    ("timeseries.trace_to_csv_text.calls_per_segment", "ratio"),
    ("timeseries.ingest_trace.self_s", "s"), ("timeseries.ingest_trace.calls", "count"),
    ("timeseries.ingest_trace.rows", "count"), ("timeseries.ingest_trace.bytes", "B"),
    ("timeseries.impute.self_s", "s"),
    ("timeseries.build_regression.self_s", "s"), ("timeseries.build_regression.rows", "count"),
    ("timeseries.derive_controls.self_s", "s"),
    ("fleet.generate_trace.self_s", "s"), ("fleet.generate_trace.calls", "count"),
    ("fleet.generate_trace.samples", "count"),
    ("fleet.synth_fleet.self_s", "s"), ("fleet.synth_fleet.calls", "count"),
    ("fleet.cluster_homes.self_s", "s"), ("fleet.sse_curve.self_s", "s"),
    ("rcnet.simulate_difference.self_s", "s"), ("rcnet.simulate_difference.steps", "count"),
    ("baselines.fit_arimax.self_s", "s"), ("baselines.fit_arimax.calls", "count"),
    ("baselines.fit_arimax.warnings", "count"), ("baselines.predict_arimax.self_s", "s"),
    ("harness.run_experiment.self_s", "s"), ("harness.out_bytes", "B"),
    ("cli.main.self_s", "s"),
    ("layer_errors", "count"),
    ("trace_coverage_frac", "frac"), ("trace_overhead_frac", "frac"), ("calib_s", "s"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall time for the timed repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smallest inputs that reach the same code paths")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def probe(np):
    """Wall time of a fixed kernel that does what the pipeline does, without
    the package: format, parse and hash CSV-like text, then minibatch steps
    of a small stochastic linear fit in a Python loop. It measures the
    machine's speed.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4096, 16))
    y = x[:, 0].copy()
    mu, rho = np.zeros(16), np.full(16, -3.0)
    gc.collect()  # garbage a repetition left must not slow the probe
    t0 = time.perf_counter()
    text = "\n".join(f"{i},{i * 0.25:.4f},{i * 7 % 13}" for i in range(30_000))
    sum(float(line.split(",")[1]) for line in text.splitlines())
    hashlib.sha256(text.encode()).hexdigest()
    for _ in range(50):
        perm = rng.permutation(len(y))
        for b in range(16):
            idx = perm[b * 256:(b + 1) * 256]
            eps = rng.standard_normal(16)
            g = x[idx].T @ (x[idx] @ (mu + np.log1p(np.exp(rho)) * eps) - y[idx])
            mu -= 1e-5 * g
            rho -= 1e-5 * g * eps / (1.0 + np.exp(-rho))
    return time.perf_counter() - t0


def time_import():
    """The import time of this script's modules, numpy and the package, in
    a fresh interpreter."""
    here, src = str(Path(__file__).resolve().parent), str(ROOT / "src")
    code = (f"import sys; sys.path[:0] = [{here!r}, {src!r}]; import time, run; "
            "import numpy, workloads; print(time.perf_counter() - run.START)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def _blas_threads(np):
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def environment(np):
    import scipy
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        blas_threads = _blas_threads(np)
    except OSError:
        blas_threads = None
    return {
        "git_sha": sha, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": blas_threads,
        "machine": platform.machine(),
    }


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class Repetitions:
    """The closed loop: repetitions back to back, each output checked, with
    the probe kernel timed before the first and after every repetition."""

    def __init__(self, workload, inputs, work_dir, check, probe):
        self.workload, self.inputs, self.work_dir = workload, inputs, work_dir
        self.check = check  # (out_dir, expected, reference) -> (problems, report)
        self.probe = probe
        self.probes = []
        self.walls = {False: [], True: []}  # by traced; correct repetitions only
        self.ref_walls = {False: [], True: []}  # the same in reference seconds
        self.traced_wall = {}  # trace id -> wall of that traced repetition
        self.out_bytes = []
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def run_one(self, tracer=None):
        out = self.work_dir / f"rep{self.attempted}"
        self.attempted += 1
        if tracer is not None:
            tracer.trace_id = self.attempted
        try:
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter()
                self.workload.run(self.inputs, out)
                wall = time.perf_counter() - t0
            problems, report = self.check(out, self.inputs.expected, self.reference)
        except Exception:  # a failed repetition is counted and the loop goes on
            traceback.print_exc(file=sys.stderr)
            problems = ["raised"]
        self.probes.append(self.probe())
        if problems:
            self.failed += 1
            print(f"repetition {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            self.reference = self.reference or report
            self.walls[tracer is not None].append(wall)
            speed = PROBE_REF_S / statistics.mean(self.probes[-2:])
            self.ref_walls[tracer is not None].append(wall * speed)
            if tracer is not None:
                self.traced_wall[tracer.trace_id] = wall
            self.out_bytes.append(_dir_bytes(out))
        shutil.rmtree(out, ignore_errors=True)
        return wall if not problems else None

    def loop(self, seconds, tracer=None):
        """Repeat until the next repetition would end more than half a
        repetition after ``seconds``.

        With a tracer, repetitions alternate untraced and traced in pairs.
        """
        t0 = time.perf_counter()
        done = []
        self.probes.append(self.probe())
        while True:
            pair = [self.run_one()]
            if tracer is not None:
                pair.append(self.run_one(tracer))
            done.append(sum(w or 0.0 for w in pair))
            elapsed = time.perf_counter() - t0
            if len(done) >= MIN_REPS and elapsed + statistics.median(done) / 2 > seconds:
                return


def per_layer_metrics(tracer, reps, calib_s):
    by_rep = {}
    for span in tracer.spans:
        by_rep.setdefault(span.trace_id, []).append(span)
    rows = []
    for trace_id, rep_spans in sorted(by_rep.items()):
        if trace_id not in reps.traced_wall:
            continue  # a failed repetition
        totals = spans.layer_totals(rep_spans)
        row = {}
        for name, _ in PER_LAYER:
            func, _, field = name.rpartition(".")
            entry = totals.get(func, {})
            if field == "s_per_krow":
                rows_k = entry.get("rows", 0) / 1000.0
                row[name] = entry["self_s"] / rows_k if rows_k else 0.0
            elif field == "calls_per_segment":
                segments = len(entry.get("segments", ()))
                row[name] = entry["calls"] / segments if segments else 0.0
            elif func:
                row[name] = entry.get(field, 0)
        row["layer_errors"] = sum(e["errors"] for e in totals.values())
        self_sum = sum(e["self_s"] for e in totals.values())
        row["trace_coverage_frac"] = self_sum / reps.traced_wall[trace_id]
        rows.append(row)
    metrics = {}
    for name, _ in PER_LAYER:
        values = [r[name] for r in rows if name in r]
        if values:
            metrics[name] = statistics.median(values)
    metrics["harness.out_bytes"] = statistics.median(reps.out_bytes) if reps.out_bytes else 0
    untraced, traced = reps.walls[False], reps.walls[True]
    metrics["trace_overhead_frac"] = (statistics.median(traced) / statistics.median(untraced)
                                      - 1.0 if traced and untraced else 0.0)
    metrics["calib_s"] = calib_s
    return metrics


def main(argv=None):
    args = parse_args(argv)
    # The pipeline is a serial Python loop over small matrices. One BLAS
    # thread keeps runs steady on a small machine shared with other work;
    # the thread count is recorded in the environment line.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "rctherm" / "__init__.py").is_file():
        print(f"perfbench: no rctherm package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads
    import_wall = time.perf_counter() - START
    setup_probes = [probe(np)]

    def in_ref_s(wall):
        """Scale a set-up timing by the probes just before and just after it."""
        setup_probes.append(probe(np))
        return wall * PROBE_REF_S / statistics.mean(setup_probes[-2:])

    # this process's own import ran before any probe, so only the next one scales it
    imports = [import_wall * PROBE_REF_S / setup_probes[0]]
    imports += [in_ref_s(time_import()) for _ in range(IMPORT_SAMPLES - 1)]

    workload = workloads.WORKLOADS[args.workload]
    size = workload.quick if args.quick else workload.full
    state = ROOT / ".perfbench"
    work = state / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        setup = []
        for attempt in range(SETUP_ATTEMPTS):
            shutil.rmtree(work, ignore_errors=True)
            t0 = time.perf_counter()
            inputs = workload.inputs(args.seed, work / "inputs", size)
            warm = workload.inputs(args.seed, work / "warm", workload.quick)
            workload.run(warm, work / "warm-out")
            setup.append(in_ref_s(time.perf_counter() - t0))
        setup_s = statistics.median(imports) + statistics.median(setup)

        reps = Repetitions(workload, inputs, work, workloads.check_output,
                           functools.partial(probe, np))
        tracer = spans.Tracer() if args.trace else None
        reps.loop(args.seconds, tracer)
        calib_s = statistics.median(reps.probes)

        attempted, failed = reps.attempted, reps.failed
        samples = len(reps.walls[False])
        if args.trace:
            metrics = per_layer_metrics(tracer, reps, calib_s)
            units = dict(PER_LAYER)
            tracer.write(results / f"{args.workload}-seed{args.seed}-spans.json")
        else:
            attempted += 1
            try:
                quality = workloads.rmse_means(workload.quality(work, size))
            except Exception:  # counted as a failed operation, like a repetition
                traceback.print_exc(file=sys.stderr)
                failed += 1
                quality = {}
            # Throughput of the loop: total homes over total time in reference
            # seconds. The host's speed drifts by 30% and more for minutes at
            # a time, and a wall-clock rate follows it (README.md, "Sizing
            # measurements"); that rate is printed alongside.
            ref_s = sum(reps.ref_walls[False])
            metrics = {
                "homes_per_s": reps.inputs.homes * samples / ref_s if samples else 0.0,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            for name in END_TO_END_UNITS:
                if name not in metrics:
                    metrics[name] = quality.get(name, 0.0)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(np)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "environment": env,
        "untraced_walls_s": reps.walls[False], "traced_walls_s": reps.walls[True],
        "untraced_ref_walls_s": reps.ref_walls[False], "probe_ref_s": PROBE_REF_S,
        "probes_s": reps.probes, "setup_probes_s": setup_probes,
        "setup_attempts_ref_s": setup, "import_samples_ref_s": imports,
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))

    print("environment " + json.dumps(env, sort_keys=True))
    print(f"calib_s = {calib_s:.6g} s (median of {len(reps.probes)} probes)")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} failed)")
    print(f"repetitions: {samples} untraced, {len(reps.walls[True])} traced")
    if samples:
        homes = reps.inputs.homes
        print(f"wall-clock homes/s over the {samples} untraced repetitions = "
              f"{homes * samples / sum(reps.walls[False]):.6g} total, "
              f"{homes / statistics.median(reps.walls[False]):.6g} median")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
