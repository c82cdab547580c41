"""Tests of the benchmark itself, on its quick inputs.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rctherm import timeseries  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
#: The registered workloads plus cross-home-transfer, which runs by hand
ALL_NAMES = list(bench.WORKLOAD_NAMES)


def _bench(root, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=300)


def _quick(name, trace):
    proc = _bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    return {name: m["value"] for name, m in result["metrics"].items()}, result


def test_spec_matches_the_metrics_the_runner_emits():
    assert ALL_NAMES == list(workloads.WORKLOADS)
    assert set(NAMES) < set(ALL_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == dict(bench.PER_LAYER)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_quick_run_reports_every_end_to_end_metric(name):
    metrics, result = _quick(name, trace=0)
    units = {n: m["unit"] for n, m in result["metrics"].items()}
    assert units == bench.END_TO_END_UNITS
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", ALL_NAMES)
def test_quick_traced_run_attributes_time_to_layers(name):
    metrics, result = _quick(name, trace=1)
    assert set(metrics) == set(dict(bench.PER_LAYER))
    assert metrics["layer_errors"] == 0
    # self times of all spans cover the traced repetition's wall time
    assert 0.97 < metrics["trace_coverage_frac"] <= 1.0
    if name == "csv-baselines":
        assert metrics["estimators.fit_bnn.calls"] == 0
        assert metrics["timeseries.ingest_trace.calls"] == 1
        assert metrics["timeseries.ingest_trace.rows"] == 4 * timeseries.SAMPLES_PER_DAY
        assert metrics["cli.main.self_s"] > 0
        # each train segment is serialised once per model kind
        assert metrics["timeseries.trace_to_csv_text.calls_per_segment"] == 3
    else:
        assert metrics["timeseries.ingest_trace.calls"] == 0
        assert metrics["fleet.synth_fleet.calls"] == 1
        assert metrics["estimators.fit_bnn.calls"] >= 1
    if name == "cross-home-transfer":
        # two cluster source fits, then one refit per home
        assert metrics["estimators.fit_bnn.calls"] == 5
        assert metrics["estimators.transfer.calls"] == 3
    rows = json.loads((ROOT / ".perfbench" / "results" / f"{name}-seed3-spans.json").read_text())
    ids = {r["span_id"] for r in rows}
    assert all(r["parent"] is None or r["parent"] in ids for r in rows)
    assert len({r["trace_id"] for r in rows}) >= 1
    assert {r["name"] for r in rows if r["parent"] is None} == (
        {"cli.main"} if name == "csv-baselines" else {"harness.run_experiment"})


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_csv_inputs_follow_the_seed_and_hold_short_and_long_gaps(tmp_path):
    size = workloads.WORKLOADS["csv-baselines"].quick
    paths = [workloads.write_csv_fleet(tmp_path / d, seed, size, workloads.CLASSICAL_KINDS)
             for d, seed in (("a", 5), ("b", 5), ("c", 6))]
    texts = [(p.parent / "home0000.csv").read_text() for p in paths]
    assert texts[0] == texts[1] != texts[2]

    raw = timeseries.ingest_trace(paths[0].parent / "home0000.csv", "home0000")
    assert len(raw) == size.days * timeseries.SAMPLES_PER_DAY
    missing = np.isnan(raw.t_in) | np.isnan(raw.t_out) | (raw.hvac_mode == timeseries.MODE_MISSING)
    edges = np.flatnonzero(np.diff(np.concatenate([[0], missing.astype(int), [0]])))
    runs = edges[1::2] - edges[::2]
    assert (runs <= timeseries.MAX_GAP_STEPS).any()
    assert (runs > timeseries.MAX_GAP_STEPS).any()
    filled = timeseries.impute(raw)
    full = timeseries.build_regression(filled, timeseries.derive_controls(filled), 2)
    assert len(full) < len(filled) - 2  # long-gap windows are dropped


def _write_report(out, rmse="0.1"):
    out.mkdir(parents=True, exist_ok=True)
    (out / "records.csv").write_text(
        "home_id,model,scenario,rmse,rmse_freerun,n_train,n_test,seed,model_file,data_hash\n"
        f"home0000,bnn_rc,none,{rmse},0.5,10,5,1,,abc\n")
    (out / "summary.json").write_text("{}")


def test_output_check_flags_missing_non_finite_and_changed_reports(tmp_path):
    expected = frozenset({("home0000", "bnn_rc")})
    _write_report(tmp_path / "a")
    problems, reference = workloads.check_output(tmp_path / "a", expected)
    assert problems == []
    assert workloads.check_output(tmp_path / "a", expected, reference)[0] == []

    _write_report(tmp_path / "b", rmse="0.2")
    assert "differ" in workloads.check_output(tmp_path / "b", expected, reference)[0][0]
    _write_report(tmp_path / "c", rmse="nan")
    assert "nan" in workloads.check_output(tmp_path / "c", expected)[0][0]
    more = expected | {("home0001", "bnn_rc")}
    assert "missing" in workloads.check_output(tmp_path / "a", more)[0][0]


def test_repetition_walls_are_scaled_by_the_neighbouring_probes(tmp_path):
    ref = bench.PROBE_REF_S
    timings = iter([ref, 2 * ref, 2 * ref])

    class Idle:
        def run(self, inputs, out):
            out.mkdir()

    reps = bench.Repetitions(Idle(), types.SimpleNamespace(expected=None), tmp_path,
                             lambda out, expected, reference: ([], b""),
                             lambda: next(timings))
    reps.probes.append(reps.probe())
    reps.run_one()
    reps.run_one()
    (w1, w2), (r1, r2) = reps.walls[False], reps.ref_walls[False]
    # the machine ran at 2/3, then 1/2 of the reference speed
    assert r1 == pytest.approx(w1 * 2 / 3) and r2 == pytest.approx(w2 / 2)


def test_tracer_counts_warnings_errors_and_outermost_calls():
    tracer = spans.Tracer()

    def noisy(depth):
        if depth:
            return traced(depth - 1)
        warnings.warn("overflow", RuntimeWarning)
        return 1

    traced = tracer._wrap("toy.noisy", noisy)
    failing = tracer._wrap("toy.failing", lambda: 1 / 0)
    assert traced(2) == 1
    with pytest.raises(ZeroDivisionError):
        failing()
    totals = spans.layer_totals(tracer.spans)
    assert totals["toy.noisy"]["calls"] == 1
    assert totals["toy.noisy"]["warnings"] == 1
    assert totals["toy.failing"]["errors"] == 1


def test_tracer_patches_every_binding_and_restores_it(monkeypatch):
    from rctherm import fleet, rcnet
    original = rcnet.simulate_difference
    # a caller that imported the function by name looks it up in its own module
    monkeypatch.setattr(fleet, "simulate_difference", original, raising=False)
    with spans.Tracer():
        assert rcnet.simulate_difference is not original
        assert fleet.simulate_difference is rcnet.simulate_difference
        assert rcnet.simulate_difference.__wrapped__ is original
    assert rcnet.simulate_difference is original
    assert fleet.simulate_difference is original
