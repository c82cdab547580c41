"""The README's quick start and command-line examples run as documented."""

import json
import math
import re
import shlex
from dataclasses import replace
from pathlib import Path

from rctherm import cli, fleet, harness, rcnet
from rctherm import estimators as est
from rctherm import timeseries as ts
from test_fleet import SHOULDER

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, language):
    block = re.search(rf"## {heading}\s+```{language}\n(.*?)```", README.read_text(), re.S)
    assert block, f"README has no {heading} {language} block"
    return block.group(1)


def _shoulder_trace(days=3):
    config = fleet.FleetConfig(n_homes=1, seasons=(replace(SHOULDER, days=days),))
    _, traces = fleet.synth_fleet(config, seed=0)
    return traces[("home0000", SHOULDER.name)]


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    block = _block("Quick start", "python")
    ts.write_trace_csv(_shoulder_trace(), tmp_path / "home.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    # the block ends by printing the one-step RMSE of the fit
    assert math.isfinite(float(capsys.readouterr().out.split()[-1]))


def test_readme_command_line_runs(tmp_path, monkeypatch):
    commands = [shlex.split(line, comments=True)
                for line in _block("Command line", "sh").splitlines() if line.strip()]
    # the files the examples read, beside the fleet/ that `synth` writes
    trace = _shoulder_trace()
    ts.write_trace_csv(trace, tmp_path / "trace.csv")
    ts.write_trace_csv(ts.slice_trace(trace, 0, ts.SAMPLES_PER_DAY), tmp_path / "day1.csv")
    rows = ts.build_regression(trace, ts.derive_controls(trace), 2)
    (tmp_path / "posterior.json").write_text(est.fit_bnn(rows).to_json())
    params = rcnet.RcParams(resistances=(1.0, 2.0), capacitances=(0.1, 0.2),
                            q_heat=15.0, q_cool=12.0)
    (tmp_path / "params.json").write_text(json.dumps(params.to_dict()))
    experiment = harness.ExperimentConfig(
        fleet_config=fleet.FleetConfig(n_homes=2, seasons=(replace(SHOULDER, days=4),)),
        train_days=3, test_days=1)
    (tmp_path / "experiment.json").write_text(experiment.to_json())
    monkeypatch.chdir(tmp_path)
    assert commands
    for argv in commands:
        assert argv[0] == "rctherm", argv
        assert cli.main(argv[1:]) == 0, argv
