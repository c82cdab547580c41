"""The README's quick start runs as documented."""

import math
import re
from dataclasses import replace
from pathlib import Path

from rctherm import fleet
from rctherm import timeseries as ts
from test_fleet import SHOULDER

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"## Quick start\s+```python\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no Quick start python block"
    config = fleet.FleetConfig(n_homes=1, seasons=(replace(SHOULDER, days=3),))
    _, traces = fleet.synth_fleet(config, seed=0)
    ts.write_trace_csv(traces[("home0000", SHOULDER.name)], tmp_path / "home.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(block.group(1), str(README), "exec"), {})
    # the block ends by printing the one-step RMSE of the fit
    assert math.isfinite(float(capsys.readouterr().out.split()[-1]))
