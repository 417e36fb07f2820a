"""Smoke runs of the example scripts as subprocesses: each exits 0 on a
small input. The ablation grid is the one caller that drives every
AblationFlags variant through a full training step."""

import math
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_ablation_grid_runs_every_variant():
    proc = run_script("run_ablation_grid.py", "--size", "32")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 8
    for row in rows:
        name, params, loss, _ = row.split()
        assert int(params) > 0 and math.isfinite(float(loss)), row


def test_overfit_script_runs_one_epoch(tmp_path):
    proc = run_script("run_overfit.py", "--out", str(tmp_path), "--epochs", "1", "--count", "2")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "checkpoint").exists() or any((tmp_path / "run").iterdir())
