"""Smoke runs of the example scripts as subprocesses: each exits 0 on a
small input. The ablation grid is the one caller that drives every
AblationFlags variant through a full training step. The benchmark entry
writer is checked on canned run output, without running the benchmark, and
the A/B timer runs a few pairs of its conv, predict and attention probes."""

import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_run(rev, peak, correct=True):
    env = {"git_rev": rev, "nproc": 2}
    result = {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
              "metrics": {"peak_rss_mib": {"value": peak, "unit": "MiB"}}}
    return f"workload infer_128\nenv {json.dumps(env)}\n  report line\n{json.dumps(result)}\n"


def test_bench_entry_summarises_runs_per_tree():
    bench = load_script("bench_entry.py")
    runs = [bench.parse_run(fake_run("abc", peak)) for peak in (170.0, 172.0, 171.0, 180.0, 171.5)]
    trace = bench.parse_run(fake_run("abc", 47.0, correct=False))
    entry = bench.make_entry("cmd", [6, 7, 8, 9, 10], 30.0, runs, trace)
    peak = entry["end_to_end"]["peak_rss_mib"]
    assert (entry["rev"], entry["env"]["nproc"], entry["seeds"]) == ("abc", 2, [6, 7, 8, 9, 10])
    assert (peak["median"], peak["iqr"], peak["unit"]) == (171.5, 1.0, "MiB")
    assert peak["runs"] == [170.0, 172.0, 171.0, 180.0, 171.5]
    assert entry["trace"]["metrics"] == {"peak_rss_mib": 47.0}
    assert (entry["correct"], entry["attempted"], entry["failed"]) == (False, 60, 1)


def test_ab_runs_the_conv_probe_head_against_head():
    if subprocess.run(["git", "-C", str(SCRIPTS), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")
    proc = run_script("ab.py", "--base", "HEAD", "--head", "HEAD", "--probe", "conv",
                      "--shape", "1,4,16,16", "--out-ch", "4", "--pairs", "4")
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert re.search(r"95% interval \[\S+, \S+\] ms, head faster in \d of 4 pairs$", last), last



@pytest.mark.parametrize("probe", [["predict", "--size", "32"],
                                   ["attention", "--kind", "local", "--shape", "1,8,16,16"],
                                   ["attention", "--kind", "global", "--shape", "1,8,16,16"]],
                         ids=["predict", "attention-local", "attention-global"])
def test_ab_runs_the_predict_and_attention_probes(probe):
    if subprocess.run(["git", "-C", str(SCRIPTS), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")
    proc = run_script("ab.py", "--base", "HEAD", "--head", "HEAD", "--probe", *probe,
                      "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"probe {probe[0]}, 2 pairs"), proc.stdout
    assert "head faster in" in proc.stdout.splitlines()[-1]
