"""The benchmark's own checks. Run with

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

COUNTS_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, {here!r})
import bench_env, run
bench_env.pin_blas_threads()
bench_env.import_samaseg()
bench_env.RUN_DIR.mkdir(exist_ok=True)
with tempfile.TemporaryDirectory(dir=bench_env.RUN_DIR) as tmp:
    print(json.dumps(run.exact_counts({workload!r}, {seed}, Path(tmp))))
"""


def _env(**overrides):
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(overrides)
    return env


def _counts(workload: str, seed: int) -> dict:
    script = COUNTS_SCRIPT.format(here=str(HERE), workload=workload, seed=seed)
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=_env(),
                         stdout=subprocess.PIPE, text=True, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["train_overfit32", "train_desk64", "infer_128"])
def test_exact_counts_repeat_across_processes(workload):
    first = _counts(workload, seed=5)
    second = _counts(workload, seed=5)
    assert first == second
    assert all(isinstance(v, int) and v > 0 for v in first.values()), first


def _run(args, cwd=ROOT, **env):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, env=_env(**env), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_the_result_line(trace, section):
    proc = _run(["--workload", "train_overfit32", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}
    units = {m["name"]: m["unit"] for m in spec[section]}
    assert all(m["unit"] == units[name] for name, m in result["metrics"].items())
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_more_blas_threads():
    proc = _run(["--workload", "train_overfit32", "--seconds", "1"],
                OPENBLAS_NUM_THREADS="4")
    assert proc.returncode == 2
    assert "refused" in proc.stderr and proc.stdout.strip() == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "train_overfit32", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_the_workloads_run_py_accepts():
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
