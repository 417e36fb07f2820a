#!/usr/bin/env python3
"""Append benchmark entries to BENCH_<workload>.json from perfbench/run.py.

Example, a parent checkout against this one, five seeds in interleaved
pairs:

    python3 scripts/bench_entry.py --workload infer_128 --seeds 6 7 8 9 10 \\
        --tree ../parent --tree .

For each seed every --tree runs `perfbench/run.py --trace 0` in turn, from
its own checkout, so the trees alternate on the host; every other seed
runs them in reverse order, so no tree always goes first. Then each tree makes
one `--trace 1` run on the first seed. One entry per tree is appended to
BENCH_<workload>.json in --out-dir, in --tree order; the README describes
the format.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds {seconds:g} --trace {trace}"


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The `env` record and the final JSON result line of one run.py run."""
    lines = stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def make_entry(command: str, seeds: list[int], seconds: float, runs: list[tuple[dict, dict]],
               trace: tuple[dict, dict]) -> dict:
    """One tree's entry: medians and IQRs of the end-to-end metrics over the
    `--trace 0` runs (one per seed, in order), plus the traced run's metrics."""
    results = [res for _, res in runs]
    end_to_end = {}
    for name, first in results[0]["metrics"].items():
        values = [res["metrics"][name]["value"] for res in results]
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        end_to_end[name] = {"unit": first["unit"], "median": float(med), "iqr": float(q3 - q1),
                            "runs": values}
    everything = results + [trace[1]]
    return {
        "rev": runs[0][0]["git_rev"],
        "command": command,
        "seeds": seeds,
        "seconds": seconds,
        "env": runs[0][0],
        "correct": all(res["correct"] for res in everything),
        "attempted": sum(res["attempted"] for res in everything),
        "failed": sum(res["failed"] for res in everything),
        "end_to_end": end_to_end,
        "trace": {"seed": seeds[0], "env": trace[0],
                  "metrics": {k: v["value"] for k, v in trace[1]["metrics"].items()}},
    }


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = COMMAND.format(workload=workload, seed=seed, seconds=seconds, trace=trace).split()
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    env, res = parse_run(proc.stdout)
    print(f"{tree}  seed {seed}  trace {trace}  correct {res['correct']}  failed {res['failed']}",
          flush=True)
    return env, res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--tree", type=Path, action="append", required=True,
                    help="a checkout to run; repeat to interleave several")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args()

    runs = {tree: [] for tree in args.tree}
    for i, seed in enumerate(args.seeds):
        for tree in args.tree if i % 2 == 0 else args.tree[::-1]:
            runs[tree].append(run(tree, args.workload, seed, args.seconds, 0))
    path = args.out_dir / f"BENCH_{args.workload}.json"
    entries = json.loads(path.read_text()) if path.exists() else []
    command = COMMAND.format(workload=args.workload, seed="{seed}", seconds=args.seconds, trace=0)
    for tree in args.tree:
        traced = run(tree, args.workload, args.seeds[0], args.seconds, 1)
        entries.append(make_entry(command, args.seeds, args.seconds, runs[tree], traced))
    path.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"appended {len(args.tree)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
