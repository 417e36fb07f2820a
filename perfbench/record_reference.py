#!/usr/bin/env python3
"""Record perfbench/reference.json: for every seed slot, the losses of one
training epoch of each training workload and the logit summaries of every
infer_128 image, as the code of the current commit computes them.

    python3 perfbench/record_reference.py

The benchmark checks its outputs against this file, so re-record only when
a change of results is intended and reviewed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import bench_env


def _rounded(value):
    """Nine significant digits: exact for float32, far inside the check's
    tolerance for the float64 means."""
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return float(f"{value:.9g}")


def main() -> int:
    bench_env.pin_blas_threads()
    bench_env.import_samaseg()
    import workloads

    bench_env.RUN_DIR.mkdir(exist_ok=True)
    reference = {}
    for w in workloads.WORKLOADS.values():
        count = workloads.EPISODE_STEPS if w.kind == "train" else workloads.DATASET_SIZE
        slots = []
        for slot in range(workloads.SEED_SLOTS):
            with tempfile.TemporaryDirectory(dir=bench_env.RUN_DIR) as tmp:
                prep = workloads.prepare(w, slot, Path(tmp))
                runner = workloads.make_runner(w, prep, None)
                res = runner.run(max_steps=count)
            if res.failed or len(runner.outputs) != count:
                print(f"{w.name} slot {slot}: {res.errors}", file=sys.stderr)
                return 1
            slots.append([_rounded(runner.outputs[i]) for i in range(count)])
            print(f"{w.name} slot {slot} recorded", flush=True)
        reference[w.name] = slots
    lines = [f'"{name}": [\n' + ",\n".join(json.dumps(slot) for slot in slots) + "\n]"
             for name, slots in reference.items()]
    workloads.REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
