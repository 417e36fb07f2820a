#!/usr/bin/env python3
"""samaseg benchmark: three seeded workloads, end-to-end metrics, and a
traced run with per-module metrics.

    python3 perfbench/run.py --workload train_desk64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, each in a fresh process

Each workload is a closed loop with one client: the next training step or
image starts when the previous one has finished, as for a researcher who
waits on each. BLAS runs on one thread. Inputs come from `--seed` alone.

  train_overfit32  scripts/run_overfit.py's recipe through samaseg.train.train
                   (32 px, depths 1,1,1,1, base 16, batch 2, 8 images)
  train_desk64     desk_default() through samaseg.train.train (64 px,
                   depths 2,2,2,2, batch 2)
  infer_128        the `samaseg eval` loop (forward, argmax, DSC/NSD) on the
                   desk-default model at 128 px, batch 1, from a checkpoint

With --trace 0 the last line of standard output is one JSON object whose
metrics are the end-to-end metrics. A "step" is one training step on the
training workloads and one image on infer_128, so

  samples_per_s  is train_samples_per_s, resp. infer_images_per_s
  step_ms_p50    is train_step_ms_p50,   resp. infer_ms_p50
  step_ms_tail   is train_step_ms_tail,  resp. infer_ms_tail: the workload's
                 fixed tail percentile, which leaves at least ten samples
                 beyond it in a 30 s window
  peak_rss_mib   high-water RSS of the process
  setup_s        median of five set-ups, each importing samaseg in a fresh
                 interpreter and doing its data, model, checkpoint and
                 warm-up work

failed_ratio is `failed / attempted` of the same line. With --trace 1 the
run is split into an untraced and a traced half, followed by a counting
pass and layer probes, and the metrics are the per-module ones; the spans
are written to .perfbench_run/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_env

SETUP_REPS = 5
PROBE_REPS = 3
WORKLOAD_NAMES = ("train_overfit32", "train_desk64", "infer_128")
# Names under which the report prints the end-to-end metrics, per kind of workload.
REPORT_NAMES = {
    "train": {"samples_per_s": "train_samples_per_s", "step_ms_p50": "train_step_ms_p50",
              "step_ms_tail": "train_step_ms_tail"},
    "infer": {"samples_per_s": "infer_images_per_s", "step_ms_p50": "infer_ms_p50",
              "step_ms_tail": "infer_ms_tail"},
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- one workload, in this process --------------------------------------------

class Totals:
    """Attempted and failed steps over every loop of a run, warm-up included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, res):
        self.attempted += res.attempted
        self.failed += res.failed
        self.errors += res.errors


def import_in_fresh_interpreter():
    """What every `samaseg` invocation pays first: a new interpreter that
    imports the CLI and, through it, numpy, scipy and every samaseg module."""
    env = dict(os.environ, PYTHONPATH=str(bench_env.ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import samaseg.cli"], env=env, check=True)


def set_up(w, slot, reference, workdir: Path, totals: Totals):
    """SETUP_REPS full set-ups: import, data, model, checkpoint and warm-up.
    Returns the last runner, the last prepared state and every set-up's
    seconds."""
    import workloads

    times = []
    for r in range(SETUP_REPS):
        t0 = time.perf_counter()
        import_in_fresh_interpreter()
        prep = workloads.prepare(w, slot, workdir / f"setup{r}")
        runner = workloads.make_runner(w, prep, reference)
        totals.add(runner.run(max_steps=w.warmup))
        times.append(time.perf_counter() - t0)
    return runner, prep, times


def _percentile(values, pct):
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def end_to_end(w, res, setup_times) -> dict:
    ms = [s * 1e3 for s in res.step_s]
    return {
        "samples_per_s": (res.samples / res.elapsed_s, "1/s"),
        "step_ms_p50": (_percentile(ms, 50), "ms"),
        "step_ms_tail": (_percentile(ms, w.tail_pct), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def print_end_to_end(w, metrics, res, totals, setup_times):
    names = REPORT_NAMES[w.kind]
    n = len(res.step_s)
    beyond = sum(1 for s in res.step_s if s * 1e3 > metrics["step_ms_tail"][0])
    notes = {
        "step_ms_p50": f"{n} {'steps' if w.kind == 'train' else 'images'}",
        "step_ms_tail": f"p{w.tail_pct} of {n}, {beyond} beyond",
        "setup_s": "median of " + ", ".join(f"{t:.3f}" for t in setup_times),
    }
    for key, (value, unit) in metrics.items():
        label = names.get(key, key)
        print(f"  {label:<22} {value:>12.4f} {unit:<4} {notes.get(key, '')}")
    ratio = totals.failed / totals.attempted if totals.attempted else 1.0
    print(f"  {'failed_ratio':<22} {ratio:>12.4f} {'':<4} {totals.failed} of {totals.attempted}")


def count_pass(tracer, w, prep) -> dict:
    """One forward (and loss, when training) with tape-node, MAC and
    tracemalloc counting; keeps the probed layers' first inputs."""
    import tracemalloc

    import numpy as np
    import samaseg.train
    from samaseg.profiler import count_macs
    from samaseg.tensor import Tensor

    batch = prep.dataset[:w.batch_size]
    images = np.stack([s.image for s in batch])
    masks = np.stack([s.mask for s in batch])
    tracer.nodes = 0
    t0 = time.perf_counter()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with count_macs() as macs:
            outputs = [prep.model(Tensor(images))]
        if w.kind == "train":
            outputs.append(samaseg.train.seg_loss(outputs[0], masks, prep.model.cfg.num_classes))
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del outputs
    spans = tracer.totals(t0)
    captured = sum(x.nbytes for _, x in tracer.captured.values())
    ckpt_bytes = sum(p.stat().st_size for p in prep.checkpoint_dir.iterdir())
    return {
        "tensor.graph_nodes": tracer.nodes,
        "ssm.graph_nodes": spans["ssm.fwd"]["nodes"],
        "crmsm.graph_nodes": spans["crmsm.fwd"]["nodes"],
        "layers.conv2d.calls": spans["layers.conv2d"]["calls"],
        "model.macs": macs.total,
        "model.params": prep.model.num_params(),
        "io.checkpoint_bytes": ckpt_bytes,
        "tensor.graph_retained_mib": (retained - captured) / 2**20,
    }


EXACT_COUNTS = ("tensor.graph_nodes", "ssm.graph_nodes", "crmsm.graph_nodes",
                "layers.conv2d.calls", "model.macs", "model.params", "io.checkpoint_bytes")


def exact_counts(workload: str, seed: int, workdir: Path) -> dict:
    """The counts that must repeat exactly for a workload and seed."""
    import tracing
    import workloads

    w = workloads.WORKLOADS[workload]
    prep = workloads.prepare(w, workloads.slot_of(seed), workdir)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.counting_nodes():
        counts = count_pass(tracer, w, prep)
    return {k: counts[k] for k in EXACT_COUNTS}


def traced_run(w, seed, reference, workdir: Path, seconds: float, totals: Totals):
    import tracing
    import workloads

    slot = workloads.slot_of(seed)
    tracer = tracing.Tracer()
    t_origin = time.perf_counter()
    with tracer.installed():
        runner, prep, _ = set_up(w, slot, reference, workdir, totals)
    untraced = runner.run(deadline=time.perf_counter() + seconds / 2)
    with tracer.installed():
        t0 = time.perf_counter()
        traced = runner.run(deadline=t0 + seconds / 2)
        t1 = time.perf_counter()
    totals.add(untraced)
    totals.add(traced)
    if not (untraced.step_s and traced.step_s):
        return None
    window = tracer.totals(t0, t1)
    steps = len(traced.step_s)
    with tracer.installed(), tracer.counting_nodes():
        counts = count_pass(tracer, w, prep)

    probes = {}
    for name in tracing.PROBED:
        module, x = tracer.captured[name]
        fwd, bwd = tracing.probe(module, x, PROBE_REPS)
        probes[name] = {"shape": x.shape, "fwd_s": fwd, "bwd_s": bwd}
        if name != "crmsm.scale.fwd":
            big = tracing.scale_up(name, x)
            fwd4, bwd4 = tracing.probe(module, big, PROBE_REPS, backward=name == "ssm.fwd")
            probes[name].update(shape4x=big.shape, fwd4x_s=fwd4, bwd4x_s=bwd4)

    def ms_per_step(name):
        return window.get(name, {}).get("incl_s", 0.0) * 1e3 / steps

    def median_ms(name):
        return statistics.median(tracer.durations(name)) * 1e3

    ssm, crmsm = probes["ssm.fwd"], probes["crmsm.scale.fwd"]
    local, glob = probes["attention.local.fwd"], probes["attention.global.fwd"]
    traced_p50 = _percentile([s * 1e3 for s in traced.step_s], 50)
    untraced_p50 = _percentile([s * 1e3 for s in untraced.step_s], 50)
    metrics = {
        "ssm.fwd_ms": (ms_per_step("ssm.fwd"), "ms"),
        "ssm.bwd_ms": (ssm["bwd_s"] * 1e3, "ms"),
        "ssm.bwd_scale4x": (ssm["bwd4x_s"] / ssm["bwd_s"], "ratio"),
        "ssm.graph_nodes": (counts["ssm.graph_nodes"], "count"),
        "crmsm.fwd_ms": (ms_per_step("crmsm.fwd"), "ms"),
        "crmsm.bwd_ms": (crmsm["bwd_s"] * 1e3, "ms"),
        "crmsm.graph_nodes": (counts["crmsm.graph_nodes"], "count"),
        "tensor.graph_nodes": (counts["tensor.graph_nodes"], "count"),
        "tensor.backward_ms": (ms_per_step("tensor.backward"), "ms"),
        "tensor.gc_pause_ms": (ms_per_step(tracing.GC_SPAN), "ms"),
        "tensor.graph_retained_mib": (counts["tensor.graph_retained_mib"], "MiB"),
        "layers.conv2d.ms": (ms_per_step("layers.conv2d"), "ms"),
        "layers.conv2d.calls": (counts["layers.conv2d.calls"], "count"),
        "layers.adaptive_avg_pool2d.ms": (ms_per_step("layers.adaptive_avg_pool2d"), "ms"),
        "attention.local.fwd_ms": (ms_per_step("attention.local.fwd"), "ms"),
        "attention.global.fwd_ms": (ms_per_step("attention.global.fwd"), "ms"),
        "attention.local.bwd_ms": (local["bwd_s"] * 1e3, "ms"),
        "attention.global.bwd_ms": (glob["bwd_s"] * 1e3, "ms"),
        "attention.local.fwd_scale4x": (local["fwd4x_s"] / local["fwd_s"], "ratio"),
        "attention.global.fwd_scale4x": (glob["fwd4x_s"] / glob["fwd_s"], "ratio"),
        "sama.fwd_ms": (ms_per_step("sama.fwd"), "ms"),
        "model.fwd_ms": (ms_per_step("model.fwd"), "ms"),
        "model.seg_loss_ms": (ms_per_step("model.seg_loss"), "ms"),
        "model.macs": (counts["model.macs"], "count"),
        "model.gmacs_per_s": (counts["model.macs"] / 1e6 / ms_per_step("model.fwd"), "GMAC/s"),
        "model.params": (counts["model.params"], "count"),
        "optim.step_ms": (ms_per_step("optim.step"), "ms"),
        "metrics.evaluate_pair_ms": (ms_per_step("metrics.evaluate_pair"), "ms"),
        "io.save_checkpoint_ms": (median_ms("io.save_checkpoint"), "ms"),
        "io.load_checkpoint_ms": (median_ms("io.load_checkpoint"), "ms"),
        "io.checkpoint_bytes": (counts["io.checkpoint_bytes"], "bytes"),
        "data.generate_dataset_ms": (median_ms("data.generate_dataset"), "ms"),
        "data.load_dataset_ms": (median_ms("data.load_dataset"), "ms"),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
    }

    print(f"traced half: {steps} steps; untraced p50 {untraced_p50:.3f} ms, "
          f"traced p50 {traced_p50:.3f} ms")
    print(tracing.format_table(window, steps))
    for name, p in probes.items():
        line = (f"  probe {name:<22} {str(p['shape']):<18} fwd {p['fwd_s'] * 1e3:9.3f} ms  "
                f"bwd {p['bwd_s'] * 1e3:9.3f} ms")
        if "shape4x" in p:
            line += f"  | 4x {str(p['shape4x'])}: fwd {p['fwd4x_s'] * 1e3:.3f} ms"
            if p["bwd4x_s"] is not None:
                line += f", bwd {p['bwd4x_s'] * 1e3:.3f} ms"
        print(line)
    spans_path = bench_env.RUN_DIR / f"spans_{w.name}_seed{seed}.jsonl"
    tracer.write(spans_path, t_origin)
    print(f"spans written to {spans_path.relative_to(bench_env.ROOT)}")
    return metrics


def run_workload(args) -> int:
    bench_env.import_samaseg()
    import workloads
    threads = bench_env.check_blas_threads()

    w = workloads.WORKLOADS[args.workload]
    slot = workloads.slot_of(args.seed)
    reference = workloads.load_reference(w, slot)
    print(f"workload {w.name}  seed {args.seed} (input slot {slot})  "
          f"{args.seconds:g} s  trace {args.trace}")
    print("env " + json.dumps(bench_env.environment_record(threads)))
    bench_env.RUN_DIR.mkdir(exist_ok=True)
    totals = Totals()
    with tempfile.TemporaryDirectory(dir=bench_env.RUN_DIR) as tmp:
        if args.trace:
            metrics = traced_run(w, args.seed, reference, Path(tmp), args.seconds, totals)
        else:
            runner, _, setup_times = set_up(w, slot, reference, Path(tmp), totals)
            res = runner.run(deadline=time.perf_counter() + args.seconds)
            totals.add(res)
            metrics = None
            if res.step_s:
                metrics = end_to_end(w, res, setup_times)
                print_end_to_end(w, metrics, res, totals, setup_times)
    if metrics is None:
        print("no step completed; errors:\n" + "\n".join(totals.errors), file=sys.stderr)
        return 1
    for err in totals.errors:
        print("check failed: " + err.strip().replace("\n", " | "))
    print(json.dumps({
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# -- every workload, each in its own process ----------------------------------

def run_all(args) -> int:
    """Every workload in turn, each in a fresh process with the pinned
    environment; each prints its own report and result line."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = subprocess.run(cmd).returncode or status
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        bench_env.pin_blas_threads()
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except bench_env.RefusedToRun as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
