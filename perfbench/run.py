"""Benchmark of the lexfuse library on seeded synthetic workloads.

Run from the root of a lexfuse checkout:

    python3 perfbench/run.py --workload short_posts --seed 1 --seconds 40 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the
last line of standard output is one JSON object with the end-to-end
metrics; with ``--trace 1`` the workload runs once untraced and once
with span wrappers installed, and the last line carries the per-layer
metrics.  The line before it is a JSON report with every sample count,
the environment and any failed check.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3
# One BLAS thread unless the caller chose otherwise: on a 2-core machine
# two threads trained the desk-scale model ~15% slower, and stalled
# whenever another process held the second core.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _import_lexfuse() -> None:
    """Import lexfuse from this checkout's source tree, never elsewhere."""
    if not (SRC / "lexfuse" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lexfuse sources at {SRC / 'lexfuse'}")
    sys.path.insert(0, str(SRC))
    import lexfuse

    if Path(lexfuse.__file__).resolve().parent != (SRC / "lexfuse").resolve():
        sys.exit(f"perfbench: imported lexfuse from {lexfuse.__file__}, not from {SRC}")


def percentiles(samples: list) -> list:
    """The 1st to 99th percentiles of ``samples``."""
    return statistics.quantiles(samples, n=100, method="inclusive")


def end_to_end(out, setup_s: list) -> dict:
    """Metric name -> (value, unit, sample count)."""

    def median_of(metric: str, unit: str) -> tuple:
        values = out.samples[metric]
        return statistics.median(values), unit, len(values)

    return {
        "train_ex_per_s": median_of("train_ex_per_s", "ex/s"),
        "eval_ex_per_s": median_of("eval_ex_per_s", "ex/s"),
        "predict_p50_ms": median_of("predict_ms", "ms"),
        "predict_p95_ms": median_of("predict_p95_ms", "ms"),
        "dev_auc": median_of("dev_auc", "ratio"),
        "vectors_load_s": median_of("vectors_load_s", "s"),
        "catalog_s": median_of("catalog_s", "s"),
        "ckpt_load_s": median_of("ckpt_load_s", "s"),
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def per_layer(tracer, traced_out, untraced_out, ceiling: float) -> dict:
    """Metric name -> (value, unit, sample count) from one traced run."""
    from tracing import LAYER_PATCHES

    selfs = tracer.self_times()
    init_name = "pipeline.ModelParams.initialize"
    selfs[init_name] = tracer.self_times(within="pipeline.load_checkpoint").get(init_name, (0.0, 0))
    metrics: dict = {}
    for p in LAYER_PATCHES:
        self_s, calls = selfs.get(p.name, (0.0, 0))
        metrics[f"{p.name}.self_s"] = (self_s, "s", calls)
        metrics[f"{p.name}.calls"] = (calls, "count", calls)
    c = tracer.counters
    slots = c.get("pipeline.collate.slots", 0.0)
    metrics["pipeline.collate.pad_frac"] = (
        c.get("pipeline.collate.pad_slots", 0.0) / slots if slots else 0.0, "ratio", 1)
    metrics["fusion.deep_fusion.fused_positions"] = (
        c.get("fusion.deep_fusion.fused_positions", 0.0), "count", 1)
    enc_s = tracer.inclusive_time("encoder.encoder_layer")
    for kind in ("computed", "useful"):
        total = 0.0
        for part in ("proj", "attn", "ffn"):
            flops = c.get(f"encoder.{part}.{kind}_flop", 0.0)
            total += flops
            metrics[f"encoder.{part}.{kind}_gflop"] = (flops / 1e9, "GFLOP", 1)
        metrics[f"encoder.{kind}_gflops_per_s"] = (total / enc_s / 1e9 if enc_s else 0.0, "GFLOP/s", 1)
    metrics["machine.gemm_ceiling_gflops"] = (ceiling, "GFLOP/s", 1)
    metrics["trace.overhead_frac"] = (traced_out.busy_s / untraced_out.busy_s - 1.0, "ratio", 1)
    metrics["trace.spans"] = (len(tracer.spans), "count", 1)
    return metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(report dict, result dict) for one workload."""
    import environment
    import workloads
    from tracing import Tracer, traced

    wl = workloads.WORKLOADS[name]
    work_dir = ROOT / "perfbench" / "_work" / f"{name}-{seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            fx = workloads.setup(wl, seed, work_dir)
            setup_s.append(time.perf_counter() - t0)
        out = workloads.run_phases(fx, wl, seed, seconds)
        ceiling = workloads.gemm_ceiling()
        if trace:
            tracer = Tracer()
            with traced(tracer):
                traced_out = workloads.run_phases(fx, wl, seed, seconds, tracer, out.rounds)
            metrics = per_layer(tracer, traced_out, out, ceiling)
            attempted = out.attempted + traced_out.attempted
            failures = out.failures + traced_out.failures
        else:
            metrics = end_to_end(out, setup_s)
            attempted, failures = out.attempted, out.failures
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report = {
        "report": {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
            "phase_s": out.info["phase_s"],
            "dev_f1": out.info["dev_f1"],
            "predict_ms_p90_p99": [percentiles(out.samples["predict_ms"])[i] for i in (89, 98)],
            "gemm_ceiling_gflops": ceiling,
            "failures": failures[:20],
            "environment": environment.describe(ROOT, seed),
        }
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    _import_lexfuse()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or args.seconds <= 0:
        ap.error(f"unknown workload {unknown[0]!r}" if unknown else "--seconds must be > 0")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        report, result = run_one(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report), flush=True)
        if len(names) == 1:
            print(json.dumps(result), flush=True)
            return 0
        print(json.dumps({"workload": name, **result}), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
