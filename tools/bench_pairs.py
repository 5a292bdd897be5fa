"""Run perfbench in alternating pairs on two checkouts and record the runs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 1801-1810 \
        --seconds 40 --out BENCH_<n>.json

Each seed is one pair: the two checkouts run
``python3 perfbench/run.py --workload all --seed S --seconds T --trace 0``
one after the other, the parent first in even pairs and the change first
in odd ones.  The output file keeps, for every run, each workload's two
output lines as printed (the report, then the metrics), and for each side
the median and quartiles of every metric, each seed's ``dev_auc`` and the
seeds whose ``dev_auc`` is below 0.5.  For the end-to-end metrics of
``BENCHMARK.json`` it also counts the pairs the change wins.  The file is
rewritten after every run, so a cut series keeps the runs it finished.
The script computes no metric of its own: every figure is one that
``run.py`` printed, or a median, quartile or count over those.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout: Path, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    workloads = {}
    for report, metrics in zip(lines[0::2], lines[1::2]):
        if "report" not in report or "workload" not in metrics:
            break
        workloads[metrics["workload"]] = {"report": report, "metrics": metrics}
    return {"seed": seed, "returncode": proc.returncode, "wall_s": wall, "workloads": workloads,
            "stderr_tail": proc.stderr.splitlines()[-5:]}


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def values_of(runs: list, workload: str, metric: str) -> dict:
    """Seed -> the metric's value in that seed's run."""
    out = {}
    for run in runs:
        m = run["workloads"].get(workload, {}).get("metrics", {}).get("metrics", {}).get(metric)
        if m is not None:
            out[run["seed"]] = m["value"]
    return out


def summarize(runs: dict, better: dict) -> dict:
    names = sorted({(w, m) for run in runs["parent"] + runs["change"]
                    for w, rec in run["workloads"].items() for m in rec["metrics"]["metrics"]})
    summary = {}
    for workload, metric in names:
        per_side = {side: values_of(runs[side], workload, metric) for side in SIDES}
        entry = {side: quartiles(list(v.values())) for side, v in per_side.items() if v}
        if metric in better and all(per_side.values()):
            seeds = sorted(set(per_side["parent"]) & set(per_side["change"]))
            sign = 1 if better[metric] == "higher" else -1
            entry["change_wins"] = sum(sign * (per_side["change"][s] - per_side["parent"][s]) > 0 for s in seeds)
            entry["pairs"] = len(seeds)
        summary[f"{workload}.{metric}"] = entry
    return summary


def dev_auc_by_seed(runs: dict) -> dict:
    out = {}
    for side in SIDES:
        workloads = sorted({w for run in runs[side] for w in run["workloads"]})
        per = {w: values_of(runs[side], w, "dev_auc") for w in workloads}
        out[side] = {w: {"by_seed": {str(s): v for s, v in vals.items()},
                         "below_0_5": [s for s, v in vals.items() if v < 0.5]} for w, vals in per.items()}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seeds", required=True, help="one seed or a range lo-hi, one pair per seed")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--note", default="", help="free text stored in the record (commits, machine)")
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "command": f"python3 perfbench/run.py --workload all --seed <seed> --seconds {args.seconds:g} --trace 0",
        "pairs": "one pair per seed; the parent runs first in even pairs (0, 2, ...), the change in odd ones",
        "seeds": parse_seeds(args.seeds),
        "note": args.note,
        "runs": {side: [] for side in SIDES},
    }
    for i, seed in enumerate(record["seeds"]):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_once(checkouts[side], seed, args.seconds)
            run["position_in_pair"] = order.index(side)
            record["runs"][side].append(run)
            record["summary"] = summarize(record["runs"], better)
            record["dev_auc"] = dev_auc_by_seed(record["runs"])
            args.out.write_text(json.dumps(record, indent=1) + "\n")
            print(f"pair {i} seed {seed} {side}: exit {run['returncode']}, {run['wall_s']:.0f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
