#!/usr/bin/env python3
"""Run bench/run.py over several seeds and summarise each end-to-end metric.

    python3 bench/spread.py --seeds 1-10 [--workloads cnn_train,dnn_search] [--out FILE]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (Q3 - Q1) / median
and the metric's bound from BENCHMARK.json, then the same for the median raw
(unscaled) wall seconds of each run. Runs are sequential, one process at a time. With ``--out`` the raw results and the summary are written as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"), help="first-last")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report = {"seeds": args.seeds, "seconds": SPEC["run_seconds"], "workloads": {}}
    print(f"{'workload':16} {'metric':14} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload in args.workloads.split(","):
        results, raw_walls = [], []
        for seed in args.seeds:
            diagnostics, result = run_once(workload, seed, SPEC["run_seconds"])
            env = diagnostics["env"]
            raw_walls.append(statistics.median(diagnostics["raw_wall_s_samples"]))
            results.append(result)
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
        summary = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            s = summarise([r["metrics"][name]["value"] for r in results])
            summary[name] = dict(s, unit=metric["unit"], bound=metric["bound"])
            print(f"{workload:16} {name:14} {metric['unit']:9} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:7.4f} {metric['bound']:6.3f}", flush=True)
        s = summarise(raw_walls)  # unscaled, for comparison; not a metric
        print(f"{workload:16} {'(raw wall_s)':14} {'s':9} {s['median']:12.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {s['spread']:7.4f}", flush=True)
        summary["raw_wall_s"] = s
        report["workloads"][workload] = {
            "env": env, "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results), "metrics": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
