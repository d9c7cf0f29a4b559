#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics across seeds.

Runs the command in BENCHMARK.json once per (workload, seed), from the
repository root, and prints for every metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
next to the metric's bound. With --sets 2 the whole set of runs is made
twice and the second median is compared with the first.

    python3 perfbench/spread.py --workloads stream_flash,net_slot --seeds 1-10
    python3 perfbench/spread.py --seeds 1-5 --trace 1

Raw results are appended to .bench_out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stdout}")
    return result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,9")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--sets", type=int, default=1, help="repeat the whole set")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    seeds = seed_list(args.seeds)
    catalog = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = open(os.path.join(ROOT, ".bench_out", "spread.jsonl"), "a")

    medians = {}
    ok = True
    for s in range(args.sets):
        for w in workloads:
            values = {m["name"]: [] for m in catalog}
            walls = []
            for seed in seeds:
                result, wall = run_once(spec, w, seed, seconds, args.trace)
                walls.append(wall)
                log.write(json.dumps({"set": s, "workload": w, "seed": seed, "trace": args.trace,
                                      "wall_s": wall, "result": result}) + "\n")
                log.flush()
                for m in catalog:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"set {s} workload {w} seeds {args.seeds} seconds {seconds} "
                  f"run wall median {statistics.median(walls):.1f} s max {max(walls):.1f} s")
            for m in catalog:
                v = values[m["name"]]
                med = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
                spread = (q3 - q1) / med if med else float("nan")
                bound = m.get("bound")
                flag = ""
                if bound is not None:
                    if not spread <= bound:
                        flag, ok = "  OVER BOUND", False
                    elif spread > bound / 3:
                        flag = "  over a third of the bound"
                    prev = medians.get((w, m["name"]))
                    if prev is not None:
                        # Either set may be the reference, so check both orders.
                        if m["better"] == "lower":
                            worse = max((med - prev) / prev, (prev - med) / med)
                        else:
                            worse = max((prev - med) / prev, (med - prev) / med)
                        flag += f"  vs set 0 (worse order): {worse:.4f}"
                        if worse > bound:
                            flag, ok = flag + " WORSE THAN BOUND", False
                medians.setdefault((w, m["name"]), med)
                print(f"  {m['name']:<26} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                      f"spread {spread:.4f}" + (f" bound {bound}" if bound is not None else "")
                      + flag)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
