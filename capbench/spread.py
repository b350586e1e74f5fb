#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, next to the
metric's bound from BENCHMARK.json.

    python3 capbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds N]

Run it from the repository root. It runs the command of BENCHMARK.json
untraced. Exits 1 if a run fails or a spread other than setup_s's
exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        walls = []
        for seed in seed_list(args.seeds):
            argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(args.seconds), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(argv, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(last)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {len(walls)} runs, wall max {max(walls):.1f} s, mean {statistics.mean(walls):.1f} s")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(q2) if q2 else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
                ok = False
            shown = f"{bound:.3f}" if bound is not None else "  -  "
            print(f"  {name:<22} median {q2:12.5g}  spread {spread:7.4f}  bound {shown}{flag}")
            print("      " + " ".join(f"{v:.5g}" for v in vs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
