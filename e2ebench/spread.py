#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end
metric's median and quartile spread against its bound.

    python3 e2ebench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Run from the repository root. The command, run length, workloads and
bounds come from BENCHMARK.json; the spread is the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. Raw results are appended to e2ebench/out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    os.makedirs("e2ebench/out", exist_ok=True)
    log = open("e2ebench/out/spread.jsonl", "a")
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        walls = []
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", args.trace]
            start = time.monotonic()
            run = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
            if run.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}")
                ok = False
                continue
            result = json.loads(last)
            notes = [l for l in run.stdout.splitlines() if l.startswith("# ")]
            log.write(json.dumps({"workload": workload, "seed": seed, "wall_s": walls[-1],
                                  "notes": notes, **result}) + "\n")
            log.flush()
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"{workload:<16} {name:<36} n={len(vals):<3} median={med:<14.6g} "
                  f"spread={spread:7.4f} bound={bound} {flag}")
        if walls:
            print(f"{workload:<16} wall seconds per run: max {max(walls):.1f}, "
                  f"median {statistics.median(walls):.1f}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
