#!/usr/bin/env python3
"""Run every workload over several seeds: print each run's end-to-end
metrics and workload figures, then each metric's median and quartile
spread against its bound.

    python3 cfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]

With --seeds 1 this is the one command that runs all workloads.

Spread is (Q3 - Q1) / median over the runs, with the quartiles Python's
statistics.quantiles(values, n=4) gives.  A metric is flagged when its
spread exceeds a third of the bound in BENCHMARK.json.  Run from the root
of a checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    flagged = False
    for wl in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(root, "cfbench", "run.py"),
                   "--workload", wl, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{wl} seed {seed}: run failed")
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                sys.stderr.write(proc.stdout)
                sys.exit(f"{wl} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            # The run's result file adds the workload's own figures
            # (events/s, shards/s and the failed ratio).
            stamped = os.path.join(
                root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                "out", f"{wl}-seed{seed}-trace{args.trace}.json")
            with open(stamped) as f:
                figures = json.load(f)["workload"]
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g} {m['unit']}"
                for n, m in list(result["metrics"].items()) + list(figures.items())
                if n in bounds or n in figures), flush=True)
        for name, vals in values.items():
            if len(vals) < 2 or (name not in bounds and args.trace == "0"):
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3"
                flagged = True
            print(f"  {wl:15s} {name:22s} median={med:.6g} q1={q1:.6g} "
                  f"q3={q3:.6g} spread={spread:.4f} bound={bound}{flag}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
