"""Run the benchmark over several seeds and keep each run's result line.

Usage (from the root of the repository):

  python3 perfbench/collect.py --out DIR [--workload W ...] [--seeds 1-10]
      [--seconds S] [--trace 0|1]

Writes DIR/<workload>/seed<n>.json, one result object per run, in the layout
compare.py reads. Workloads default to every one in BENCHMARK.json and the
run length to its run_seconds. Runs go one at a time, so they do not
compete for the machine.
"""
import argparse
import json
import os
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True)
    p.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", default="1-10", type=seeds)
    p.add_argument("--seconds", default=bench["run_seconds"], type=float)
    p.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = p.parse_args()

    failures = 0
    for w in args.workload or [w["name"] for w in bench["workloads"]]:
        os.makedirs(os.path.join(args.out, w), exist_ok=True)
        for s in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace)]
            r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                print(f"{w} seed {s}: failed (exit {r.returncode})", file=sys.stderr)
                failures += 1
                continue
            with open(os.path.join(args.out, w, f"seed{s}.json"), "w") as fh:
                fh.write(lines[-1] + "\n")
            print(f"{w} seed {s}: {lines[-1]}", flush=True)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
