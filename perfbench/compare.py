"""Compare two sets of benchmark runs, metric by metric.

Usage (from the root of the repository):

  python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds <workload>/<run>.json files, each the result line of one
run (collect.py writes this layout). For every workload and metric the
command prints each side's median and quartiles and the run-to-run spread,
(q3 - q1) / median. An end-to-end metric is marked

  unresolved  when either side's spread exceeds the metric's bound, unless
              every NEW run is better than every BASE run,
  worse       when NEW's median is worse than BASE's by more than the bound,
  better      when it is better by more than the bound,
  same        otherwise.

Per-layer metrics have no bound and are printed without a verdict. The exit
code is 1 when an end-to-end metric is worse, else 0.
"""
import glob
import json
import os
import statistics
import sys


def load(directory):
    """{workload: {metric: [values]}} and {workload: (attempted, failed)}."""
    values, ops = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*", "*.json"))):
        workload = os.path.basename(os.path.dirname(path))
        with open(path) as fh:
            result = json.loads(fh.read().strip().splitlines()[-1])
        a, f = ops.get(workload, (0, 0))
        ops[workload] = (a + result["attempted"], f + result["failed"])
        for name, m in result["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    return values, ops


def summary(xs):
    """(q1, median, q3, spread) with Python's default quartile method."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0], 0.0
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def verdict(base_values, new_values, bound, better):
    base, new = summary(base_values), summary(new_values)
    lower = better == "lower"
    if base[3] > bound or new[3] > bound:
        wins = max(new_values) < min(base_values) if lower else min(new_values) > max(base_values)
        return "better (every run)" if wins else "unresolved"
    change = (new[1] - base[1]) / base[1] if base[1] else 0.0
    if not lower:
        change = -change
    return "worse" if change > bound else "better" if change < -bound else "same"


def compare(base_dir, new_dir, bench):
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, base_ops = load(base_dir)
    new, new_ops = load(new_dir)
    rows, any_worse = [], False
    for w in [w["name"] for w in bench["workloads"]]:
        if w not in base and w not in new:
            continue
        for side, ops in (("base", base_ops), ("new", new_ops)):
            a, f = ops.get(w, (0, 0))
            rows.append(f"{w}  {side}: {a} operations attempted, {f} failed")
        for name in metrics:
            b, n = base.get(w, {}).get(name), new.get(w, {}).get(name)
            if not b or not n:
                continue
            sb, sn = summary(b), summary(n)
            m = metrics[name]
            v = verdict(b, n, m["bound"], m["better"]) if "bound" in m else ""
            any_worse |= v == "worse"
            rows.append(f"{w:<11} {name:<30} {m['unit']:<6} "
                        f"base {sb[1]:.6g} [{sb[0]:.6g}, {sb[2]:.6g}] spread {sb[3]:.3f} n={len(b)} | "
                        f"new {sn[1]:.6g} [{sn[0]:.6g}, {sn[2]:.6g}] spread {sn[3]:.3f} n={len(n)}"
                        + (f" | bound {m['bound']} {v}" if v else ""))
    return rows, any_worse


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    rows, any_worse = compare(sys.argv[1], sys.argv[2], bench)
    print("\n".join(rows))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
