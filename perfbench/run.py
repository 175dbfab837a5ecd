"""Run one benchmark workload and print its result as the last line.

Usage (from the root of the repository):

  python3 perfbench/run.py --workload <vi-local|vi-spark|svi-stream> \
      --seed <n> --seconds <s> --trace <0|1>

Builds the program and the benchmark from source on first use (see
build.py), then runs the workload in one JVM with fixed heap, thread and
Spark settings. With --trace 0 the result holds the end-to-end metrics, with
--trace 1 the per-layer ones; a traced run also writes its spans to
<build dir>/traces/.
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["vi-local", "vi-spark", "svi-stream"]
RUN_TIMEOUT_S = 170
HEAP = "2g"

# JDK 17 module opens that spark-submit normally adds; Spark's Kryo and
# off-heap code need them under a plain `java` launch.
OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]]


def java_command(root, classpath, args):
    out = build.build_dir(root)
    scratch = {name: os.path.join(out, name) for name in ("tmp", "spark-local", "spark-warehouse", "traces")}
    for d in scratch.values():
        os.makedirs(d, exist_ok=True)
    here = os.path.dirname(os.path.abspath(__file__))
    return ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseSerialGC", *OPENS,
            f"-Djava.io.tmpdir={scratch['tmp']}",
            f"-Dlog4j2.configurationFile={os.path.join(here, 'log4j2.properties')}",
            "-Dspark.driver.host=127.0.0.1",
            "-Dspark.ui.enabled=false",
            f"-Dspark.local.dir={scratch['spark-local']}",
            f"-Dspark.sql.warehouse.dir={scratch['spark-warehouse']}",
            "-cp", os.pathsep.join(classpath), "repro.perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--trace-dir", scratch["traces"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    root = os.getcwd()
    try:
        stages = ["main", "harness"] + (["probes"] if args.trace else [])
        classpath = build.build(root, stages)
    except build.BuildError as e:
        sys.exit(f"perfbench: {e}")

    try:
        r = subprocess.run(java_command(root, classpath, args), cwd=root,
                           stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if r.returncode != 0 or not lines:
        sys.exit(f"perfbench: {args.workload} exited with code {r.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"perfbench: malformed result line: {lines[-1]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
