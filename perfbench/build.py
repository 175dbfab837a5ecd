"""Build file of the benchmark.

Compiles, with the Scala compiler shipped in the Spark distribution
(``$SPARK_HOME/jars``, or that of the ``spark-submit`` on the PATH), four
stages into the build directory (``$CARGO_TARGET_DIR`` or ``.bench_build``
under the checkout):

  main     the program's sources, ``src/main/scala``
  harness  ``perfbench/src/harness``: workloads, checks, end-to-end metrics
  probes   ``perfbench/src/probes``: the per-layer probes of a traced run
  test     ``perfbench/src/test``: unit tests of the harness's helpers

A stage is rebuilt only when its sources or a stage it depends on change.
The probes are compiled last and on their own, so that a change to an
engine interface breaks the traced run but not the end-to-end one.

Usage: python3 perfbench/build.py   (from the root of the checkout)
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

STAGES = [
    # name, source directory, stages on its classpath
    ("main", "src/main/scala", []),
    ("harness", "perfbench/src/harness", ["main"]),
    ("probes", "perfbench/src/probes", ["main", "harness"]),
    ("test", "perfbench/src/test", ["main", "harness"]),
]


class BuildError(Exception):
    pass


def spark_jars():
    """The jars of the Spark distribution: $SPARK_HOME, else the one whose
    bin/spark-submit is on the PATH."""
    homes = [os.environ.get("SPARK_HOME", "")]
    homes += [os.path.dirname(os.path.realpath(d)) for d in os.environ.get("PATH", "").split(os.pathsep)
              if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        jars = os.path.join(home, "jars")
        if home and glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
            return os.path.join(jars, "*")
    raise BuildError("no Spark distribution with a Scala compiler found; set SPARK_HOME to a Spark 4 / Scala 2.13 one")


def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def sources(root, src):
    files = sorted(glob.glob(os.path.join(root, src, "**", "*.scala"), recursive=True))
    if not files:
        raise BuildError(f"no Scala sources under {src}; run from the root of the repository")
    return files


def classes(root, stage):
    return os.path.join(build_dir(root), stage)


def stamp_of(root, src, deps):
    h = hashlib.sha256()
    for f in sources(root, src):
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    for d in deps:
        with open(os.path.join(classes(root, d), ".stamp")) as fh:
            h.update(fh.read().encode())
    return h.hexdigest()


def compile_stage(root, name, src, deps, log):
    out = classes(root, name)
    stamp = stamp_of(root, src, deps)
    stamp_file = os.path.join(out, ".stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", spark_jars(), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", out]
    if deps:
        cmd += ["-classpath", os.pathsep.join(classes(root, d) for d in deps)]
    print(f"[perfbench] compiling {name} ({src})", file=log, flush=True)
    r = subprocess.run(cmd + sources(root, src), cwd=root, stdout=log, stderr=log)
    if r.returncode != 0:
        raise BuildError(f"compiling {name} failed (exit {r.returncode})")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)


def build(root, stages=("main", "harness", "probes"), log=sys.stderr):
    """Compile the named stages (and what they depend on); return the
    classpath of the last one, the Spark jars included."""
    wanted = set(stages)
    for name, _, deps in reversed(STAGES):
        if name in wanted:
            wanted.update(deps)
    cp = []
    for name, src, deps in STAGES:
        if name in wanted:
            compile_stage(root, name, src, deps, log)
            cp.append(classes(root, name))
    return cp + [spark_jars()]


if __name__ == "__main__":
    try:
        build(os.getcwd(), stages=[s for s, _, _ in STAGES])
    except BuildError as e:
        sys.exit(f"perfbench build: {e}")
