"""Unit tests of the benchmark's own helpers.

Usage (from the root of the repository): python3 perfbench/test.py

Runs the Scala cases in src/test (percentile rule, precision/recall,
majority vote, structural checks, span self time) and the Python cases
below (quartile spread and verdicts of compare.py, seed lists of
collect.py). Exits non-zero when any case fails.
"""
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402
import collect  # noqa: E402
import compare  # noqa: E402


class CompareTest(unittest.TestCase):
    def test_spread_uses_python_quartiles(self):
        q1, med, q3, spread = compare.summary([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, med, q3), (1.5, 3.0, 4.5))
        self.assertAlmostEqual(spread, 1.0)

    def test_wide_spread_is_unresolved(self):
        base, new = [10, 12, 14, 16], [10, 11, 12, 13]
        self.assertEqual(compare.verdict(base, new, 0.05, "lower"), "unresolved")

    def test_wide_spread_but_every_run_better(self):
        base, new = [20, 24, 28, 32], [10, 11, 12, 13]
        self.assertEqual(compare.verdict(base, new, 0.05, "lower"), "better (every run)")

    def test_direction(self):
        base, new = [10.0, 10.0, 10.0], [12.0, 12.0, 12.0]
        self.assertEqual(compare.verdict(base, new, 0.1, "lower"), "worse")
        self.assertEqual(compare.verdict(base, new, 0.1, "higher"), "better")
        self.assertEqual(compare.verdict(base, new, 0.25, "lower"), "same")

    def test_seed_lists(self):
        self.assertEqual(collect.seeds("1-3,7"), [1, 2, 3, 7])


def main():
    root = os.getcwd()
    try:
        classpath = build.build(root, ["main", "harness", "test"])
    except build.BuildError as e:
        sys.exit(f"perfbench: {e}")
    scala = subprocess.run(["java", "-cp", os.pathsep.join(classpath), "repro.perfbench.SelfTest"], cwd=root)
    py = unittest.main(argv=[sys.argv[0]], exit=False).result
    sys.exit(0 if scala.returncode == 0 and py.wasSuccessful() else 1)


if __name__ == "__main__":
    main()
