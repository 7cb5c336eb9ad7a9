"""Tests for compare.py: stamp checks and regression verdicts.

    python3 -m unittest discover -s urbench -p 'test_*.py'
"""

import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

STAMP = {"nproc": 4, "cpu_model": "cpu", "simd_level": "avx2",
         "build_type": "Release", "compiler": "GNU-12.2.0",
         "workload": "session", "seed": 1, "scale": 1, "seconds": 20,
         "trace": False, "git_commit": "a", "source_sha256": "x"}


def report(seed=1, p50=10.0, steal=0.0, **stamp_changes):
    stamp = dict(STAMP, seed=seed, **stamp_changes)
    return {"stamp": stamp, "detail": {"host_steal_pct": steal},
            "metrics": {"query_p50_ms": {"value": p50, "unit": "ms"}}}


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, document):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as handle:
            json.dump(document, handle)
        return path

    def run_main(self, base, new):
        stderr = sys.stderr
        sys.stderr = io.StringIO()
        stdout = sys.stdout
        sys.stdout = io.StringIO()
        try:
            return compare.main(["--base"] + base + ["--new"] + new)
        finally:
            sys.stderr = stderr
            sys.stdout = stdout

    def test_matching_stamps_compare(self):
        base = [self.write("b1", report(1)), self.write("b2", report(2))]
        new = [self.write("n1", report(1, git_commit="b")),
               self.write("n2", report(2, git_commit="b"))]
        self.assertEqual(self.run_main(base, new), 0)

    def test_stamp_mismatch_is_refused(self):
        for key, value in (("simd_level", "sse2"), ("build_type", "Debug"),
                           ("nproc", 8), ("cpu_model", "other"),
                           ("compiler", "Clang-17"), ("scale", 2),
                           ("seconds", 10)):
            with self.subTest(key=key):
                base = [self.write("b", report(1))]
                new = [self.write("n", report(1, **{key: value}))]
                self.assertEqual(self.run_main(base, new), 2)

    def test_unpaired_seeds_are_refused(self):
        base = [self.write("b", report(1))]
        new = [self.write("n", report(2))]
        self.assertEqual(self.run_main(base, new), 2)

    def test_host_steal_is_flagged(self):
        quiet = {("session", False, 1): report(1, steal=0.5)}
        noisy = {("session", False, 1): report(1, steal=7.0)}
        for new, flagged in ((quiet, False), (noisy, True)):
            out = io.StringIO()
            compare.compare(quiet, new, out=out)
            self.assertIn("host steal", out.getvalue())
            self.assertEqual("NOISY HOST" in out.getvalue(), flagged)

    def test_regression_beyond_bound_fails(self):
        base = [self.write("b", report(1, p50=10.0))]
        new = [self.write("n", report(1, p50=20.0))]
        self.assertEqual(self.run_main(base, new), 1)


if __name__ == "__main__":
    unittest.main()
