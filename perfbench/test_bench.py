#!/usr/bin/env python3
"""Self-test of the repo benchmark: a seconds-long smoke run of every
workload, untraced and traced, checked against BENCHMARK.json's schema and
the committed smoke digests.

    python3 perfbench/test_bench.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args):
    """Run perfbench/run.py; returns (exit code, stdout lines)."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def problems(lines):
    """The run's problem lines and its result, for failure messages."""
    return "\n".join([ln for ln in lines if ln.startswith("problem: ")] +
                     lines[-1:])


def smoke(workload, trace, *extra):
    return run("--workload", workload, "--smoke", "--seconds", "1",
               "--trace", str(trace), *extra)


class Schema(unittest.TestCase):
    def check_result(self, lines, names):
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertIsInstance(m["value"], (int, float), name)
        return result

    def check_record(self, lines, workload, trace):
        record = [ln for ln in lines if ln.startswith("record: ")]
        self.assertEqual(len(record), 1)
        rec = json.loads(record[0][len("record: "):])
        self.assertEqual(rec["workload"], workload)
        self.assertEqual(rec["trace"], trace)
        self.assertEqual(rec["build_type"], "Release")
        for key in ("nproc", "threads", "workers", "compiler", "commit",
                    "seed", "samples"):
            self.assertIn(key, rec)

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         ["paper_matrix", "long_horizon", "fleet_faulty"])

    def test_untraced_smoke(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, lines = smoke(w["name"], 0)
                self.assertEqual(rc, 0, problems(lines))
                self.check_record(lines, w["name"], 0)
                result = self.check_result(lines, names)
                for m in SPEC["end_to_end"]:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertGreater(got["value"], 0, m["name"])
                # The human table also carries failed_frac.
                self.assertTrue(any("failed_frac" in ln for ln in lines))

    def test_traced_smoke(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, lines = smoke(w["name"], 1)
                self.assertEqual(rc, 0, problems(lines))
                self.check_record(lines, w["name"], 1)
                result = self.check_result(lines, names)
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], units[name])
                self.assertTrue(any(ln.startswith("attribution: ")
                                    for ln in lines))

    def test_wrong_digest_fails(self):
        digests = (HERE / "digests.txt").read_text().splitlines()
        tampered = []
        for line in digests:
            if line.startswith("long_horizon smoke "):
                head, value = line.rsplit(" ", 1)
                line = f"{head} {int(value, 16) ^ 1:016x}"
            tampered.append(line)
        path = ROOT / ".bench_build" / "selftest-digests.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join(tampered) + "\n")
        rc, lines = smoke("long_horizon", 0, "--digests", str(path))
        self.assertNotEqual(rc, 0)
        result = json.loads(lines[-1])
        self.assertIs(result["correct"], False)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any("digest mismatch" in ln for ln in lines))

    def test_other_seed_runs_without_committed_digests(self):
        rc, lines = smoke("fleet_faulty", 0, "--seed", "7")
        self.assertEqual(rc, 0, problems(lines))


if __name__ == "__main__":
    unittest.main()
