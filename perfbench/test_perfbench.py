#!/usr/bin/env python3
"""The benchmark's own tests: a short smoke run of every workload (untraced
and traced), the stub stores that must fail the run, and knob hygiene.

    python3 perfbench/test_perfbench.py        # from the repository root

Builds through run.py like a real run, so the first test pays the build.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace=0, stub="none", env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace), "--stub", stub],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


class Smoke(unittest.TestCase):
    def test_every_workload_untraced(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            rc, r = run(w["name"])
            self.assertEqual(rc, 0, w["name"])
            self.assertEqual(sorted(r), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
            self.assertGreater(r["attempted"], 0)
            self.assertEqual({k: m["unit"] for k, m in r["metrics"].items()}, names)
            for k, m in r["metrics"].items():
                self.assertGreater(m["value"], 0, (w["name"], k))

    def test_every_workload_traced(self):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            rc, r = run(w["name"], trace=1)
            self.assertEqual(rc, 0, w["name"])
            self.assertTrue(r["correct"])
            self.assertEqual({k: m["unit"] for k, m in r["metrics"].items()}, names)
            build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
            with open(os.path.join(ROOT, build, "perfbench-out",
                                   "spans-%s.json" % w["name"])) as f:
                spans = json.load(f)["spans"]
            self.assertTrue(spans)
            roots = {s[0] for s in spans if s[1] == "op" and s[2] is None}
            for op_id, name, parent, start, end in spans:
                self.assertLessEqual(start, end)
                if name != "op":
                    self.assertEqual(parent, "op")
                    self.assertIn(op_id, roots)
            if w["name"] == "kv-read":
                self.assertGreater(r["metrics"]["core.hops_per_cell"]["value"], 2)


class Stub(unittest.TestCase):
    def assert_fails(self, workload, stub):
        rc, r = run(workload, stub=stub)
        self.assertNotEqual(rc, 0)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)

    def test_wrong_value_fails(self):
        self.assert_fails("kv-read", "wrong-value")
        self.assert_fails("list-walk", "wrong-value")

    def test_lost_insert_fails(self):
        self.assert_fails("kv-churn", "lost-insert")
        self.assert_fails("list-walk", "lost-insert")


class Hygiene(unittest.TestCase):
    def test_refuses_library_knobs(self):
        rc, r = run("list-walk", env=dict(os.environ, LFLL_MAGAZINE="0"))
        self.assertNotEqual(rc, 0)
        self.assertIsNone(r)


if __name__ == "__main__":
    unittest.main()
