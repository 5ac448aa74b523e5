"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Run from the repository root with either of

    python3 perfbench/smoke_check.py
    python3 -m pytest perfbench/smoke_check.py

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


class SmokeTest(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> None:
        proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
        for m in spec:
            value = result["metrics"][m["name"]]
            self.assertEqual(value["unit"], m["unit"])
            self.assertIsInstance(value["value"], (int, float))
        if not trace:
            for name, value in result["metrics"].items():
                self.assertGreater(value["value"], 0, name)
        self.assertIn("digest: ", proc.stdout)

    def test_workloads(self) -> None:
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_refuses_without_library(self) -> None:
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench(bare, "--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
