#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, must build, verify its outputs, and print exactly the metrics
BENCHMARK.json names.

Run from the root of a checkout (takes about half a minute after the build):

    python3 perfbench/smoke_test.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--tiny"]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
            lines = run.stdout.strip().splitlines()
            problem = None
            if run.returncode != 0:
                problem = f"exit code {run.returncode}"
            elif not lines:
                problem = "no output"
            else:
                result = json.loads(lines[-1])
                key = "per_layer" if trace else "end_to_end"
                wanted = sorted(m["name"] for m in spec[key])
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    problem = f"result keys {sorted(result)}"
                elif not result["correct"] or result["failed"] != 0:
                    problem = "outputs failed verification"
                elif result["attempted"] < 1:
                    problem = "nothing attempted"
                elif sorted(result["metrics"]) != wanted:
                    problem = "metric names differ from BENCHMARK.json"
            status = "ok" if problem is None else f"FAIL ({problem})"
            print(f"{workload} trace={trace}: {status}", flush=True)
            failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
