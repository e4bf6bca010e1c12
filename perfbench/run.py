#!/usr/bin/env python3
"""Builds and runs the exaready host-time benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign_grid --seed 1 --seconds 20 --trace 0

The first run configures and builds the libraries and exa_perfbench into
.bench_build/ (RelWithDebInfo, the repository's default build type); later
runs only re-check the build. exa_perfbench runs with EXA_THREADS pinned to the
number of usable CPUs. Its standard output is passed through; the last line
is the JSON result. A traced run (--trace 1) also writes its spans as Chrome
trace_event JSON to .bench_build/spans/<workload>-seed<seed>.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "exa_perfbench"
WORKLOADS = ("campaign_grid", "svc_stream", "engine_ring")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no exaready sources under {ROOT}")
        return False
    jobs = str(nproc())
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "exa_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_id():
    """The git commit when the checkout is a repository, else a hash of
    the sources the benchmark builds."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_digests(workload, seed, seconds, tiny):
    """Arguments that make exa_perfbench check the recorded virtual-time
    digests: the seed-independent pin always, the whole-workload digest
    when the run repeats the recorded seed and length."""
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    entry = recorded["workloads"][workload]
    args = ["--expect-pinned", entry["pinned"]]
    if (not tiny and seed == recorded["seed"]
            and seconds == recorded["seconds"]):
        args += ["--expect-digest", entry["digest"]]
    return args


def check_metric_names(result, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(wanted):
        log(f"metrics {got} do not match BENCHMARK.json {wanted}")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (digests are not checked)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", source_id()]
    cmd += expected_digests(args.workload, args.seed, args.seconds, args.tiny)
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        spans = BUILD_DIR / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ, EXA_THREADS=str(nproc()))
    run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        log(f"exa_perfbench exited with code {run.returncode}")
        return run.returncode
    lines = run.stdout.strip().splitlines()
    if not lines or not check_metric_names(json.loads(lines[-1]), args.trace):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
