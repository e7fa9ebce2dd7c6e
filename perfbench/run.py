#!/usr/bin/env python3
"""Builds the library sources and the benchmark program, then runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build lives in .bench_build/ at the repository root (configured on first
use, brought up to date on every run). The program's output is passed through;
its last line is the result object. With --trace 1 the spans are also
written to .bench_build/traces/<workload>.json (Chrome trace-event JSON).
Exits non-zero, without a result, when the sources are missing or the build
fails, and non-zero with a result when a correctness check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "tpnr_perfbench")
WORKLOADS = ("fleet_store", "object_lifecycle", "transport_chaos")
# A run measures at most 60 s plus one round; tpnr_perfbench stops its round
# loop by itself well before this.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT).returncode
            except OSError as error:
                fail(f"cannot run {step[0]}: {error}")
            if code != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail(f"build step failed: {' '.join(step)}")


def source_digest():
    """SHA-256 over the sources the benchmark builds, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha()]
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(trace_dir, args.workload + ".json")]
    started = time.monotonic()
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.splitlines()
    if not lines:
        fail(f"tpnr_perfbench printed nothing (exit code {result.returncode})")
    for line in lines[:-1]:
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if isinstance(record, dict) and record.get("record") == "perfbench":
            record["source_sha256"] = source_digest()
            record["wall_s"] = round(time.monotonic() - started, 3)
            line = json.dumps(record, separators=(",", ":"))
        print(line)
    try:
        final = json.loads(lines[-1])
    except ValueError:
        fail("tpnr_perfbench's last line is not a result object")
    if set(final) != {"correct", "attempted", "failed", "metrics"}:
        fail("tpnr_perfbench's result object has unexpected keys")
    print(lines[-1], flush=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
