#!/usr/bin/env python3
"""End-to-end benchmark of the seg library: one command per workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload phase_grid --seed 1 --seconds 10 --trace 0

It builds perfbench/ (and through it the library) into .bench_build/,
runs the seg_e2e measuring program, prints the host facts and every metric
by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics. The exit code is non-zero when a check fails or the
program cannot be built. Raw output, the result, and (with --trace 1) the
span files land in .bench_build/out/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # write nothing beside the sources
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import summary  # noqa: E402

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "seg_e2e")
OUT_DIR = os.path.join(BUILD_DIR, "out")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then (re)builds the measuring program. Build output
    goes to stderr so the last stdout line stays the result."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("no seg source tree here; run from the repository root")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "seg_e2e",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    seconds = args.seconds if args.seconds else bench["run_seconds"]

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(seconds)), "--trace", str(args.trace),
           "--out", OUT_DIR]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("seg_e2e ran past %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("seg_e2e exited with %d" % proc.returncode)
    raw = json.loads(proc.stdout)
    line, checks = summary.summarize(raw, bench, bool(args.trace))

    for key, value in raw["host"].items():
        print("host %s = %s" % (key, value))
    for key, value in raw["info"].items():
        print("info %s = %s" % (key, value))
    for name, m in line["metrics"].items():
        print("%s = %r %s" % (name, m["value"], m["unit"]))
    print("fail_frac = %r (%d of %d checks failed)"
          % (checks.frac, checks.failed, checks.attempted))
    for what in checks.failures:
        print("FAILED: " + what)
    print("elapsed_s = %.3f" % (time.monotonic() - started))

    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    with open(stem + ".raw.json", "w") as f:
        json.dump(raw, f, indent=1)
    with open(stem + ".result.json", "w") as f:
        json.dump({"host": raw["host"], "result": line,
                   "failures": checks.failures}, f, indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
