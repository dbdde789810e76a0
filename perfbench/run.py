#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark; see README.md in this directory.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds perfbench/ (and with it the simulator's
sources) with CMake into $CARGO_TARGET_DIR, default .bench_build, under the repository root.
The run writes its full record (configuration, checks, per-root-function latencies) to
.bench_out/ and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics.

Two extra flags serve the benchmark's own test: --short shrinks the measured window tenfold,
and --protocol unsafe runs the workload's fault schedule without exactly-once protection.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def check_call(cmd, timeout):
    # Build output goes to stderr: stdout carries only the result.
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout, check=True)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build step failed: %s" % e)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    start = time.monotonic()
    check_call(["cmake", "-S", SOURCE_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
               BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - start)
    check_call(["cmake", "--build", build_dir, "--target", "e2e", "-j", jobs], remaining)
    return os.path.join(build_dir, "e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--protocol", choices=("unsafe",))
    args = parser.parse_args()

    spec = load_benchmark()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("workload %r is not in BENCHMARK.json" % args.workload)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    exe = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT_DIR]
    if args.short:
        cmd.append("--short")
    if args.protocol:
        cmd += ["--protocol", args.protocol]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail("benchmark binary did not finish: %s" % e)
    if proc.returncode != 0:
        fail("benchmark binary exited with code %d" % proc.returncode)
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("benchmark binary printed no result")

    printed = {name: m["unit"] for name, m in record["metrics"].items()}
    if printed != expected:
        fail("metrics %s do not match BENCHMARK.json %s" % (sorted(printed), sorted(expected)))

    name = "result-%s-seed%d-trace%d%s%s.json" % (
        args.workload, args.seed, args.trace, "-short" if args.short else "",
        "-" + args.protocol if args.protocol else "")
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for metric, m in record["metrics"].items():
        print("%-34s %16.6g %s" % (metric, m["value"], m["unit"]))
    print("reps %d, checks %s" % (record["reps"], json.dumps(record["checks"])))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
