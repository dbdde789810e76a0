#!/usr/bin/env python3
"""Runs alternating base/head pairs of the end-to-end benchmark and records the comparison.

    scripts/bench_pairs.py --base <rev> [--pairs travel-hmread=10,movie-hmwrite-durable=5]
                           [--seed 3] [--seconds 30] [--work-dir .bench_pairs]
                           [--out BENCH_host.json]

Run from anywhere inside the repository. The head side is the working tree as it stands;
the base side is `git archive <rev>` unpacked under the work directory (an archive rather
than a worktree, so an interrupted run leaves nothing behind in .git). Each side builds
perfbench/ with its own CARGO_TARGET_DIR, so neither build sees the other's objects.

For every workload, pair i runs `perfbench/run.py --trace 0` once per side, base first on
even i and head first on odd i. Each side's median and quartiles (Q1, Q3) are printed for
every end-to-end metric, with the fraction of pairs the head side won (ties count for
neither side). A gain on a metric is shown when the head wins at least 9/10 of the pairs
and the medians differ by more than the base's interquartile range. The record, with the
CPU model and compiler, is written to --out.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True,
                      check=True, cwd=os.path.dirname(os.path.abspath(__file__))).stdout.strip()
DEFAULT_PAIRS = "travel-hmread=10,movie-hmwrite-durable=5,retwis-boki-faults=5"
CLAIM_WIN_FRAC = 0.9


def log(message):
    print(message, file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True,
                          cwd=ROOT).stdout.strip()


def parse_pairs(text):
    pairs = {}
    for item in text.split(","):
        name, _, count = item.partition("=")
        if not name or not count.isdigit() or int(count) < 1:
            sys.exit("error: --pairs wants name=count[,name=count...], got %r" % text)
        pairs[name] = int(count)
    return pairs


def unpack_base(rev, dest):
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE, cwd=ROOT)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("error: git archive %s failed" % rev)


def run_once(tree, target_dir, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("error: %s failed in %s:\n%s" % (" ".join(cmd), tree, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(base, head, better):
    """Summary of one metric over all pairs; `better` is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    base_q1, base_q3 = quartiles(base)
    head_q1, head_q3 = quartiles(head)
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    return {
        "better": better,
        "base": base,
        "head": head,
        "base_median": base_median,
        "base_q1": base_q1,
        "base_q3": base_q3,
        "head_median": head_median,
        "head_q1": head_q1,
        "head_q3": head_q3,
        "head_wins": wins,
        "win_frac": wins / len(base),
        "gain_shown": (wins >= CLAIM_WIN_FRAC * len(base)
                       and sign * (head_median - base_median) > base_q3 - base_q1),
    }


def compiler_version(target_dir):
    cache = os.path.join(target_dir, "perfbench", "CMakeCache.txt")
    compiler = "c++"
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
    out = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    return out.stdout.splitlines()[0] if out.returncode == 0 else compiler


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision (e.g. the parent commit)")
    parser.add_argument("--pairs", default=DEFAULT_PAIRS)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; default BENCHMARK.json's run_seconds")
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".bench_pairs"))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_host.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = parse_pairs(args.pairs)
    base_rev = git("rev-parse", args.base)
    work = os.path.abspath(args.work_dir)
    base_tree = os.path.join(work, "base")
    sides = {
        "base": (base_tree, os.path.join(work, "build-base")),
        "head": (ROOT, os.path.join(work, "build-head")),
    }

    log("unpacking %s into %s" % (base_rev, base_tree))
    unpack_base(base_rev, base_tree)
    # One short run per side builds it, so no timed run pays for a build.
    for side, (tree, target) in sides.items():
        log("building %s side" % side)
        run_once(tree, target, next(iter(pairs)), args.seed, 1)

    record = {
        "bench": "perfbench end-to-end pairs (scripts/bench_pairs.py)",
        "base": base_rev,
        "head": git("describe", "--always", "--dirty", "--abbrev=12"),
        "seed": args.seed,
        "seconds": seconds,
        "hardware": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "compiler": compiler_version(sides["head"][1]),
            "build_type": "RelWithDebInfo",
        },
        "workloads": {},
    }
    for workload, count in pairs.items():
        runs = {"base": [], "head": []}
        for i in range(count):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                start = time.monotonic()
                runs[side].append(run_once(*sides[side], workload, args.seed, seconds))
                log("%s pair %d/%d %s: host_inv_per_s %.0f (%.0f s)" % (
                    workload, i + 1, count, side,
                    runs[side][-1]["metrics"]["host_inv_per_s"], time.monotonic() - start))
        entry = {
            "pairs": count,
            "all_correct": all(r["correct"] and r["failed"] == 0
                               for side in runs.values() for r in side),
            # Simulated metrics are a pure function of the seed: every run of both sides
            # should print the same value.
            "sim_identical": all(
                len({r["metrics"][name] for side in runs.values() for r in side}) == 1
                for name in better if not name.startswith(("host_", "peak_", "setup_"))),
            "metrics": {},
        }
        print("%s: %d pairs, seed %d, %d s" % (workload, count, args.seed, seconds))
        print("  %-22s %-32s %-32s %s" % ("metric", "base median (Q1-Q3)",
                                          "head median (Q1-Q3)", "head wins"))
        for name, direction in better.items():
            summary = compare([r["metrics"][name] for r in runs["base"]],
                              [r["metrics"][name] for r in runs["head"]], direction)
            entry["metrics"][name] = summary
            print("  %-22s %-32s %-32s %d/%d%s" % (
                name, "%.6g (%.6g-%.6g)" % (summary["base_median"], summary["base_q1"],
                                            summary["base_q3"]),
                "%.6g (%.6g-%.6g)" % (summary["head_median"], summary["head_q1"],
                                      summary["head_q3"]),
                summary["head_wins"], count, "  gain" if summary["gain_shown"] else ""))
        print("  all runs correct: %s; simulated metrics identical: %s" % (
            entry["all_correct"], entry["sim_identical"]))
        record["workloads"][workload] = entry

    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    log("wrote %s" % args.out)


if __name__ == "__main__":
    main()
