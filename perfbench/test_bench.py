#!/usr/bin/env python3
"""The benchmark's own test. Runs every workload in short mode and checks that:

  * simulated metrics and per-layer counts repeat exactly for one seed, and change when the
    seed changes (the seed reaches the cluster);
  * every metric name printed matches BENCHMARK.json;
  * HM_* environment variables do not change the measured program (the config is pinned);
  * the traced run reproduces the untraced execution, and the layer contrast between the
    workloads holds (storage only on movie, log reads higher on travel than retwis, crashes
    only on retwis, most KV writes on movie);
  * the Unsafe negative control trips the exactly-once check, and Boki does not.

    python3 perfbench/test_bench.py

Run from the repository root. Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Host-time and memory metrics: everything else must repeat exactly for one seed.
HOST_METRICS = {
    "host_inv_per_s", "peak_rss_mb", "setup_s", "sim.host_ns_per_event", "setup.cluster_s",
    "setup.populate_s", "setup.warmup_s", "trace.overhead_pct",
}

# Every knob the benchmark pins, set to a value that would change the simulation.
HM_ENV = {
    "HM_SHARDS": "4", "HM_PIPELINE": "4", "HM_BATCH_WINDOW": "100", "HM_BATCH_MAX": "8",
    "HM_DURABLE": "1", "HM_CHECKPOINT": "1", "HM_CHECKPOINT_SLICE": "16",
    "HM_CHECKPOINT_BYTES": "4096", "HM_ADVISOR": "1", "HM_BENCH_SCALE": "0.1",
    "HM_PARALLEL": "1",
}

failures = []


def check(ok, message):
    print("%s %s" % ("ok  " if ok else "FAIL", message), flush=True)
    if not ok:
        failures.append(message)


def run(workload, seed, trace, env=None, protocol=None):
    """Runs one short benchmark run; returns (final line, full record)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--short"]
    if protocol:
        cmd += ["--protocol", protocol]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          env=dict(os.environ, **(env or {})))
    if proc.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), proc.stderr[-3000:]))
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    name = "result-%s-seed%d-trace%d-short%s.json" % (
        workload, seed, trace, "-" + protocol if protocol else "")
    with open(os.path.join(OUT_DIR, name)) as f:
        record = json.load(f)
    return final, record


def simulated(final):
    return {k: v["value"] for k, v in final["metrics"].items() if k not in HOST_METRICS}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    layers = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            tag = "%s trace=%d" % (workload, trace)
            a, rec_a = run(workload, 1, trace)
            b, rec_b = run(workload, 1, trace)
            c, rec_c = run(workload, 2, trace)
            check(set(a) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": last line has exactly correct/attempted/failed/metrics")
            check(set(a["metrics"]) == names[trace], tag + ": metric names match BENCHMARK.json")
            check(a["correct"] and a["failed"] == 0 and a["attempted"] > 0,
                  tag + ": correct, no failed roots")
            check(simulated(a) == simulated(b) and rec_a["fingerprint"] == rec_b["fingerprint"],
                  tag + ": one seed repeats exactly")
            check(simulated(a) != simulated(c) and rec_a["fingerprint"] != rec_c["fingerprint"],
                  tag + ": another seed changes the simulation")
            if trace == 0:
                _, rec_env = run(workload, 1, 0, env=HM_ENV)
                check(rec_env["fingerprint"] == rec_a["fingerprint"] and
                      rec_env["config"] == rec_a["config"],
                      tag + ": HM_* environment does not change the program")
                check(rec_a["checks"]["duplicate_ids"] == 0, tag + ": no duplicated ids")
            else:
                check(rec_a["checks"]["traced_identical"], tag + ": traced run is identical")
                layers[workload] = simulated(a)

    travel, movie, retwis = (layers["travel-hmread"], layers["movie-hmwrite-durable"],
                             layers["retwis-boki-faults"])
    storage = [k for k in movie if k.startswith("storage.")]
    check(all(movie[k] > 0 for k in storage) and
          all(travel[k] == 0 and retwis[k] == 0 for k in storage),
          "storage.* is non-zero only on movie-hmwrite-durable")
    check(travel["sharedlog.reads_per_inv"] > retwis["sharedlog.reads_per_inv"],
          "sharedlog.reads_per_inv is higher on travel than on retwis")
    check(retwis["core.crashes_per_inv"] > 0 and travel["core.crashes_per_inv"] == 0 and
          movie["core.crashes_per_inv"] == 0, "core.crashes_per_inv is non-zero only on retwis")
    check(movie["kvstore.writes_per_inv"] > max(travel["kvstore.writes_per_inv"],
                                                retwis["kvstore.writes_per_inv"]),
          "kvstore.writes_per_inv is highest on movie")

    control, rec = run("retwis-boki-faults", 1, 0, protocol="unsafe")
    check(not control["correct"] and control["failed"] > 0 and rec["checks"]["duplicate_ids"] > 0,
          "Unsafe under the retwis fault schedule trips the exactly-once check "
          "(%d duplicated ids, %d failed roots)" % (rec["checks"]["duplicate_ids"],
                                                     control["failed"]))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
