#!/usr/bin/env python3
"""Build and run the appraisal simulator's benchmark.

    python3 perfbench/run.py --workload paper_matrix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The script configures and builds
perfbench/ (which compiles the repository's library from source) into
.bench_build/perfbench, runs the workload, checks its outputs against the
fingerprints committed in perfbench/fingerprints.json, prints every metric
by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics. The exit code is 0 only when every output check passed.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper_matrix", "campaign_lossy", "passive_bulk")
# Extra processes that only set up, so setup_s is a median of several
# process starts rather than one.
SETUP_SPAWNS = 6
RUN_TIMEOUT_S = 170

# What each workload's generic metrics are called in the benchmark's doc.
ALIASES = {
    "paper_matrix": ("reps_per_s", "repetitions", "cell_ms", "cells"),
    "campaign_lossy": ("clients_per_s", "clients", "shard_ms", "shards"),
    "passive_bulk": ("packets_per_s", "packets", "scenario_ms", "scenarios"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the build up to date. False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_binary(args):
    """Run the benchmark program once; its last stdout line is JSON."""
    cmd = [BINARY] + args + ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("perfbench exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        log("perfbench: build failed")
        return 1
    with open(os.path.join(HERE, "fingerprints.json")) as f:
        fingerprints = json.load(f)
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--default-seed", str(fingerprints["default_seed"]),
              "--held-out-seed", str(fingerprints["held_out_seed"])]

    def setup_only():
        return run_binary(common + ["--seconds", "1", "--trace", "0",
                                    "--setup-only"])["setup_s"]

    # Half the set-up samples are taken before the timed run and half after
    # it, so that they straddle the box's slow and fast phases.
    spawns = 0 if a.trace else SETUP_SPAWNS
    setups = [setup_only() for _ in range(spawns // 2)]
    extra = []
    if a.trace:
        extra = ["--spans-out", os.path.join(
            BUILD, "spans-%s-%d.jsonl" % (a.workload, a.seed))]
    result = run_binary(common + ["--seconds", str(a.seconds),
                                  "--trace", str(a.trace)] + extra)
    setups.append(result["setup_s"])
    setups += [setup_only() for _ in range(spawns - spawns // 2)]

    problems = list(result["problems"])
    expected = fingerprints["fingerprints"][a.workload]
    if result["default_fingerprint"] != expected:
        problems.append("default-seed fingerprint %s != committed %s" %
                        (result["default_fingerprint"], expected))
    correct = not problems
    attempted = max(int(result["attempted"]), 1)
    failed = int(result["failed"]) if correct else attempted

    values = dict(result["per_layer"] if a.trace else result["metrics"])
    values["setup_s"] = statistics.median(setups)
    metrics = {}
    for m in declared_metrics(a.trace):
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    env = result["env"]
    print("environment: nproc=%d cpus_allowed=%d build=%s spin=%.0f Mops/s "
          "(1 thread) %.0f Mops/s (%d threads, %.2fx)" % (
              env["nproc"], env["cpus_allowed"], env["build_type"],
              env["spin_mops_1"], env["spin_mops_workers"],
              env["spin_workers"], env["spin_speedup"]))
    n = result["samples"]
    if a.trace:
        print("traced run: %d rounds, %d spans, untraced %.1f ms, traced "
              "%.1f ms" % (n["rounds"], n["spans"], n["wall_untraced_ms"],
                           n["wall_traced_ms"]))
        for name, s in sorted(result["spans"].items()):
            print("  span %-20s count %-8d total %10.3f ms  self %10.3f ms" % (
                name, s["count"], s["total_ms"], s["self_ms"]))
    else:
        rate, unit, batch, batches = ALIASES[a.workload]
        print("%s: %d %s in %.3f s over %d groups" % (
            a.workload, n["units"], unit, n["wall_s"], n["groups"]))
        print("  host time: %s = %.6g 1/s (median over %d groups); "
              "%s_p50 = %.6g ms, %s_p90 = %.6g ms, %s_p95 = %.6g ms "
              "(n = %d %s)" % (rate, values["units_per_s"], n["groups"],
                               batch, values["batch_ms_p50"], batch,
                               values["batch_ms_p90"], batch,
                               values["batch_ms_p95"], n["batches"], batches))
        print("  reference time (reference kernel median %.6g ms against "
              "%.6g ms): %s = %.6g 1/ref_s; %s_p50 = %.6g ref_ms, "
              "%s_p90 = %.6g ref_ms" % (
                  values["reference_ms_p50"], n["reference_ms"], rate,
                  values["units_per_ref_s"], batch,
                  values["batch_ref_ms_p50"], batch,
                  values["batch_ref_ms_p90"]))
        print("  failed_share = %.6g (%d of %d attempted)" % (
            values["failed_share"], n["sim_failed"], n["sim_attempted"]))
        print("  setup_s = %.6g s (median of %d process starts)" % (
            values["setup_s"], len(setups)))
    print("  fingerprint (default seed %d) = %s, held-out seed %d = %s" % (
        fingerprints["default_seed"], result["default_fingerprint"],
        fingerprints["held_out_seed"], result["held_out_fingerprint"]))
    for name, m in metrics.items():
        print("  %-36s %.6g %s" % (name, m["value"], m["unit"]))
    for p in problems:
        print("CHECK FAILED: " + p)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
