#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result line.

    python3 perfbench/run.py --workload serve_light --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the driver and the library from
source into .bench_build/ (only when the sources changed since the last
build), runs the workload in one process, and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. The full result, stamped with the run's
fingerprint, is kept in .bench_build/results/; compare two of them with
perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
BINARY = os.path.join(BUILD, "gp_perfbench")
# Whole-run limit, build excluded; the contract allows 180 s per run.
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def tree_hash():
    """SHA-256 over the sources the driver's build reads, in path order."""
    h = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for dirpath, dirnames, filenames in os.walk("src"):
        dirnames.sort()
        paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    paths += [os.path.join("perfbench", f)
              for f in sorted(os.listdir("perfbench"))
              if f.endswith((".cc", ".h")) or f == "CMakeLists.txt"]
    for path in paths:
        if not os.path.isfile(path):
            continue
        h.update(path.encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def source_id(tree):
    """The git commit when the checkout has one, else the tree hash."""
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
            dirty = subprocess.run(["git", "status", "--porcelain", "--",
                                    "src", "perfbench", "CMakeLists.txt"],
                                   capture_output=True, text=True,
                                   timeout=10).stdout.strip()
            return "git:" + sha + ("-dirty:" + tree[:16] if dirty else "")
        except (OSError, subprocess.SubprocessError):
            pass
    return "tree:" + tree[:16]


def build(tree):
    """Configures and builds the driver unless the tree hash is unchanged."""
    stamp = os.path.join(BUILD, "built.stamp")
    if os.path.isfile(BINARY) and os.path.isfile(stamp):
        with open(stamp) as f:
            if f.read().strip() == tree:
                return True
    steps = [["cmake", "-S", "perfbench", "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "gp_perfbench",
              "-j", "4"]]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    with open(stamp, "w") as f:
        f.write(tree + "\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join("perfbench", "config.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        log("unknown workload " + args.workload)
        return 2

    tree = tree_hash()
    if not build(tree):
        return 1

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out = os.path.join(results, stem + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--config=perfbench/config.json",
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
           "--out=" + out, "--source=" + source_id(tree)]
    if args.trace:
        cmd.append("--trace-out=" + os.path.join(results, stem + ".trace.json"))
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the driver and waits for it before raising.
        sys.stdout.write(e.stdout or "")
        log("workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not os.path.isfile(out):
        log("driver exited with code %d" % proc.returncode)
        return 1
    with open(out) as f:
        result = json.load(f)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in bench[section]:
        measured = result[section].get(spec["name"])
        if measured is None or measured["unit"] != spec["unit"]:
            log("driver did not report %s in %s" % (spec["name"], spec["unit"]))
            return 1
        metrics[spec["name"]] = {"value": measured["value"],
                                 "unit": spec["unit"]}
    print("fingerprint: " + json.dumps(result["fingerprint"]["source"]) +
          " " + json.dumps({k: v for k, v in result["fingerprint"].items()
                            if k not in ("config", "source")}))
    print("run took %.1f s; result file %s" % (time.monotonic() - start, out))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
