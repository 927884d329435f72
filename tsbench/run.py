#!/usr/bin/env python3
"""Builds and runs the tile-sparse serving benchmark.

    python3 tsbench/run.py --workload encoder-tw --seed 1 --seconds 30 --trace 0

builds the library and the benchmark from source (CMake, Release) into
$CARGO_TARGET_DIR/tsbench (default .bench_build/tsbench), runs the
statistics self-test, then runs one workload.  The last line of
standard output is the result JSON.

--workload all runs every workload in turn, prints each end-to-end
metric with its unit and sample count, and the paper's speedup: the
ratio of encoder-tw to encoder-dense throughput_rps.  The exit code is
nonzero if any run fails or any output mismatches its reference.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["encoder-tw", "encoder-dense", "decode-int8"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(root, base)
    return os.path.join(base, "tsbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, out):
    """Configures and builds; returns False (after logging) on failure."""
    src = os.path.join(root, "tsbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                 text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"tsbench: {' '.join(cmd)}: {err}")
            return False
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log(f"tsbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def source_id(root):
    """sha256 over the library sources (the checkout may not be a git repo)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    try:
        sha = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git = sha.stdout.strip() if sha.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        git = ""
    return f"git:{git or 'none'},src-sha256:{digest.hexdigest()[:16]}"


def run_one(out, workload, seed, seconds, trace, sid):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [os.path.join(out, "tsbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", out,
           "--trace-out", os.path.join(out, f"trace-{workload}.json"),
           "--source-id", sid]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"tsbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = res.stdout.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    print("\n".join(lines), flush=True)
    return res.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = repo_root()
    out = build_dir(root)
    if not build(root, out):
        return 2
    test = subprocess.run([os.path.join(out, "tsbench_stats_test")],
                          stdout=subprocess.PIPE, text=True, timeout=60)
    if test.returncode != 0:
        log(test.stdout)
        log("tsbench: statistics self-test failed")
        return 2
    sid = source_id(root)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    worst = 0
    for workload in workloads:
        code, result = run_one(out, workload, args.seed, args.seconds, args.trace, sid)
        if result is None:
            log(f"tsbench: {workload} produced no result (exit {code})")
            return code or 1
        results[workload] = result
        worst = worst or code

    if args.workload != "all":
        print(json.dumps(results[args.workload]), flush=True)
        return worst

    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()),
              "metrics": {}}
    print("\nsummary (sample counts are printed beside each metric above):")
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
            print(f"  {workload:14s} {name:28s} {metric['value']:16.6f} {metric['unit']}")
    if args.trace == 0:
        tw = results["encoder-tw"]["metrics"]["throughput_rps"]["value"]
        dense = results["encoder-dense"]["metrics"]["throughput_rps"]["value"]
        speedup = tw / dense if dense > 0 else 0.0
        print(f"  speedup encoder-tw / encoder-dense throughput_rps: {speedup:.4f}x "
              f"({tw:.3f} / {dense:.3f} req/s)")
        merged["metrics"]["speedup_tw_over_dense"] = {"value": speedup, "unit": "x"}
    print(json.dumps(merged), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
