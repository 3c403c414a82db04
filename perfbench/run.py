#!/usr/bin/env python3
"""Repository benchmark: builds bullion_perfbench from the sources in this
checkout and runs one workload.

    python3 perfbench/run.py --workload train_scan --seed 1 --seconds 10 --trace 0

Workloads: train_scan, serve_lookup, ingest_delete (see perfbench/README.md
and perfbench/workloads.json). The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

Everything the run writes stays inside the checkout: the build in
$CARGO_TARGET_DIR (default .bench_build), the dataset files in
.bench_scratch/ (a private tmpfs when the process may mount one, removed
at exit) and traces in .bench_out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train_scan", "serve_lookup", "ingest_delete")
# Each of these changes the program under test.
GUARDED_ENV = ("BULLION_AIO", "BULLION_SIMD", "BULLION_TRACE", "BULLION_ODIRECT")
BINARY = "bullion_perfbench"
BUILD_TIMEOUT_S = 840
# A run sets up (3 times, or twice when traced), warms up and checks in
# well under this; a traced run also times two phases of --seconds each.
RUN_FIXED_S = 120
RUN_TIMEOUT_PER_SECOND = 2.5


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def inside_root(path):
    path = os.path.abspath(os.path.join(ROOT, path))
    if os.path.commonpath([path, ROOT]) != ROOT:
        fail("%s is outside the checkout" % path)
    return path


def build():
    """Configures once, then (re)builds the benchmark binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources (CMakeLists.txt, src/) next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = inside_root(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", BINARY, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, BINARY)


def expected_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json says this mode prints."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError):
        fail("cannot read the metric list from BENCHMARK.json")


def check_result(line, expected):
    """Returns None if `line` is a result carrying exactly the expected
    metrics, else what is wrong with it."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if not (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}):
        return "the last line is not a result object"
    metrics = result["metrics"]
    if not (isinstance(metrics, dict) and all(isinstance(m, dict) for m in metrics.values())):
        return "its metrics are not name -> {value, unit} objects"
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != expected:
        return "its metrics or units differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(expected.items()))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    for var in GUARDED_ENV:
        if var in os.environ:
            fail("refusing to run: %s is set and changes the program under test" % var)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    expected = expected_metrics(args.trace == "1")
    binary = build()
    scratch = inside_root(os.path.join(".bench_scratch",
                                       "%s-%d" % (args.workload, os.getpid())))
    os.makedirs(scratch)
    try:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--scratch", scratch, "--out", inside_root(".bench_out")]
        timeout = RUN_FIXED_S + RUN_TIMEOUT_PER_SECOND * args.seconds
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  universal_newlines=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            fail("run exceeded %.0f s" % timeout)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still owns a sibling directory
    lines = done.stdout.splitlines()
    problem = check_result(lines[-1], expected) if lines else "it printed nothing"
    if problem is not None:
        # Show what there was, but never end stdout with a result line.
        sys.stderr.write(done.stdout)
        fail("workload %s printed no valid result (exit %d): %s"
             % (args.workload, done.returncode, problem))
    # A run whose outputs were wrong still reports them ("correct": false)
    # and exits non-zero.
    sys.stdout.write(done.stdout)
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
