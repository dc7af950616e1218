#!/usr/bin/env python3
"""Builds bench_pipeline from the checkout's sources and runs one workload.

Run from the root of the repository:

    python3 bench_pipeline/run.py --workload NAME --seed N --seconds T --trace 0|1

The first run configures and builds into .bench_build/ (Release); later runs
only check that the build is current. The last line of standard output is
the benchmark's JSON result: the end-to-end metrics, or with --trace 1 the
per-layer metrics (the span trace is written under .bench_build/).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("design-casestudy", "design-corpus", "field-steady", "field-reload")


def unsigned(flag, text, lo, hi):
    if not text.isdigit() or not text.isascii():
        sys.exit(f"run.py: {flag}: '{text}' is not an unsigned decimal integer")
    value = int(text)
    if not lo <= value <= hi:
        sys.exit(f"run.py: {flag}: {value} is outside [{lo}, {hi}]")
    return value


def parse(argv):
    args = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            sys.exit(f"run.py: {flag}: unknown flag")
        if flag in args:
            sys.exit(f"run.py: {flag}: given more than once")
        if i + 1 >= len(argv):
            sys.exit(f"run.py: {flag}: missing value")
        args[flag] = argv[i + 1]
        i += 2
    missing = [f for f in ("--workload", "--seed", "--seconds") if f not in args]
    if missing:
        sys.exit(f"run.py: missing {' '.join(missing)}")
    if args["--workload"] not in WORKLOADS:
        sys.exit(f"run.py: --workload: unknown workload '{args['--workload']}'")
    return (
        args["--workload"],
        unsigned("--seed", args["--seed"], 0, 2**32 - 1),
        unsigned("--seconds", args["--seconds"], 1, 3600),
        unsigned("--trace", args.get("--trace", "0"), 0, 1),
    )


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "bench_pipeline", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "bench_pipeline")


def main():
    workload, seed, seconds, trace = parse(sys.argv[1:])
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", os.path.join(BUILD, f"trace-{workload}-{seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
