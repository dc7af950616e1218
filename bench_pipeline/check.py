#!/usr/bin/env python3
"""ctest checks of bench_pipeline (registered by CMakeLists.txt).

    check.py smoke BINARY BENCHMARK_JSON  every workload passes its --smoke
                                          run and prints every end-to-end
                                          metric of BENCHMARK.json with its
                                          unit
    check.py determinism BINARY           equal seeds give equal digests,
                                          another seed changes every digest
    check.py trace BINARY BENCHMARK_JSON  traced smoke runs print every
                                          per-layer metric with its unit,
                                          pass the span coverage gate and
                                          write valid JSONL
    check.py flags BINARY                 malformed flags exit 2 naming the
                                          flag (also for run.py)
"""
import json
import os
import re
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["design-casestudy", "design-corpus", "field-steady", "field-reload"]


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(cmd):
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print(f"$ {' '.join(cmd)}  ({time.monotonic() - start:.1f} s, "
          f"exit {proc.returncode})")
    return proc


def results(proc):
    """The JSON result line of every workload a run printed."""
    if proc.returncode != 0:
        print(proc.stdout, proc.stderr)
        fail(f"exit status {proc.returncode}")
    out = [json.loads(line) for line in proc.stdout.splitlines()
           if line.startswith('{"correct"')]
    if len(out) != len(WORKLOADS):
        fail(f"expected {len(WORKLOADS)} results, got {len(out)}")
    return out


def expect_metrics(result, metrics):
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"incorrect run: {result}")
    extra = set(result["metrics"]) - {m["name"] for m in metrics}
    if extra:
        fail(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    for m in metrics:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} not printed")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']} != {m['unit']}")


def load_benchmark(path):
    with open(path) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if names != WORKLOADS:
        fail(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
    return bench


def smoke(binary, bench):
    for r in results(run([binary, "--smoke"])):
        expect_metrics(r, bench["end_to_end"])
        for m in bench["end_to_end"]:
            if r["metrics"][m["name"]]["value"] <= 0:
                fail(f"end-to-end metric {m['name']} is not positive")


def digests(binary, seed):
    proc = run([binary, "--smoke", "--seed", str(seed)])
    results(proc)
    found = re.findall(r"^digest (0x[0-9a-f]{16})$", proc.stdout, re.M)
    if len(found) != len(WORKLOADS):
        fail(f"expected {len(WORKLOADS)} digests, got {found}")
    return found


def determinism(binary):
    first, again, other = digests(binary, 1), digests(binary, 1), digests(binary, 2)
    for w, a, b, c in zip(WORKLOADS, first, again, other):
        print(f"{w}: seed 1 {a} / {b}, seed 2 {c}")
        if a != b:
            fail(f"{w}: same seed, different digests")
        if a == c:
            fail(f"{w}: another seed left the digest unchanged")


def trace(binary, bench):
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "trace")
        for r in results(run([binary, "--smoke", "--trace", base])):
            expect_metrics(r, bench["per_layer"])
            cov = r["metrics"]["trace.coverage_min"]["value"]
            if cov < 0.95:
                fail(f"span coverage {cov} below the 0.95 gate")
        for w in WORKLOADS:
            path = f"{base}.{w}"
            ids = set()
            with open(path) as f:
                spans = [json.loads(line) for line in f]
            if not spans:
                fail(f"{path}: no spans")
            for s in spans:
                if set(s) != {"name", "layer", "start_ns", "end_ns", "id",
                              "parent", "flow"}:
                    fail(f"{path}: bad span {s}")
                if s["end_ns"] < s["start_ns"] or (s["parent"] and s["parent"] not in ids):
                    fail(f"{path}: span out of order {s}")
                ids.add(s["id"])
            print(f"{w}: {len(spans)} spans")


def flags(binary):
    bad = [
        (["--seed", "abc"], "--seed"),
        (["--seed", "-1"], "--seed"),
        (["--seed", ""], "--seed"),
        (["--seed", "99999999999999999999999"], "--seed"),
        (["--seconds", "0"], "--seconds"),
        (["--seed", "1", "--seed", "2"], "--seed"),
        (["--bogus"], "--bogus"),
        (["--workload", "nope"], "--workload"),
        (["--trace"], "--trace"),
    ]
    run_py = [sys.executable, os.path.join(HERE, "run.py"),
              "--workload", "field-steady", "--seconds", "1"]
    for args, name in bad:
        for cmd in ([binary] + args, run_py + args):
            proc = run(cmd)
            if proc.returncode == 0 or name not in proc.stderr:
                fail(f"{cmd}: expected a failure naming {name}, got "
                     f"{proc.returncode}: {proc.stderr.strip()}")


def main():
    mode, binary = sys.argv[1], sys.argv[2]
    if mode == "smoke":
        smoke(binary, load_benchmark(sys.argv[3]))
    elif mode == "determinism":
        determinism(binary)
    elif mode == "trace":
        trace(binary, load_benchmark(sys.argv[3]))
    elif mode == "flags":
        flags(binary)
    else:
        fail(f"unknown mode {mode}")
    print("OK")


if __name__ == "__main__":
    main()
