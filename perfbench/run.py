#!/usr/bin/env python3
"""Repository benchmark: build the load generator, run one workload, print
one JSON result line.

    python3 perfbench/run.py --workload ckpt_restore --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first run builds the LWFS libraries and perfbench/lwfsbench.cpp from
source into .bench_build/perfbench (a few minutes); later runs only check
that the build is current.  Build output goes to stderr, so the last line of
stdout is always the result.  With --trace 1 the spans of the traced half
are written to .bench_build/spans/<workload>.tsv (the last traced run of
each workload is kept).

The result is checked against BENCHMARK.json before it is printed: it must
name exactly the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1), with their units.  A run that cannot build, crashes, times out
or prints a malformed result exits non-zero and prints no result line.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPAN_DIR = os.path.join(ROOT, ".bench_build", "spans")
RUN_TIMEOUT_S = 170
WORKLOADS = ("ckpt_restore", "create_storm", "virtual_petascale")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout need not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit, or "none" when the checkout is not a git
    work tree of its own."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no LWFS sources at src/; run from a checkout of the repository")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(key + " is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing was attempted")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s, or a unit differs" % (missing, extra))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.selftest:
        test = build("perfbench_test")
        sys.exit(subprocess.run([test]).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    binary = build("lwfsbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source", "%s,commit=%s" % (source_digest(), commit())]
    if args.trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        cmd += ["--span-file", os.path.join(
            SPAN_DIR, args.workload + ".tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("lwfsbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        fail("lwfsbench exited with code %d" % proc.returncode)
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        fail("malformed result: %s" % e)
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
